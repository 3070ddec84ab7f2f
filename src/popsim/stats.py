"""Analytic step-probability formulas, geometric-sum oracles, and summaries.

Two one-step probabilities drive every experiment here, both for a uniformly
random ordered pair among n agents:

* ``p_leave(i, n)``: with i agents still in the initial state, the chance the
  next interaction touches at least one of them, i(2n-i-1)/(n(n-1));
* ``p_epidemic(k, n)``: with k agents informed, the chance the next
  interaction pairs an informed with an uninformed agent, 2k(n-k)/(n(n-1)).

Hitting times built from these are sums of independent geometric variables;
the helpers below construct the probability lists, evaluate their exact means
and variances, and sample them, so simulations can be checked against
closed forms and vice versa.

Thresholds of the shape n**(2/3) are always rounded up, with exact integer
arithmetic so perfect powers do not fall victim to floating point.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence, Union

from .rng import Splitmix64

PERCENTILE_LEVELS = (1, 5, 25, 50, 75, 95, 99)


def p_leave(i: int, n: int) -> float:
    """Probability that a step removes at least one of ``i`` remaining
    initial-state agents: i(2n-i-1)/(n(n-1))."""
    if n < 2:
        raise ValueError("population size must be >= 2")
    if not 0 <= i <= n:
        raise ValueError(f"initial-state count {i} out of range [0, {n}]")
    return i * (2 * n - i - 1) / (n * (n - 1))


def p_epidemic(k: int, n: int) -> float:
    """Probability that a step grows an informed set of size ``k``:
    2k(n-k)/(n(n-1))."""
    if n < 2:
        raise ValueError("population size must be >= 2")
    if not 1 <= k <= n:
        raise ValueError(f"informed count {k} out of range [1, {n}]")
    return 2 * k * (n - k) / (n * (n - 1))


class GeometricSumSpec:
    """An ordered list of success probabilities, one geometric variable each,
    checked to lie in (0, 1]; compare and count specs by ``probabilities``."""

    __slots__ = ("probabilities",)

    def __init__(self, probabilities: tuple[float, ...]):
        for p in probabilities:
            if not 0 < p <= 1:
                raise ValueError(f"success probability {p} outside (0, 1]")
        self.probabilities = probabilities


def f_star(f: Union[int, float]) -> int:
    """f* = 2*ceil(f/2), the even index where :func:`coupon_spec` starts."""
    return 2 * math.ceil(f / 2)


def coupon_spec(n: int, f: Union[int, float]) -> GeometricSumSpec:
    """Lower-bound spec for draining the initial state down below ``f`` agents.

    Pairs up the descent: indices run from :func:`f_star` in steps of two up
    to the largest index of matching parity (n or n-1; both have success
    probability 1).  Summing one geometric per index stochastically
    lower-bounds the real process, which may remove two agents per step.
    When f* exceeds n the list is empty.
    """
    if n < 2:
        raise ValueError("population size must be >= 2")
    if not 1 <= f <= n:
        raise ValueError(f"threshold {f} out of range [1, {n}]")
    return GeometricSumSpec(tuple(p_leave(i, n) for i in range(f_star(f), n + 1, 2)))


def epidemic_spec(n: int, target_size: int) -> GeometricSumSpec:
    """Spec whose sum is the first-passage time of the informed-set chain
    from size 1 to ``target_size``."""
    if not 2 <= target_size <= n:
        raise ValueError(f"target size {target_size} out of range [2, {n}]")
    return GeometricSumSpec(tuple(p_epidemic(k, n) for k in range(1, target_size)))


def expected_coupon_sum(spec: GeometricSumSpec) -> float:
    """Exact mean of the geometric sum: sum of 1/p."""
    return sum(1.0 / p for p in spec.probabilities)


def variance_coupon_sum(spec: GeometricSumSpec) -> float:
    """Exact variance of the geometric sum: sum of (1-p)/p**2."""
    return sum((1.0 - p) / (p * p) for p in spec.probabilities)


def simulate_geometric_sum(rng: Splitmix64, spec: GeometricSumSpec) -> int:
    """Draw each geometric variable independently and return the sum.

    Inverse transform: X = ceil(ln U / ln(1-p)) with U uniform on (0, 1),
    which has support {1, 2, ...}; p = 1 contributes exactly 1.  Deterministic
    for a given generator state.
    """
    total = 0
    for p in spec.probabilities:
        if p >= 1.0:
            total += 1
        else:
            total += math.ceil(math.log(rng.random()) / math.log1p(-p))
    return total


def ceil_rational_power(n: int, num: int, den: int) -> int:
    """Smallest integer m with m**den >= n**num, i.e. ceil(n**(num/den)).

    Pure integer arithmetic, so perfect powers (say n a perfect cube for
    num/den = 2/3) come out exact.  Thresholds feed float arithmetic, so
    n**num must be below 2**1024, the float range; that also bounds the
    work, since the root is built one bit at a time from its top bit with
    powers of at most about 2048 bits.
    """
    if n < 1 or num < 0 or den < 1:
        raise ValueError("need n >= 1, num >= 0, den >= 1")
    if num * (n.bit_length() - 1) >= 1024 or (target := n**num).bit_length() > 1024:
        raise ValueError(f"{n}^{num} is not below 2^1024, the float range of thresholds")
    root = 0  # the largest integer whose den-th power is at most target
    for bit in reversed(range(target.bit_length() // den + 1)):
        if (root | 1 << bit) ** den <= target:
            root |= 1 << bit
    return root if root**den == target else root + 1


class EstimateRecord(NamedTuple):
    """Summary statistics of one Monte Carlo sample."""

    count: int
    mean: float
    variance: float
    std_error: float
    percentiles: dict[int, float]


def summarize(samples: Sequence[float]) -> EstimateRecord:
    """Mean, unbiased variance, standard error, and fixed percentiles.

    The variance of a single sample is defined as 0.
    """
    if len(samples) == 0:
        raise ValueError("cannot summarize an empty sample")
    # numpy's pairwise-summed mean fixes the summary bytes; imported here, so
    # commands that summarize nothing skip it
    import numpy as np

    arr = np.asarray(samples, dtype=float)
    count = arr.size
    mean = float(arr.mean())
    variance = float(arr.var(ddof=1)) if count > 1 else 0.0
    std_error = math.sqrt(variance / count)
    # np.percentile's linear method, with its ufuncs in its order, so finite
    # samples get its bits: np.percentile itself loads numpy.ma (through
    # np.unique), about 15 ms, only to dedupe the partition indices. The copy
    # is partitioned at the same indices as there, not sorted, since the two
    # can leave equal values such as 0.0 and -0.0 in different orders.
    virtual = (count - 1) * np.true_divide(PERCENTILE_LEVELS, 100)
    below = np.floor(virtual)
    above = below + 1
    top = virtual >= count - 1  # numpy takes the maximum on both sides
    below[top] = above[top] = -1
    gamma = virtual - below
    below, above = below.astype(np.intp), above.astype(np.intp)
    kth = np.sort(np.concatenate(([0, -1], below, above)))
    kth = kth[np.concatenate(([True], kth[1:] != kth[:-1]))]
    ordered = arr.copy()
    ordered.partition(kth)
    left, right = ordered[below], ordered[above]
    diff = right - left
    levels = np.add(left, diff * gamma)
    np.subtract(right, diff * (1 - gamma), out=levels, where=gamma >= 0.5)
    return EstimateRecord(
        count=count,
        mean=mean,
        variance=variance,
        std_error=std_error,
        percentiles={lvl: float(val) for lvl, val in zip(PERCENTILE_LEVELS, levels)},
    )

