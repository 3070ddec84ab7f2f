"""Reference oracles the tests check popsim against and no command runs: the
two-sample Kolmogorov-Smirnov statistic and its large-sample critical value,
the block-decomposition lower bound on the epidemic's first passage to
ceil(n**(2/3)), the per-word rule that forms a block's pairs one draw at a
time, and the forward influencer sets of a recorded schedule."""

import math
from array import array
from itertools import islice
from typing import Optional, Sequence

import numpy as np

from popsim.influence import InfluencerTable, InteractionLog
from popsim.stats import ceil_rational_power


def forward_sets(log: InteractionLog, t: Optional[int] = None) -> InfluencerTable:
    """The forward influencer sets after the first ``t`` entries of a log
    (all of them by default), each entry replayed through
    ``InfluencerTable.update``: the forward route that the backward and
    layered-graph routes and the crossing kernel are checked against."""
    if t is None:
        t = len(log)
    if not 0 <= t <= len(log):
        raise ValueError(f"step {t} out of range for a log of length {len(log)}")
    table = InfluencerTable(log.n)
    for e in islice(log, t):
        table.update(e)
    return table


def block_lower_bound(n: int) -> int:
    """Block-decomposition lower bound on the informed-set first passage to
    ceil(n**(2/3)).

    Blocks hold r = isqrt(n) indices each, and there are kappa =
    ceil(n**(2/3)) // r whole blocks; the final partial block (when r does
    not divide the threshold) is deliberately left out.  The bound sums, over
    whole blocks, floor((r/2) * E[steps at the block's top index]).  The top
    index of block i is k = (i+1) r; its geometric mean is n(n-1)/(2k(n-k)),
    so each term is floor(r n (n-1) / (4 k (n-k))), taken with exact integer
    arithmetic.  Indices at or beyond n (possible only at degenerate small n)
    contribute nothing.
    """
    if n < 1:
        raise ValueError("population size must be >= 1")
    r = math.isqrt(n)
    total = 0
    for i in range(ceil_rational_power(n, 2, 3) // r):
        k = (i + 1) * r
        if k >= n:
            break
        total += (r * n * (n - 1)) // (4 * k * (n - k))
    return total


def ks_statistic(a: Sequence[float], b: Sequence[float]) -> float:
    """Two-sample Kolmogorov-Smirnov statistic: sup |F_a - F_b|."""
    xa = np.sort(np.asarray(a, dtype=float))
    xb = np.sort(np.asarray(b, dtype=float))
    if xa.size == 0 or xb.size == 0:
        raise ValueError("both samples must be non-empty")
    grid = np.concatenate([xa, xb])
    cdf_a = np.searchsorted(xa, grid, side="right") / xa.size
    cdf_b = np.searchsorted(xb, grid, side="right") / xb.size
    return float(np.abs(cdf_a - cdf_b).max())


def ks_critical_value(alpha: float, n_a: int, n_b: int) -> float:
    """Large-sample two-sided KS rejection threshold at level ``alpha``:
    sqrt(ln(2/alpha)/2) * sqrt((n_a + n_b) / (n_a * n_b))."""
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    if n_a < 1 or n_b < 1:
        raise ValueError("sample sizes must be >= 1")
    c = math.sqrt(math.log(2.0 / alpha) / 2.0)
    return c * math.sqrt((n_a + n_b) / (n_a * n_b))


def pairs_by_words(r: np.ndarray, n: int, drop: int, u: int) -> tuple[array, array, int]:
    """The pairs of a block's draws ``r`` (the top bits of its words, below
    2**32) one draw at a time, as ``sample_interaction`` takes them;
    ``u`` is the initiator carried in (-1 for none) and the one carried
    out."""
    U, V = array("I"), array("I")
    add_u, add_v = U.append, V.append
    n1 = n - 1
    for w in r.tolist():
        if u < 0:
            if w < n:
                u = w
        else:
            k = w >> drop
            if k < n1:
                add_u(u)
                add_v(k if k < u else k + 1)
                u = -1
    return U, V, u
