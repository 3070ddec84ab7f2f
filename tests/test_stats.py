import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import popsim
from oracles import block_lower_bound, ks_critical_value, ks_statistic
from popsim.rng import Splitmix64, derive_seed
from popsim.stats import (
    PERCENTILE_LEVELS,
    GeometricSumSpec,
    ceil_rational_power,
    coupon_spec,
    epidemic_spec,
    expected_coupon_sum,
    p_epidemic,
    p_leave,
    simulate_geometric_sum,
    summarize,
    variance_coupon_sum,
)


def leave_oracle(i: int, n: int) -> float:
    """Count ordered pairs touching one of the first i agents, by enumeration."""
    hits = sum(
        1 for u in range(n) for v in range(n) if u != v and (u < i or v < i)
    )
    return hits / (n * (n - 1))


def epidemic_oracle(k: int, n: int) -> float:
    """Count ordered pairs crossing between the first k agents and the rest."""
    hits = sum(
        1 for u in range(n) for v in range(n) if u != v and (u < k) != (v < k)
    )
    return hits / (n * (n - 1))


# ------------------------------------------------------------------ step formulas


def test_p_leave_boundaries():
    assert p_leave(0, 7) == 0.0
    assert p_leave(7, 7) == 1.0
    assert p_leave(6, 7) == 1.0
    assert p_leave(2, 5) == 0.7


def test_p_leave_matches_enumeration_exactly():
    for n in range(2, 13):
        for i in range(0, n + 1):
            assert p_leave(i, n) == leave_oracle(i, n)
            # true division rounds correctly, like the exact rational converted
            assert p_leave(i, n) == float(Fraction(i * (2 * n - i - 1), n * (n - 1)))


def test_p_leave_monotone_in_count():
    for n in range(2, 40):
        for i in range(1, n):
            assert p_leave(i, n) < p_leave(i + 1, n) or p_leave(i + 1, n) == 1.0
        # strict below the top plateau
        for i in range(0, n - 1):
            assert p_leave(i, n) < p_leave(i + 1, n)


def test_p_leave_range_checks():
    with pytest.raises(ValueError):
        p_leave(-1, 5)
    with pytest.raises(ValueError):
        p_leave(6, 5)
    with pytest.raises(ValueError):
        p_leave(1, 1)


def test_p_epidemic_boundaries():
    assert p_epidemic(4, 4) == 0.0
    assert p_epidemic(1, 4) == 0.5
    with pytest.raises(ValueError):
        p_epidemic(0, 4)
    with pytest.raises(ValueError):
        p_epidemic(5, 4)


def test_p_epidemic_symmetric():
    for n in range(2, 20):
        for k in range(1, n):
            assert p_epidemic(k, n) == p_epidemic(n - k, n)
    assert p_epidemic(3, 10) == p_epidemic(7, 10)


def test_p_epidemic_matches_enumeration_exactly():
    for n in range(2, 13):
        for k in range(1, n + 1):
            assert p_epidemic(k, n) == epidemic_oracle(k, n)


def test_p_epidemic_monotone_up_to_half():
    for n in range(4, 64):
        for k in range(1, n // 2):
            assert p_epidemic(k, n) <= p_epidemic(k + 1, n)


# ------------------------------------------------------------------ geometric sums


def test_spec_validates_probabilities():
    with pytest.raises(ValueError):
        GeometricSumSpec((0.5, 0.0))
    with pytest.raises(ValueError):
        GeometricSumSpec((1.5,))
    assert len(GeometricSumSpec((1.0, 0.25)).probabilities) == 2


def test_coupon_spec_indices():
    spec = coupon_spec(9, 4)
    expected = [p_leave(i, 9) for i in (4, 6, 8)]
    assert list(spec.probabilities) == expected


def test_coupon_spec_top_index_parity():
    # even n: top index is n; odd n: top index is n-1; both have probability 1
    assert coupon_spec(10, 4).probabilities[-1] == 1.0
    assert len(coupon_spec(10, 4).probabilities) == 4  # 4, 6, 8, 10
    assert coupon_spec(9, 4).probabilities[-1] == p_leave(8, 9)
    assert len(coupon_spec(9, 4).probabilities) == 3  # 4, 6, 8


def test_coupon_spec_boundary_threshold():
    assert len(coupon_spec(8, 8).probabilities) == 1  # single certain term
    assert coupon_spec(8, 8).probabilities == (1.0,)
    assert len(coupon_spec(9, 9).probabilities) == 0  # f* = 10 > n: empty
    assert expected_coupon_sum(coupon_spec(9, 9)) <= 1


def test_coupon_spec_accepts_fractional_threshold():
    # ceil(101.59/2)*2 = 102, so it matches the integer-threshold spec
    assert coupon_spec(1024, 1024 ** (2 / 3)).probabilities == coupon_spec(1024, 102).probabilities


def test_expected_and_variance_closed_forms():
    spec = GeometricSumSpec((1.0, 1.0, 1.0))
    assert expected_coupon_sum(spec) == 3.0
    assert variance_coupon_sum(spec) == 0.0
    single = GeometricSumSpec((0.5,))
    assert expected_coupon_sum(single) == 2.0
    assert variance_coupon_sum(single) == 2.0


def test_expectation_dominates_half_harmonic_bound():
    # sum of 1/p_i is at least sum of n/(2i) term by term
    n = 1000
    f = 100
    spec = coupon_spec(n, f)
    indices = list(range(2 * math.ceil(f / 2), n + 1, 2))
    lower = sum(n / (2 * i) for i in indices)
    assert expected_coupon_sum(spec) >= lower
    for p, i in zip(spec.probabilities, indices):
        assert 1 / p >= n / (2 * i)


def test_variance_bound_two_n_squared():
    for n in (16, 100, 1000, 4096):
        for f in (1, ceil_rational_power(n, 2, 3), n):
            assert variance_coupon_sum(coupon_spec(n, f)) < 2 * n * n


def test_epidemic_spec_first_passage_probabilities():
    spec = epidemic_spec(8, 4)
    assert list(spec.probabilities) == [p_epidemic(k, 8) for k in (1, 2, 3)]
    with pytest.raises(ValueError):
        epidemic_spec(8, 1)
    with pytest.raises(ValueError):
        epidemic_spec(8, 9)


def test_simulate_certain_spec_is_length():
    spec = GeometricSumSpec((1.0,) * 7)
    rng = Splitmix64(0)
    assert simulate_geometric_sum(rng, spec) == 7
    assert simulate_geometric_sum(rng, GeometricSumSpec(())) == 0


def test_simulate_deterministic_per_seed():
    spec = coupon_spec(64, 16)
    a = [simulate_geometric_sum(Splitmix64(s), spec) for s in range(50)]
    b = [simulate_geometric_sum(Splitmix64(s), spec) for s in range(50)]
    assert a == b


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**64 - 1), st.lists(st.floats(0.01, 1.0), max_size=10))
def test_simulated_sum_at_least_spec_length(seed, probs):
    spec = GeometricSumSpec(tuple(probs))
    assert simulate_geometric_sum(Splitmix64(seed), spec) >= len(spec.probabilities)


def test_simulated_mean_matches_expectation():
    spec = GeometricSumSpec((0.5, 0.25))
    draws = 100_000
    rng = Splitmix64(21)
    total = sum(simulate_geometric_sum(rng, spec) for _ in range(draws))
    mean = total / draws
    se = math.sqrt(variance_coupon_sum(spec) / draws)
    assert abs(mean - expected_coupon_sum(spec)) < 3 * se


def test_coupon_sum_lower_tail_is_thin():
    # 10^3 simulated sums at n=4096 with the two-thirds threshold: fewer than
    # 5% land below half the analytic mean (the Chebyshev bound is far looser)
    n = 4096
    spec = coupon_spec(n, ceil_rational_power(n, 2, 3))
    mean = expected_coupon_sum(spec)
    draws = [simulate_geometric_sum(Splitmix64(derive_seed(90, t)), spec) for t in range(1000)]
    below_half = sum(1 for x in draws if x < mean / 2)
    assert below_half / 1000 < 0.05


# -------------------------------------------------------------------- thresholds


def test_ceil_rational_power_exact_for_perfect_cubes():
    for k in (1, 2, 3, 10, 16, 100):
        assert ceil_rational_power(k**3, 2, 3) == k**2


def test_ceil_rational_power_known_values():
    assert ceil_rational_power(4, 2, 3) == 3
    assert ceil_rational_power(49, 2, 3) == 14
    assert ceil_rational_power(256, 2, 3) == 41
    assert ceil_rational_power(1024, 2, 3) == 102
    assert ceil_rational_power(16384, 2, 3) == 646
    assert ceil_rational_power(16, 1, 2) == 4
    assert ceil_rational_power(17, 1, 2) == 5
    assert ceil_rational_power(5, 0, 3) == 1


def test_ceil_rational_power_definition():
    for n in (1, 2, 7, 100, 12345):
        m = ceil_rational_power(n, 2, 3)
        assert m**3 >= n**2
        assert m == 1 or (m - 1) ** 3 < n**2


def _block_params(n):
    # r = isqrt(n) indices per block, kappa = ceil(n^(2/3)) // r whole blocks
    threshold = ceil_rational_power(n, 2, 3)
    r = math.isqrt(n)
    return r, threshold // r, threshold


def _block_sum(n, r, kappa):
    # floor((r/2) * n(n-1) / (2k(n-k))) at each whole block's top index k < n
    tops = ((i + 1) * r for i in range(kappa))
    return sum((r * n * (n - 1)) // (4 * k * (n - k)) for k in tops if k < n)


def test_block_params_examples():
    assert _block_params(4) == (2, 1, 3)
    assert block_lower_bound(4) == _block_sum(4, 2, 1)
    assert _block_params(10**6) == (1000, 10, 10**4)
    assert block_lower_bound(10**6) == _block_sum(10**6, 1000, 10)


def test_block_params_direct_construction():
    assert _block_params(49) == (7, 2, 14)
    assert block_lower_bound(49) == _block_sum(49, 7, 2) == 22


def test_block_lower_bound_pinned_values():
    expected = {2: 0, 4: 1, 9: 3, 49: 22, 100: 42, 256: 104, 1024: 494, 4096: 2199,
                31337: 18110, 10**6: 734752}
    assert {n: block_lower_bound(n) for n in expected} == expected
    with pytest.raises(ValueError):
        block_lower_bound(0)


def test_block_cover_never_exceeds_threshold():
    # Each whole block counts r/2 geometric means at its top index, the
    # cheapest index of the block below n/2, and no block reaches past
    # ceil(n^(2/3)); so the bound is at most half the expected first passage
    # to that threshold.
    for n in (2, 9, 100, 4096, 31337):
        threshold = ceil_rational_power(n, 2, 3)
        passage = expected_coupon_sum(epidemic_spec(n, min(threshold + 1, n)))
        assert 2 * block_lower_bound(n) <= passage


def test_block_lower_bound_below_full_expectation():
    # the block bound skips the partial tail block and floors each term, so it
    # sits well below the full first-passage expectation but stays on the
    # n*ln(n) scale (observed ratios 0.060..0.073 at these sizes)
    for n in (256, 1024, 4096):
        bound = block_lower_bound(n)
        full = expected_coupon_sum(epidemic_spec(n, ceil_rational_power(n, 2, 3) + 1))
        assert 0 < bound < full
        assert bound > 0.05 * n * math.log(n)


# ---------------------------------------------------------------------- summaries


def test_summarize_single_sample():
    est = summarize([5.0])
    assert est.mean == 5.0
    assert est.variance == 0.0
    assert est.std_error == 0.0
    assert est.percentiles[50] == 5.0


def test_summarize_small_sample():
    est = summarize([1, 2, 3, 4])
    assert est.mean == 2.5
    assert est.variance == pytest.approx(5 / 3)
    assert est.std_error == pytest.approx(math.sqrt(5 / 3 / 4))
    assert est.count == 4


def test_summarize_constant_percentiles():
    est = summarize([7.0] * 10)
    assert set(est.percentiles.values()) == {7.0}
    assert list(est.percentiles) == [1, 5, 25, 50, 75, 95, 99]


def test_summarize_percentiles_monotone():
    rng = Splitmix64(77)
    samples = [rng.random() for _ in range(500)]
    est = summarize(samples)
    values = list(est.percentiles.values())
    assert values == sorted(values)


def test_summarize_rejects_empty():
    with pytest.raises(ValueError):
        summarize([])


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8),
    st.lists(st.integers(0, 7), min_size=1, max_size=60),
)
@example(pool=[-1.0, 0.0, -0.0], picks=[1, 2, 2, 0])  # tied 0.0 and -0.0 keep numpy's order
def test_summarize_percentiles_are_numpys_bits(pool, picks):
    # a few distinct values drawn with repetition, so ties are common
    samples = [pool[i % len(pool)] for i in picks]
    got = summarize(samples).percentiles
    want = np.percentile(np.asarray(samples, dtype=float), PERCENTILE_LEVELS)
    assert [got[lvl].hex() for lvl in PERCENTILE_LEVELS] == [float(w).hex() for w in want]


def test_summarize_leaves_numpy_ma_unloaded():
    # a fresh interpreter: numpy.ma may have been loaded here by another test
    code = (
        "import sys; from popsim.stats import summarize; summarize([3.0, 1.0, 2.0]); "
        "assert 'numpy' in sys.modules and 'numpy.ma' not in sys.modules"
    )
    src = Path(popsim.__file__).resolve().parent.parent
    result = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr


# ------------------------------------------------------------------------- KS


def test_ks_identical_samples():
    assert ks_statistic([1, 2, 3], [1, 2, 3]) == 0.0


def test_ks_disjoint_samples():
    assert ks_statistic([0, 1], [5, 6]) == 1.0


def test_ks_shifted_halves():
    assert ks_statistic([0, 0, 1, 1], [1, 1, 2, 2]) == pytest.approx(0.5)


def test_ks_critical_value_formula():
    assert ks_critical_value(0.001, 10_000, 10_000) == pytest.approx(0.027570, abs=1e-5)
    with pytest.raises(ValueError):
        ks_critical_value(0.0, 10, 10)
    with pytest.raises(ValueError):
        ks_critical_value(0.1, 0, 10)


def test_exact_fraction_epidemic():
    assert p_epidemic(1, 4) == Fraction(1, 2)
    assert p_epidemic(4, 4) == 0
