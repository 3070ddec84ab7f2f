from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popsim.core import sample_interaction
from popsim.rng import FIRST_BLOCK, GOLDEN_GAMMA, MASK64, Splitmix64, derive_seed, mix64, pair_stream

# Published splitmix64 outputs for seed 0; any deviation means the algorithm
# drifted and every recorded trace in the wild silently changes meaning.
SEED0_FIRST_THREE = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)


def test_matches_reference_vector():
    rng = Splitmix64(0)
    assert tuple(rng.next64() for _ in range(3)) == SEED0_FIRST_THREE


def test_outputs_are_64_bit():
    rng = Splitmix64(987654321)
    for _ in range(1000):
        assert 0 <= rng.next64() <= MASK64


def test_same_seed_same_stream():
    a = Splitmix64(123456789)
    b = Splitmix64(123456789)
    assert [a.next64() for _ in range(100)] == [b.next64() for _ in range(100)]


def test_seed_is_masked_to_64_bits():
    assert Splitmix64(1 << 64).next64() == Splitmix64(0).next64()


def test_randbelow_bounds():
    rng = Splitmix64(7)
    for bound in (1, 2, 3, 5, 17, 1 << 14, (1 << 14) - 1):
        for _ in range(200):
            assert 0 <= rng.randbelow(bound) < bound


def test_randbelow_rejects_bad_bound():
    with pytest.raises(ValueError):
        Splitmix64(0).randbelow(0)


def test_randbelow_roughly_uniform():
    rng = Splitmix64(99)
    counts = [0, 0, 0]
    draws = 30_000
    for _ in range(draws):
        counts[rng.randbelow(3)] += 1
    for c in counts:
        assert abs(c - draws / 3) < 5 * (draws * (1 / 3) * (2 / 3)) ** 0.5


def test_random_open_interval():
    rng = Splitmix64(5)
    for _ in range(10_000):
        u = rng.random()
        assert 0.0 < u < 1.0


def test_mix64_is_deterministic_and_bijective_on_samples():
    values = [mix64(x) for x in range(1000)]
    assert len(set(values)) == 1000
    assert values == [mix64(x) for x in range(1000)]


def test_derive_seed_distinct_per_index():
    base = 42
    seeds = [derive_seed(base, i) for i in range(1000)]
    assert len(set(seeds)) == 1000
    # matches the documented definition
    assert seeds[0] == mix64((base + GOLDEN_GAMMA) & MASK64)


def test_derive_seed_rejects_negative_index():
    with pytest.raises(ValueError):
        derive_seed(0, -1)


# --------------------------------------------------------------- pair stream

# Sizes where both bounds share a shift (1000, 4096), where n-1 is a power of
# two so the k draw uses one bit less (3, 5, 17, 1025, 16385, 2**33 + 1),
# where bound n-1 is 1 (2), where about half the initiator draws are
# rejected (513), and above 2**31, where the last mixing step reaches the
# top bits.
STREAM_SIZES = (2, 3, 5, 17, 513, 1000, 1024, 1025, 4096, 16384, 16385, 2**33 + 1, 2**40 + 3, 2**64)


def scalar_pairs(seed, n, count):
    rng = Splitmix64(seed)
    return [tuple(sample_interaction(rng, n)) for _ in range(count)]


@pytest.mark.parametrize("n", STREAM_SIZES)
def test_pair_stream_matches_sample_interaction(n):
    count = 20_000
    # Each pair takes at least two words, so these pairs run through blocks
    # of FIRST_BLOCK * 2**i words for i = 0..4 and on: four doublings or more.
    assert 2 * count > FIRST_BLOCK * (2**5 - 1)
    assert list(islice(pair_stream(12345, n), count)) == scalar_pairs(12345, n, count)


@pytest.mark.parametrize("seed", [-1, 0, 2**64 - 1, 2**64 + 5])
def test_pair_stream_wraps_seeds_like_splitmix64(seed):
    assert list(islice(pair_stream(seed, 1000), 3000)) == scalar_pairs(seed, 1000, 3000)
    assert list(islice(pair_stream(seed, 7), 50)) == list(islice(pair_stream(seed & MASK64, 7), 50))


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=70),
    seed=st.integers(min_value=-(2**65), max_value=2**65),
    count=st.integers(min_value=0, max_value=400),
)
def test_pair_stream_property(n, seed, count):
    assert list(islice(pair_stream(seed, n), count)) == scalar_pairs(seed, n, count)


def test_pair_stream_rejects_sizes_the_scalar_draws_reject():
    for n in (0, 1, 2**64 + 1):
        with pytest.raises(ValueError):
            pair_stream(0, n)
        with pytest.raises(ValueError):
            sample_interaction(Splitmix64(0), n)
