from array import array
from bisect import bisect_left
from itertools import accumulate, islice
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import pairs_by_words
from popsim.core import CountWindow, run_trial, sample_interaction, step_budget
from popsim.protocols import make_protocol
import popsim.rng
from popsim.rng import (
    FIRST_BLOCK,
    GOLDEN_GAMMA,
    MASK64,
    MAX_BLOCK,
    Splitmix64,
    _block,
    _drain_words,
    _pairs_by_arrays,
    derive_seed,
    first_fresh_below,
    mix64,
    pair_blocks,
    pair_stream,
)

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
# two so the k draw uses one bit less (3, 5, 17, 1025, 16385, 2**31 + 1),
# where bound n-1 is 1 (2), where about half the initiator draws are
# rejected (513), and above 2**31, where the last mixing step reaches the
# top bits, up to the top of a stream's range (2**32 - 1).
STREAM_SIZES = (2, 3, 5, 17, 513, 1000, 1024, 1025, 4096, 16384, 16385, 2**31 + 1, 3 * 2**30 + 3, 2**32 - 1)


def scalar_pairs(seed, n, count):
    rng = Splitmix64(seed)
    return [tuple(sample_interaction(rng, n)) for _ in range(count)]


@pytest.mark.parametrize("n", STREAM_SIZES)
def test_pair_stream_matches_sample_interaction(n):
    count = 20_000
    # Each pair takes at least two words, so these pairs run through blocks
    # of FIRST_BLOCK * 2**i words for i = 0..4 and on: four doublings or more.
    assert 2 * count > FIRST_BLOCK * (2**5 - 1)
    assert list(pair_stream(12345, n, count)) == scalar_pairs(12345, n, count)


@pytest.mark.parametrize("seed", [-1, 0, 2**64 - 1, 2**64 + 5])
def test_pair_stream_wraps_seeds_like_splitmix64(seed):
    assert list(pair_stream(seed, 1000, 3000)) == scalar_pairs(seed, 1000, 3000)
    assert list(pair_stream(seed, 7, 50)) == list(pair_stream(seed & MASK64, 7, 50))


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=70),
    seed=st.integers(min_value=-(2**65), max_value=2**65),
    count=st.integers(min_value=0, max_value=400),
)
def test_pair_stream_property(n, seed, count):
    pairs = list(pair_stream(seed, n, count))
    assert len(pairs) == count
    assert pairs == scalar_pairs(seed, n, count)


def test_pair_stream_rejects_sizes_the_scalar_draws_reject():
    for n in (0, 1, 2**64 + 1):
        with pytest.raises(ValueError):
            pair_stream(0, n, 1)
        with pytest.raises(ValueError):
            pair_blocks(0, n, 1)
        with pytest.raises(ValueError):
            sample_interaction(Splitmix64(0), n)
    with pytest.raises(ValueError):
        pair_blocks(0, 5, -1)  # a stream has no negative length


def test_pair_streams_stop_below_2_32():
    # a block is two uint32 columns, so streams stop where the scalar draws
    # go on
    for make in (pair_stream, pair_blocks):
        with pytest.raises(ValueError, match="below 2\\^32"):
            make(0, 2**32, 1)
    assert 0 <= sample_interaction(Splitmix64(0), 2**32).initiator < 2**32


class WordCountingSplitmix64(Splitmix64):
    """Splitmix64 that records the index of the word each accepted bounded
    draw came from."""

    __slots__ = ("words", "accepted_at")

    def __init__(self, seed):
        super().__init__(seed)
        self.words = 0
        self.accepted_at = []

    def next64(self):
        self.words += 1
        return super().next64()

    def randbelow(self, bound):
        r = super().randbelow(bound)
        self.accepted_at.append(self.words - 1)
        return r


# Sizes with n-1 a power of two (3, 5, 9, 17, 1025, 2**30 + 1, 2**31 + 1),
# where a word is a valid responder index but no valid initiator about half
# the time, and others (4, 1000, 2**32 - 1), where a word can be a valid
# initiator but no valid index; 2 and 2**32 - 1 accept nearly every word.
# 2**30 + 1 is the largest of these whose draws keep 31 bits, 2**31 + 1 the
# smallest that keeps 32.
BLOCK_SIZES = (2, 3, 4, 5, 9, 17, 1000, 1025, 2**30 + 1, 2**31 + 1, 2**32 - 1)


@pytest.mark.parametrize("n", BLOCK_SIZES)
def test_pair_blocks_match_sample_interaction(n):
    # every block, the first of FIRST_BLOCK words on, is two uint32
    # schedule columns
    sizes = [min(FIRST_BLOCK << i, MAX_BLOCK) for i in range(9)]
    assert sizes[0] == FIRST_BLOCK and sizes[-1] == MAX_BLOCK
    ends = list(accumulate(sizes))
    rng = WordCountingSplitmix64(99)
    scalar = []
    while rng.words < ends[-1]:
        scalar.append(tuple(sample_interaction(rng, n)))
    initiators, responders = rng.accepted_at[0::2], rng.accepted_at[1::2]
    # a block holds the pairs whose responder word lies in it
    pair_ends = [bisect_left(responders, end) for end in ends]
    starts = [0, *pair_ends]
    whole = [b - a for a, b in zip(starts, pair_ends)]
    blocks = list(pair_blocks(99, n, pair_ends[-1]))
    for U, V in blocks:
        assert type(U) is type(V) is array and U.typecode == V.typecode == "I"
        assert len(U) == len(V)
    assert [len(U) for U, _ in blocks] == whole
    got = [pair for U, V in blocks for pair in zip(U, V)]
    assert got == scalar[: len(got)]
    # A block ends with an initiator still waiting when some pair's
    # initiator word lies before the block's end and its responder word at
    # or after it.  At n=2 every pair takes two words, at 2**32 - 1 all but
    # about a 2**-31 share do, so every even-sized block ends on a pair there.
    waiting_ends = {end for i, r in zip(initiators, responders) for end in ends if i < end <= r}
    assert bool(waiting_ends) == (n not in (2, 2**32 - 1))
    # a stream of ``steps`` pairs is their prefix: whole blocks, then the
    # block that reaches ``steps`` cut there, and no block at all for 0
    for steps in sorted({0, *(end + d for end in pair_ends[:5] for d in (-1, 0, 1))}):
        cut = list(pair_blocks(99, n, steps))
        last = bisect_left(pair_ends, steps)  # the block that reaches steps
        assert [len(U) for U, _ in cut] == (whole[:last] + [steps - starts[last]] if steps else [])
        assert [pair for U, V in cut for pair in zip(U, V)] == scalar[:steps]


# The words that only one bound accepts are the forced ones: n-1 (only an
# initiator) where both draws keep the same bits, n and above (only a
# responder index) where n-1 is a power of two.  The sizes take both kinds;
# at the first, 2**bits - 1 is rejected at both bounds unless it is n-1.
FORCED_SIZES = (2, 3, 4, 5, 6, 9, 17, 100, 1000, 1024, 1025, 4097, 2**31 + 1, 2**32 - 1)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    n=st.sampled_from(FORCED_SIZES),
    size=st.one_of(st.integers(1, 64), st.integers(1, MAX_BLOCK)),
    shares=st.tuples(*[st.integers(0, 4)] * 4).filter(any),
    waiting=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_pairs_by_arrays_match_the_per_word_rule_on_dense_forced_words(n, size, shares, waiting, seed):
    # Words drawn from {n-1, n, 2**bits - 1, uniform} in the given shares put
    # forced words next to each other, at block starts and at block ends,
    # where the parity rule's skips are decided.
    bits = (n - 1).bit_length()
    drop = bits - (n - 2).bit_length()
    top = (1 << bits) - 1
    draw = np.random.default_rng(seed)
    kinds = np.array([n - 1, min(n, top), top], np.uint64)
    pick = draw.choice(4, size, p=np.array(shares) / sum(shares))
    r = draw.integers(0, top, size, dtype=np.uint64, endpoint=True)
    r[pick < 3] = kinds[pick[pick < 3]]
    r = r.astype(np.uint32)
    u = int(draw.integers(0, n)) if waiting else -1
    assert _pairs_by_arrays(r, n, drop, u) == pairs_by_words(r, n, drop, u)


# A block is a function of its word range: both drop classes, n = 2, and the
# top of a stream's range.
CHAIN_SIZES = (2, 3, 5, 1025, 4096, 4097, 2**32 - 1)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    n=st.sampled_from(CHAIN_SIZES),
    seed=st.integers(0, 2**64 - 1),
    start=st.one_of(st.just(0), st.integers(0, 2**70)),
    sizes=st.lists(
        st.one_of(st.integers(1, MAX_BLOCK), st.sampled_from([FIRST_BLOCK << i for i in range(9)])),
        min_size=1, max_size=4,
    ),
)
@example(n=4097, seed=0, start=0, sizes=[255, 256, 1, MAX_BLOCK])
def test_blocks_chained_through_their_carries_are_the_stream(n, seed, start, sizes):
    # Word i of the stream seeded with s is word i - j of the stream seeded
    # with s + j * GOLDEN_GAMMA, so words start, start + 1, ... with no
    # initiator carried in form the pairs of that stream for j = start: any
    # split of them into _block calls, each taking the carry the last one
    # gave, must form exactly those pairs.
    U, V, carry = array("I"), array("I"), -1
    at = start
    for size in sizes:
        block_u, block_v, carry = _block(seed, n, at, size, carry)
        assert type(block_u) is type(block_v) is array and len(block_u) == len(block_v)
        U += block_u
        V += block_v
        at += size
    stream = list(pair_stream((seed + start * GOLDEN_GAMMA) & MASK64, n, len(U) + 1))
    assert list(zip(U, V)) == stream[:-1]
    # a waiting initiator is the next pair's
    assert carry in (-1, stream[-1][0])


# ------------------------------------------------------------- fresh agents


def fresh_walk(seed, n, f, steps):
    """``first_fresh_below`` by a walk of the stream one pair at a time over
    the kernel's own blocks, each ``_block`` of the ``_drain_words`` sized
    from the fresh count at its start: ``(t, blocks, gone)``, where t is the
    first step with fewer than f agents in no pair yet (None if the
    ``steps`` pairs never get there), ``blocks`` the ``(start, size,
    pairs)`` of each block walked, its pairs cut at the budget, and ``gone``
    the fresh agents step t's pair removed."""
    fresh, seen, step, start, carry, blocks = n, set(), 0, 0, -1, []
    if fresh < f:
        return 0, blocks, 0
    while step < steps:
        size = _drain_words(n, fresh, f)
        U, V, carry = _block(seed & MASK64, n, start, size, carry)
        blocks.append((start, size, min(len(U), steps - step)))
        start += size
        for u, v in islice(zip(U, V), steps - step):
            step += 1
            gone = (u not in seen) + (v not in seen)
            seen.update((u, v))
            fresh -= gone
            if fresh < f:
                return step, blocks, gone
    return None, blocks, 0


def ladder_drain(seed, n, f, steps):
    """The same step by a walk of ``pair_stream``, whose pairs come in the
    default ladder's blocks."""
    fresh, seen = n, set()
    if fresh < f:
        return 0
    for t, (u, v) in enumerate(pair_stream(seed, n, steps), 1):
        fresh -= (u not in seen) + (v not in seen)
        seen.update((u, v))
        if fresh < f:
            return t
    return None


def leave_init_drain(seed, n, f, max_steps):
    """The engine's answer: the step where leave-init's ``init`` count drops
    below f, or None for a truncated run."""
    rec = run_trial(make_protocol("leave-init", n), n, seed, max_steps=max_steps,
                    stop_event=("drain", CountWindow(frozenset({0}), 0, f - 1)))
    return None if rec.truncated else rec.steps_taken


# (seed, n, f, max_steps) cases the cross-check always runs, with what a walk
# of the kernel's blocks finds in each: the blocks walked (the last one
# crosses, or the budget cuts it), and the fresh agents the crossing pair
# removes.  At seed 41, n=17 and f=1 the kernel's blocks are of 155 and 83
# words and end at pairs 54 and 84, while the drain ends at step 60, so 40
# lies inside the first block and 54 is its end.  At seed 3, n=4096 and f=1
# they are MAX_BLOCK words and end at pairs 4096, 8192, 12287 and 16383, so
# 100, 112, 240 and 440 cut the first block, 4196 leaves 100 pairs of the
# second, and 8192 is the second block's end.
DRAIN_EXAMPLES = [
    ((0, 2, 1, None), 1, 2),
    ((0, 5, 4, None), 1, 2),
    ((0, 17, 10, None), 1, 1),
    ((0, 4096, 3800, None), 1, 2),
    ((10, 4096, 3800, None), 1, 1),
    ((3, 4096, 4097, None), 0, 0),  # f > n: step 0
    ((3, 4096, 1, 0), 0, 0),
    ((41, 17, 1, 40), 1, 0),
    ((41, 17, 1, 54), 1, 0),
    ((3, 4096, 1, 100), 1, 0),
    ((3, 4096, 1, 112), 1, 0),
    ((3, 4096, 1, 240), 1, 0),
    ((3, 4096, 1, 440), 1, 0),
    ((3, 4096, 1, 8192), 2, 0),
    ((3, 4096, 1, 4196), 2, 0),
]


def kernel_blocks(seed, n, f):
    """``(size, end)`` of each block the kernel draws on the default budget,
    ``end`` being the pair the block ends at."""
    blocks = fresh_walk(seed, n, f, step_budget(n, None))[1]
    return list(zip((size for _, size, _ in blocks), accumulate(pairs for _, _, pairs in blocks)))


def test_drain_examples_are_the_kinds_they_claim():
    assert kernel_blocks(41, 17, 1) == [(155, 54), (83, 84)]
    assert kernel_blocks(3, 4096, 1) == [(MAX_BLOCK, end) for end in (4096, 8192, 12287, 16383)]
    for (seed, n, f, max_steps), walked, gone in DRAIN_EXAMPLES:
        t, blocks, removed = fresh_walk(seed, n, f, step_budget(n, max_steps))
        # a budget here always cuts the stream before the crossing
        assert (t is None) == (max_steps is not None and f <= n), (seed, n, f)
        assert len(blocks) == walked, (seed, n, f)
        if not walked:
            assert t == 0 or max_steps == 0, (seed, n, f)
        assert removed == gone, (seed, n, f)


@st.composite
def drains(draw):
    """(seed, n, f, max_steps): n-1 a power of two drops a bit from the
    responder draw (3, 5, 17, 1025, 4097); f = n + 1 stops at step 0; a
    budget is the default one, 0, the end of one of the kernel's blocks or
    any step up to the end of the last one."""
    n = draw(st.one_of(st.sampled_from([2, 3, 5, 17, 1025, 4097]), st.integers(2, 5000)))
    f = draw(st.integers(1, n + 1))
    seed = draw(st.integers(0, 2**64 - 1))
    ends = [end for _, end in kernel_blocks(seed, n, f)] or [1]
    max_steps = draw(st.one_of(st.none(), st.just(0), st.sampled_from(ends), st.integers(1, ends[-1])))
    return seed, n, f, max_steps


def _with_examples(test):
    for case, _, _ in DRAIN_EXAMPLES:
        test = example(case)(test)
    return test


@settings(max_examples=150, deadline=None, derandomize=True)
@given(drains())
@_with_examples
@example((0, 2, 2, None))
@example((0, 2, 0, None))  # f < 1: refused
@example((7, 4096, 0, 300))
def test_first_fresh_below_is_leave_inits_drain(case):
    seed, n, f, max_steps = case
    steps = step_budget(n, max_steps)
    if f < 1:
        with pytest.raises(ValueError, match="f must be >= 1"):
            first_fresh_below(seed, n, f, steps)
        return
    t, blocks, _ = fresh_walk(seed, n, f, steps)
    with (mock.patch.object(np, "count_nonzero", wraps=np.count_nonzero) as counted,
          mock.patch.object(popsim.rng, "_block", wraps=_block) as drawn):
        got = first_fresh_below(seed, n, f, steps)
    assert got == t == ladder_drain(seed, n, f, steps) == leave_init_drain(seed, n, f, max_steps)
    # the kernel draws the blocks the walk sized, and marks and counts each
    # through numpy, once
    assert [call.args[2:4] for call in drawn.call_args_list] == [block[:2] for block in blocks]
    assert counted.call_count == len(blocks)


def test_first_fresh_below_checks_its_stream():
    with pytest.raises(ValueError):
        first_fresh_below(0, 1, 1, 5)
    with pytest.raises(ValueError):
        first_fresh_below(0, 5, 1, -1)
    # no step has fewer than 0 fresh agents: f < 1 is refused before any
    # pair is drawn, not walked to the end of the budget
    for f in (0, -1):
        with mock.patch.object(popsim.rng, "_block", wraps=_block) as drawn:
            with pytest.raises(ValueError, match="f must be >= 1"):
                first_fresh_below(0, 4096, f, 10**6)
        assert not drawn.called
    # n = 2: the first pair takes both agents, and the size rule has no pole
    # where 1 - 2/n = 0
    assert [first_fresh_below(seed, 2, f, 5) for seed in (0, 9) for f in (1, 2, 3)] == [1, 1, 0] * 2
    assert first_fresh_below(0, 2, 1, 0) is None
