"""Seedable 64-bit random number generation with a frozen algorithm.

Simulation traces must be reproducible bit-for-bit across platforms, Python
versions, and library upgrades, so the generator is implemented here rather
than delegated to ``random`` or ``numpy`` (whose distribution streams are
allowed to change between releases).

The algorithm is splitmix64: the state advances by a fixed odd increment
(the 64-bit golden ratio) and each output is a xor-shift-multiply mix of the
state.  It has a period of 2**64, passes BigCrush, and costs a handful of
integer operations per draw.

Bounded integers are drawn by taking the top bits of an output word and
rejecting values outside the range, which is exactly uniform (no modulo
bias).  For power-of-two bounds the rejection never triggers.

splitmix64 is counter-based: word i of the stream seeded with s is
``mix64(s + (i + 1) * GOLDEN_GAMMA)`` modulo 2**64.  :func:`pair_blocks`
uses this to compute a block of words at once with numpy's wrapping
``uint64`` arithmetic, then turns them into the same ordered pairs that
``Splitmix64.randbelow`` and ``core.sample_interaction`` would draw one at a
time.  The draws alternate between an initiator (accepted below n) and a
responder index (accepted below n - 1).  The words that neither bound
accepts are dropped, and the rest alternate initiator, responder, except
for the words that only one bound accepts: such a word is skipped when it
falls on its wrong role, and a parity rule on their places says which are
(:func:`_pairs_by_arrays`).  That takes a few array passes, with no
per-word Python loop, and it forms every block, whatever its size.  A block
is a function of its word range (:func:`_block`): the pairs formed from
words ``[start, start + size)`` given the initiator carried in from the
words before, so the blocks of any split of the stream, chained through
their carries, form the same pairs.  ``pair_blocks`` splits it into a
ladder: blocks start at ``FIRST_BLOCK`` (32) words and double up to
``MAX_BLOCK`` (8192), so a trial of a few steps computes few unused words
and a long one pays a block's fixed cost once per 8192 words.
:func:`first_fresh_below` knows how far its drain has left to go, so it
sizes each block to that rest instead (:func:`_drain_words`): climbing the
ladder cost it more in blocks' fixed costs than it computed in words.  A
block comes out in the schedule format of ``influence.InteractionLog``: two
``array('I')`` columns of initiators and responders, 8 bytes a pair, so a
stream's population is below 2**32 (:func:`check_population`).  numpy's
own generators are never used, so the stream is unchanged; the scalar
generator stays the reference the block stream is tested against.

A stream has a length: ``pair_blocks(seed, n, steps)`` yields the first
``steps`` pairs, its last block cut there, so this module alone knows where
a trial's schedule ends.  A stream of 0 steps computes no block.

:func:`first_fresh_below` reads one quantity off a stream's blocks: the
first step at which fewer than f agents are fresh, in no pair yet.  That is
|F(t)|, the agents that have not interacted by step t, so the step is the
drain time that ``popsim coupon`` reports, with no protocol run.

numpy is imported with the block passes' tables, not by this module: numpy,
the word offsets, the shift table and the mix constants are made once per
process, on the first block a stream computes (``_word_tables``), and each
block after that looks them up in a cache.  Importing this module loads
only the standard library, so a command that draws no pairs (``exact``,
``export-graph``) never loads numpy.
"""

from __future__ import annotations

import math
from array import array
from functools import cache
from itertools import chain, starmap
from typing import TYPE_CHECKING, Iterator, Optional

if TYPE_CHECKING:
    import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB


def mix64(x: int) -> int:
    """splitmix64 output function: a bijective 64-bit finalizer."""
    x &= MASK64
    x = ((x ^ (x >> 30)) * _MIX_A) & MASK64
    x = ((x ^ (x >> 27)) * _MIX_B) & MASK64
    return x ^ (x >> 31)


def derive_seed(base: int, index: int) -> int:
    """Seed for trial ``index`` of a sweep seeded with ``base``.

    Defined as ``mix64(base + (index + 1) * GOLDEN_GAMMA)``: a fixed 64-bit
    mixer applied to the base combined with the trial index, so any single
    trial can be reproduced in isolation without replaying the sweep.
    """
    if index < 0:
        raise ValueError("trial index must be >= 0")
    return mix64((base + (index + 1) * GOLDEN_GAMMA) & MASK64)


class Splitmix64:
    """Deterministic 64-bit generator; one instance per trial, never shared."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & MASK64

    def next64(self) -> int:
        self._state = s = (self._state + GOLDEN_GAMMA) & MASK64
        s = ((s ^ (s >> 30)) * _MIX_A) & MASK64
        s = ((s ^ (s >> 27)) * _MIX_B) & MASK64
        return s ^ (s >> 31)

    def randbelow(self, bound: int) -> int:
        """Uniform integer in ``[0, bound)``, exactly unbiased."""
        if bound < 1:
            raise ValueError("bound must be >= 1")
        shift = 64 - (bound - 1).bit_length()
        while True:
            r = self.next64() >> shift
            if r < bound:
                return r

    def random(self) -> float:
        """Uniform float in the open interval (0, 1) with 53-bit resolution.

        Cell centers ``(i + 0.5) * 2**-53`` are used so neither endpoint can
        occur; downstream inverse-transform samplers rely on ``0 < u < 1``.
        """
        return ((self.next64() >> 11) + 0.5) * 1.1102230246251565e-16  # 2**-53


# Blocks start small so that short trials compute few unused words, and double
# up to a cap that bounds the memory of a long run: 8192 words, 64 kB as
# uint64, where the passes' fixed cost per block is spread over twice the
# words it was at 4096.
FIRST_BLOCK = 32
MAX_BLOCK = 8192


def check_population(n: int, fewest: int) -> None:
    """Refuse a population outside ``[fewest, 2**32)``: a schedule, a block
    of pairs included, keeps its agents as ``array('I')`` entries."""
    if not fewest <= n < 1 << 32:
        raise ValueError(
            f"population size must be >= {fewest} and below 2^32, the range of a schedule's entries"
        )


def pair_blocks(seed: int, n: int, steps: int) -> Iterator[tuple[array, array]]:
    """The first ``steps`` ordered pairs ``(U[i], V[i])`` of distinct agents
    in ``[0, n)``, for ``2 <= n < 2**32``, in blocks ``(U, V)``: two
    ``array('I')`` columns of equal length, the initiators and the
    responders, the last block cut at the ``steps``-th pair.

    The pairs of the blocks in turn are exactly the first ``steps``
    ``sample_interaction(rng, n)`` results for ``rng = Splitmix64(seed)``:
    the initiator u is drawn at bound n, then k at bound n-1, and the
    responder is k skipping over u.  An initiator accepted in one block can
    get its responder from the next.
    """
    return _pair_blocks(_stream_state(seed, n, steps), n, steps)


def _stream_state(seed: int, n: int, steps: int) -> int:
    """The state a stream of ``steps`` pairs among n agents starts from, the
    seed masked to 64 bits; refuses n outside ``[2, 2**32)`` and ``steps <
    0``."""
    check_population(n, 2)
    if steps < 0:
        raise ValueError("a pair stream's steps must be >= 0")
    return seed & MASK64


def pair_stream(seed: int, n: int, steps: int) -> Iterator[tuple[int, int]]:
    """The pairs of :func:`pair_blocks` one at a time, as Python ints."""
    return chain.from_iterable(starmap(zip, pair_blocks(seed, n, steps)))


def first_fresh_below(seed: int, n: int, f: int, steps: int) -> Optional[int]:
    """The first step t >= 0 at which fewer than ``f`` agents are fresh,
    that is, appear in none of the first t pairs of ``pair_blocks(seed, n,
    steps)``; None when the stream's ``steps`` pairs never get there.
    Refuses ``f < 1``, which no step reaches.

    The fresh agents at step t are F(t), the agents that have not interacted
    by step t, so t is also where the ``init`` count of the catalog's
    leave-init protocol first drops below f, the stop of its window
    ``CountWindow({init}, 0, f - 1)`` in ``core.run_trial`` on the same seed
    and budget.  Every non-null leave-init rule sends both participants to
    ``done``: a pair with an ``init`` participant is (init, init), (init,
    done) or (done, init), each rewritten to (done, done), and (done, done)
    is null.  So by induction on t an agent is in ``init`` after step t iff
    it took part in none of the first t pairs, and the ``init`` count is
    |F(t)|.

    The kernel cuts the stream into blocks of its own with :func:`_block`,
    each sized by :func:`_drain_words` to the expected rest of the drain, so
    a trial at n = 4096 takes two blocks where ``pair_blocks``' ladder
    takes nine; the pairs, and so the step, are the stream's whatever the
    sizes.  One numpy array of n seen flags carries F from block to block:
    each block marks its agents in it and counts the fresh agents left with
    ``count_nonzero``.  Only the block where that count drops below f
    locates the step: each agent fresh at the block's start leaves F at its
    first position in the block (``np.minimum.at`` over the positions where
    it was fresh), and the step is the position where |F| - f + 1 of them
    have left.  The flags as they were at the block's start are copied
    beforehand only where the block could cross, when fewer than f plus two
    per pair are fresh.
    """
    state = _stream_state(seed, n, steps)
    if f < 1:
        raise ValueError("a drain's threshold f must be >= 1")
    if n < f:
        return 0
    if not steps:
        return None  # a stream of 0 steps computes no block, so loads no numpy
    np = _word_tables()[0]
    flags = np.zeros(n, bool)
    fresh = n
    step = start = 0
    carry = -1
    while step < steps:
        size = _drain_words(n, fresh, f)
        U, V, carry = _block(state, n, start, size, carry)
        start += size
        del U[steps - step :], V[steps - step :]  # the budget cuts the last block
        end = len(U)
        was = flags.copy() if fresh - 2 * end < f else None
        Ui = np.frombuffer(U, np.uint32).astype(np.intp)
        Vi = np.frombuffer(V, np.uint32).astype(np.intp)
        flags[Ui] = True
        flags[Vi] = True
        left = n - int(np.count_nonzero(flags))
        if left < f:
            first = np.full(n, end, np.intp)
            for agents in (Ui, Vi):
                at = np.flatnonzero(~was[agents])
                np.minimum.at(first, agents[at], at)
            gone = np.bincount(first, minlength=end + 1)[:end].cumsum()
            return step + int(gone.searchsorted(fresh - f + 1)) + 1
        fresh = left
        step += end
    return None


def _drain_words(n: int, fresh: int, f: int) -> int:
    """The words of a drain's next block, from ``fresh`` fresh agents to
    fewer than ``f`` (``1 <= f <= fresh``): the expected rest of the drain
    plus two standard deviations, clamped to ``[FIRST_BLOCK, MAX_BLOCK]``.

    A pair leaves a given agent fresh with probability 1 - 2/n, so E|F(t)|
    = n(1 - 2/n)^t, and each agent's first pair comes at about an
    exponential time of mean n/2 pairs (-ln(1 - 2/n) is 2/n to within a
    factor 1 + 1/n, and this form has no pole at n = 2).  The drain's rest is
    then the (fresh - f + 1)-th of ``fresh`` such times: its mean is (n/2)
    times H(fresh) - H(f - 1), about ln((fresh + 1/2) / (f - 1/2)), and its
    variance (n/2)^2 times the sum of 1/j^2 for j = f .. fresh, about 1/(f -
    1/2) - 1/(fresh + 1/2).  A pair takes 2^bits / n words for its
    initiator's draw at bound n and 2^bits' / (n - 1) for its responder's at
    n - 1, on average.  A block's fixed cost is worth a few thousand words
    (at n = 4096 about 18 us, against 4 ns a word), so the margin leans long:
    at n = 4096 and f = 256, where the capped first block leaves at least
    two, a trial took 2.77 blocks on average with blocks sized to the mean
    alone and 2.03 with two deviations (1000 trials).
    """
    per_pair = (1 << (n - 1).bit_length()) / n + (1 << (n - 2).bit_length()) / (n - 1)
    a, b = fresh + 0.5, f - 0.5
    pairs = n / 2 * (math.log(a / b) + 2 * math.sqrt(1 / b - 1 / a))
    return min(max(int(per_pair * pairs), FIRST_BLOCK), MAX_BLOCK)


@cache
def _word_tables():
    """numpy and the constants of the block passes, made once per process on
    the first block: the offsets ``(i + 1) * GOLDEN_GAMMA`` of a block's
    words, the 64 shift counts (making them per stream cost a trial of a few
    steps, which draws a single block, about 2% of its time) and the mix
    constants.  A block then pays one cache lookup for all of them."""
    import numpy as np

    offsets = np.arange(1, MAX_BLOCK + 1, dtype=np.uint64) * np.uint64(GOLDEN_GAMMA)
    shifts = tuple(np.uint64(s) for s in range(64))
    return np, offsets, shifts, np.uint64(_MIX_A), np.uint64(_MIX_B)


def _pair_blocks(state: int, n: int, steps: int) -> Iterator[tuple[array, array]]:
    start, size, carry = 0, FIRST_BLOCK, -1
    while steps:  # a stream of 0 steps computes no block, so loads no numpy
        U, V, carry = _block(state, n, start, size, carry)
        del U[steps:], V[steps:]  # the last block ends at the last step
        steps -= len(U)
        yield U, V
        start += size
        size = min(2 * size, MAX_BLOCK)


def _block(state: int, n: int, start: int, size: int, carry: int) -> tuple[array, array, int]:
    """The pairs formed from words ``[start, start + size)`` of the stream
    seeded with ``state`` (already masked to 64 bits), ``1 <= size <=
    MAX_BLOCK``, with the initiator ``carry`` carried in (-1 for none):
    ``(U, V, carry)``, the carry out being the initiator still waiting for
    its responder at the block's end.  Word i is ``mix64(state + (i + 1) *
    GOLDEN_GAMMA)``, so a block needs no word before ``start``; the blocks
    of a split of the words, chained through their carries, give the
    stream's pairs whatever the split."""
    np, offsets, shifts, mix_a, mix_b = _word_tables()
    bits = (n - 1).bit_length()  # randbelow(n) keeps the top ``bits`` bits
    drop = bits - (n - 2).bit_length()  # 1 when randbelow(n - 1) keeps one bit less
    # mix64 of the block's states, as Splitmix64.next64 computes them
    x = offsets[:size] + np.uint64((state + start * GOLDEN_GAMMA) & MASK64)
    x ^= x >> shifts[30]
    x *= mix_a
    x ^= x >> shifts[27]
    x *= mix_b
    if bits > 31:  # x ^ (x >> 31) leaves the top 31 bits of x as they are
        x ^= x >> shifts[31]
    x >>= shifts[64 - bits]
    return _pairs_by_arrays(x.astype(np.uint32), n, drop, carry)


def _pairs_by_arrays(r: np.ndarray, n: int, drop: int, u: int) -> tuple[array, array, int]:
    """The pairs of a block's draws ``r`` (the top bits of its words, as
    ``uint32``) in the order ``sample_interaction`` takes them one draw at a
    time, formed in a few array passes; ``u`` is the initiator carried in
    (-1 for none) and the one carried out.

    A word is an initiator if r <= n-1 and a responder index if k = r >> drop
    <= n-2.  Drop the words that neither bound accepts (at drop=0, r >= n; at
    drop=1 there are none).  The words left alternate initiator, responder,
    starting with a responder when an initiator is carried in (``waiting``
    is 1), except for the forced words, which only one bound accepts: at
    drop=0, r = n-1, only an initiator; at drop=1, r >= n, only a responder.
    A forced word that falls on its wrong role is skipped, and does not flip
    the role of the words after it.

    Let f_j be the place of forced word j among the words left, and d_j =
    (f_j + waiting) & 1, the role (1 for a responder) it would fall on if no
    word before it were skipped.  Then forced word j is skipped iff d_j !=
    d_(j-1), taking d_(-1) = drop.  By induction on j, the parity of the
    skips up to and including word j is d_j at drop=0 and 1 - d_j at drop=1
    (both 0 before the first forced word).  Forced word j falls on role d_j
    flipped once per skip before it.  At drop=0 that is d_j ^ d_(j-1), and
    its wrong role is a responder, so it is skipped iff d_j != d_(j-1), and
    the skip parity becomes d_(j-1) ^ (d_j ^ d_(j-1)) = d_j.  At drop=1 that
    is d_j ^ (1 - d_(j-1)), and its wrong role is an initiator, so again it
    is skipped iff d_j != d_(j-1), and the parity becomes 1 - d_j.

    With the skipped words deleted and the carried initiator put in front,
    the initiators sit at even places and the responders at odd places, as
    k = word >> drop, and the responder is v = k + (k >= u).
    """
    np = _word_tables()[0]
    if drop:
        forced = (r >= n).nonzero()[0]
    else:
        r = r[r < n]
        forced = (r == n - 1).nonzero()[0]
    waiting = int(u >= 0)
    if len(forced):
        d = (forced + waiting) & 1
        skip = np.empty(len(d), bool)
        skip[0] = d[0] != drop
        np.not_equal(d[1:], d[:-1], out=skip[1:])
        keep = np.ones(len(r), bool)
        keep[forced[skip]] = False
        r = r[keep]
    if waiting:
        r = np.concatenate((np.array([u], np.uint32), r))
    inits = r[0::2]
    K = r[1::2] >> drop if drop else r[1::2].copy()
    U = array("I", inits[: len(K)].tobytes())
    K += K >= np.frombuffer(U, np.uint32)
    return U, array("I", K.tobytes()), int(inits[-1]) if len(inits) > len(K) else -1
