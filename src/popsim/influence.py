"""Causal-influence tracking over recorded or live interaction sequences.

For an execution with schedule entries g_0, g_1, ..., the influencer set of
agent v after t steps is the set of agents whose initial state could have
affected v's state by then.  It starts as {v} and, whenever v participates in
an interaction, becomes the union of the two participants' sets.

Indexing convention used throughout this module: entry j of a log is the
interaction applied between tracker steps j and j+1.  So a table at step t
has absorbed exactly entries 0..t-1, and the layered graph puts entry j's
cross edges between layers j and j+1.

Three independent routes compute the same sets and are cross-checked by the
test suite:

* forward, incremental union during a run (:class:`InfluencerTable`);
* backward, one queried column at a time (:func:`backward_sets`): the set at
  layer i is the layer-(i+1) set, plus both participants of entry i whenever
  that entry touches the layer-(i+1) set;
* reachability in the layered graph (:func:`sources_reaching`), whose edges
  :func:`layered_edges` generates from the log rather than storing them.

Sets are represented as arbitrary-precision integers used as bit vectors
(bit u set means agent u belongs), so a union is one word-parallel ``|`` and
a size is one ``bit_count()``.  An agent's mask is made at its first
interaction, so memory grows with the sets a run reaches, up to
:func:`mask_words` (n*ceil(n/64) 64-bit words) per table.  That count is the
one limit on masks: the crossing kernel's switch below and ``popsim
influencer --series-out`` charge it against the work budget before they
build any, and refuse masks past it rather than approximate.

A schedule, whether a log or a block of ``rng.pair_blocks``, is kept as two
``array('I')`` columns of initiators and responders, 8 bytes a step, so a
population is below 2**32 (``rng.check_population``).

First crossings of a size threshold (:func:`first_exceed_time`) run on a
stream kernel, one loop over the blocks of ``rng.described_pair_blocks``,
the last block ending at the step budget, that applies no protocol, since
influence does not depend on states.  The kernel keeps no pair it has read:
of each block it keeps only the descriptor rng gives beside it, the block's
word range, the initiator carried into it and the pairs it kept, from which
``rng.reformed_blocks`` forms its pairs again (splitmix64 is counter-based,
so a word is a function of its index).  Per step the kernel keeps only an
upper bound on each set's size: a merged set's bound is the sum of the two
participants' bounds (when one agent is tracked, other bounds are capped at
n), which never falls below the true size, so no crossing is skipped.  Only
a bound above the threshold needs an exact size.  At first one backward
scan gives it: the :func:`backward_step` recurrence from the two
participants over the pairs before theirs, newest first, counted on a flag
per agent rather than stored, whose result then replaces both bounds.  The
scan reads the current block where it lies and forms the older blocks again
as it reaches them, so a scan that passes the threshold early forms no
block older than it needed.
A scan reads up to every pair before its own, so once the scans of a trial
pass a multiple of its current step in all (as with thresholds near n, whose
bounds overflow at almost every step; the multiple is ``SWITCH_MULTIPLE``
below n=8192 and grows with n, as a union of n-bit masks grows dearer than a
scanned pair), the kernel switches: it forms the older blocks again, oldest
first, and replays them and the current block through the current pair into
masks by the union of :meth:`InfluencerTable.update`; each later step ORs
its two participants' masks, and an exact size is a ``bit_count()``.  The
switch changes how an exact size is read, not which loop runs.  Without a
switch memory is two lists of n entries (the bounds, and a scan's flags), a
block or two of pairs and one descriptor per block read, so it is linear in
n, and n is limited by time rather than by the masks; after a switch it adds
the masks.  When the masks do not fit the work budget no switch can follow,
so the scans are the only exact route: they may read the budget's worth of
pairs, or ``SWITCH_MULTIPLE`` times the step where that is more, and past it
the kernel raises :class:`~popsim.core.BudgetExceededError`.
The kernel is the only implementation of the crossing rule.

The schedule of a trial is the first ``steps_taken`` pairs of its pair
stream, whatever the protocol, so everything else a trial's influence is
asked for (extra observers, size series, saved logs) replays that prefix
rather than running a second crossing check.
"""

from __future__ import annotations

import csv
from array import array
from functools import cache
from pathlib import Path
from itertools import accumulate, chain, islice, starmap
from typing import Iterable, Iterator, Optional, Union

from .core import DEFAULT_BUDGET, BudgetExceededError, Interaction, Protocol, TrialRecord, run_trial, step_budget
from .rng import MAX_BLOCK, Descriptor, check_population, described_pair_blocks, reformed_blocks

INFLUENCER_EVENT = "influencer_threshold"

# Six-interaction worked example over five agents (0..4, letters A..E in the
# docs).  Replaying it leaves agent 0 with influencers {0, 2, 3, 4} and
# backward set sizes 1,1,2,2,2,3,4 from layer 6 down to layer 0; several
# regression tests and the CLI demo are pinned to it.
DEMO_SCHEDULE_N5: tuple[Interaction, ...] = (
    Interaction(4, 2),
    Interaction(2, 3),
    Interaction(1, 4),
    Interaction(1, 2),
    Interaction(0, 3),
    Interaction(1, 2),
)


class InteractionLog:
    """A recorded schedule: entry j is the j-th interaction of the run.

    The entries live in two ``array('I')`` columns, ``initiators`` and
    ``responders``, 8 bytes a step; indexing and iteration give them as
    :class:`Interaction` values, and ``entries`` as a list of them.
    """

    __slots__ = ("n", "initiators", "responders")

    def __init__(self, n: int, entries: Iterable[tuple[int, int]] = ()):
        check_population(n, 1)
        self.n = n
        self.initiators = array("I")
        self.responders = array("I")
        for e in entries:
            self.append(e)

    def append(self, e: tuple[int, int]) -> None:
        u, v = e
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"interaction {Interaction(u, v)} out of range for n={self.n}")
        if u == v:
            raise ValueError("initiator and responder must be distinct")
        self.initiators.append(u)
        self.responders.append(v)

    def __len__(self) -> int:
        return len(self.initiators)

    def __iter__(self) -> Iterator[Interaction]:
        return map(Interaction, self.initiators, self.responders)

    def __getitem__(self, j: int) -> Interaction:
        return Interaction(self.initiators[j], self.responders[j])

    @property
    def entries(self) -> list[Interaction]:
        return list(self)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "InteractionLog":
        """Read a log written by :func:`write_log`, line by line."""
        with open(path) as fh:
            lines = (ln.rstrip("\n") for ln in fh if ln.strip())
            first = next(lines, None)
            if first is None:
                raise ValueError(f"{path}: empty interaction log")
            try:
                n = int(first)
            except ValueError:
                raise ValueError(f"{path}: first line must be the population size") from None
            try:
                log = cls(n)
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from None
            for ln in lines:
                try:
                    u, v = map(int, ln.split())
                except ValueError:
                    raise ValueError(f"{path}: malformed entry {ln!r}") from None
                try:
                    log.append((u, v))
                except ValueError as exc:
                    raise ValueError(f"{path}: {exc}") from None
        return log


def write_log(n: int, pairs: Iterable[tuple[int, int]], path: Union[str, Path]) -> None:
    """Write a schedule as log text, one line at a time: first the decimal
    population size, then one ``initiator<SP>responder`` line per pair,
    LF-terminated."""
    with open(path, "w", newline="") as fh:
        fh.write(f"{n}\n")
        fh.writelines(f"{u} {v}\n" for u, v in pairs)


def demo_log() -> InteractionLog:
    return InteractionLog(5, DEMO_SCHEDULE_N5)


def mask_words(n: int) -> int:
    """The 64-bit words of a mask for each of n agents, n*ceil(n/64): what
    masks for every set are charged against the work budget."""
    return n * -(-n // 64)


class InfluencerTable:
    """Forward influencer sets for every agent, updated incrementally.

    Invariants: agent v always belongs to its own set, and each set only ever
    grows (an update replaces the two participants' sets by their union).
    As in the stream kernel of :func:`first_exceed_time`, ``masks[v]`` stays
    0, standing for {v}, until v's first interaction, so a table allocates
    only the sets a run reaches.
    """

    __slots__ = ("n", "step", "masks")

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("population size must be >= 1")
        self.n = n
        self.step = 0
        self.masks: list[int] = [0] * n

    def update(self, e: Interaction) -> None:
        """Absorb the next log entry; both participants get the merged set."""
        masks = self.masks
        u, v = e
        masks[u] = masks[v] = (masks[u] or 1 << u) | (masks[v] or 1 << v)
        self.step += 1

    def size(self, v: int) -> int:
        return (self.masks[v] or 1 << v).bit_count()

    def members(self, v: int) -> frozenset[int]:
        mask = self.masks[v] or 1 << v
        return frozenset(u for u in range(self.n) if (mask >> u) & 1)


def _check_agent(n: int, v: int) -> None:
    if not 0 <= v < n:
        raise ValueError(f"agent {v} out of range for n={n}")


def _check_step(log: InteractionLog, t: int) -> None:
    if not 0 <= t <= len(log):
        raise ValueError(f"step {t} out of range for a log of length {len(log)}")


def backward_step(members: frozenset[int], e: Interaction) -> frozenset[int]:
    """One layer of the backward recurrence (from layer i+1 to layer i,
    where ``e`` is log entry i)."""
    if e.initiator in members or e.responder in members:
        return members | {e.initiator, e.responder}
    return members


def backward_sets(log: InteractionLog, v: int, t: int) -> Iterator[frozenset[int]]:
    """Backward influence sets of ``(v, t)``, from layer t down to layer 0.

    Item k is the layer-(t-k) set: the agents at that layer from which
    ``(v, t)`` is reachable in the layered graph.  The last item (layer 0)
    equals the forward influencer set of v after t steps.  The arguments
    are checked at the call; the layers are then computed one at a time.
    """
    _check_agent(log.n, v)
    _check_step(log, t)
    newest_first = (log[i] for i in range(t - 1, -1, -1))
    return accumulate(newest_first, backward_step, initial=frozenset([v]))


def layered_edges(log: InteractionLog, t: int) -> Iterator[tuple[tuple[int, int], tuple[int, int]]]:
    """Edges ``((agent, layer), (agent, layer))`` of the layered graph of the
    first ``t`` log entries: per layer i < t, each agent's vertical edge one
    layer up, then the two cross edges of entry i.  ``t`` is checked at the
    call; the edges are then generated from the log, none of them stored.
    """
    _check_step(log, t)
    n = log.n

    def edges():
        for i, (a, b) in enumerate(islice(log, t)):
            for u in range(n):
                yield (u, i), (u, i + 1)
            yield (a, i), (b, i + 1)
            yield (b, i), (a, i + 1)

    return edges()


def sources_reaching(log: InteractionLog, t: int, v: int) -> frozenset[int]:
    """Layer-0 agents from which ``(v, t)`` is reachable in the layered graph.

    Walks :func:`layered_edges` backwards; deliberately independent of the
    union recurrences above so the routes can be checked against each other.
    """
    _check_agent(log.n, v)
    incoming: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for src, dst in layered_edges(log, t):
        incoming.setdefault(dst, []).append(src)
    target = (v, t)
    seen = {target}
    frontier = [target]
    while frontier:
        node = frontier.pop()
        for src in incoming.get(node, ()):
            if src not in seen:
                seen.add(src)
                frontier.append(src)
    return frozenset(u for (u, layer) in seen if layer == 0)


class ScheduleRecorder:
    """Observer that records the interaction sequence of a run."""

    def __init__(self, n: int):
        self.log = InteractionLog(n)

    def notify(self, trial, e: Interaction, old, new) -> None:
        self.log.append(e)


def first_exceed_time(
    protocol: Optional[Protocol],
    n: int,
    seed: int,
    threshold: float,
    *,
    max_steps: Optional[int] = None,
    agent: Optional[int] = None,
    extra_observers: Iterable = (),
    budget: Optional[int] = None,
) -> TrialRecord:
    """Run a trial until some influencer set size strictly exceeds ``threshold``.

    The crossing step lands in ``event_steps["influencer_threshold"]``; a
    missing key with ``truncated=True`` means the step budget ran out first
    (a legitimate outcome, not an error).  ``agent`` switches from
    first-crossing-by-anyone to first crossing by that one agent.  No set
    has more than n members, so a threshold of n or more returns that
    truncated record at once, without running the kernel.

    The kernel keeps two lists of n entries, a block or two of pairs and a
    descriptor of each block it has read, none of the pairs themselves: a
    backward scan forms the blocks it reads again (see the module
    docstring).  So its memory is linear in n: at n = 2**20 the n^(2/3)
    crossing comes near 3.5 million steps, whose pairs would take 28 MB,
    and the kernel keeps about 860 descriptors.  n must be below 2**32.  A
    switch to masks adds :func:`mask_words` 64-bit words, up to n*n/8
    bytes.  When those words pass ``budget`` (``DEFAULT_BUDGET`` when None)
    no switch is made: the backward scans may read ``budget`` pairs, or
    ``SWITCH_MULTIPLE`` times the step where that is more, and past that
    the kernel raises :class:`~popsim.core.BudgetExceededError`.

    The stream kernel finds the crossing without applying ``protocol``, so
    the record's ``final_states`` is None.  With ``extra_observers``, the
    kernel's ``steps_taken`` interactions are then replayed through
    ``core.run_trial``, so the observers see the protocol's states, and the
    record takes that replay's ``final_states``.  Only that replay reads
    ``protocol``, so it may be None when there are no extra observers.
    """
    extra_observers = tuple(extra_observers)
    if threshold < 1:
        raise ValueError("threshold must be >= 1")
    check_population(n, 1)
    if agent is not None:
        _check_agent(n, agent)
    if budget is None:
        budget = DEFAULT_BUDGET
    steps = step_budget(n, max_steps)
    step = _crossing_step(seed, n, threshold, agent, steps, budget) if threshold < n else None
    if step is None:
        rec = TrialRecord(seed, n, steps, {}, truncated=True)
    else:
        rec = TrialRecord(seed, n, step, {INFLUENCER_EVENT: step})
    if extra_observers:
        replay = run_trial(protocol, n, seed, max_steps=rec.steps_taken, observers=extra_observers)
        rec = rec._replace(final_states=replay.final_states)
    return rec


# Each backward scan reads up to every pair before its own.  Once a trial's
# scans would have read more than _switch_multiple(n) times its current step
# in all, the kernel replays those pairs into masks instead.  A replayed pair
# costs a union of two n-bit integers and a scanned pair a flag test, so the
# replay grows dearer with n: per pair it cost 2.7, 5.1, 9.9, 24 and 42
# scanned pairs at n = 1000, 4096, 8192, 16384 and 32768.  The multiple,
# SWITCH_MULTIPLE for n < 8192 and doubling with n above, stays below that
# break-even, so the scans before a switch cost less than the replay.
# SWITCH_MULTIPLE was chosen by timing 2, 3 and 4 against a kernel that keeps
# masks from the start: at 3, thresholds near n, which overflow at almost
# every step, take about 1.2 times its time at n=4096 and n=1000; at 4, up to
# 1.4 times.  n^(2/3) at n=16384 needs at most 7 scans' worth in 3000 trials,
# below its multiple of 12; at a flat 3 it switched in 76 of them, which took
# a run's peak memory from about 38 to 66 MB on the seeds that did.  When the
# masks do not fit the budget there is no switch, only BudgetExceededError, so
# the scans may read the budget's worth of pairs, or SWITCH_MULTIPLE times the
# step where that is more, not a multiple that grows with n: one of 192 at
# n = 2^18 spent 36.9 s of scans on a 2-vCPU guest.
SWITCH_MULTIPLE = 3


def _switch_multiple(n: int) -> float:
    return SWITCH_MULTIPLE * max(1, n >> 12)


@cache
def _positions() -> list[int]:
    """The positions a pair can take in a block of the pair stream: a block
    draws at most MAX_BLOCK words, and each pair takes two of them, an
    initiator and a responder, except the pair of an initiator carried in,
    which takes one; so a block has at most MAX_BLOCK / 2 pairs."""
    return list(range(MAX_BLOCK // 2))


def _crossing_step(
    seed: int, n: int, threshold: float, agent: Optional[int], steps: int, budget: int
) -> Optional[int]:
    """The stream kernel of :func:`first_exceed_time` (see the module
    docstring): the first step, within ``steps``, after which a
    participant's set (the tracked agent's, when there is one) has more than
    ``threshold`` members, or None.  A switch to masks needs
    :func:`mask_words` within ``budget``; without them the scans may read
    ``budget`` pairs, or ``SWITCH_MULTIPLE`` times the step, before the
    kernel raises."""
    bound = [1] * n  # bound[v] >= the size of v's set
    older: list[Descriptor] = []  # the descriptors of the blocks before the current one
    masks: Optional[list[int]] = None  # every set's mask, from the switch on
    scanned = 0  # pairs read by the backward scans
    words = mask_words(n)
    # the scans may read max(floor, multiple * step) pairs in all
    floor, multiple = (0, _switch_multiple(n)) if words <= budget else (budget, SWITCH_MULTIPLE)
    first = 1  # the step of the current block's first pair
    for U, V, descriptor in described_pair_blocks(seed, n, steps):
        # A pair's step is ``first`` plus its position, worked out only where
        # the loop needs it: the positions are shared ints, where a count of
        # every step would make a new int per step.
        for u, v, j in zip(U, V, _positions()):
            if masks is not None:
                masks[u] = masks[v] = (masks[u] or 1 << u) | (masks[v] or 1 << v)
            size = bound[u] + bound[v]
            if size > threshold:
                if agent is None or agent == u or agent == v:
                    step = first + j
                    if masks is None and scanned + step - 1 <= max(floor, multiple * step):
                        scanned += step - 1
                        size = _backward_size(seed, n, older, U, V, j, threshold)
                    else:
                        if masks is None:  # the switch: every set's mask through this step
                            if words > budget:
                                raise BudgetExceededError(
                                    f"the crossing kernel needs masks at step {step}, "
                                    f"{words} words for n={n}, past budget {budget}"
                                )
                            masks = _replay_masks(seed, n, older, U, V, j)
                        size = masks[u].bit_count()
                    if size > threshold:
                        return step
                elif size > n:  # no set has more than n members
                    size = n
            bound[u] = bound[v] = size
        older.append(descriptor)
        first += len(U)
    return None


def _backward_size(
    seed: int, n: int, older: list[Descriptor], U: array, V: array, j: int, limit: float
) -> int:
    """The size of the union of the sets of ``U[j]`` and ``V[j]`` just
    before that pair, in the stream whose blocks before the current one
    ``(U, V)`` have the descriptors ``older``, or a number above ``limit``
    once the count passes it.

    One backward scan, newest first, by the recurrence of
    :func:`backward_step` counted on a membership flag per agent: a pair
    with exactly one member adds the other agent.  It reads the current
    block's pairs before position j where they lie, then forms the older
    blocks again, newest first, each only when the scan reaches it.
    """
    member = [False] * n
    member[U[j]] = member[V[j]] = True
    size = 2
    current = memoryview(U)[:j], memoryview(V)[:j]  # views: the scan copies no pair
    for A, B in chain((current,), reformed_blocks(seed, n, older, newest_first=True)):
        for a, b in zip(reversed(A), reversed(B)):
            if member[a] is not member[b]:
                member[a] = member[b] = True
                size += 1
                if size > limit:
                    return size
    return size


def _replay_masks(seed: int, n: int, older: list[Descriptor], U: array, V: array, j: int) -> list[int]:
    """The kernel's switch: every agent's mask (0 for one in no pair yet)
    through pair j of the current block ``(U, V)``, replayed from the blocks
    before it, formed again from their descriptors ``older``, oldest first,
    by the union of :meth:`InfluencerTable.update`."""
    masks = [0] * n
    older_pairs = chain.from_iterable(starmap(zip, reformed_blocks(seed, n, older)))
    for u, v in chain(older_pairs, islice(zip(U, V), j + 1)):
        masks[u] = masks[v] = (masks[u] or 1 << u) | (masks[v] or 1 << v)
    return masks


def write_size_series(n: int, schedule: Iterable[tuple[int, int]], path: Union[str, Path]) -> None:
    """Replay ``schedule`` into an :class:`InfluencerTable` and write one CSV
    row per step: (step, max_size, participant_size).

    The two participants of a step share the merged set, so one column covers
    both of their sizes; sets only grow, so the largest set is the running
    maximum of the merged sizes.
    """
    table = InfluencerTable(n)
    masks = table.masks
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "max_size", "participant_size"])
        max_size = 1
        for u, v in schedule:
            table.update((u, v))
            size = masks[u].bit_count()
            max_size = max(max_size, size)
            writer.writerow((table.step, max_size, size))
