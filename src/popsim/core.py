"""The population protocol model: protocols, configurations, scheduling, trials.

A protocol is a finite state machine over ordered pairs: when two agents
interact, the initiator's and responder's states are rewritten by a total
transition table.  A configuration assigns one state to each of the n agents.
The scheduler draws, at every step, one ordered pair of distinct agents
uniformly at random among all n*(n-1) pairs.

Agents are indexed 0..n-1.  The indices are harness handles only (the model
itself is anonymous): they let observers track per-agent quantities and let
outputs be compared agent-wise, but no protocol can read them.

Time is counted in steps; one step is one interaction.  Parallel time is
steps divided by n.
"""

from __future__ import annotations

import math
from array import array
from functools import cache
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Optional, Sequence, Union

LEADER = "L"

# A configuration is a plain list of state ids, one per agent.
Configuration = list[int]

TransitionTable = tuple[tuple[tuple[int, int], ...], ...]

if TYPE_CHECKING:
    import numpy as np

    from .rng import Splitmix64

# The work budget of an exact enumeration, and of the commands that charge
# one, when none is given.
DEFAULT_BUDGET = 10**7


class BudgetExceededError(RuntimeError):
    """The work asked for exceeds the budget: the potential configuration
    space of an enumeration, the edges of an exported graph, the population
    of an influencer sweep, the masks or the steps of its size series, or
    the scans of a crossing kernel whose masks do not fit it."""


class NonAbsorbingError(RuntimeError):
    """The target set is not reached with probability 1 from the start."""


class Interaction(NamedTuple):
    """One ordered interaction; the two roles are asymmetric."""

    initiator: int
    responder: int


class Protocol:
    """Protocol definition, shareable across concurrent trials.

    ``transitions[a][b]`` is the ordered pair of next states when an agent in
    state ``a`` initiates an interaction with a responder in state ``b``.
    The table is total by construction, so every reachable state id is valid.
    ``num_states`` is the table's number of rows; every row, and ``outputs``,
    must have one entry per state.  A protocol is not modified after
    construction: it compares and hashes by its four arguments.
    """

    __slots__ = ("num_states", "initial_state", "transitions", "outputs", "name", "_mask", "_rows")

    def __init__(self, initial_state: int, transitions: TransitionTable, outputs: tuple[str, ...], name: str = ""):
        num_states = len(transitions)
        if not num_states:
            raise ValueError("protocol needs at least one state")
        if not 0 <= initial_state < num_states:
            raise ValueError("initial state out of range")
        for a, row in enumerate(transitions):
            if len(row) != num_states:
                raise ValueError(f"transition row {a} is not total")
            for pair in row:
                if len(pair) != 2 or not all(0 <= s < num_states for s in pair):
                    raise ValueError(f"transition entry {pair} out of range")
        if len(outputs) != num_states:
            raise ValueError("outputs must be total over states")
        self.num_states = num_states
        self.initial_state = initial_state
        self.transitions = transitions
        self.outputs = outputs
        self.name = name
        self._mask = None
        self._rows = _RuleRows(transitions)

    def _fields(self) -> tuple:
        return self.initial_state, self.transitions, self.outputs, self.name

    def __eq__(self, other):
        return self._fields() == other._fields() if type(other) is Protocol else NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return "Protocol({}, {!r}, {!r}, name={!r})".format(*self._fields())

    def output_states(self, symbol: str) -> tuple[int, ...]:
        """State ids mapped to ``symbol`` by the output function."""
        return tuple(s for s, y in enumerate(self.outputs) if y == symbol)

    @property
    def _changes(self) -> np.ndarray:
        """Read-only flat mask, built at first use: entry ``a * num_states +
        b`` says whether the rule for initiator ``a`` and responder ``b``
        changes a state."""
        if self._mask is None:
            import numpy as np

            mask = np.array(
                [pair != (a, b) for a, row in enumerate(self.transitions) for b, pair in enumerate(row)]
            )
            mask.flags.writeable = False
            self._mask = mask
        return self._mask


class _RuleRows(dict):
    """A protocol's rule rows for the step loop, keyed by ``watched``, a
    frozenset of states or None, and built at the first use of each key:
    ``rows[a][b]`` is None for a rule that changes neither state, and
    otherwise ``(a2, b2, dc)``, the next states and the change dc to the
    number of agents in ``watched``.  Under None every rule, null or not,
    gets its triple and dc is 0.  A key naming a state outside the protocol
    raises ValueError."""

    __slots__ = ("transitions",)

    def __init__(self, transitions: TransitionTable):
        self.transitions = transitions

    def __missing__(self, watched: Optional[frozenset[int]]) -> tuple:
        width = len(self.transitions)
        if watched is not None and not watched.issubset(range(width)):
            raise ValueError(f"count window names states outside 0..{width - 1}: {sorted(watched)}")
        inside = [watched is not None and s in watched for s in range(width)]
        rows = tuple(
            tuple(
                None if watched is not None and (a2, b2) == (a, b)
                else (a2, b2, inside[a2] + inside[b2] - inside[a] - inside[b])
                for b, (a2, b2) in enumerate(row)
            )
            for a, row in enumerate(self.transitions)
        )
        self[watched] = rows
        return rows


def apply_interaction(protocol: Protocol, config: Sequence[int], e: Interaction) -> Configuration:
    """Return the configuration after interaction ``e``; the input is untouched.

    Only the two participants' entries may differ from the input.
    """
    u, v = e
    n = len(config)
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"agent index out of range for n={n}: {e}")
    if u == v:
        raise ValueError("initiator and responder must be distinct")
    new = list(config)
    new[u], new[v] = protocol.transitions[config[u]][config[v]]
    return new


def sample_interaction(rng: Splitmix64, n: int) -> Interaction:
    """One ordered pair, uniform over all n*(n-1) pairs.

    Rejection-free index arithmetic: draw the initiator u uniformly in
    [0, n), draw k uniformly in [0, n-1), and take the responder to be k,
    skipping over u.  Every ordered pair has probability exactly
    1 / (n*(n-1)).
    """
    if n < 2:
        raise ValueError("need at least two agents to interact")
    u = rng.randbelow(n)
    k = rng.randbelow(n - 1)
    return Interaction(u, k if k < u else k + 1)


def output_vector(protocol: Protocol, config: Sequence[int]) -> list[str]:
    """Element-wise application of the output function."""
    outputs = protocol.outputs
    return [outputs[s] for s in config]


def configuration_digest(states: Sequence[int]) -> str:
    """Stable hash of a configuration (sha256 of the decimal state vector)."""
    # imported here: hashlib loads OpenSSL, about 4 MB, and no command hashes
    import hashlib

    return hashlib.sha256(",".join(map(str, states)).encode()).hexdigest()


def step_budget(n: int, max_steps: Optional[int]) -> int:
    """The interaction budget of one trial: ``max_steps``, or the default
    64 * n * ceil(ln n) when it is None.  Rejects n < 2 and negative
    budgets."""
    if n < 2:
        raise ValueError("population size must be >= 2")
    if max_steps is None:
        return 64 * n * max(1, math.ceil(math.log(n)))
    if max_steps < 0:
        raise ValueError("max_steps must be >= 0")
    return max_steps


class Trial:
    """Mutable engine state for one execution; owned by exactly one run.
    ``n`` is the number of agents in ``states`` and ``counts`` the number
    in each state, both read off ``states`` here."""

    __slots__ = ("protocol", "n", "states", "counts", "step")

    def __init__(self, protocol: Protocol, states: Configuration):
        self.protocol = protocol
        self.n = len(states)
        self.states = states
        self.counts = [states.count(s) for s in range(protocol.num_states)]
        self.step = 0


class TrialRecord(NamedTuple):
    """Summary of one finished execution.  Every record popsim returns
    carries an ``event_steps`` dict, empty when no event fired."""

    seed: int
    n: int
    steps_taken: int
    event_steps: Optional[dict[str, int]] = None
    final_states: Optional[Configuration] = None
    truncated: bool = False

    @property
    def parallel_time(self) -> float:
        return self.steps_taken / self.n


class CountWindow(NamedTuple):
    """A stop as data: the number of agents in ``states`` lies in
    ``[low, high]``.  ``run_trial`` without observers keeps that one count and
    tests the window only after rules that change it; called on anything
    with ``.counts`` (a ``Trial``, say), the window gives the same test."""

    states: frozenset[int]
    low: int
    high: int

    def __call__(self, trial) -> bool:
        counts = trial.counts
        return self.low <= sum(counts[s] for s in self.states) <= self.high


# A stop is a CountWindow or a predicate over a Trial.  A predicate must be a
# function of ``trial.counts`` and ``trial.states`` alone: without observers,
# run_trial evaluates it only at step 0 and after steps that change the
# configuration.
StopPredicate = Callable[[Trial], bool]

# The window of a run with no stop: it holds for no count.
_NEVER = CountWindow(frozenset(), 1, 0)

# Without observers, a segment of DENSE_GAP pairs with no change (or the
# shorter one that ends a block) makes the trial find its next state change
# with one array scan of the rest of the block, and it keeps scanning while
# the changes it finds are at least DENSE_GAP steps apart; when they come
# closer together, stepping in Python is cheaper.
DENSE_GAP = 64


@cache
def _rng():
    """The rng module, imported at the first trial: an import statement in
    run_trial costs each trial 1-2 us (a tenth of a three-agent trial), and
    importing rng with core would load it with every command."""
    from . import rng

    return rng


def run_trial(
    protocol: Protocol,
    n: int,
    seed: int,
    *,
    max_steps: Optional[int] = None,
    stop_event: Optional[tuple[str, Union[CountWindow, StopPredicate]]] = None,
    observers: Iterable = (),
    initial: Optional[Sequence[int]] = None,
) -> TrialRecord:
    """Run one seeded execution from the all-initial configuration.

    Each step takes the next pair of ``pair_blocks(seed, n, max_steps)``
    (the pairs ``sample_interaction`` draws from ``Splitmix64(seed)``),
    applies it, then notifies every observer with ``notify(trial,
    interaction, old_pair, new_pair)``.  ``stop_event`` is a ``(name,
    stop)`` pair: the run halts at the first step where the stop holds
    (checked before the first interaction as well) and records that step in
    ``event_steps`` under ``name``, or it halts where the stream ends, after
    ``max_steps`` interactions, whichever comes first.  Hitting the step
    budget without the stop firing marks the record as truncated rather than
    raising.

    The stop is a :class:`CountWindow` or a predicate over the trial.
    Without observers, a window is read as data: the run keeps only the
    window's count, builds no ``Trial``, and tests the window after the steps
    that change the count.  A predicate must depend on ``trial.counts`` and
    ``trial.states`` only; without observers it is evaluated at step 0 and
    after each step that changes the configuration.  Either way runs of null
    steps (pairs whose rule changes neither state) are counted in bulk rather
    than visited, so the record is the same as if the stop were checked
    every step.  With observers attached, every step is visited, notified
    and followed by a check of the stop, so a predicate may also read
    observer state.  A window naming a state outside the protocol raises
    ValueError.

    ``initial`` optionally overrides the starting configuration (the model's
    executions always start all-initial; the override is a harness feature
    for experiments that seed one special agent).

    The record's ``final_states`` is the engine's own state list at the halt.

    Determinism: two runs with identical arguments produce identical
    interaction sequences, event steps, and final states.
    """
    rng = _rng()
    max_steps = step_budget(n, max_steps)
    rng.check_population(n, 2)  # before the n-entry state list

    if initial is None:
        states = [protocol.initial_state] * n
    else:
        states = list(initial)
        if len(states) != n:
            raise ValueError("initial configuration length must equal n")
        if any(not 0 <= s < protocol.num_states for s in states):
            raise ValueError("initial configuration has out-of-range states")
    event_name, stop = stop_event if stop_event is not None else (None, None)
    notify_fns = [obs.notify for obs in observers] if observers else []

    # A window run keeps the window's count, changed by the rows' dc; a run
    # with observers or a predicate keeps a Trial, with counts, and its rows'
    # dc is 0.  A run with no stop and no observers is a window run that
    # never stops.
    if stop is None and not notify_fns:
        stop = _NEVER
    if type(stop) is CountWindow:
        watched = frozenset(stop.states)
        rows = protocol._rows[watched]  # checks the window's states
    trial = None
    if notify_fns or type(stop) is not CountWindow:
        trial = Trial(protocol, states)
        counts = trial.counts
        # with observers every step takes the change path, null or not
        rows = protocol._rows[None if notify_fns else frozenset()]
        stopped = stop is not None and stop(trial)
    else:
        low, high = stop.low, stop.high
        count = sum(map(states.count, watched))
        stopped = low <= count <= high
    events: dict[str, int] = {}
    if stopped:
        events[event_name] = 0

    # Each block is walked in segments of up to DENSE_GAP pairs, the pair at
    # position k being step ``step + k + 1``.  A segment with no change, or
    # one holding a single change that a scan found at least DENSE_GAP pairs
    # on, sets ``scanning``: the next segment starts at the next change that
    # an array scan of the block finds, which may lie in a later block, the
    # null steps before it counted at once.  Runs with observers never
    # scan, as their rows have no None.  ``mirror`` (made at the first scan,
    # which also imports numpy) is a numpy view of ``buf``, a copy of
    # ``states`` kept in step with it, and ``flag`` says per agent whether its
    # state is active, with a rule that changes a state when it initiates.  A
    # pair whose initiator is not active is null, so a scan looks up
    # ``changes`` only at the pairs whose initiator is flagged (for pairwise
    # elimination, the leaders).  When every state is active, as in the
    # one-way epidemic, the filter would keep every pair at about twice the
    # cost of the unfiltered lookup, and ``flags`` is None.  A run that stops
    # at step 0 asks for a stream of no steps, which computes no block.
    step, scanning, mirror = 0, False, None
    for U, V in rng.pair_blocks(seed, n, 0 if stopped else max_steps):
        i, end, last = 0, len(U), -1  # last: the position of the last change
        while i < end:
            far = False
            if scanning:
                if mirror is None:
                    import numpy as np

                    buf = array("q", states)
                    mirror = np.frombuffer(buf, np.int64)
                    changes, width = protocol._changes, protocol.num_states
                    active = changes.reshape(width, width).any(1)
                    flag = array("B", active[mirror].tobytes())
                    flags = None if active.all() else np.frombuffer(flag, bool)
                    active = active.tolist()
                Ur, Vr = np.frombuffer(U, np.uint32)[i:], np.frombuffer(V, np.uint32)[i:]
                if flags is not None:  # only a pair whose initiator is active can change
                    at = flags.take(Ur).nonzero()[0]
                    Ur, Vr = Ur.take(at), Vr.take(at)
                rest = changes[mirror.take(Ur) * width + mirror.take(Vr)]
                gap = int(rest.argmax()) if len(rest) else 0
                if not len(rest) or not rest[gap]:  # the rest of the block is null
                    break
                if flags is not None:
                    gap = int(at[gap])
                far = gap >= DENSE_GAP
                i += gap
            j = i + 1 if far else i + DENSE_GAP
            if j > end:
                j = end
            # the leading blocks, shorter than DENSE_GAP pairs, go unsliced
            segment = zip(range(end), U, V) if j - i == end else zip(range(i, j), U[i:j], V[i:j])
            for k, u, v in segment:
                a = states[u]
                b = states[v]
                r = rows[a][b]
                if r is None:
                    continue
                last = k
                a2, b2, dc = r
                states[u] = a2
                states[v] = b2
                if mirror is not None:
                    buf[u] = a2
                    buf[v] = b2
                    flag[u] = active[a2]
                    flag[v] = active[b2]
                if dc:
                    count += dc
                    if low <= count <= high:
                        stopped = True
                        break
                elif trial is not None:
                    if a2 != a:
                        counts[a] -= 1
                        counts[a2] += 1
                    if b2 != b:
                        counts[b] -= 1
                        counts[b2] += 1
                    trial.step = step + k + 1
                    if notify_fns:
                        e = Interaction(u, v)
                        old = (a, b)
                        new = (a2, b2)
                        for fn in notify_fns:
                            fn(trial, e, old, new)
                    if stop is not None and stop(trial):
                        stopped = True
                        break
            if stopped:
                step += k + 1
                events[event_name] = step
                break
            scanning = far or last < i
            i = j
        if stopped:
            break
        step += end
    if trial is not None:
        trial.step = step

    return TrialRecord(
        seed=seed,
        n=n,
        steps_taken=step,
        event_steps=events,
        final_states=states,
        truncated=stop_event is not None and not stopped,
    )
