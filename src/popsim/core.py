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
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Optional, Sequence

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
    A protocol is not modified after construction: it compares and hashes
    by its five fields.
    """

    __slots__ = ("num_states", "initial_state", "transitions", "outputs", "name", "_mask")

    def __init__(
        self,
        num_states: int,
        initial_state: int,
        transitions: TransitionTable,
        outputs: tuple[str, ...],
        name: str = "",
    ):
        if num_states < 1:
            raise ValueError("protocol needs at least one state")
        if not 0 <= initial_state < num_states:
            raise ValueError("initial state out of range")
        if len(transitions) != num_states:
            raise ValueError("transition table must have one row per state")
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

    def _fields(self) -> tuple:
        return self.num_states, self.initial_state, self.transitions, self.outputs, self.name

    def __eq__(self, other):
        return self._fields() == other._fields() if type(other) is Protocol else NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return "Protocol({}, {}, {!r}, {!r}, name={!r})".format(*self._fields())

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
    """Mutable engine state for one execution; owned by exactly one run."""

    __slots__ = ("protocol", "n", "states", "counts", "step")

    def __init__(self, protocol: Protocol, n: int, states: Configuration, counts: Optional[list[int]] = None):
        """``counts``, when given, must be the number of agents of ``states``
        in each state; otherwise they are counted here."""
        self.protocol = protocol
        self.n = n
        self.states = states
        if counts is None:
            counts = [0] * protocol.num_states
            for s in states:
                counts[s] += 1
        self.counts = counts
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


# A stop predicate must be a function of ``trial.counts`` and ``trial.states``
# alone: without observers, run_trial evaluates it only at step 0 and after
# steps that change the configuration.
StopPredicate = Callable[[Trial], bool]

# Without observers, a trial whose last DENSE_GAP steps were null finds its next
# state change with one array scan of the rest of the block, and keeps
# scanning while the changes it finds are at least DENSE_GAP steps apart;
# when they come closer together, stepping in Python is cheaper.
DENSE_GAP = 64


def run_trial(
    protocol: Protocol,
    n: int,
    seed: int,
    *,
    max_steps: Optional[int] = None,
    stop_event: Optional[tuple[str, StopPredicate]] = None,
    observers: Iterable = (),
    initial: Optional[Sequence[int]] = None,
) -> TrialRecord:
    """Run one seeded execution from the all-initial configuration.

    Each step takes the next pair of ``pair_blocks(seed, n, max_steps)``
    (the pairs ``sample_interaction`` draws from ``Splitmix64(seed)``),
    applies it, then notifies every observer with ``notify(trial,
    interaction, old_pair, new_pair)``.  ``stop_event`` is a ``(name,
    predicate)`` pair: the run halts at the first step where the predicate
    holds (checked before the first interaction as well) and records that
    step in ``event_steps`` under ``name``, or it halts where the stream
    ends, after ``max_steps`` interactions, whichever comes first.  Hitting
    the step budget without the predicate firing marks the record as
    truncated rather than raising.

    The predicate must depend on ``trial.counts`` and ``trial.states`` only.
    Without observers it is evaluated at step 0 and after each step that
    changes the configuration, and runs of null steps (pairs whose rule
    changes neither state) are counted in bulk rather than visited, so the
    record is the same as if it were checked every step.  With observers
    attached, every step is visited, notified and followed by a predicate
    check, so a predicate may also read observer state.

    ``initial`` optionally overrides the starting configuration (the model's
    executions always start all-initial; the override is a harness feature
    for experiments that seed one special agent).

    The record's ``final_states`` is the engine's own state list at the halt.

    Determinism: two runs with identical arguments produce identical
    interaction sequences, event steps, and final states.
    """
    from .rng import check_population, pair_blocks

    max_steps = step_budget(n, max_steps)
    check_population(n, 2)  # before the n-entry state list

    counts = None  # counted by Trial unless the start is all-initial
    if initial is None:
        states = [protocol.initial_state] * n
        counts = [0] * protocol.num_states
        counts[protocol.initial_state] = n
    else:
        states = list(initial)
        if len(states) != n:
            raise ValueError("initial configuration length must equal n")
        if any(not 0 <= s < protocol.num_states for s in states):
            raise ValueError("initial configuration has out-of-range states")

    trial = Trial(protocol, n, states, counts)
    counts = trial.counts
    table = protocol.transitions
    notify_fns = [obs.notify for obs in observers]
    events: dict[str, int] = {}
    event_name, event_pred = stop_event if stop_event is not None else (None, None)

    step = 0
    stopped = event_pred is not None and event_pred(trial)
    if stopped:
        events[event_name] = 0
    # Each block is walked in segments that are stepped pair by pair: the rest
    # of the block, or, once ``skip_after`` nulls in a row have set
    # ``skipping``, the one state-changing pair that an array scan of the
    # block finds, the null steps before it counted at once.  Runs with
    # observers are never scanned.  ``mirror`` (made at the first scan, which
    # also imports numpy) is a numpy view of ``buf``, a copy of ``states``
    # kept in step with it, and ``flag`` says per agent whether its state is
    # active, with a rule that changes a state when it initiates.  A pair
    # whose initiator is not active is null, so a scan looks up ``changes``
    # only at the pairs whose initiator is flagged (for pairwise elimination,
    # the leaders).  When every state is active, as in the one-way epidemic,
    # the filter would keep every pair at about twice the cost of the
    # unfiltered lookup, and ``flags`` is None.  A run that stops at step 0
    # asks for a stream of no steps, which computes no block.
    skipping, nulls, mirror = False, 0, None
    skip_after = max_steps + 1 if notify_fns else DENSE_GAP
    for U, V in pair_blocks(seed, n, 0 if stopped else max_steps):
        i, end = 0, len(U)
        pairs = () if skipping else zip(U, V)  # a block in a null run is scanned at once
        while True:
            first = step
            for u, v in pairs:
                step += 1
                nulls += 1  # back to 0 if the step changes a state
                a = states[u]
                b = states[v]
                a2, b2 = table[a][b]
                if a2 != a:
                    counts[a] -= 1
                    counts[a2] += 1
                    states[u] = a2
                    nulls = 0
                    if mirror is not None:
                        buf[u] = a2
                        flag[u] = active[a2]
                if b2 != b:
                    counts[b] -= 1
                    counts[b2] += 1
                    states[v] = b2
                    nulls = 0
                    if mirror is not None:
                        buf[v] = b2
                        flag[v] = active[b2]
                if nulls >= skip_after:
                    skipping = True
                    break
                if notify_fns:
                    trial.step = step
                    e = Interaction(u, v)
                    old = (a, b)
                    new = (a2, b2)
                    for fn in notify_fns:
                        fn(trial, e, old, new)
                if event_pred is not None and (not nulls or notify_fns):
                    trial.step = step
                    if event_pred(trial):
                        events[event_name] = step
                        stopped = True
                        break
            if stopped:
                break
            i += step - first
            if i == end:
                break
            if not skipping:
                pairs = zip(U[i:], V[i:])
                continue
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
                step += end - i
                break
            if flags is not None:
                gap = int(at[gap])
            step += gap
            i += gap
            skipping = gap >= DENSE_GAP
            pairs = ((U[i], V[i]),)
        if stopped:
            break
    trial.step = step

    return TrialRecord(
        seed=seed,
        n=n,
        steps_taken=step,
        event_steps=events,
        final_states=states,
        truncated=stop_event is not None and not stopped,
    )
