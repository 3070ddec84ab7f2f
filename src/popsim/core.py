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

import hashlib
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .rng import Splitmix64, pair_stream

LEADER = "L"
FOLLOWER = "F"

# A configuration is a plain list of state ids, one per agent.
Configuration = list[int]

TransitionTable = tuple[tuple[tuple[int, int], ...], ...]


class Interaction(NamedTuple):
    """One ordered interaction; the two roles are asymmetric."""

    initiator: int
    responder: int


@dataclass(frozen=True)
class Protocol:
    """Immutable protocol definition, shareable across concurrent trials.

    ``transitions[a][b]`` is the ordered pair of next states when an agent in
    state ``a`` initiates an interaction with a responder in state ``b``.
    The table is total by construction, so every reachable state id is valid.
    """

    num_states: int
    initial_state: int
    transitions: TransitionTable
    outputs: tuple[str, ...]
    name: str = ""

    def __post_init__(self):
        if self.num_states < 1:
            raise ValueError("protocol needs at least one state")
        if not 0 <= self.initial_state < self.num_states:
            raise ValueError("initial state out of range")
        if len(self.transitions) != self.num_states:
            raise ValueError("transition table must have one row per state")
        for a, row in enumerate(self.transitions):
            if len(row) != self.num_states:
                raise ValueError(f"transition row {a} is not total")
            for pair in row:
                if len(pair) != 2 or not all(0 <= s < self.num_states for s in pair):
                    raise ValueError(f"transition entry {pair} out of range")
        if len(self.outputs) != self.num_states:
            raise ValueError("outputs must be total over states")

    def output_states(self, symbol: str) -> tuple[int, ...]:
        """State ids mapped to ``symbol`` by the output function."""
        return tuple(s for s, y in enumerate(self.outputs) if y == symbol)


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

    def __init__(self, protocol: Protocol, n: int, states: Configuration):
        self.protocol = protocol
        self.n = n
        self.states = states
        self.counts = [0] * protocol.num_states
        for s in states:
            self.counts[s] += 1
        self.step = 0


@dataclass
class TrialRecord:
    """Summary of one finished execution."""

    seed: int
    n: int
    steps_taken: int
    event_steps: dict[str, int] = field(default_factory=dict)
    final_states: Optional[Configuration] = None
    truncated: bool = False

    @property
    def parallel_time(self) -> float:
        return self.steps_taken / self.n


StopPredicate = Callable[[Trial], bool]


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

    Each step takes the next pair of ``pair_stream(seed, n)`` (the pairs
    ``sample_interaction`` draws from ``Splitmix64(seed)``), applies it, then
    notifies every observer with ``notify(trial, interaction, old_pair,
    new_pair)``.  ``stop_event`` is a ``(name, predicate)`` pair: the run
    halts at the first step where the predicate holds (checked before the
    first interaction as well) and records that step in ``event_steps``
    under ``name``, or it halts after ``max_steps`` interactions, whichever
    comes first.  Hitting the step budget without the predicate firing marks
    the record as truncated rather than raising.

    ``initial`` optionally overrides the starting configuration (the model's
    executions always start all-initial; the override is a harness feature
    for experiments that seed one special agent).

    The record's ``final_states`` is the engine's own state list at the halt.

    Determinism: two runs with identical arguments produce identical
    interaction sequences, event steps, and final states.
    """
    max_steps = step_budget(n, max_steps)

    if initial is None:
        states = [protocol.initial_state] * n
    else:
        states = list(initial)
        if len(states) != n:
            raise ValueError("initial configuration length must equal n")
        if any(not 0 <= s < protocol.num_states for s in states):
            raise ValueError("initial configuration has out-of-range states")

    trial = Trial(protocol, n, states)
    counts = trial.counts
    table = protocol.transitions
    notify_fns = [obs.notify for obs in observers]
    events: dict[str, int] = {}
    event_name, event_pred = stop_event if stop_event is not None else (None, None)

    stopped = False
    for u, v in pair_stream(seed, n):
        if event_pred is not None and event_pred(trial):
            events[event_name] = trial.step
            stopped = True
            break
        if trial.step >= max_steps:
            break

        a = states[u]
        b = states[v]
        a2, b2 = table[a][b]
        if a2 != a:
            counts[a] -= 1
            counts[a2] += 1
            states[u] = a2
        if b2 != b:
            counts[b] -= 1
            counts[b2] += 1
            states[v] = b2
        trial.step += 1
        if notify_fns:
            e = Interaction(u, v)
            old = (a, b)
            new = (a2, b2)
            for fn in notify_fns:
                fn(trial, e, old, new)

    return TrialRecord(
        seed=seed,
        n=n,
        steps_taken=trial.step,
        event_steps=events,
        final_states=states,
        truncated=stop_event is not None and not stopped,
    )
