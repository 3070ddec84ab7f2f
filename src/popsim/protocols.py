"""Built-in protocols and the file-based protocol loader.

Catalog names (also accepted by the CLI): ``pairwise-elimination``,
``leave-init``, ``one-way-epidemic``.  Every constructor takes the population
size n, since protocol definitions are in general allowed to depend on it;
the built-ins here use constant state sets and only validate n.

A catalog entry carries the experiment as well as the protocol: the name of
the event a plain run stops at, the stop predicate over a trial's per-state
counts, and the start (the epidemic's one infected agent).  The CLI applies
them only to a protocol equal to the entry's in every field, so a protocol
file that borrows a catalog name gets none of them.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Union

from .core import FOLLOWER, LEADER, Configuration, Protocol, StopPredicate


class ProtocolLoadError(ValueError):
    """A protocol definition document failed validation."""


def _identity_table(num_states: int) -> list[list[tuple[int, int]]]:
    return [[(a, b) for b in range(num_states)] for a in range(num_states)]


def _freeze(table: list[list[tuple[int, int]]]) -> tuple:
    return tuple(tuple(row) for row in table)


def pairwise_elimination(n: int) -> Protocol:
    """Two leaders meeting demote the responder; everything else is inert.

    States: 0 = leader (initial, outputs L), 1 = follower (outputs F).  From
    the all-leader start the leader count can only shrink, and never below 1.
    """
    if n < 1:
        raise ValueError("population size must be >= 1")
    table = _identity_table(2)
    table[0][0] = (0, 1)
    return Protocol(
        num_states=2,
        initial_state=0,
        transitions=_freeze(table),
        outputs=(LEADER, FOLLOWER),
        name="pairwise-elimination",
    )


def leave_init(n: int) -> Protocol:
    """Both participants of any interaction leave the initial state for good.

    States: 0 = init (initial), 1 = done; both output F.  The count of agents
    still in init is non-increasing and drops by the number of participants
    currently in init (0, 1, or 2) at each step.
    """
    if n < 1:
        raise ValueError("population size must be >= 1")
    table = [[(1, 1), (1, 1)], [(1, 1), (1, 1)]]
    return Protocol(
        num_states=2,
        initial_state=0,
        transitions=_freeze(table),
        outputs=(FOLLOWER, FOLLOWER),
        name="leave-init",
    )


def one_way_epidemic(n: int) -> Protocol:
    """Infection spreads whenever either participant is infected.

    States: 0 = susceptible (initial), 1 = infected; both output F.  The rule
    is symmetric in the two roles, so with k infected agents the probability
    that one step infects someone new is 2k(n-k)/(n(n-1)).  The protocol
    starts all-susceptible like any other; its catalog entry's ``start`` seeds
    agent 0 infected, which runs pass to run_trial's ``initial`` override.
    """
    if n < 1:
        raise ValueError("population size must be >= 1")
    table = [[(0, 0), (1, 1)], [(1, 1), (1, 1)]]
    return Protocol(
        num_states=2,
        initial_state=0,
        transitions=_freeze(table),
        outputs=(FOLLOWER, FOLLOWER),
        name="one-way-epidemic",
    )


class CatalogEntry(NamedTuple):
    """A catalog protocol and the experiment a plain run makes of it.

    ``build(n)`` constructs the protocol.  ``stop(n, threshold)`` returns the
    predicate of the stop event named ``event``, or None when the run goes to
    its step budget; ``reads_threshold`` says whether it uses ``threshold``.
    The predicate reads only ``trial.counts`` (or ``trial.states``): a run
    without observers evaluates it only at step 0 and after steps that change
    the configuration (see ``core.run_trial``).
    ``start(n)`` returns the initial configuration, or None for all-initial.
    """

    build: Callable[[int], Protocol]
    event: str
    stop: Callable[[int, Optional[int]], Optional[StopPredicate]]
    start: Callable[[int], Optional[Configuration]] = lambda n: None
    reads_threshold: bool = False


CATALOG: dict[str, CatalogEntry] = {
    # Leaders only ever demote each other, so one leader is stabilization.
    "pairwise-elimination": CatalogEntry(
        pairwise_elimination, "stabilized", lambda n, threshold: lambda trial: trial.counts[0] == 1
    ),
    # Drains the initial state; without a threshold it runs to the budget.
    "leave-init": CatalogEntry(
        leave_init,
        "init_below_threshold",
        lambda n, threshold: None if threshold is None else lambda trial: trial.counts[0] < threshold,
        reads_threshold=True,
    ),
    # Spreads from one seeded infected agent until everyone is infected.
    "one-way-epidemic": CatalogEntry(
        one_way_epidemic,
        "all_infected",
        lambda n, threshold: lambda trial: trial.counts[1] == n,
        lambda n: [1] + [0] * (n - 1),
    ),
}


def make_protocol(name: str, n: int) -> Protocol:
    try:
        return CATALOG[name].build(n)
    except KeyError:
        known = ", ".join(sorted(CATALOG))
        raise ValueError(f"unknown protocol {name!r} (catalog: {known})") from None


def protocol_from_dict(doc: dict) -> Protocol:
    """Build a protocol from a parsed definition document.

    Expected fields: ``name``, ``states`` (list of state names), ``initial``
    (a state name), ``outputs`` (mapping state name -> output symbol, total),
    ``rules`` (list of ``[a, b, a', b']`` entries by state name).  Ordered
    pairs without a rule default to the identity transition.
    """
    try:
        state_names = list(doc["states"])
        initial = doc["initial"]
        outputs_doc = dict(doc["outputs"])
        rules = list(doc.get("rules", []))
    except (KeyError, TypeError) as exc:
        raise ProtocolLoadError(f"malformed protocol document: missing {exc}") from None

    if len(set(state_names)) != len(state_names):
        raise ProtocolLoadError("duplicate state names")
    index = {name: i for i, name in enumerate(state_names)}

    def state_id(name, where):
        if name not in index:
            raise ProtocolLoadError(f"unknown state name {name!r} in {where}")
        return index[name]

    initial_id = state_id(initial, "initial")

    missing = [name for name in state_names if name not in outputs_doc]
    if missing:
        raise ProtocolLoadError(f"outputs not total: missing {missing}")
    unknown = [name for name in outputs_doc if name not in index]
    if unknown:
        raise ProtocolLoadError(f"unknown state name {unknown[0]!r} in outputs")
    outputs = tuple(str(outputs_doc[name]) for name in state_names)

    table = _identity_table(len(state_names))
    seen: set[tuple[int, int]] = set()
    for rule in rules:
        if len(rule) != 4:
            raise ProtocolLoadError(f"rule {rule!r} must have four entries")
        a, b, a2, b2 = (state_id(name, f"rule {rule!r}") for name in rule)
        if (a, b) in seen:
            raise ProtocolLoadError(
                f"duplicate rule for ordered pair ({rule[0]!r}, {rule[1]!r})"
            )
        seen.add((a, b))
        table[a][b] = (a2, b2)

    return Protocol(
        num_states=len(state_names),
        initial_state=initial_id,
        transitions=_freeze(table),
        outputs=outputs,
        name=str(doc.get("name", "")),
    )


def load_protocol(path: Union[str, Path]) -> Protocol:
    """Load a protocol definition from a JSON file."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ProtocolLoadError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ProtocolLoadError(f"{path}: document must be a JSON object")
    return protocol_from_dict(doc)
