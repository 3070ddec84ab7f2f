"""Built-in protocols and the file-based protocol loader.

Catalog names (also accepted by the CLI): ``pairwise-elimination``,
``leave-init``, ``one-way-epidemic``.  Each is written as a protocol
document in the ``--protocol-file`` format, and :func:`protocol_from_dict`
builds every protocol: the catalog's once, when this module loads.

A catalog entry carries the experiment as well as the protocol: the name of
the event a plain run stops at, the count window that stops it, and the
start (the epidemic's one infected agent).  The CLI applies
them only to a protocol equal to the entry's in every field, so a file equal
to the entry's document gets them and one that only borrows its name does not.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Union

from .core import Configuration, CountWindow, Protocol


class ProtocolLoadError(ValueError):
    """A protocol definition document failed validation."""


class CatalogEntry(NamedTuple):
    """A catalog protocol, as a protocol document, and the experiment a plain
    run makes of it.

    ``document`` is the protocol in the ``--protocol-file`` format; its state
    order fixes the state ids that ``stop`` and ``start`` read.
    ``stop(n, threshold)`` returns the ``core.CountWindow`` of the stop
    event named ``event``: the run stops at the first step where the number
    of agents in the window's states lies in its bounds.  It returns None
    when the run goes to its step budget; ``reads_threshold`` says whether
    it uses ``threshold``.  A window is plain data, so a sweep plans it once
    per size and sends it to its workers.  ``start(n)`` returns the initial
    configuration, or None for all-initial.
    """

    document: dict
    event: str
    stop: Callable[[int, Optional[int]], Optional[CountWindow]]
    start: Callable[[int], Optional[Configuration]] = lambda n: None
    reads_threshold: bool = False


CATALOG: dict[str, CatalogEntry] = {
    # Two leaders meeting demote the responder; everything else is inert.
    # From the all-leader start the leader count can only shrink, and never
    # below 1, so one leader is stabilization.
    "pairwise-elimination": CatalogEntry(
        {"name": "pairwise-elimination", "states": ["L", "F"], "initial": "L",
         "outputs": {"L": "L", "F": "F"}, "rules": [["L", "L", "L", "F"]]},
        "stabilized",
        lambda n, threshold: CountWindow(frozenset({0}), 1, 1),
    ),
    # Both participants of any interaction leave the initial state for good,
    # so the count still in init drops by the participants in init (0, 1 or
    # 2) at each step.  Without a threshold it runs to the budget.
    "leave-init": CatalogEntry(
        {"name": "leave-init", "states": ["init", "done"], "initial": "init",
         "outputs": {"init": "F", "done": "F"},
         "rules": [["init", "init", "done", "done"], ["init", "done", "done", "done"],
                   ["done", "init", "done", "done"]]},
        "init_below_threshold",
        lambda n, threshold: None if threshold is None else CountWindow(frozenset({0}), 0, threshold - 1),
        reads_threshold=True,
    ),
    # Infection spreads whenever either participant is infected, so with k
    # infected the probability that a step infects someone new is
    # 2k(n-k)/(n(n-1)).  The protocol starts all-susceptible like any other;
    # the start seeds agent 0 infected, and the run goes until everyone is.
    "one-way-epidemic": CatalogEntry(
        {"name": "one-way-epidemic", "states": ["S", "I"], "initial": "S",
         "outputs": {"S": "F", "I": "F"}, "rules": [["S", "I", "I", "I"], ["I", "S", "I", "I"]]},
        "all_infected",
        lambda n, threshold: CountWindow(frozenset({1}), n, n),
        lambda n: [1] + [0] * (n - 1),
    ),
}


def make_protocol(name: str, n: int) -> Protocol:
    """The catalog protocol ``name`` for a population of ``n >= 1``: the one
    instance its document was parsed into, shared by every n."""
    try:
        protocol = _CATALOG_PROTOCOLS[name]
    except KeyError:
        known = ", ".join(sorted(CATALOG))
        raise ValueError(f"unknown protocol {name!r} (catalog: {known})") from None
    if n < 1:
        raise ValueError("population size must be >= 1")
    return protocol


def protocol_from_dict(doc: dict) -> Protocol:
    """Build a protocol from a parsed definition document.

    Expected fields: ``name``, ``states`` (list of distinct state names),
    ``initial`` (a state name), ``outputs`` (mapping state name -> output
    symbol, total), ``rules`` (list of ``[a, b, a', b']`` entries by state
    name).  Ordered pairs without a rule default to the identity transition.
    """
    try:
        state_names, initial, outputs_doc = doc["states"], doc["initial"], doc["outputs"]
    except KeyError as exc:
        raise ProtocolLoadError(f"malformed protocol document: missing {exc}") from None
    rules = doc.get("rules", [])

    def names(value) -> bool:
        return isinstance(value, list) and all(isinstance(name, str) for name in value)

    if not names(state_names) or len(set(state_names)) != len(state_names):
        raise ProtocolLoadError("'states' must be a list of distinct state names")
    if not isinstance(initial, str):
        raise ProtocolLoadError("'initial' must be a state name")
    if not isinstance(outputs_doc, dict):
        raise ProtocolLoadError("'outputs' must map state names to output symbols")
    if not isinstance(rules, list):
        raise ProtocolLoadError("'rules' must be a list of rules")
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

    table = [[(a, b) for b in range(len(state_names))] for a in range(len(state_names))]
    seen: set[tuple[int, int]] = set()
    for rule in rules:
        if not names(rule) or len(rule) != 4:
            raise ProtocolLoadError(f"rule {rule!r} in 'rules' must be a list of four state names")
        a, b, a2, b2 = (state_id(name, f"rule {rule!r}") for name in rule)
        if (a, b) in seen:
            raise ProtocolLoadError(f"duplicate rule for ordered pair ({rule[0]!r}, {rule[1]!r})")
        seen.add((a, b))
        table[a][b] = (a2, b2)

    return Protocol(
        num_states=len(state_names),
        initial_state=initial_id,
        transitions=tuple(map(tuple, table)),
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


# Each catalog document parsed once; make_protocol hands out these instances.
_CATALOG_PROTOCOLS = {name: protocol_from_dict(entry.document) for name, entry in CATALOG.items()}
