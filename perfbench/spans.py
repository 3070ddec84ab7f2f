"""In-memory spans around the layer entry points that ``popsim.cli`` calls.

The traced run replaces names in the ``popsim.cli`` module namespace with
wrappers for the length of one ``cli.main(argv)`` call.  The CLI looks these
names up at call time, so no file under ``src/popsim`` is edited.  Each
wrapper records ``(name, start, end, parent)``; spans stay in memory and are
written out with the run's results.

Calls that one layer makes into another without going through ``popsim.cli``
(``first_exceed_time`` calling ``run_trial``, say) fall inside the caller's
span and count towards its self time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

# popsim.cli global name -> span name; the prefix before the first dot is the
# layer (module) the entry point belongs to.
WRAPPED = {
    "run_trial": "core.run_trial",
    "first_exceed_time": "influence.first_exceed_time",
    "enumerate_reachable": "exact.enumerate_reachable",
    "safety_verdicts": "exact.safety_verdicts",
    "expected_hitting_steps": "exact.expected_hitting_steps",
    "summarize": "stats.summarize",
    "derive_seed": "rng.derive_seed",
    "threshold_count": "cli.threshold_count",
    "make_protocol": "protocols.make_protocol",
}

ROOT = "cli.main"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records one tree of spans; the first span opened is the root."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            idx = len(self.spans)
            span = Span(name, 0.0, 0.0, parent)
            self.spans.append(span)
            self._stack.append(idx)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()

        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover.

        Children of one span run one after another, so their durations add up
        without overlap.
        """
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.duration
        return [span.duration - child_time[i] for i, span in enumerate(self.spans)]

    def self_by_name(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for span, own in zip(self.spans, self.self_times()):
            totals[span.name] = totals.get(span.name, 0.0) + own
        return totals

    def calls_by_name(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for span in self.spans:
            counts[span.name] = counts.get(span.name, 0) + 1
        return counts

    def to_json(self) -> list[dict]:
        return [
            {"id": i, "name": s.name, "start": s.start, "end": s.end, "parent": s.parent}
            for i, s in enumerate(self.spans)
        ]


def traced_main(cli_module, argv: list[str]) -> tuple[int, Tracer]:
    """Run ``cli_module.main(argv)`` once with every WRAPPED name traced."""
    tracer = Tracer()
    originals = {name: getattr(cli_module, name) for name in WRAPPED}
    try:
        for name, span_name in WRAPPED.items():
            setattr(cli_module, name, tracer.wrap(span_name, originals[name]))
        code = tracer.wrap(ROOT, cli_module.main)(argv)
    finally:
        for name, fn in originals.items():
            setattr(cli_module, name, fn)
    return code, tracer
