"""Batch experiment front end.

Every command is deterministic given its flags: per-trial seeds derive from
the ``--seed`` base and the trial index through a fixed 64-bit mixer, output
rows are written in trial order regardless of ``--jobs``, and no timestamps
or environment details leak into the output, so repeated invocations are
byte-identical.

Exit codes: 0 success, 2 usage or configuration error, 3 resource budget
exceeded, 4 internal assertion failure.

A process runs :func:`console`, as the ``popsim`` script and as ``python -m
popsim.cli``: :func:`main`'s exit code, with ``gc.freeze()`` on every way out.
The interpreter then exits as usual (atexit handlers, flushes, closes), but its
last collections skip the frozen heap that exit frees anyway: 9-20 ms of each
benchmark command on a 2-vCPU Xeon guest.  In-process callers of :func:`main`
never freeze.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
from typing import Optional, Sequence

from . import __version__
from .core import (
    DEFAULT_BUDGET,
    LEADER,
    BudgetExceededError,
    CountWindow,
    NonAbsorbingError,
    Protocol,
    run_trial,
    step_budget,
)


def _lazy(module: str, name: str):
    """``name`` of the popsim module ``module``, imported at the first call,
    so that each command loads only the modules it runs."""
    target = None

    def forward(*args, **kwargs):
        nonlocal target
        if target is None:
            # not importlib.import_module, whose imports -X importtime omits
            target = getattr(__import__(f"{__package__}.{module}", fromlist=[name]), name)
        return target(*args, **kwargs)

    return forward


# perfbench/spans.py traces these as ``popsim.cli`` globals, so they stay
# module-level names here; they become plain local imports once the spans
# wrap the defining modules (ROADMAP item 4, "Spans").
derive_seed = _lazy("rng", "derive_seed")
make_protocol = _lazy("protocols", "make_protocol")
first_exceed_time = _lazy("influence", "first_exceed_time")
enumerate_reachable = _lazy("exact", "enumerate_reachable")
safety_verdicts = _lazy("exact", "safety_verdicts")
expected_hitting_steps = _lazy("exact", "expected_hitting_steps")
summarize = _lazy("stats", "summarize")

BUDGET_ENV = "POPSIM_BUDGET"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


# Python 3.11's fractions._RATIONAL_FORMAT (its d* typo read as \d*), to be
# matched in full, ignoring case
_RATIONAL = (r"\s*(?P<sign>[-+]?)(?=\d|\.\d)(?P<num>\d*|\d+(_\d+)*)(?:(?:/(?P<denom>\d+(_\d+)*))?"
             r"|(?:\.(?P<decimal>\d*|\d+(_\d+)*))?(?:E(?P<exp>[-+]?\d+(_\d+)*))?)\s*")


def _number(text: str) -> tuple[int, int]:
    """The rational number ``text`` as ``(numerator, denominator)`` in
    lowest terms, what ``Fraction(text)`` reads on Python 3.11, with
    integers alone.  A decimal exponent (``1e-3``) may not pass 4300,
    Python's digit limit for integer strings: its power of ten takes
    seconds to build past about 10^6."""
    import re

    m = re.fullmatch(_RATIONAL, text, re.IGNORECASE)
    if m is None or m["denom"] and not int(m["denom"]):
        raise ValueError(f"{text!r} is not a rational number with a nonzero denominator")
    decimal, exp = (m["decimal"] or "").replace("_", ""), int(m["exp"] or "0")
    if abs(exp) > 4300:
        raise ValueError(f"decimal exponent of {text!r} passes 4300")
    num = (int(m["num"] or "0") * 10 ** len(decimal) + int(decimal or "0")) * 10 ** max(exp, 0)
    den = int(m["denom"] or "1") * 10 ** (len(decimal) - min(exp, 0))
    g = math.gcd(num, den)
    return (-num if m["sign"] == "-" else num) // g, den // g


def threshold_count(expr: str, n: int) -> int:
    """Evaluate a threshold expression for one population size.

    Supported forms: ``n``, ``n^A`` with rational A (``2/3``, ``0.5``, ``2``),
    ``log(n)`` (natural log), or a plain number.  Results are rounded up with
    exact integer arithmetic for the power form, matching the convention used
    by the analytic oracles.  For A = p/q in lowest terms, n^p must be below
    2^1024; a decimal exponent, in A or in a plain number, may not pass 4300
    (see :func:`_number`).
    """
    expr = expr.strip()
    if expr == "log(n)":
        value = max(1, math.ceil(math.log(n)))
    elif expr == "n":
        value = n
    elif expr.startswith("n^"):
        from .stats import ceil_rational_power

        try:
            num, den = _number(expr[2:])
        except ValueError:
            raise ValueError(f"bad exponent in threshold expression {expr!r}") from None
        if num < 0:
            raise ValueError("threshold exponent must be >= 0")
        value = ceil_rational_power(n, num, den)
    else:
        try:
            num, den = _number(expr)
        except ValueError:
            raise ValueError(f"unsupported threshold expression {expr!r}") from None
        value = -(-num // den)
    if value < 1:
        raise ValueError(f"threshold expression {expr!r} evaluates below 1 at n={n}")
    return value


def _resolve_protocol(args, n: int) -> Optional[Protocol]:
    """The protocol of ``--protocol-file`` or ``--protocol`` at this n, or
    None for a command that takes neither (``influencer``, ``coupon``).  A
    sweep reads it once, for every size."""
    if getattr(args, "protocol_file", None):
        from .protocols import load_protocol

        return load_protocol(args.protocol_file)
    name = getattr(args, "protocol", None)
    return None if name is None else make_protocol(name, n)


def _one_leader_stop(protocol: Protocol) -> CountWindow:
    """Stop window: exactly one agent outputs the leader symbol."""
    return CountWindow(frozenset(protocol.output_states(LEADER)), 1, 1)


def _run_plan(protocol: Protocol, n: int, threshold: Optional[int]):
    """The ``(stop_event, initial)`` arguments of a plain run of ``protocol``.

    A protocol equal in every field to ``make_protocol(protocol.name, n)``
    gets its catalog entry's stop event and start, whether it came from
    ``--protocol`` or from a file equal to the entry's document; a protocol
    file may take any name, so one that only borrows a catalog name is
    planned like any other file.  Other leader-outputting protocols stop at
    the event ``one_leader``; the rest run to the step budget.  A threshold
    is an error unless the entry's stop reads it.
    """
    from .protocols import CATALOG

    entry = CATALOG.get(protocol.name)
    if entry is not None and make_protocol(protocol.name, n) != protocol:
        entry = None
    if threshold is not None and (entry is None or not entry.reads_threshold):
        readers = ", ".join(name for name, e in CATALOG.items() if e.reads_threshold)
        raise ValueError(f"--threshold is read only by the stop of {readers}")
    if entry is not None:
        stop = entry.stop(n, threshold)
        stop_event = (entry.event, stop) if stop is not None else None
        return stop_event, entry.start(n)
    if protocol.output_states(LEADER):
        return ("one_leader", _one_leader_stop(protocol)), None
    return None, None


def _run_job(job) -> dict:
    """One trial of ``run``; top level so worker processes can pickle it."""
    protocol, n, _, trial_idx, seed, max_steps, stop_event, initial = job
    rec = run_trial(protocol, n, seed, max_steps=max_steps, stop_event=stop_event, initial=initial)
    row = {"trial": trial_idx, "seed": seed, "n": n, "steps": rec.steps_taken,
           "parallel_time": rec.parallel_time, "truncated": int(rec.truncated)}
    if stop_event is not None:
        row[f"{stop_event[0]}_step"] = rec.event_steps.get(stop_event[0], "")
    return row


def _coupon_job(job) -> dict:
    """One trial of ``coupon``, read off its pair stream by
    ``rng.first_fresh_below``; top level so worker processes can pickle it."""
    from .rng import first_fresh_below

    _, n, f, trial_idx, seed, max_steps = job
    budget = step_budget(n, max_steps)
    t = first_fresh_below(seed, n, f, budget)
    steps = budget if t is None else t
    return {"n": n, "trial": trial_idx, "seed": seed, "f": f, "steps": steps,
            "parallel_time": steps / n, "truncated": int(t is None)}


def _influencer_job(job) -> dict:
    from .influence import INFLUENCER_EVENT

    _, n, threshold, trial_idx, seed, max_steps, agent, budget = job
    rec = first_exceed_time(None, n, seed, threshold, max_steps=max_steps, agent=agent, budget=budget)
    t_min = rec.event_steps.get(INFLUENCER_EVENT)
    ratio = t_min / (n * math.log(n)) if t_min is not None else None
    return {
        "n": n,
        "trial": trial_idx,
        "seed": seed,
        "threshold": threshold,
        "t_min": t_min if t_min is not None else "",
        "ratio": ratio if ratio is not None else "",
        "truncated": int(rec.truncated),
    }


def _map_jobs(fn, jobs_list, workers: int):
    if workers <= 1 or len(jobs_list) <= 1:
        return [fn(job) for job in jobs_list]
    # imported here: it adds about 15 ms to every command's import, and
    # --jobs 1 never uses it
    from concurrent.futures import ProcessPoolExecutor

    chunk = max(1, len(jobs_list) // (workers * 4))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs_list, chunksize=chunk))


def _sweep(args, job, *extra):
    """Check every ``--n``, then return the generator that runs ``job`` on
    every trial of each size, yielding ``(n, threshold, rows)`` per size with
    the rows in trial order whatever ``--jobs``.  A job is ``(protocol, n,
    threshold, trial, seed, max_steps, *plan, *extra)``; threshold is None
    when no ``--threshold`` is set, and protocol when the command takes none.
    ``plan`` is the size's ``(stop_event, initial)`` from :func:`_run_plan`,
    and empty when there is no protocol.  The step budget, the schedule's
    range, the threshold and the plan refuse a size before any trial runs."""
    from .rng import check_population

    for n in args.n:  # first: a plan's start has n entries, and make_protocol refuses n < 1 only
        step_budget(n, args.max_steps)
        check_population(n, 2)
    protocol = _resolve_protocol(args, args.n[0])
    sizes = []
    for n in args.n:
        threshold = threshold_count(args.threshold, n) if args.threshold is not None else None
        sizes.append((n, threshold, () if protocol is None else _run_plan(protocol, n, threshold)))

    def run(n, threshold, plan):
        jobs = [(protocol, n, threshold, t, derive_seed(args.seed, t), args.max_steps, *plan, *extra)
                for t in range(args.trials)]
        return n, threshold, _map_jobs(job, jobs, args.jobs)

    return (run(*size) for size in sizes)


def _format_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return "" if value is None else str(value)


def _render_rows(rows: list[dict], columns: list[str], fmt: str, schema: str) -> str:
    header = f"# schema={schema} tool=popsim/{__version__}"
    if fmt == "csv":
        import csv
        import io

        buf = io.StringIO()
        buf.write(header + "\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_cell(row.get(col, "")) for col in columns])
        return buf.getvalue()
    if fmt == "gnuplot":
        lines = [header, "# columns: " + " ".join(columns)]
        for row in rows:
            lines.append(" ".join(_format_cell(row.get(col, "")) or "nan" for col in columns))
        return "\n".join(lines) + "\n"
    import json  # the one format left: argparse's choices allow no other

    cleaned = [{col: row.get(col, None) for col in columns} for row in rows]
    doc = {"schema": schema, "tool": f"popsim/{__version__}", "rows": cleaned}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _open_out(path: Optional[str]):
    """A context manager writing to ``path``, or to stdout for None or ``-``."""
    if path is None or path == "-":
        from contextlib import nullcontext

        return nullcontext(sys.stdout)
    return open(path, "w", newline="")


def _emit(text: str, path: Optional[str]) -> None:
    with _open_out(path) as fh:
        fh.write(text)


def _summary_row(n: int, threshold: int, ratios: list[float]) -> dict:
    row = {"n": n, "threshold": threshold, "count": len(ratios)}
    if ratios:
        est = summarize(ratios)
        row.update(
            mean_ratio=est.mean,
            variance=est.variance,
            std_error=est.std_error,
            **{f"p{lvl}": val for lvl, val in est.percentiles.items()},
        )
    return row


def cmd_run(args) -> int:
    log_trial = None  # (n, seed, steps) of trial 0 of the first size
    rows = []
    event_columns: list[str] = []
    for n, _, results in _sweep(args, _run_job):
        rows.extend(results)
        for col in results[0]:
            if col.endswith("_step") and col not in event_columns:
                event_columns.append(col)
        if log_trial is None:
            log_trial = (n, results[0]["seed"], results[0]["steps"])
    columns = ["trial", "seed", "n", "steps", "parallel_time", "truncated", *event_columns]
    _emit(_render_rows(rows, columns, args.format, "popsim.run.v1"), args.out)
    if args.save_log:
        from .influence import write_log
        from .rng import pair_stream

        # a trial's schedule is its first ``steps`` pairs, whatever the protocol
        n, seed, steps = log_trial
        write_log(n, pair_stream(seed, n, steps), args.save_log)
    return EXIT_OK


def cmd_influencer(args) -> int:
    from .influence import _check_agent, mask_words, write_size_series
    from .rng import pair_stream
    from .stats import PERCENTILE_LEVELS

    # The kernel keeps n-entry lists and 8 bytes a step, about n ln n steps,
    # so n itself is the work counted against the budget; a switch to masks
    # charges their mask_words(n) in the kernel.
    budget = _budget()
    for n in args.n:
        if n > budget:
            raise BudgetExceededError(f"n={n} exceeds budget {budget}")
        if args.agent is not None:
            _check_agent(n, args.agent)
    if args.series_out:  # the series of the first size replays masks
        n, words = args.n[0], mask_words(args.n[0])
        if words > budget:
            raise BudgetExceededError(f"the size series needs {words} mask words for n={n}, past budget {budget}")
    trial_rows = []
    summary_rows = []
    series = None  # (n, seed, steps) of the trial the size series replays
    for n, threshold, results in _sweep(args, _influencer_job, args.agent, budget):
        trial_rows.extend(results)
        ratios = [row["ratio"] for row in results if row["ratio"] != ""]
        summary_rows.append(_summary_row(n, threshold, ratios))
        if args.series_out and series is None:
            first = results[0]
            steps = step_budget(n, args.max_steps) if first["truncated"] else first["t_min"]
            # one mask union and one row per replayed step; no output is open yet
            if steps > budget:
                raise BudgetExceededError(f"the size series of n={n} replays {steps} steps, past budget {budget}")
            series = (n, first["seed"], steps)

    # written once every size has run, so a later size over budget leaves none
    if series is not None:
        n, seed, steps = series
        write_size_series(n, pair_stream(seed, n, steps), args.series_out)
    trial_cols = ["n", "trial", "seed", "threshold", "t_min", "ratio", "truncated"]
    _emit(_render_rows(trial_rows, trial_cols, args.format, "popsim.influencer-trials.v1"), args.out)
    summary_cols = ["n", "threshold", "count", "mean_ratio", "variance", "std_error"]
    summary_cols += [f"p{lvl}" for lvl in PERCENTILE_LEVELS]
    summary_text = _render_rows(summary_rows, summary_cols, args.format, "popsim.influencer-summary.v1")
    _emit(summary_text, _summary_path(args))
    return EXIT_OK


def _summary_path(args) -> Optional[str]:
    """Summary rows go to --summary-out, or a ``-summary`` sibling of --out,
    or stdout after the trial rows.  An --out that exists but is not a
    regular file (``/dev/null``, a FIFO) has no sibling: its summary goes to
    stdout."""
    if args.summary_out:
        return args.summary_out
    out = args.out
    if out and out != "-" and (os.path.isfile(out) or not os.path.exists(out)):
        root, ext = os.path.splitext(out)
        return f"{root}-summary{ext or '.csv'}"
    return None


def cmd_coupon(args) -> int:
    from .stats import coupon_spec, expected_coupon_sum, f_star, variance_coupon_sum

    sweep = _sweep(args, _coupon_job)
    summary_rows = []
    for n in args.n:  # each threshold is checked against its n before any trial runs
        f = threshold_count(args.threshold, n)
        spec = coupon_spec(n, f)
        summary_rows.append({"n": n, "f": f, "f_star": f_star(f), "analytic_mean": expected_coupon_sum(spec),
                             "analytic_variance": variance_coupon_sum(spec)})
    trial_rows = []
    for (_, _, results), summary in zip(sweep, summary_rows):
        trial_rows.extend(results)
        steps = [row["steps"] for row in results if not row["truncated"]]
        if steps:
            est = summarize([float(s) for s in steps])
            below_half = sum(1 for s in steps if s < summary["analytic_mean"] / 2)
            summary.update(empirical_mean=est.mean, empirical_std_error=est.std_error,
                           fraction_below_half_analytic=below_half / len(steps))

    trial_cols = ["n", "trial", "seed", "f", "steps", "parallel_time", "truncated"]
    _emit(_render_rows(trial_rows, trial_cols, args.format, "popsim.coupon-trials.v1"), args.out)
    summary_cols = ["n", "f", "f_star", "analytic_mean", "analytic_variance",
                    "empirical_mean", "empirical_std_error", "fraction_below_half_analytic"]
    summary_text = _render_rows(summary_rows, summary_cols, args.format, "popsim.coupon-summary.v1")
    _emit(summary_text, _summary_path(args))
    return EXIT_OK


def _budget() -> int:
    """The resource budget of ``exact``, ``export-graph`` and ``influencer``:
    ``POPSIM_BUDGET``, a non-negative integer, or ``DEFAULT_BUDGET``."""
    text = os.environ.get(BUDGET_ENV)
    if text is None:
        return DEFAULT_BUDGET
    try:
        budget = int(text)
        if budget < 0:
            raise ValueError
    except ValueError:
        raise ValueError(f"{BUDGET_ENV}={text!r} is not a non-negative integer") from None
    return budget


def cmd_exact(args) -> int:
    import json

    if len(args.n) != 1:
        raise ValueError("exact analysis takes a single --n")
    n = args.n[0]
    protocol = _resolve_protocol(args, n)
    budget = _budget()
    space = enumerate_reachable(protocol, n, budget=budget)
    verdicts = safety_verdicts(space)
    safe = frozenset(i for i, v in enumerate(verdicts) if v.safe)

    report = {
        "schema": "popsim.exact.v1",
        "tool": f"popsim/{__version__}",
        "protocol": protocol.name,
        "n": n,
        "reachable_configurations": len(space),
        "safe_configurations": len(safe),
        "budget": budget,
        "configurations": [
            {
                "states": list(v.config),
                "safe": v.safe,
                "leader_count": v.leader_count,
                "reason": v.reason,
            }
            for v in verdicts
        ],
    }
    if safe:
        steps = expected_hitting_steps(space, lambda c: space.index[c] in safe)
        report["expected_stabilization_steps"] = {
            "rational": f"{steps.numerator}/{steps.denominator}" if steps.denominator != 1 else str(steps.numerator),
            "real": float(steps),
        }
        report["expected_stabilization_parallel_time"] = float(steps) / n
    else:
        report["expected_stabilization_steps"] = None
        report["note"] = "no safe configurations are reachable"
    _emit(json.dumps(report, sort_keys=True, indent=2) + "\n", args.out)
    return EXIT_OK


def cmd_export_graph(args) -> int:
    from .influence import InteractionLog, backward_sets, demo_log, layered_edges

    log = demo_log() if args.fixture else InteractionLog.load(args.log)
    v, t = args.agent, args.step
    # both check --agent and --step here, before any output is opened
    edges = layered_edges(log, t)
    layers = backward_sets(log, v, t)
    # n vertical and 2 cross edges per layer, each written as text, and again
    # as DOT with --dot, whose rank lines name the n agents of all t + 1
    # layers; one layer is counted at --step 0, so it has a cost too
    budget = _budget()
    counted = max(t, 1)
    if counted * (log.n + 2) > budget:
        raise BudgetExceededError(
            f"{counted} layers of {log.n} agents = {counted * (log.n + 2)} edges exceed budget {budget}"
        )
    with _open_out(args.out) as fh:
        fh.write(f"# schema=popsim.graph.v1 tool=popsim/{__version__}\n")
        fh.write(f"n={log.n} depth={t} query_agent={v}\nedges:\n")
        fh.writelines(f"{a},{i} -> {b},{j}\n" for (a, i), (b, j) in edges)
        fh.write("backward:\n")
        for layer, members in zip(range(t, -1, -1), layers):
            listed = ",".join(str(u) for u in sorted(members))
            fh.write(f"layer={layer} size={len(members)} members={listed}\n")
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write("digraph influence {\n  rankdir=BT;\n")
            for layer in range(t + 1):
                same = " ".join(f'"{u},{layer}"' for u in range(log.n))
                fh.write(f"  {{ rank=same; {same} }}\n")
            fh.writelines(f'  "{a},{i}" -> "{b},{j}";\n' for (a, i), (b, j) in layered_edges(log, t))
            fh.write("}\n")
    return EXIT_OK


def _positive_int(text: str) -> int:
    """argparse type of --trials and --jobs: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is below 1")
    return value


def _add_common(parser, *, sizes=True, trials=True):
    """Shared flags; ``trials`` marks the sweeps, which alone take --format
    (exact writes JSON and export-graph text)."""
    if sizes:
        parser.add_argument("--n", type=int, action="append", required=True,
                            help="population size (repeatable)")
    if trials:
        parser.add_argument("--trials", type=_positive_int, default=1)
        parser.add_argument("--seed", type=int, default=0,
                            help="sweep seed base; per-trial seeds derive from it")
        parser.add_argument("--max-steps", type=int, default=None)
        parser.add_argument("--jobs", type=_positive_int, default=1)
        parser.add_argument("--format", choices=["csv", "json", "gnuplot"], default="csv")
    parser.add_argument("--out", default=None, help="output path (default stdout)")


def _add_protocol_source(parser):
    """Exactly one of --protocol (a catalog name) and --protocol-file."""
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--protocol", default=None)
    source.add_argument("--protocol-file", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="popsim",
        description="Population-protocol experiments: simulation sweeps, "
        "influencer tracking, and exact small-population analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run seeded trials of a protocol")
    _add_protocol_source(p_run)
    p_run.add_argument("--threshold", default=None,
                       help="stop threshold for leave-init (e.g. n^2/3)")
    p_run.add_argument("--save-log", default=None,
                       help="record trial 0's interaction log to this path")
    _add_common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_inf = sub.add_parser("influencer", help="first-crossing times of influencer set sizes")
    p_inf.add_argument("--threshold", default="n^2/3")
    p_inf.add_argument("--agent", type=int, default=None,
                       help="track one fixed agent instead of the first crossing by anyone")
    p_inf.add_argument("--summary-out", default=None)
    p_inf.add_argument("--series-out", default=None,
                       help="write trial 0's size time series as CSV")
    _add_common(p_inf)
    # Influence growth does not depend on the protocol, so none is chosen.
    p_inf.set_defaults(func=cmd_influencer)

    p_coupon = sub.add_parser("coupon", help="initial-state drain experiment with analytic bound")
    p_coupon.add_argument("--threshold", default="n^2/3",
                          help="stop once fewer than this many agents have not interacted")
    p_coupon.add_argument("--summary-out", default=None)
    _add_common(p_coupon)
    p_coupon.set_defaults(func=cmd_coupon)

    p_exact = sub.add_parser("exact", help="exhaustive reachability, safety, and hitting time")
    _add_protocol_source(p_exact)
    _add_common(p_exact, trials=False)
    p_exact.set_defaults(func=cmd_exact)

    p_graph = sub.add_parser("export-graph", help="layered influence graph and backward sets")
    source = p_graph.add_mutually_exclusive_group(required=True)
    source.add_argument("--log", default=None, help="interaction log file")
    source.add_argument("--fixture", action="store_true",
                        help="use the built-in five-agent demo schedule")
    p_graph.add_argument("--agent", type=int, required=True)
    p_graph.add_argument("--step", type=int, required=True)
    p_graph.add_argument("--dot", default=None, help="also write Graphviz output here")
    _add_common(p_graph, sizes=False, trials=False)
    p_graph.set_defaults(func=cmd_export_graph)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"popsim: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except AssertionError as exc:
        print(f"popsim: internal assertion failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (ValueError, NonAbsorbingError, OSError) as exc:
        print(f"popsim: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console() -> int:
    """The process entry point: :func:`main` on ``sys.argv``, with the heap
    frozen as it returns (see the module docstring)."""
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    raise SystemExit(console())
