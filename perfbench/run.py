"""popsim benchmark: one CLI workload end to end, or its per-layer figures.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload elim-run --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics: the set-up time of a fresh
interpreter importing ``popsim.cli``, then repeated ``--jobs 1`` runs of the
workload's CLI command as child processes for ``--seconds`` seconds (at least
one run).  ``--trace 1`` makes one child run (the untraced time that
``trace.overhead_s`` compares against), a run at the pinned reference seed
when the workload seed differs from it, one traced in-process run of
``popsim.cli.main``, a counting pass through the public ``run_trial``
observer API, and the kernel probes, and reports the per-layer metrics.

End-to-end metrics, each a median over the child runs of one invocation:
``setup_s`` (time for a fresh interpreter to ``import popsim.cli``),
``work_per_s`` (simulated interactions summed from the output rows, or
solved instances for exact analysis, per second of the child's time) and
``peak_rss_mb`` (the child's own peak RSS).  The two timings are the
child's CPU time at reference CPU speed: fixed reference loops sample the
speed of the pinned CPU the child runs on, and the time is rescaled by it
(see ``Pacer``).  Raw wall figures are printed and saved beside them; the
sampling takes about a tenth of the CPU from the child, so raw wall times
read that much higher than in a plain run.

Every CLI run's outputs are checked (see ``workloads.py``) and hashed; a run
that exits non-zero, fails a check, or writes bytes that differ from the
first run of this invocation counts as failed.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and the
metrics named in ``BENCHMARK.json``; lines before it give a readable report.
Outputs, spans and provenance go to ``.perfbench_out/<workload>-s<seed>-t<trace>/``.

The metric names and units come from ``BENCHMARK.json`` at the checkout root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE_FILE = Path(__file__).resolve().parent / "reference_digests.json"
REFERENCE_SEED = 0
SETUP_REPEATS = {0: 5, 1: 3}
MIN_CHILD_RUNS = 3
CHILD_TIMEOUT_S = 150.0
SAMPLE_EVERY_S = 0.5
# Thread CPU seconds of Pacer's integer and memory loops that define
# reference CPU speed: about their times on an uncontended core of the
# machine the benchmark was written on (Xeon, Sapphire Rapids class,
# Python 3.11).
REFERENCE_S = (0.0175, 0.030)


class Launcher:
    """Client of ``launcher.py``, which spawns and reaps every child (see
    there for why the children's parent must be small)."""

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, "-I", "-S", str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv: list[str], log_stem: Path, while_waiting) -> dict:
        """Run this interpreter on ``argv`` with ``src`` on the path, calling
        ``while_waiting()`` every ``SAMPLE_EVERY_S`` until it exits.

        Returns the exit code, the wall time from spawn to exit, and the
        child's own CPU seconds and peak RSS from ``wait4``
        (``RUSAGE_CHILDREN`` would be a running maximum over every child).
        A child still running after ``CHILD_TIMEOUT_S`` is killed and
        reported with its signal exit code.
        """
        request = {"argv": argv, "log_stem": str(log_stem), "pythonpath": str(SRC),
                   "timeout_s": CHILD_TIMEOUT_S}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        while not select.select([self._proc.stdout], [], [], SAMPLE_EVERY_S)[0]:
            while_waiting()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher process exited")
        return json.loads(reply)

    def close(self) -> None:
        """Close the launcher's stdin, which kills a running child, and reap it."""
        self._proc.stdin.close()
        self._proc.wait()


class _Counter:
    __slots__ = ("v",)

    def __init__(self, v: int):
        self.v = v

    def bump(self) -> None:
        self.v += 1


class Pacer:
    """Runs children on one pinned CPU and samples its speed meanwhile.

    On a shared virtual CPU the same work runs up to twice as fast in one
    stretch of seconds to minutes as in another, so raw times of runs a
    minute apart spread by 30% and more.  Two fixed pure-Python loops, one
    on integers in registers and one on a few MB of lists, objects and a
    dict (contention slows the two differently), run on the same CPU right
    before each child, every ``SAMPLE_EVERY_S`` while it runs, and right
    after it.  They run no popsim code, so no change to the program moves
    them, and they are timed in thread CPU time, which leaves out the
    child's turns on the CPU.  ``speed_scale`` is the mean over the samples
    of the geometric mean of the two loop times over their ``REFERENCE_S``;
    the child's CPU time divided by it is its time at reference speed.
    """

    def __init__(self):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        self.launcher = Launcher()  # inherits the pinned CPU
        self._table = list(range(1 << 18))
        self._counters = [_Counter(i) for i in range(1 << 14)]
        self.last = self.sample()

    def _integer_loop(self) -> float:
        start = time.thread_time()
        x, xs = 1, [0] * 64
        for i in range(75_000):
            x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 + i) & 0xFFFFFFFFFFFFFFFF
            xs[i & 63] = x
        return time.thread_time() - start

    def _memory_loop(self) -> float:
        start = time.thread_time()
        table, counters, seen = self._table, self._counters, {}
        mask, cmask = len(table) - 1, len(counters) - 1
        x = 1
        for i in range(30_000):
            x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 + i) & 0xFFFFFFFFFFFFFFFF
            j = x & mask
            k = (j * 7919) & mask
            table[j], table[k] = table[k], table[j]
            counters[x & cmask].bump()
            seen[j & 1023] = (j, k)
        return time.thread_time() - start

    def sample(self) -> float:
        """This CPU's slowness now, relative to reference speed."""
        ref_int, ref_mem = REFERENCE_S
        return math.sqrt(self._integer_loop() / ref_int * self._memory_loop() / ref_mem)

    def spawn(self, argv: list[str], log_stem: Path) -> dict:
        samples = [self.last]
        run = self.launcher.run(argv, log_stem, lambda: samples.append(self.sample()))
        self.last = self.sample()
        samples.append(self.last)
        scale = statistics.fmean(samples)
        return {**run, "speed_scale": scale, "ref_s": run["cpu_s"] / scale}


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Session:
    """The CLI invocations of one benchmark run: failures and output digests."""

    def __init__(self, workload, out_dir: Path, seed: int, pacer: Pacer):
        self.workload = workload
        self.pacer = pacer
        self.out_dir = out_dir
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] | None = None  # first run at the workload seed

    def fail(self, label: str, problems: list[str]) -> None:
        self.failed += 1
        self.problems.extend(f"{label}: {p}" for p in problems)

    def outputs(self, stem: Path) -> dict[str, Path]:
        return {suffix: stem.with_name(stem.name + suffix) for suffix in self.workload.outputs}

    def inspect(self, label: str, stem: Path, exit_code: int, same_bytes: bool = True):
        """Check one invocation's outputs.  Returns their digests, or None
        when the invocation failed; a failure is counted either way."""
        self.attempted += 1
        if exit_code != 0:
            self.fail(label, [f"exit code {exit_code}"])
            return None
        files = self.outputs(stem)
        missing = [p.name for p in files.values() if not p.is_file()]
        if missing:
            self.fail(label, [f"missing output {m}" for m in missing])
            return None
        try:
            problems = self.workload.check(stem)
        except (ValueError, KeyError, TypeError) as exc:  # malformed output
            problems = [f"unreadable output: {exc!r}"]
        digests = {suffix: sha256_file(p) for suffix, p in files.items()}
        if same_bytes:
            if self.digests is None:
                self.digests = digests
            elif digests != self.digests:
                problems.append("output bytes differ from the first run at this seed")
        if problems:
            self.fail(label, problems)
            return None
        return digests

    def cli_run(self, label: str, seed: int) -> dict:
        stem = self.out_dir / label
        run = self.pacer.spawn(["-m", "popsim.cli", *self.workload.argv(seed, stem)], stem)
        digests = self.inspect(label, stem, run["exit_code"], same_bytes=seed == self.seed)
        work = self.workload.work(stem) if digests is not None else 0.0
        return {"label": label, "seed": seed, **run, "work": work, "sha256": digests}


def measure_setup(pacer: Pacer, out_dir: Path, repeats: int) -> list[dict]:
    """Fresh interpreters running ``import popsim.cli``, after one untimed
    import that fills the bytecode cache."""
    runs = []
    for i in range(repeats + 1):
        run = pacer.spawn(["-c", "import popsim.cli"], out_dir / f"setup{i}")
        if run["exit_code"] != 0:
            raise RuntimeError(f"import popsim.cli failed; see {out_dir}/setup{i}.stderr")
        if i:
            runs.append(run)
    return runs


def bytes_changed(workload, digests: dict[str, str] | None) -> list[str] | None:
    """Output files whose digest differs from the one recorded at the seed
    commit for the reference seed; a declared new stream may change them."""
    if digests is None:
        return None
    recorded = json.loads(REFERENCE_FILE.read_text())[workload.name]
    return sorted(s for s in workload.outputs if digests.get(s) != recorded.get(s))


def traced_run(session: Session, seed: int):
    """One in-process ``popsim.cli.main`` run with spans; returns the tracer
    and the output digests, or None for a run that crashed or failed."""
    import popsim.cli as cli
    from spans import traced_main

    stem = session.out_dir / "traced"
    try:
        code, tracer = traced_main(cli, session.workload.argv(seed, stem))
    except Exception:  # a crash in the program is a failed operation, not a benchmark error
        session.attempted += 1
        session.fail("traced", [traceback.format_exc()])
        return None, None
    return tracer, session.inspect("traced", stem, code)


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def git_commit() -> str | None:
    """HEAD of the checkout if it is a git work tree (read without git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "commit": git_commit(),
        "seed": seed,
    }


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def run_plain(session: Session, seed: int, seconds: float, trace: int) -> list[dict]:
    """Child runs of the workload: one when tracing, else as many as fit in
    ``seconds`` at the median length so far, and at least MIN_CHILD_RUNS."""
    runs = []
    start = time.perf_counter()
    while True:
        runs.append(session.cli_run(f"run{len(runs)}", seed))
        if trace:
            return runs
        typical = median([r["wall_s"] for r in runs])
        if len(runs) >= MIN_CHILD_RUNS and time.perf_counter() - start + typical > seconds:
            return runs


def per_layer_metrics(session: Session, seed: int, setup: list[dict], runs: list[dict],
                      results: dict) -> dict[str, float]:
    from probes import run_probes
    from spans import ROOT as ROOT_SPAN

    w = session.workload
    if w.seeded and seed != REFERENCE_SEED:
        results["reference_run"] = session.cli_run("reference", REFERENCE_SEED)
        results["bytes_changed"] = bytes_changed(w, results["reference_run"]["sha256"])
    tracer, traced_digests = traced_run(session, seed)

    # Counting pass through the public API; its per-trial steps must equal
    # the ones the CLI wrote.
    counts = w.count(seed)
    session.attempted += 1
    if runs[0]["sha256"] is not None and counts["per_trial_steps"] != w.trial_steps(
            session.out_dir / "run0"):
        session.fail("counting", ["per-trial steps differ from the CLI output"])
    results["counts"] = {k: v for k, v in counts.items() if k != "per_trial_steps"}

    values = run_probes()
    traced_files = session.outputs(session.out_dir / "traced").values()
    values.update({
        "rng.draws_per_pair": counts["draws_per_pair"],
        "core.trials": counts["trials"],
        "core.steps": counts["steps"],
        "core.null_step_share": counts["null_step_share"],
        "influence.steps": counts["influence_steps"],
        "exact.configs": counts["configs"],
        "exact.edges": counts["edges"],
        "cli.output_bytes": sum(p.stat().st_size for p in traced_files) if traced_digests else 0,
    })
    own = tracer.self_by_name() if tracer else {}
    for name in ("core.run_trial", "influence.first_exceed_time", "exact.enumerate_reachable",
                 "exact.safety_verdicts", "exact.expected_hitting_steps", "stats.summarize"):
        values[f"{name}.self_s"] = own.get(name, 0.0)
    values["cli.self_s"] = own.get(ROOT_SPAN, 0.0)
    total = tracer.spans[0].duration if tracer else 0.0
    # CPU times, since the speed sampling stretches the children's wall time.
    untraced = median([r["cpu_s"] for r in runs]) - median([r["cpu_s"] for r in setup])
    values["trace.overhead_s"] = total - untraced
    if tracer:
        if abs(sum(own.values()) - total) > 1e-6:
            raise RuntimeError("span self times do not add up to the traced total")
        layers: dict[str, float] = {}
        for name, t in own.items():
            layer = name.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + t
        results["trace"] = {
            "total_s": total,
            "self_s_by_span": own,
            "self_share_by_layer": {k: v / total for k, v in sorted(layers.items())},
            "calls_by_span": tracer.calls_by_name(),
            "spans": tracer.to_json(),
        }
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "popsim" / "cli.py").is_file() or not spec_path.is_file():
        print(f"perfbench: no popsim sources under {SRC} or no {spec_path.name}; "
              "run from the root of a popsim checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    out_dir = OUT / f"{workload.name}-s{args.seed}-t{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    results: dict = {"workload": workload.name, "provenance": provenance(args.seed)}
    pacer = Pacer()
    try:
        return measure(args, spec, workload, out_dir, pacer, results)
    finally:
        pacer.launcher.close()


def measure(args, spec: dict, workload, out_dir: Path, pacer: Pacer, results: dict) -> int:
    results["pinned_cpu"] = min(os.sched_getaffinity(0))
    session = Session(workload, out_dir, args.seed, pacer)
    setup = measure_setup(pacer, out_dir, SETUP_REPEATS[args.trace])
    runs = run_plain(session, args.seed, args.seconds, args.trace)
    results.update(setup=setup, runs=runs)
    if not workload.seeded or args.seed == REFERENCE_SEED:
        results["bytes_changed"] = bytes_changed(workload, runs[0]["sha256"])

    good = [r for r in runs if r["sha256"] is not None]
    values = {
        "setup_s": median([r["ref_s"] for r in setup]),
        "work_per_s": median([r["work"] / r["ref_s"] for r in good]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in good]),
    }
    if args.trace:
        values.update(per_layer_metrics(session, args.seed, setup, runs, results))
    report = {
        "wall_s": (median([r["wall_s"] for r in runs]), "s"),
        "samples": (len(runs), "count"),
        "wall_work_per_s": (median([r["work"] / r["wall_s"] for r in good]), "1/s"),
        "wall_setup_s": (median([r["wall_s"] for r in setup]), "s"),
        "speed_scale": (median([r["speed_scale"] for r in runs]), "ratio"),
        "failed_share": (session.failed / session.attempted, "share"),
    }

    kinds = ("end_to_end", "per_layer") if args.trace else ("end_to_end",)
    for kind in kinds:
        for m in spec[kind]:
            report[m["name"]] = (values[m["name"]], m["unit"])
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in spec["per_layer" if args.trace else "end_to_end"]
    }
    results.update(metrics=metrics, report={k: v for k, (v, _) in report.items()},
                   attempted=session.attempted, failed=session.failed, problems=session.problems)
    (out_dir / "results.json").write_text(json.dumps(results, indent=2, default=str) + "\n")

    why = next(w["why"] for w in spec["workloads"] if w["name"] == workload.name)
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace}: {why}")
    for name, (value, unit) in report.items():
        print(f"  {name:40s} {value:>16.6g} {unit}")
    print(f"  {'bytes_changed':40s} {results.get('bytes_changed')}")
    for problem in session.problems:
        print(f"  FAILED {problem}")
    print(json.dumps({
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
