"""The four benchmark workloads: CLI flags, output checks, work and counts.

Each workload is one ``popsim`` CLI invocation with ``--jobs 1``.  The
benchmark seed is passed on as ``--seed``; ``exact`` takes no seed, so
exact-elim's inputs are the same for every seed.

* ``elim-run``: pairwise elimination at n=1000.  ~99.9% of its ~10^6 steps
  per trial are null interactions and the stop predicate runs every step, so
  a count engine or a faster pair stream shows its gain here.  The default
  step budget, 64*n*ceil(ln n) = 448000 at n=1000, is below the mean
  stabilization time (n-1)^2, so the workload passes ``--max-steps``.
* ``drain-coupon``: many short leave-init trials, about half of whose steps
  change state, with per-trial setup (a sha256 digest of 4096 states) and 200
  rendered rows; a change that wins on null steps but costs per trial or per
  productive step regresses here.
* ``influencer-sweep``: first crossings of n^(2/3) at n=1024 (per-step
  observer dispatch) and n=16384 (wide-integer union and popcount); it stays
  on the agent engine.
* ``exact-elim``: the only workload that runs ``popsim.exact``; nearly all of
  it is the dense rational solve.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from popsim.core import LEADER, run_trial
from popsim.exact import enumerate_reachable
from popsim.influence import first_exceed_time
from popsim.protocols import make_protocol
from popsim.rng import derive_seed
from popsim.stats import GeometricSumSpec, ceil_rational_power, variance_coupon_sum

ELIM_N = 1000
ELIM_TRIALS = 2
ELIM_MAX_STEPS = 50_000_000
DRAIN_N = 4096
DRAIN_TRIALS = 200
INFLUENCER_NS = (1024, 16384)
INFLUENCER_TRIALS = 10
EXACT_N = 8


@dataclass(frozen=True)
class Workload:
    name: str
    # Whether the CLI output depends on the seed.
    seeded: bool
    argv: Callable[[int, Path], list[str]]
    # Output files the command writes, as suffixes of the --out stem.
    outputs: tuple[str, ...]
    # Problems found in the outputs under a stem; empty when all checks pass.
    check: Callable[[Path], list[str]]
    # Simulated interactions per trial, read from the output rows.
    trial_steps: Callable[[Path], list[int]]
    # Counting pass through the public API: dict of exact counts plus the
    # per-trial steps, which must equal the ones the CLI wrote.
    count: Callable[[int], dict]

    def work(self, stem: Path) -> float:
        """Units of work in one invocation: simulated interactions, or one
        solved instance for exact analysis, which simulates nothing."""
        steps = self.trial_steps(stem)
        return float(sum(steps)) if steps else 1.0


class StepCounter:
    """Observer that counts steps and null interactions (no state change)."""

    def __init__(self):
        self.steps = 0
        self.null = 0

    def notify(self, trial, e, old, new) -> None:
        self.steps += 1
        if old == new:
            self.null += 1


def read_rows(path: Path) -> list[dict]:
    """Rows of a popsim CSV file, skipping its ``#`` schema line."""
    with open(path, newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def draws_per_pair(n: int) -> float:
    """Expected 64-bit draws for one ordered pair: two bounded draws, at
    bounds n and n-1, each rejected with probability 1 - bound/2^bits."""
    return sum((1 << (b - 1).bit_length()) / b for b in (n, n - 1))


def _stem_file(stem: Path, suffix: str) -> Path:
    return stem.with_name(stem.name + suffix)


def _truncation_problems(rows: list[dict], expected: int) -> list[str]:
    problems = []
    if len(rows) != expected:
        problems.append(f"expected {expected} rows, got {len(rows)}")
    truncated = sum(1 for r in rows if r["truncated"] != "0")
    if truncated:
        problems.append(f"{truncated} truncated rows")
    return problems


# ---- elim-run ---------------------------------------------------------------

def _elim_argv(seed: int, stem: Path) -> list[str]:
    return [
        "run", "--protocol", "pairwise-elimination", "--n", str(ELIM_N),
        "--trials", str(ELIM_TRIALS), "--max-steps", str(ELIM_MAX_STEPS),
        "--seed", str(seed), "--jobs", "1", "--out", str(_stem_file(stem, ".csv")),
    ]


def _elim_check(stem: Path) -> list[str]:
    rows = read_rows(_stem_file(stem, ".csv"))
    problems = _truncation_problems(rows, ELIM_TRIALS)
    if any(r["stabilized_step"] != r["steps"] for r in rows):
        problems.append("stabilized_step differs from steps")
    if rows and not problems:
        n = ELIM_N
        # From k leaders the next elimination comes with probability
        # k(k-1)/(n(n-1)); the sum over k telescopes to mean (n-1)^2.
        spec = GeometricSumSpec(tuple(k * (k - 1) / (n * (n - 1)) for k in range(2, n + 1)))
        std_error = math.sqrt(variance_coupon_sum(spec) / len(rows))
        mean = sum(int(r["steps"]) for r in rows) / len(rows)
        if abs(mean - (n - 1) ** 2) > 4 * std_error:
            problems.append(f"mean steps {mean} more than 4 SE ({std_error:.0f}) from {(n - 1) ** 2}")
    return problems


def _steps_column(stem: Path) -> list[int]:
    return [int(r["steps"]) for r in read_rows(_stem_file(stem, ".csv"))]


def one_leader_stop(protocol):
    """Counts-based stop predicate equal to the CLI's one-leader stop."""
    leaders = protocol.output_states(LEADER)
    return lambda trial: sum(trial.counts[s] for s in leaders) == 1


def _elim_count(seed: int) -> dict:
    protocol = make_protocol("pairwise-elimination", ELIM_N)
    one_leader = one_leader_stop(protocol)
    counter = StepCounter()
    per_trial = []
    for t in range(ELIM_TRIALS):
        before = counter.steps
        run_trial(
            protocol, ELIM_N, derive_seed(seed, t), max_steps=ELIM_MAX_STEPS,
            stop_event=("stabilized", one_leader), observers=[counter],
        )
        per_trial.append(counter.steps - before)
    return _sim_counts(counter, per_trial, {ELIM_N: counter.steps})


def _sim_counts(counter: StepCounter, per_trial: list[int], steps_by_n: dict[int, int],
                influence_steps: int = 0) -> dict:
    return {
        "trials": len(per_trial),
        "steps": counter.steps,
        "null_steps": counter.null,
        "null_step_share": counter.null / counter.steps,
        "draws_per_pair": sum(draws_per_pair(n) * s for n, s in steps_by_n.items()) / counter.steps,
        "influence_steps": influence_steps,
        "configs": 0,
        "edges": 0,
        "per_trial_steps": per_trial,
    }


# ---- drain-coupon -----------------------------------------------------------

def _drain_argv(seed: int, stem: Path) -> list[str]:
    return [
        "coupon", "--n", str(DRAIN_N), "--trials", str(DRAIN_TRIALS),
        "--seed", str(seed), "--jobs", "1", "--out", str(_stem_file(stem, ".csv")),
    ]


def _drain_check(stem: Path) -> list[str]:
    problems = _truncation_problems(read_rows(_stem_file(stem, ".csv")), DRAIN_TRIALS)
    summary = read_rows(_stem_file(stem, "-summary.csv"))
    if len(summary) != 1:
        problems.append(f"expected one summary row, got {len(summary)}")
    elif not float(summary[0]["fraction_below_half_analytic"]) < 0.05:
        problems.append("fraction_below_half_analytic >= 0.05")
    return problems


def _drain_count(seed: int) -> dict:
    protocol = make_protocol("leave-init", DRAIN_N)
    threshold = ceil_rational_power(DRAIN_N, 2, 3)
    init = protocol.initial_state

    def init_below(trial):
        return trial.counts[init] < threshold

    counter = StepCounter()
    per_trial = []
    for t in range(DRAIN_TRIALS):
        before = counter.steps
        run_trial(
            protocol, DRAIN_N, derive_seed(seed, t),
            stop_event=("init_below_threshold", init_below), observers=[counter],
        )
        per_trial.append(counter.steps - before)
    return _sim_counts(counter, per_trial, {DRAIN_N: counter.steps})


# ---- influencer-sweep -------------------------------------------------------

def _influencer_argv(seed: int, stem: Path) -> list[str]:
    sizes = [arg for n in INFLUENCER_NS for arg in ("--n", str(n))]
    return [
        "influencer", *sizes, "--trials", str(INFLUENCER_TRIALS), "--threshold", "n^2/3",
        "--seed", str(seed), "--jobs", "1", "--out", str(_stem_file(stem, ".csv")),
    ]


def _influencer_check(stem: Path) -> list[str]:
    rows = read_rows(_stem_file(stem, ".csv"))
    problems = _truncation_problems(rows, INFLUENCER_TRIALS * len(INFLUENCER_NS))
    if not problems:
        # Acceptance criterion 7's floor on the first crossing of n^(2/3).
        low = [r for r in rows if int(r["t_min"]) < 0.05 * int(r["n"]) * math.log(int(r["n"]))]
        if low:
            problems.append(f"{len(low)} rows with t_min below 0.05 n ln n")
    summary = read_rows(_stem_file(stem, "-summary.csv"))
    if len(summary) != len(INFLUENCER_NS):
        problems.append(f"expected {len(INFLUENCER_NS)} summary rows, got {len(summary)}")
    return problems


def _t_min_column(stem: Path) -> list[int]:
    return [int(r["t_min"]) for r in read_rows(_stem_file(stem, ".csv"))]


def _influencer_count(seed: int) -> dict:
    counter = StepCounter()
    per_trial = []
    steps_by_n = {}
    for n in INFLUENCER_NS:
        protocol = make_protocol("leave-init", n)
        threshold = ceil_rational_power(n, 2, 3)
        start = counter.steps
        for t in range(INFLUENCER_TRIALS):
            before = counter.steps
            first_exceed_time(protocol, n, derive_seed(seed, t), threshold, extra_observers=[counter])
            per_trial.append(counter.steps - before)
        steps_by_n[n] = counter.steps - start
    return _sim_counts(counter, per_trial, steps_by_n, influence_steps=counter.steps)


# ---- exact-elim -------------------------------------------------------------

def _exact_argv(seed: int, stem: Path) -> list[str]:
    return ["exact", "--protocol", "pairwise-elimination", "--n", str(EXACT_N),
            "--out", str(_stem_file(stem, ".json"))]


def _exact_check(stem: Path) -> list[str]:
    report = json.loads(_stem_file(stem, ".json").read_text())
    n = EXACT_N
    # Expected steps (n-1)^2; every nonempty leader set is reachable, and the
    # n single-leader configurations are the safe ones.
    expected = {
        "rational": (str((n - 1) ** 2),
                     (report.get("expected_stabilization_steps") or {}).get("rational")),
        "reachable_configurations": (2**n - 1, report.get("reachable_configurations")),
        "safe_configurations": (n, report.get("safe_configurations")),
    }
    return [f"{key} is {got!r}, expected {want!r}" for key, (want, got) in expected.items() if got != want]


def _exact_count(seed: int) -> dict:
    n = EXACT_N
    space = enumerate_reachable(make_protocol("pairwise-elimination", n), n)
    self_loops = sum(succ.get(i, 0) for i, succ in enumerate(space.successors))
    return {
        "trials": 0,
        "steps": 0,
        "null_steps": self_loops,
        # Share of (configuration, ordered pair) moves that leave the
        # configuration unchanged: the self-loops of the hitting-time chain.
        "null_step_share": self_loops / (len(space) * n * (n - 1)),
        "draws_per_pair": 0.0,
        "influence_steps": 0,
        "configs": len(space),
        "edges": sum(len(succ) for succ in space.successors),
        "per_trial_steps": [],
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload("elim-run", True, _elim_argv, (".csv",), _elim_check, _steps_column, _elim_count),
        Workload("drain-coupon", True, _drain_argv, (".csv", "-summary.csv"), _drain_check,
                 _steps_column, _drain_count),
        Workload("influencer-sweep", True, _influencer_argv, (".csv", "-summary.csv"),
                 _influencer_check, _t_min_column, _influencer_count),
        Workload("exact-elim", False, _exact_argv, (".json",), _exact_check,
                 lambda stem: [], _exact_count),
    )
}
