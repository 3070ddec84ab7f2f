"""Kernel probes: public functions of each layer timed on fixed inputs.

Every probe reports the median of several repeats.  Inputs never depend on
the workload seed, so probe figures compare across workloads and commits.
"""

from __future__ import annotations

import math
import statistics
import time

from popsim.core import configuration_digest, run_trial, sample_interaction
from popsim.influence import InfluencerTable, ScheduleRecorder
from popsim.protocols import make_protocol
from popsim.rng import Splitmix64
from popsim.stats import coupon_spec, simulate_geometric_sum
from workloads import one_leader_stop

PROBE_SEED = 0x5EED
REPEATS = 5


def _median_seconds(fn, repeats: int = REPEATS) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _rng_probes() -> dict[str, float]:
    draws = 100_000
    rng = Splitmix64(PROBE_SEED)

    def next64_loop():
        next64 = rng.next64
        for _ in range(draws):
            next64()

    def randbelow_loop():
        randbelow = rng.randbelow
        for _ in range(draws):
            randbelow(1000)

    def pair_loop():
        for _ in range(draws):
            sample_interaction(rng, 1000)

    return {
        "rng.next64_per_s": draws / _median_seconds(next64_loop),
        "rng.randbelow_per_s": draws / _median_seconds(randbelow_loop),
        "core.pair_per_s": draws / _median_seconds(pair_loop),
    }


class _NoOpObserver:
    def notify(self, trial, e, old, new) -> None:
        pass


def _step_loop_probes() -> dict[str, float]:
    """Bare step loop, then the extra cost per step of the CLI's one-leader
    stop predicate and of dispatching to one no-op observer.  The three
    variants are interleaved so drift hits them alike."""
    n, steps = 1000, 40_000
    protocol = make_protocol("pairwise-elimination", n)
    variants = {
        "bare": {},
        "stop": {"stop_event": ("stabilized", one_leader_stop(protocol))},
        "observer": {"observers": [_NoOpObserver()]},
    }
    times: dict[str, list[float]] = {k: [] for k in variants}
    for _ in range(REPEATS):
        for name, kwargs in variants.items():
            start = time.perf_counter()
            rec = run_trial(protocol, n, PROBE_SEED, max_steps=steps, **kwargs)
            times[name].append(time.perf_counter() - start)
            if rec.steps_taken != steps:
                raise RuntimeError(f"step-loop probe {name} ran {rec.steps_taken} steps, not {steps}")
    bare = statistics.median(times["bare"])
    return {
        "core.run_trial.steps_per_s": steps / bare,
        "core.stop_check.us_per_step": (statistics.median(times["stop"]) - bare) / steps * 1e6,
        "core.observer_dispatch.us_per_step": (statistics.median(times["observer"]) - bare) / steps * 1e6,
    }


def _digest_probe() -> dict[str, float]:
    n = 4096
    states = [1] * (n - 256) + [0] * 256

    def digests():
        for _ in range(20):
            configuration_digest(states)

    return {"core.digest_s": _median_seconds(digests) / 20}


def _influence_probes() -> dict[str, float]:
    """Replay one recorded leave-init schedule into a fresh table, up to about
    the n^(2/3) first-crossing time (0.2-0.25 n ln n at these sizes)."""
    out = {}
    for n, repeats in ((1024, 20), (16384, 3)):
        steps = math.ceil(0.25 * n * math.log(n))
        recorder = ScheduleRecorder(n)
        run_trial(make_protocol("leave-init", n), n, PROBE_SEED, max_steps=steps, observers=[recorder])
        entries = recorder.log.entries
        times = []
        for _ in range(repeats):
            table = InfluencerTable(n)
            update = table.update
            start = time.perf_counter()
            for e in entries:
                update(e)
            times.append(time.perf_counter() - start)
        out[f"influence.update_per_s.n{n}"] = len(entries) / statistics.median(times)
    return out


def _stats_probe() -> dict[str, float]:
    spec = coupon_spec(4096, 256)  # drain-coupon's analytic lower-bound sum
    rng = Splitmix64(PROBE_SEED)

    def sums():
        for _ in range(10):
            simulate_geometric_sum(rng, spec)

    return {"stats.geometric_sum_per_s": 10 / _median_seconds(sums)}


def run_probes() -> dict[str, float]:
    results = {}
    for probe in (_rng_probes, _step_loop_probes, _digest_probe, _influence_probes, _stats_probe):
        results.update(probe())
    return results
