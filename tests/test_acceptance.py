"""Acceptance suite.

Each test enforces one numbered release criterion at its stated tolerance and
prints one ``[acceptance] <id>: PASS/FAIL`` line (run with ``pytest -s`` to
see them live).  Monte Carlo criteria use fixed seed bases, so every run of
this suite is a deterministic replay.
"""

import math
from fractions import Fraction

from oracles import ks_critical_value, ks_statistic
from popsim.cli import main
from popsim.core import run_trial, sample_interaction
from popsim.exact import (
    enumerate_reachable,
    expected_hitting_steps,
    safety_verdicts,
)
from popsim.influence import (
    INFLUENCER_EVENT,
    InteractionLog,
    backward_sets,
    backward_step,
    demo_log,
    first_exceed_time,
    forward_sets,
)
from popsim.protocols import make_protocol
from popsim.rng import Splitmix64, derive_seed
from popsim.stats import (
    ceil_rational_power,
    coupon_spec,
    epidemic_spec,
    expected_coupon_sum,
    p_epidemic,
    p_leave,
    simulate_geometric_sum,
    summarize,
)


def run_criterion(name, body):
    try:
        detail = body()
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    print(f"[acceptance] {name}: PASS ({detail})")


# --------------------------------------------------------------------------- 1


def test_criterion_1_step_formulas_match_enumeration():
    def body():
        checked = 0
        for n in range(2, 13):
            for i in range(1, n + 1):
                touching = sum(
                    1
                    for u in range(n)
                    for v in range(n)
                    if u != v and (u < i or v < i)
                )
                assert p_leave(i, n) == touching / (n * (n - 1))
                crossing = sum(
                    1
                    for u in range(n)
                    for v in range(n)
                    if u != v and (u < i) != (v < i)
                )
                assert p_epidemic(i, n) == crossing / (n * (n - 1))
                checked += 2
        return f"{checked} formula/oracle equalities, all exact"

    run_criterion("1 formula exactness", body)


# --------------------------------------------------------------------------- 2


def test_criterion_2_exact_solver_vs_closed_form_and_monte_carlo():
    def body():
        for n in (2, 3, 4, 5):
            proto = make_protocol("pairwise-elimination", n)
            space = enumerate_reachable(proto, n)
            safe = {i for i, v in enumerate(safety_verdicts(space)) if v.safe}
            steps = expected_hitting_steps(space, lambda c: space.index[c] in safe)
            assert steps == Fraction((n - 1) ** 2), f"n={n}: {steps}"
        mc = {}
        for n in (3, 4, 5):
            proto = make_protocol("pairwise-elimination", n)
            total = 0
            trials = 100_000
            for t in range(trials):
                rec = run_trial(
                    proto,
                    n,
                    derive_seed(1002 + n, t),
                    stop_event=("stabilized", lambda tr: tr.counts[0] == 1),
                )
                total += rec.steps_taken
            mean = total / trials
            exact_value = (n - 1) ** 2
            assert abs(mean - exact_value) / exact_value < 0.02, f"n={n}: {mean}"
            mc[n] = mean
        return (
            "rational equality at n=2..5; Monte Carlo means "
            + ", ".join(f"n={n}:{m:.3f}" for n, m in mc.items())
        )

    run_criterion("2 exact vs closed form", body)


# --------------------------------------------------------------------------- 3


def test_criterion_3_forward_backward_duality():
    def body():
        rng = Splitmix64(derive_seed(3000, 0))
        instances = 10_000
        for _ in range(instances):
            n = 2 + rng.randbelow(15)  # 2..16
            t = rng.randbelow(101)  # 0..100
            log = InteractionLog(n)
            for _ in range(t):
                log.append(sample_interaction(rng, n))
            v = rng.randbelow(n)
            assert list(backward_sets(log, v, t))[-1] == forward_sets(log, t).members(v)
        return f"{instances} random (schedule, agent, step) instances, all equal"

    run_criterion("3 duality", body)


# --------------------------------------------------------------------------- 4


def test_criterion_4_backward_growth_law():
    def body():
        n = 32
        samples = 100_000
        for k in (1, 2, 4, 8, 16):
            members = frozenset(range(k))
            rng = Splitmix64(derive_seed(4000, k))
            grown = 0
            for _ in range(samples):
                after = backward_step(members, sample_interaction(rng, n))
                size = len(after)
                assert size - k in (0, 1)
                if size == k + 1:
                    grown += 1
            p = p_epidemic(k, n)
            se = math.sqrt(p * (1 - p) / samples)
            assert abs(grown / samples - p) <= 3 * se, f"k={k}: {grown / samples} vs {p}"

        # increments of full backward columns over random logs: only 0 or +1
        rng = Splitmix64(derive_seed(4000, 99))
        increments = 0
        for _ in range(100):
            log = InteractionLog(n)
            for _ in range(100):
                log.append(sample_interaction(rng, n))
            for _ in range(3):
                v = rng.randbelow(n)
                t = rng.randbelow(101)
                sizes = [len(s) for s in backward_sets(log, v, t)]
                for a, b in zip(sizes, sizes[1:]):
                    assert b - a in (0, 1)
                    increments += 1
        return f"5 conditioned frequencies within 3 SE; {increments} increments all in {{0,1}}"

    run_criterion("4 growth law", body)


# --------------------------------------------------------------------------- 5


def test_criterion_5_epidemic_equals_geometric_sum():
    def body():
        n, target = 64, 16
        samples = 10_000
        proto = make_protocol("one-way-epidemic", n)
        epidemic_times = []
        for t in range(samples):
            rec = run_trial(
                proto,
                n,
                derive_seed(5001, t),
                stop_event=("reached", lambda tr: tr.counts[1] >= target),
                initial=[1] + [0] * (n - 1),
            )
            epidemic_times.append(rec.steps_taken)
        spec = epidemic_spec(n, target)
        oracle_times = [
            simulate_geometric_sum(Splitmix64(derive_seed(5002, t)), spec)
            for t in range(samples)
        ]
        stat = ks_statistic(epidemic_times, oracle_times)
        crit = ks_critical_value(0.001, samples, samples)
        assert stat < crit, f"KS {stat} vs {crit}"
        return f"KS statistic {stat:.4f} < critical {crit:.4f} at 10^4 samples each"

    run_criterion("5 epidemic equivalence", body)


# --------------------------------------------------------------------------- 6


def test_criterion_6_initial_state_drain_bound():
    def body():
        n = 4096
        f = ceil_rational_power(n, 2, 3)  # 256, exactly n^(2/3) for this n
        proto = make_protocol("leave-init", n)
        trials = 1000
        steps = []
        for t in range(trials):
            rec = run_trial(
                proto,
                n,
                derive_seed(6001, t),
                stop_event=("drained", lambda tr: tr.counts[0] < f),
            )
            assert not rec.truncated
            steps.append(rec.steps_taken)
        analytic = expected_coupon_sum(coupon_spec(n, f))
        est = summarize([float(s) for s in steps])
        assert est.mean >= analytic - 2 * est.std_error, (
            f"mean {est.mean} below analytic {analytic} - 2 SE"
        )
        below_half = sum(1 for s in steps if s < analytic / 2) / trials
        assert below_half < 0.05, f"{below_half:.3f} of trials below half analytic mean"
        return (
            f"mean {est.mean:.0f} >= analytic {analytic:.0f} - 2*{est.std_error:.1f}; "
            f"tail fraction {below_half:.4f} < 0.05"
        )

    run_criterion("6 drain lower bound", body)


# --------------------------------------------------------------------------- 7


def test_criterion_7_threshold_crossing_scales_with_n_log_n():
    def body():
        sizes = (256, 1024, 4096, 16384)
        trials = 200
        floor = 0.05
        p1_ratio = {}
        for n in sizes:
            threshold = ceil_rational_power(n, 2, 3)
            proto = make_protocol("leave-init", n)
            scale = n * math.log(n)
            ratios = []
            for t in range(trials):
                rec = first_exceed_time(proto, n, derive_seed(7000 + n, t), threshold)
                t_min = rec.event_steps[INFLUENCER_EVENT]
                assert t_min >= floor * scale, f"n={n} trial={t}: t_min={t_min}"
                ratios.append(t_min / scale)
            p1_ratio[n] = summarize(ratios).percentiles[1]

            # calibration of the frozen floor against the single-agent
            # geometric-sum law: its 1st percentile sits far above the floor
            spec = epidemic_spec(n, threshold + 1)
            sums = [
                simulate_geometric_sum(Splitmix64(derive_seed(7500 + n, t)), spec)
                for t in range(300)
            ]
            oracle_p1 = summarize([float(s) for s in sums]).percentiles[1]
            assert floor * scale <= 0.5 * oracle_p1, (
                f"floor not conservative at n={n}: {floor * scale} vs {oracle_p1}"
            )

        assert p1_ratio[16384] >= 0.5 * p1_ratio[256], (
            f"1st percentile ratio decayed: {p1_ratio}"
        )
        detail = ", ".join(f"n={n}:p1={r:.3f}" for n, r in p1_ratio.items())
        return f"all t_min >= 0.05*n*ln(n); {detail}"

    run_criterion("7 crossing-time scaling", body)


# --------------------------------------------------------------------------- 8


def test_criterion_8_epidemic_completion_time():
    def body():
        n = 4096
        proto = make_protocol("one-way-epidemic", n)
        trials = 100
        ratios = []
        for t in range(trials):
            rec = run_trial(
                proto,
                n,
                derive_seed(8001, t),
                stop_event=("all_infected", lambda tr: tr.counts[1] == n),
                initial=[1] + [0] * (n - 1),
            )
            assert not rec.truncated
            ratios.append(rec.steps_taken / n / math.log(n))
        mean_ratio = sum(ratios) / trials
        assert 0.8 <= mean_ratio <= 1.3, f"mean ratio {mean_ratio}"
        harmonic = sum(1.0 / k for k in range(1, n))
        analytic_ratio = (n - 1) * harmonic / n / math.log(n)
        return f"mean parallel time / ln(n) = {mean_ratio:.3f} (analytic {analytic_ratio:.3f})"

    run_criterion("8 epidemic timing", body)


# --------------------------------------------------------------------------- 9


def test_criterion_9_safety_classification_three_agents():
    def body():
        proto = make_protocol("pairwise-elimination", 3)
        space = enumerate_reachable(proto, 3)
        safe = {v.config for v in safety_verdicts(space) if v.safe}
        assert safe == {(0, 1, 1), (1, 0, 1), (1, 1, 0)}
        unsafe = {v.config for v in safety_verdicts(space) if not v.safe}
        assert unsafe == {(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)}
        return "exactly the three one-leader configurations are safe"

    run_criterion("9 safety checker", body)


# -------------------------------------------------------------------------- 10


def test_criterion_10_fixture_and_cli_determinism(tmp_path):
    def body():
        # the derived five-agent fixture
        log = demo_log()
        layers = list(backward_sets(log, 0, 6))
        assert [len(s) for s in layers] == [1, 1, 2, 2, 2, 3, 4]
        assert forward_sets(log).members(0) == frozenset({0, 2, 3, 4})

        # byte-identical repeated CLI invocations, across every command
        invocations = {
            "run": ["run", "--protocol", "pairwise-elimination", "--n", "3",
                    "--trials", "5", "--seed", "42"],
            "influencer": ["influencer", "--n", "16", "--trials", "3", "--seed", "42"],
            "coupon": ["coupon", "--n", "16", "--trials", "3", "--seed", "42"],
            "exact": ["exact", "--protocol", "pairwise-elimination", "--n", "2"],
            "graph": ["export-graph", "--fixture", "--agent", "0", "--step", "6"],
        }
        for name, argv in invocations.items():
            out_a = tmp_path / f"{name}-a.out"
            out_b = tmp_path / f"{name}-b.out"
            assert main(argv + ["--out", str(out_a)]) == 0
            assert main(argv + ["--out", str(out_b)]) == 0
            assert out_a.read_bytes() == out_b.read_bytes(), f"{name} output differs"

        graph_text = (tmp_path / "graph-a.out").read_text()
        assert "layer=0 size=4 members=0,2,3,4" in graph_text
        return "fixture sizes 1,1,2,2,2,3,4 reproduced; 5 commands byte-identical"

    run_criterion("10 determinism and fixture", body)
