import gc
import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import textwrap
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest

import popsim
from popsim.cli import _number, _one_leader_stop, _summary_path, main, threshold_count
from popsim.core import LEADER, Trial, run_trial
from popsim.influence import INFLUENCER_EVENT, InfluencerTable, ScheduleRecorder, write_log
from popsim.protocols import CATALOG, make_protocol, protocol_from_dict
from popsim.rng import derive_seed

PAIRWISE_DOC = {
    "name": "custom-pairwise",
    "states": ["L", "F"],
    "initial": "L",
    "outputs": {"L": "L", "F": "F"},
    "rules": [["L", "L", "L", "F"]],
}


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# schema=")
    header = lines[1].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[2:]]
    return lines[0], rows


# ------------------------------------------------------------------- thresholds


def test_threshold_expressions():
    assert threshold_count("n^2/3", 4096) == 256
    assert threshold_count("n^2/3", 1024) == 102
    assert threshold_count("n^0.5", 17) == 5
    assert threshold_count("n", 9) == 9
    assert threshold_count("log(n)", 1024) == 7
    assert threshold_count("12", 100) == 12
    assert threshold_count("2.5", 100) == 3
    assert threshold_count("7.5", 100) == 8
    assert threshold_count("1e-3", 100) == 1
    assert threshold_count("3/2", 100) == 2
    assert threshold_count("n^+.5e1", 2) == 32
    assert threshold_count("n^-0", 100) == 1


def test_threshold_expression_errors(capsys):
    with pytest.raises(ValueError):
        threshold_count("n^", 10)
    with pytest.raises(ValueError):
        threshold_count("m^2", 10)
    with pytest.raises(ValueError):
        threshold_count("0", 10)
    with pytest.raises(ValueError):
        threshold_count("n^-1", 10)
    # n^p must stay below 2^1024; past it, and for a decimal exponent too
    # long to expand, in a power or a plain number, the error comes at once
    for expr in ("n^400", "n^1000000", "n^100000000", "n^1e10000000", "n^1e-10000000",
                 "1e10000000", "1e-10000000", "1e4301"):
        start = time.perf_counter()
        with pytest.raises(ValueError):
            threshold_count(expr, 10)
        assert time.perf_counter() - start < 1, expr
    with pytest.raises(ValueError, match="not below 2\\^1024"):
        threshold_count("n^1024", 2)
    assert threshold_count("n^1023", 2) == 2**1023
    assert threshold_count("n^308", 10) == 10**308
    assert threshold_count("1e4300", 10) == 10**4300
    assert main(["influencer", "--n", "10", "--threshold", "n^1000000"]) == 2
    assert capsys.readouterr().err == "popsim: 10^1000000 is not below 2^1024, the float range of thresholds\n"


# Each string with the (numerator, denominator) _number reads, or None where
# it refuses the string, and whether Python 3.10's and 3.11's Fraction agree
# on it (3.10's takes no underscores; either expands 1e4301).
NUMBERS = [
    ("2/3", (2, 3), True),
    ("0.5", (1, 2), True),
    (".5", (1, 2), True),
    ("5.", (5, 1), True),
    ("+.5e1", (5, 1), True),
    ("1E-3", (1, 1000), True),
    ("-0", (0, 1), True),
    ("1_0", (10, 1), False),
    ("1__0", None, True),
    ("1/0", None, True),
    ("2/ 3", None, True),
    ("nan", None, True),
    ("1e4300", (10**4300, 1), True),
    ("1e4301", None, False),
]


@pytest.mark.parametrize("text, expected, cross_check", NUMBERS,
                         ids=[text.replace(" ", "_") for text, _, _ in NUMBERS])
def test_number_reads_rationals_as_fraction_does(text, expected, cross_check):
    from fractions import Fraction

    if expected is None:
        with pytest.raises(ValueError):
            _number(text)
    else:
        assert _number(text) == expected
    if cross_check:
        try:
            value = Fraction(text)
        except (ValueError, ZeroDivisionError):
            value = None
        assert value == (None if expected is None else Fraction(*expected))


# -------------------------------------------------------------------------- run


def test_run_pairwise_mean_near_exact(tmp_path):
    out = tmp_path / "run.csv"
    code = main([
        "run", "--protocol", "pairwise-elimination", "--n", "3",
        "--trials", "4000", "--seed", "7", "--out", str(out),
    ])
    assert code == 0
    schema, rows = read_csv(out)
    assert "popsim.run.v1" in schema
    assert len(rows) == 4000
    mean = sum(int(r["steps"]) for r in rows) / len(rows)
    assert mean == pytest.approx((3 - 1) ** 2, rel=0.1)
    assert all(r["stabilized_step"] == r["steps"] for r in rows)
    assert all(r["truncated"] == "0" for r in rows)


def test_run_is_byte_identical(tmp_path):
    args = ["run", "--protocol", "pairwise-elimination", "--n", "4",
            "--trials", "50", "--seed", "3"]
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_run_jobs_do_not_change_output(tmp_path):
    base = ["run", "--protocol", "leave-init", "--n", "8", "--trials", "40",
            "--seed", "11", "--max-steps", "200"]
    serial, parallel = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    assert main(base + ["--out", str(serial)]) == 0
    assert main(base + ["--jobs", "2", "--out", str(parallel)]) == 0
    assert serial.read_bytes() == parallel.read_bytes()


def test_run_epidemic_parallel_time_scale(tmp_path):
    out = tmp_path / "epi.csv"
    n = 256
    code = main([
        "run", "--protocol", "one-way-epidemic", "--n", str(n),
        "--trials", "20", "--seed", "5", "--out", str(out),
    ])
    assert code == 0
    _, rows = read_csv(out)
    mean_pt = sum(float(r["parallel_time"]) for r in rows) / len(rows)
    # analytic steps are (n-1) * H_{n-1}, i.e. parallel time near ln(n)
    harmonic = sum(1 / k for k in range(1, n))
    assert mean_pt == pytest.approx((n - 1) * harmonic / n, rel=0.15)
    assert all(r["all_infected_step"] == r["steps"] for r in rows)


def test_run_protocol_file(tmp_path):
    doc = tmp_path / "proto.json"
    doc.write_text(json.dumps(PAIRWISE_DOC))
    out = tmp_path / "run.csv"
    code = main(["run", "--protocol-file", str(doc), "--n", "3",
                 "--trials", "10", "--seed", "1", "--out", str(out)])
    assert code == 0
    _, rows = read_csv(out)
    # file protocols get the generic one-leader event name
    assert all(r["one_leader_step"] == r["steps"] for r in rows)


TWO_LEADER_DOC = {
    "name": "two-leader-states",
    "states": ["A", "B", "F"],
    "initial": "A",
    "outputs": {"A": "L", "B": "L", "F": "F"},
    "rules": [["A", "A", "B", "F"], ["B", "B", "A", "F"], ["A", "B", "A", "F"], ["B", "A", "B", "F"]],
}


@pytest.mark.parametrize("doc", [PAIRWISE_DOC, TWO_LEADER_DOC])
def test_one_leader_stop_agrees_with_leader_sum(doc):
    protocol = protocol_from_dict(doc)
    n = 5
    pred = _one_leader_stop(protocol)

    def by_sum(trial):
        return sum(trial.counts[s] for s in protocol.output_states(LEADER)) == 1

    for states in itertools.product(range(protocol.num_states), repeat=n):
        trial = Trial(protocol, list(states))
        assert pred(trial) == by_sum(trial)
    for seed in range(20):
        assert run_trial(protocol, n, seed, stop_event=("e", pred)) == run_trial(
            protocol, n, seed, stop_event=("e", by_sum)
        )


EPIDEMIC_DOC = CATALOG["one-way-epidemic"].document


def test_run_file_named_like_catalog_gets_no_catalog_behaviour(tmp_path):
    # Three states, and infection spreads as in the epidemic, but it is not
    # the catalog epidemic: no seeded agent, no all-infected stop.
    doc = dict(EPIDEMIC_DOC, states=["S", "I", "X"], outputs={"S": "F", "I": "F", "X": "F"})
    path = tmp_path / "proto.json"
    path.write_text(json.dumps(doc))
    out, log = tmp_path / "run.csv", tmp_path / "trial0.log"
    code = main(["run", "--protocol-file", str(path), "--n", "8", "--trials", "5",
                 "--seed", "3", "--max-steps", "300", "--out", str(out), "--save-log", str(log)])
    assert code == 0
    header = out.read_text().splitlines()[1].split(",")
    assert "all_infected_step" not in header
    _, rows = read_csv(out)
    assert [(r["steps"], r["truncated"]) for r in rows] == [("300", "0")] * 5
    assert len(log.read_text().splitlines()) == 301


# case -> (catalog name, extra flags, the stop event the run must record, or None)
FILE_EQUAL_CASES = {
    "pairwise-elimination": ("pairwise-elimination", [], "stabilized"),
    "pairwise-elimination-jobs-2": ("pairwise-elimination", ["--n", "9", "--jobs", "2"], "stabilized"),
    "leave-init": ("leave-init", [], None),
    "leave-init-threshold": ("leave-init", ["--threshold", "n^2/3"], "init_below_threshold"),
    "one-way-epidemic": ("one-way-epidemic", [], "all_infected"),
    "one-way-epidemic-jobs-2": ("one-way-epidemic", ["--jobs", "2"], "all_infected"),
}


@pytest.mark.parametrize("case", sorted(FILE_EQUAL_CASES))
def test_run_file_equal_to_catalog_entry_keeps_its_behaviour(tmp_path, case):
    name, extra, event = FILE_EQUAL_CASES[case]
    path = tmp_path / "proto.json"
    path.write_text(json.dumps(CATALOG[name].document))
    from_file, from_catalog = tmp_path / "file.csv", tmp_path / "catalog.csv"
    common = ["--n", "16", "--trials", "5", "--seed", "3", *extra]
    assert main(["run", "--protocol-file", str(path), *common, "--out", str(from_file)]) == 0
    assert main(["run", "--protocol", name, *common, "--out", str(from_catalog)]) == 0
    assert from_file.read_bytes() == from_catalog.read_bytes()
    _, rows = read_csv(from_file)
    if event is None:
        assert not any(col.endswith("_step") for col in rows[0])
    else:
        assert all(r[f"{event}_step"] == r["steps"] and r["truncated"] == "0" for r in rows)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_exact_file_equal_to_catalog_entry_gives_the_same_report(tmp_path, name):
    path = tmp_path / "proto.json"
    path.write_text(json.dumps(CATALOG[name].document))
    from_file, from_catalog = tmp_path / "file.json", tmp_path / "catalog.json"
    assert main(["exact", "--protocol-file", str(path), "--n", "5", "--out", str(from_file)]) == 0
    assert main(["exact", "--protocol", name, "--n", "5", "--out", str(from_catalog)]) == 0
    assert from_file.read_bytes() == from_catalog.read_bytes()


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs an enforced RLIMIT_AS")
def test_population_of_2_to_the_32_exits_2_before_any_n_entry_list():
    # Each case would build a list of 2^32 entries, 32 GiB, if the range were
    # checked after it: in a child limited to 1 GiB of address space that is
    # a MemoryError, not exit 2.
    script = textwrap.dedent("""
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        from popsim.cli import main
        from popsim.core import run_trial
        from popsim.protocols import make_protocol
        n = str(1 << 32)
        for argv in (["run", "--protocol", "pairwise-elimination", "--n", n],
                     ["run", "--protocol", "one-way-epidemic", "--n", n],
                     ["coupon", "--n", n]):
            print(main(argv))
        try:
            run_trial(make_protocol("leave-init", 1 << 32), 1 << 32, 0)
        except ValueError as exc:
            print(exc)
    """)
    src = Path(popsim.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[:3] == ["2", "2", "2"]
    assert "below 2^32" in proc.stdout.splitlines()[3]
    assert proc.stderr.count("below 2^32") == 3 and "Traceback" not in proc.stderr


def test_run_save_log_round_trip(tmp_path):
    out = tmp_path / "run.csv"
    log_path = tmp_path / "trial0.log"
    code = main(["run", "--protocol", "leave-init", "--n", "6", "--trials", "3",
                 "--seed", "9", "--max-steps", "25", "--out", str(out),
                 "--save-log", str(log_path)])
    assert code == 0
    lines = log_path.read_text().splitlines()
    assert lines[0] == "6"
    assert len(lines) == 26  # header + max_steps entries


def _catalog_plan(name, n, threshold=None):
    entry = CATALOG[name]
    return {"stop_event": (entry.event, entry.stop(n, threshold)), "initial": entry.start(n)}


# (argv, n, reference run_trial arguments of trial 0)
SAVE_LOG_CASES = {
    "pairwise-elimination": (["--protocol", "pairwise-elimination", "--n", "9"], 9,
                             _catalog_plan("pairwise-elimination", 9)),
    "leave-init-threshold": (["--protocol", "leave-init", "--n", "30", "--threshold", "n^2/3"], 30,
                             _catalog_plan("leave-init", 30, threshold_count("n^2/3", 30))),
    "epidemic-seeded-start": (["--protocol", "one-way-epidemic", "--n", "12"], 12,
                              _catalog_plan("one-way-epidemic", 12)),
    "protocol-file": (["--protocol-file", "PAIRWISE_DOC", "--n", "7"], 7,
                      {"stop_event": ("one_leader", lambda trial: trial.counts[0] == 1)}),
    "truncated": (["--protocol", "pairwise-elimination", "--n", "40", "--max-steps", "100"], 40,
                  dict(_catalog_plan("pairwise-elimination", 40), max_steps=100)),
}


@pytest.mark.parametrize("case", sorted(SAVE_LOG_CASES))
def test_save_log_matches_recorded_trial_zero(tmp_path, case):
    argv, n, kwargs = SAVE_LOG_CASES[case]
    doc = tmp_path / "proto.json"
    doc.write_text(json.dumps(PAIRWISE_DOC))
    argv = [str(doc) if a == "PAIRWISE_DOC" else a for a in argv]
    out, log_path = tmp_path / "run.csv", tmp_path / "trial0.log"
    assert main(["run", *argv, "--trials", "3", "--seed", "5", "--out", str(out),
                 "--save-log", str(log_path)]) == 0
    protocol = protocol_from_dict(PAIRWISE_DOC) if case == "protocol-file" else make_protocol(argv[1], n)
    recorder = ScheduleRecorder(n)
    rec = run_trial(protocol, n, derive_seed(5, 0), observers=[recorder], **kwargs)
    assert rec.truncated == (case == "truncated")
    reference = f"{n}\n" + "".join(f"{u} {v}\n" for u, v in recorder.log)
    assert log_path.read_bytes() == reference.encode()
    _, rows = read_csv(out)
    assert int(rows[0]["steps"]) == len(recorder.log) == rec.steps_taken


def test_save_log_streams_the_schedule(tmp_path):
    # 206155 steps; holding them as a list of pairs, let alone one joined
    # string, would take tens of MB
    out, log_path = tmp_path / "run.csv", tmp_path / "trial0.log"
    import numpy  # noqa: F401  popsim imports it on first use; its import is not the run's memory

    tracemalloc.start()
    try:
        code = main(["run", "--protocol", "pairwise-elimination", "--n", "300", "--trials", "1",
                     "--seed", "7", "--max-steps", "5000000", "--out", str(out),
                     "--save-log", str(log_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    _, rows = read_csv(out)
    assert rows[0]["steps"] == "206155"
    assert len(log_path.read_text().splitlines()) == 1 + 206155
    assert peak < 4 * 2**20


def test_run_threshold_exits_2_unless_the_stop_reads_it(tmp_path, capsys):
    pairwise = tmp_path / "pairwise.json"
    pairwise.write_text(json.dumps(PAIRWISE_DOC))
    # a file equal to the catalog's leave-init gets its threshold stop
    leave_init_file = tmp_path / "leave-init.json"
    leave_init_file.write_text(json.dumps(CATALOG["leave-init"].document))
    common = ["--n", "5", "--trials", "2", "--threshold", "3"]
    out = tmp_path / "out.csv"
    for source in (["--protocol", "pairwise-elimination"], ["--protocol", "one-way-epidemic"],
                   ["--protocol-file", str(pairwise)]):
        assert main(["run", *source, *common, "--out", str(out)]) == 2
        assert "--threshold" in capsys.readouterr().err
        assert not out.exists()
    for source in (["--protocol", "leave-init"], ["--protocol-file", str(leave_init_file)]):
        assert main(["run", *source, *common, "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert [r["init_below_threshold_step"] for r in rows] == [r["steps"] for r in rows]


def test_run_unknown_protocol_exits_2(capsys):
    assert main(["run", "--protocol", "nope", "--n", "4", "--trials", "1"]) == 2
    assert "unknown protocol" in capsys.readouterr().err


def test_run_requires_protocol():
    with pytest.raises(SystemExit) as err:
        main(["run", "--n", "4"])
    assert err.value.code == 2


@pytest.mark.parametrize("command", ["run", "exact"])
def test_protocol_and_protocol_file_are_exclusive(tmp_path, command, capsys):
    doc = tmp_path / "proto.json"
    doc.write_text(json.dumps(PAIRWISE_DOC))
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as err:
        main([command, "--protocol", "one-way-epidemic", "--protocol-file", str(doc),
              "--n", "3", "--out", str(out)])
    assert err.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command", [["run", "--protocol", "leave-init"], ["coupon"], ["influencer"]], ids=["run", "coupon", "influencer"]
)
@pytest.mark.parametrize("flag", ["--trials", "--jobs"])
@pytest.mark.parametrize("value", ["0", "-1", "two"])
def test_trials_and_jobs_below_one_exit_2(tmp_path, command, flag, value):
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as err:
        main([*command, "--n", "4", flag, value, "--out", str(out)])
    assert err.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["exact", "--protocol", "pairwise-elimination", "--n", "3"],
    ["export-graph", "--fixture", "--agent", "0", "--step", "6"],
])
def test_format_exits_2_where_output_has_one_form(argv, capsys):
    # exact always writes JSON and export-graph always writes text
    with pytest.raises(SystemExit) as err:
        main([*argv, "--format", "csv"])
    assert err.value.code == 2
    assert "--format" in capsys.readouterr().err


def test_run_json_format(tmp_path):
    out = tmp_path / "run.json"
    code = main(["run", "--protocol", "pairwise-elimination", "--n", "2",
                 "--trials", "4", "--seed", "0", "--format", "json",
                 "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "popsim.run.v1"
    assert len(doc["rows"]) == 4
    assert all(row["steps"] == 1 for row in doc["rows"])


def test_run_gnuplot_format(tmp_path):
    out = tmp_path / "run.dat"
    code = main(["run", "--protocol", "pairwise-elimination", "--n", "2",
                 "--trials", "2", "--seed", "0", "--format", "gnuplot",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# schema=")
    assert lines[1].startswith("# columns: trial seed n steps")
    assert len(lines) == 4


# ------------------------------------------------------------------- influencer


def test_influencer_small_sweep(tmp_path):
    out = tmp_path / "inf.csv"
    summary = tmp_path / "inf-summary.csv"
    code = main(["influencer", "--n", "16", "--trials", "5", "--seed", "2",
                 "--out", str(out), "--summary-out", str(summary)])
    assert code == 0
    _, rows = read_csv(out)
    assert len(rows) == 5
    threshold = threshold_count("n^2/3", 16)
    for row in rows:
        assert int(row["threshold"]) == threshold
        t_min = int(row["t_min"])
        assert t_min >= 1
        assert float(row["ratio"]) == pytest.approx(t_min / (16 * math.log(16)))
    _, srows = read_csv(summary)
    assert len(srows) == 1
    assert int(srows[0]["count"]) == 5


def test_influencer_two_agent_threshold_one(tmp_path):
    out = tmp_path / "inf.csv"
    code = main(["influencer", "--n", "2", "--trials", "10", "--seed", "4",
                 "--threshold", "1", "--out", str(out)])
    assert code == 0
    _, rows = read_csv(out)
    assert all(int(r["t_min"]) == 1 for r in rows)


def test_influencer_unreachable_threshold_flags_truncated(tmp_path):
    out = tmp_path / "inf.csv"
    code = main(["influencer", "--n", "8", "--trials", "3", "--seed", "4",
                 "--threshold", "n", "--max-steps", "50", "--out", str(out)])
    assert code == 0
    _, rows = read_csv(out)
    for row in rows:
        assert row["t_min"] == ""
        assert row["ratio"] == ""
        assert row["truncated"] == "1"


def test_influencer_series_export(tmp_path):
    out = tmp_path / "inf.csv"
    series = tmp_path / "series.csv"
    code = main(["influencer", "--n", "8", "--trials", "1", "--seed", "2",
                 "--out", str(out), "--series-out", str(series)])
    assert code == 0
    lines = series.read_text().splitlines()
    assert lines[0] == "step,max_size,participant_size"
    assert len(lines) > 1


def test_series_out_with_masks_past_the_budget_exits_before_any_trial(tmp_path, monkeypatch, capsys):
    # The series of the first --n replays masks of n ceil(n/64) words, so
    # past the default budget of 10^7 (from n = 2^15) no trial runs and no
    # output opens.
    def kernel(*args, **kwargs):
        raise AssertionError("the crossing kernel ran")

    monkeypatch.setattr("popsim.cli.first_exceed_time", kernel)
    out, series = tmp_path / "inf.csv", tmp_path / "series.csv"
    for n, words in ((262144, 1073741824), (32768, 16777216)):
        code = main(["influencer", "--n", str(n), "--trials", "2", "--out", str(out),
                     "--series-out", str(series)])
        assert code == 3
        assert capsys.readouterr().err == (
            f"popsim: the size series needs {words} mask words for n={n}, past budget 10000000\n"
        )
        assert list(tmp_path.iterdir()) == []


def _influencer_outputs(tmp_path, name, argv):
    out = tmp_path / f"{name}.csv"
    assert main(["influencer", *argv, "--out", str(out)]) == 0
    return out.read_bytes(), (tmp_path / f"{name}-summary.csv").read_bytes()


def test_summary_of_an_out_that_is_no_regular_file_goes_to_stdout(tmp_path):
    # a device or a FIFO has no "-summary" sibling, which at /dev/null would
    # be a new file in /dev
    fifo = tmp_path / "fifo.csv"
    os.mkfifo(fifo)
    for out in (os.devnull, str(fifo), "-", None):
        assert _summary_path(SimpleNamespace(out=out, summary_out=None)) is None
    assert _summary_path(SimpleNamespace(out=os.devnull, summary_out="s.csv")) == "s.csv"
    # a regular file keeps its sibling, before it is written and after
    regular = SimpleNamespace(out=str(tmp_path / "inf.csv"), summary_out=None)
    assert _summary_path(regular) == str(tmp_path / "inf-summary.csv")
    (tmp_path / "inf.csv").write_text("")
    assert _summary_path(regular) == str(tmp_path / "inf-summary.csv")


@pytest.mark.parametrize("agent", [[], ["--agent", "3"]])
def test_influencer_jobs_do_not_change_output(tmp_path, agent):
    base = ["--n", "16", "--n", "40", "--trials", "9", "--seed", "12", *agent]
    serial = _influencer_outputs(tmp_path, "serial", base)
    parallel = _influencer_outputs(tmp_path, "parallel", base + ["--jobs", "2"])
    assert serial == parallel


def test_influencer_series_ends_at_trial_zero_crossing(tmp_path):
    # the series replays trial 0's pairs, t_min comes from the stream kernel
    out, series = tmp_path / "inf.csv", tmp_path / "series.csv"
    code = main(["influencer", "--n", "200", "--trials", "3", "--seed", "8",
                 "--out", str(out), "--series-out", str(series)])
    assert code == 0
    _, rows = read_csv(out)
    last = series.read_text().splitlines()[-1].split(",")
    assert last[0] == rows[0]["t_min"]
    assert int(last[2]) > int(rows[0]["threshold"])


class _CrossingStop:
    """Observer keeping an InfluencerTable during a run; ``crossed`` says
    whether any set (``agent``'s set, when one is tracked) has more than
    ``threshold`` members."""

    def __init__(self, n, threshold, agent):
        self.table = InfluencerTable(n)
        self.threshold, self.agent = threshold, agent
        self.crossed = False

    def notify(self, trial, e, old, new):
        self.table.update(e)
        table = self.table
        size = max(table.size(v) for v in range(table.n)) if self.agent is None else table.size(self.agent)
        self.crossed = self.crossed or size > self.threshold


# (argv, first n, threshold expression, --agent, --max-steps)
SERIES_CASES = {
    "anyone": (["--n", "40", "--trials", "3"], 40, "n^2/3", None, None),
    "agent": (["--n", "40", "--trials", "3", "--agent", "5"], 40, "n^2/3", 5, None),
    "truncated": (["--n", "8", "--trials", "3", "--threshold", "n", "--max-steps", "50"], 8, "n", None, 50),
    "jobs-2": (["--n", "30", "--n", "50", "--trials", "4", "--jobs", "2"], 30, "n^2/3", None, None),
}


@pytest.mark.parametrize("case", sorted(SERIES_CASES))
def test_series_out_matches_recorded_trial_zero(tmp_path, case):
    argv, n, expr, agent, max_steps = SERIES_CASES[case]
    series = tmp_path / "series.csv"
    assert main(["influencer", *argv, "--seed", "8", "--out", str(tmp_path / "inf.csv"),
                 "--series-out", str(series)]) == 0
    # reference: trial 0 on the agent engine, stopped once a set crosses,
    # its recorded schedule replayed into a fresh table
    recorder = ScheduleRecorder(n)
    stop = _CrossingStop(n, threshold_count(expr, n), agent)
    rec = run_trial(make_protocol("leave-init", n), n, derive_seed(8, 0), max_steps=max_steps,
                    stop_event=(INFLUENCER_EVENT, lambda trial: stop.crossed),
                    observers=[recorder, stop])
    assert rec.truncated == (case == "truncated")
    table = InfluencerTable(n)
    lines = ["step,max_size,participant_size"]
    for e in recorder.log:
        table.update(e)
        lines.append(f"{table.step},{max(table.size(v) for v in range(n))},{table.size(e.initiator)}")
    assert series.read_bytes() == "".join(line + "\r\n" for line in lines).encode()


@pytest.mark.parametrize("flag", ["--protocol", "--protocol-file"])
def test_influencer_takes_no_protocol(tmp_path, flag, capsys):
    # influence growth does not depend on the protocol, so none is chosen
    out = tmp_path / "inf.csv"
    with pytest.raises(SystemExit) as err:
        main(["influencer", "--n", "8", flag, "leave-init", "--out", str(out)])
    assert err.value.code == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


# ----------------------------------------------------------------------- coupon


def test_coupon_emits_trials_and_analytic_summary(tmp_path):
    out = tmp_path / "coupon.csv"
    summary = tmp_path / "coupon-summary.csv"
    code = main(["coupon", "--n", "64", "--trials", "20", "--seed", "3",
                 "--out", str(out), "--summary-out", str(summary)])
    assert code == 0
    _, rows = read_csv(out)
    assert len(rows) == 20
    assert all(int(r["f"]) == 16 for r in rows)  # ceil(64^(2/3))
    _, srows = read_csv(summary)
    row = srows[0]
    assert int(row["f_star"]) == 16
    assert float(row["analytic_mean"]) > 0
    assert float(row["empirical_mean"]) >= float(row["analytic_mean"]) * 0.8


def test_coupon_degenerate_four_agents(tmp_path):
    # f = ceil(4^(2/3)) = 3, f* = 4 = n: single certain term, still runs
    out = tmp_path / "coupon.csv"
    summary = tmp_path / "coupon-summary.csv"
    code = main(["coupon", "--n", "4", "--trials", "5", "--seed", "8",
                 "--out", str(out), "--summary-out", str(summary)])
    assert code == 0
    _, rows = read_csv(out)
    assert len(rows) == 5
    _, srows = read_csv(summary)
    assert int(srows[0]["f"]) == 3
    assert int(srows[0]["f_star"]) == 4


@pytest.mark.parametrize("n, threshold, max_steps", [
    (4096, "n^2/3", None), (4097, "n^2/3", None), (5, "5", None), (17, "1", "40"), (4096, "1", "240"),
])
def test_coupon_rows_are_leave_init_runs(tmp_path, n, threshold, max_steps):
    # coupon reads the drain off the pair stream; run steps leave-init on
    # the engine until its init count drops below the threshold
    common = ["--n", str(n), "--trials", "20", "--seed", "5", "--threshold", threshold]
    common += ["--max-steps", max_steps] if max_steps else []
    assert main(["coupon", *common, "--out", str(tmp_path / "c.csv")]) == 0
    assert main(["run", "--protocol", "leave-init", *common, "--out", str(tmp_path / "r.csv")]) == 0
    columns = ("seed", "n", "steps", "parallel_time", "truncated")
    coupon = [tuple(r[c] for c in columns) for r in read_csv(tmp_path / "c.csv")[1]]
    assert coupon == [tuple(r[c] for c in columns) for r in read_csv(tmp_path / "r.csv")[1]]
    assert any(r[-1] == "1" for r in coupon) == (max_steps is not None)


def test_coupon_refuses_a_threshold_above_n_before_any_trial(tmp_path, monkeypatch, capsys):
    # the second size's threshold is out of range, so no trial of the first runs
    import popsim.rng

    trials = []
    monkeypatch.setattr(popsim.rng, "first_fresh_below", lambda *args: trials.append(args))
    out = tmp_path / "coupon.csv"
    code = main(["coupon", "--n", "100000", "--n", "5", "--threshold", "6", "--trials", "20", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == "popsim: threshold 6 out of range [1, 5]\n"
    assert trials == []
    assert list(tmp_path.iterdir()) == []


# Each sweep's later size is refused (exact takes one size), so it must exit 2
# before its first size's kernel runs and open none of its outputs; the first
# sizes would run for seconds
REFUSALS = {
    "run-n-1": (["run", "--protocol", "pairwise-elimination", "--n", "1000", "--n", "1", "--trials", "20",
                 "--save-log", "t.log"], "population size must be >= 2"),
    "run-n-2^32": (["run", "--protocol", "one-way-epidemic", "--n", "1000", "--n", str(1 << 32)],
                   "population size must be >= 2 and below 2^32, the range of a schedule's entries"),
    "run-threshold": (["run", "--protocol", "leave-init", "--n", "10", "--n", "1000", "--threshold", "n^200"],
                      "1000^200 is not below 2^1024, the float range of thresholds"),
    "influencer-n-1": (["influencer", "--n", "1048576", "--n", "1", "--trials", "3"],
                       "population size must be >= 2"),
    "influencer-n-0": (["influencer", "--n", "1024", "--n", "0", "--series-out", "s.csv"],
                       "population size must be >= 2"),
    "influencer-agent": (["influencer", "--n", "1024", "--n", "8", "--agent", "10", "--series-out", "s.csv"],
                         "agent 10 out of range for n=8"),
    "exact-two-n": (["exact", "--protocol", "pairwise-elimination", "--n", "3", "--n", "4"],
                    "exact analysis takes a single --n"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_a_refused_size_exits_2_before_any_kernel_runs(tmp_path, monkeypatch, capsys, case):
    import popsim.cli

    argv, message = REFUSALS[case]
    calls = []
    for name in ("run_trial", "first_exceed_time", "enumerate_reachable"):
        monkeypatch.setattr(popsim.cli, name, lambda *args, name=name, **kwargs: calls.append(name))
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--out", "out"]) == 2
    assert capsys.readouterr().err == f"popsim: {message}\n"
    assert calls == []
    assert list(tmp_path.iterdir()) == []


def test_an_internal_assertion_exits_4(tmp_path, monkeypatch, capsys):
    import popsim.cli

    def fail(*args, **kwargs):
        raise AssertionError("counts out of step")

    monkeypatch.setattr(popsim.cli, "run_trial", fail)
    assert main(["run", "--protocol", "pairwise-elimination", "--n", "5", "--out", str(tmp_path / "out")]) == 4
    assert capsys.readouterr().err == "popsim: internal assertion failed: counts out of step\n"
    assert list(tmp_path.iterdir()) == []


# ------------------------------------------------------------------------ exact


def test_exact_pairwise_three(tmp_path):
    out = tmp_path / "exact.json"
    code = main(["exact", "--protocol", "pairwise-elimination", "--n", "3",
                 "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["reachable_configurations"] == 7
    assert doc["safe_configurations"] == 3
    assert doc["expected_stabilization_steps"]["rational"] == "4"
    assert doc["expected_stabilization_steps"]["real"] == 4.0
    dump = {tuple(entry["states"]): entry for entry in doc["configurations"]}
    assert len(dump) == 7
    assert dump[(0, 1, 1)]["safe"] is True
    assert dump[(0, 0, 0)]["leader_count"] == 3
    assert "leader count" in dump[(0, 0, 0)]["reason"]


def test_exact_pairwise_two(tmp_path):
    out = tmp_path / "exact.json"
    assert main(["exact", "--protocol", "pairwise-elimination", "--n", "2",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["reachable_configurations"] == 3
    assert doc["safe_configurations"] == 2
    assert doc["expected_stabilization_steps"]["real"] == 1.0


def test_exact_leave_init_has_no_safe_configurations(tmp_path):
    out = tmp_path / "exact.json"
    assert main(["exact", "--protocol", "leave-init", "--n", "2",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["safe_configurations"] == 0
    assert doc["expected_stabilization_steps"] is None


def test_exact_safe_set_missed_with_positive_probability_exits_2(tmp_path, capsys):
    # From (l, f, a) the last initial agent either becomes a follower, a safe
    # configuration, or a second leader, a closed class that never leaves.
    path = tmp_path / "branch.json"
    path.write_text(json.dumps({
        "name": "branch",
        "states": ["a", "l", "f"],
        "initial": "a",
        "outputs": {"a": "L", "l": "L", "f": "F"},
        "rules": [["a", "a", "l", "f"], ["a", "f", "f", "f"], ["a", "l", "l", "l"]],
    }))
    out = tmp_path / "exact.json"
    assert main(["exact", "--protocol-file", str(path), "--n", "3", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "popsim: target unreachable from configuration (1, 2, 1)\n"
    assert not out.exists()


def test_exact_pairwise_twelve_finishes(tmp_path):
    # 4095 configurations lie well inside the default budget, so the command
    # must return (n-1)^2 rather than hang in the solve.
    out = tmp_path / "exact.json"
    assert main(["exact", "--protocol", "pairwise-elimination", "--n", "12",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["reachable_configurations"] == 4095
    assert doc["expected_stabilization_steps"]["rational"] == "121"


def test_exact_counts_edges_against_the_budget(capsys):
    # 2^16 configurations times 240 ordered pairs pass the default 10^7
    assert main(["exact", "--protocol", "pairwise-elimination", "--n", "16"]) == 3
    assert "2^16 * 240 = 15728640 exceeds budget 10000000" in capsys.readouterr().err
    assert main(["exact", "--protocol", "pairwise-elimination", "--n", "30"]) == 3
    assert capsys.readouterr().err == (
        "popsim: |Q|^n * n(n-1) = 2^30 * 870 = 934155386880 exceeds budget 10000000\n")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs an enforced RLIMIT_AS")
def test_exact_at_huge_n_exits_3_without_building_the_power():
    # 2^n * n(n-1) is past the budget once n passes its bits; built, it fills
    # 1 GiB at n = 2^32 (MemoryError), and at n = 10^8 has too many digits to
    # print (exit 2)
    script = textwrap.dedent("""
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        from popsim.cli import main
        for n in (1 << 32, 10**8):
            print(main(["exact", "--protocol", "pairwise-elimination", "--n", str(n)]))
    """)
    src = Path(popsim.__file__).resolve().parent.parent
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=60)
    assert time.perf_counter() - start < 10
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["3", "3"]
    assert proc.stderr.splitlines() == [
        "popsim: |Q|^n * n(n-1) = 2^4294967296 * 18446744069414584320 exceeds budget 10000000",
        "popsim: |Q|^n * n(n-1) = 2^100000000 * 9999999900000000 exceeds budget 10000000",
    ]


def test_exact_cyclic_token_solves_at_four_and_exits_3_at_six(tmp_path, capsys):
    # one strongly connected component holds 60 of 65 configurations at n=4
    # and 658 of 665 at n=6, whose solve is charged 658^3 > 10^7
    path = tmp_path / "cyclic.json"
    path.write_text(json.dumps({
        "name": "cyclic-token",
        "states": ["a", "b", "c"],
        "initial": "a",
        "outputs": {"a": "L", "b": "F", "c": "L"},
        "rules": [["a", "a", "a", "c"], ["a", "c", "a", "b"], ["b", "c", "a", "c"]],
    }))
    out = tmp_path / "exact.json"
    assert main(["exact", "--protocol-file", str(path), "--n", "4", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["expected_stabilization_steps"]["rational"] == "1336/25"
    out.unlink()
    assert main(["exact", "--protocol-file", str(path), "--n", "6", "--out", str(out)]) == 3
    assert "284890312 exceeds budget 10000000" in capsys.readouterr().err
    assert not out.exists()


def test_exact_budget_env_exit_3(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("POPSIM_BUDGET", "10")
    code = main(["exact", "--protocol", "pairwise-elimination", "--n", "8"])
    assert code == 3
    assert "exceeds budget 10" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["abc", "-5", "1e7", ""])
def test_bad_budget_env_exits_2_naming_it(monkeypatch, capsys, value):
    monkeypatch.setenv("POPSIM_BUDGET", value)
    assert main(["exact", "--protocol", "pairwise-elimination", "--n", "3"]) == 2
    assert capsys.readouterr().err == (
        f"popsim: POPSIM_BUDGET={value!r} is not a non-negative integer\n"
    )


def test_influencer_counts_n_against_the_budget(tmp_path, monkeypatch, capsys):
    # At n^2/3 the crossing kernel builds no masks, so n itself is what the
    # budget bounds, before any trial runs or output opens.
    out = tmp_path / "inf.csv"
    monkeypatch.setenv("POPSIM_BUDGET", "63")
    assert main(["influencer", "--n", "8", "--n", "64", "--out", str(out)]) == 3
    assert capsys.readouterr().err == "popsim: n=64 exceeds budget 63\n"
    assert not out.exists()
    monkeypatch.setenv("POPSIM_BUDGET", "64")
    assert main(["influencer", "--n", "8", "--n", "64", "--out", str(out)]) == 0
    assert len(read_csv(out)[1]) == 2


def test_influencer_series_counts_its_steps_against_the_budget(tmp_path, monkeypatch, capsys):
    # A truncated trial 0 replays the whole step budget into the series, one
    # mask union and one row a step: 64 n ceil(ln n) = 3072 steps at n=16.
    out, series = tmp_path / "inf.csv", tmp_path / "series.csv"
    argv = ["influencer", "--n", "16", "--trials", "2", "--out", str(out), "--series-out", str(series)]
    monkeypatch.setenv("POPSIM_BUDGET", "3071")
    assert main([*argv, "--threshold", "n"]) == 3
    assert capsys.readouterr().err == "popsim: the size series of n=16 replays 3072 steps, past budget 3071\n"
    assert list(tmp_path.iterdir()) == []
    assert main([*argv, "--threshold", "n^2/3"]) == 0
    assert len(series.read_text().splitlines()) == int(read_csv(out)[1][0]["t_min"]) + 1
    monkeypatch.setenv("POPSIM_BUDGET", "3072")
    assert main([*argv, "--threshold", "n"]) == 0
    assert len(series.read_text().splitlines()) == 3073


# ----------------------------------------------------------------- export-graph


def test_export_graph_fixture(tmp_path):
    out = tmp_path / "graph.txt"
    dot = tmp_path / "graph.dot"
    code = main(["export-graph", "--fixture", "--agent", "0", "--step", "6",
                 "--out", str(out), "--dot", str(dot)])
    assert code == 0
    text = out.read_text()
    sizes = [int(line.split()[1].split("=")[1])
             for line in text.splitlines() if line.startswith("layer=")]
    assert sizes == [1, 1, 2, 2, 2, 3, 4]
    assert "layer=0 size=4 members=0,2,3,4" in text
    assert dot.read_text().startswith("digraph influence {")


def test_export_graph_step_zero(tmp_path):
    out = tmp_path / "graph.txt"
    code = main(["export-graph", "--fixture", "--agent", "3", "--step", "0",
                 "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert "layer=0 size=1 members=3" in text


def test_export_graph_step_zero_counts_one_layer(tmp_path, monkeypatch, capsys):
    # --dot names the 5 agents of layer 0 even at --step 0, so one layer of
    # 5 + 2 edges is counted
    out, dot = tmp_path / "graph.txt", tmp_path / "graph.dot"
    args = ["export-graph", "--fixture", "--agent", "0", "--step", "0",
            "--out", str(out), "--dot", str(dot)]
    monkeypatch.setenv("POPSIM_BUDGET", "6")
    assert main(args) == 3
    assert "1 layers of 5 agents = 7 edges exceed budget 6" in capsys.readouterr().err
    assert not out.exists()
    assert not dot.exists()
    monkeypatch.setenv("POPSIM_BUDGET", "7")
    assert main(args) == 0
    assert dot.read_text().count(" -> ") == 0


def test_export_graph_from_saved_log_is_stable(tmp_path):
    log_path = tmp_path / "trial.log"
    main(["run", "--protocol", "leave-init", "--n", "5", "--trials", "1",
          "--seed", "14", "--max-steps", "12", "--out", str(tmp_path / "r.csv"),
          "--save-log", str(log_path)])
    out_a, out_b = tmp_path / "ga.txt", tmp_path / "gb.txt"
    args = ["export-graph", "--log", str(log_path), "--agent", "2", "--step", "12"]
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_export_graph_bad_step_exits_2(capsys):
    assert main(["export-graph", "--fixture", "--agent", "0", "--step", "7"]) == 2
    assert "out of range" in capsys.readouterr().err


@pytest.mark.parametrize("agent, step", [("5", "6"), ("-1", "6"), ("0", "7"), ("0", "-1")])
def test_export_graph_bad_agent_or_step_writes_nothing(tmp_path, capsys, agent, step):
    out, dot = tmp_path / "graph.txt", tmp_path / "graph.dot"
    code = main(["export-graph", "--fixture", "--agent", agent, "--step", step,
                 "--out", str(out), "--dot", str(dot)])
    assert code == 2
    assert "out of range" in capsys.readouterr().err
    assert not out.exists()
    assert not dot.exists()


def test_export_graph_over_budget_exits_3_and_writes_nothing(tmp_path, monkeypatch, capsys):
    # the fixture's 6 layers of 5 agents have 6 * (5 + 2) = 42 edges
    out, dot = tmp_path / "graph.txt", tmp_path / "graph.dot"
    args = ["export-graph", "--fixture", "--agent", "0", "--step", "6",
            "--out", str(out), "--dot", str(dot)]
    monkeypatch.setenv("POPSIM_BUDGET", "41")
    assert main(args) == 3
    assert "42 edges exceed budget 41" in capsys.readouterr().err
    assert not out.exists()
    assert not dot.exists()
    monkeypatch.setenv("POPSIM_BUDGET", "42")
    assert main(args) == 0
    assert out.read_text().count(" -> ") == dot.read_text().count(" -> ") == 42


def test_edge_text_and_dot_formats(tmp_path):
    log_path, out, dot = tmp_path / "one.log", tmp_path / "graph.txt", tmp_path / "graph.dot"
    write_log(2, [(1, 0)], log_path)
    assert main(["export-graph", "--log", str(log_path), "--agent", "0", "--step", "1",
                 "--out", str(out), "--dot", str(dot)]) == 0
    text = out.read_text()
    assert "0,0 -> 0,1" in text
    assert "1,0 -> 0,1" in text
    dot_text = dot.read_text()
    assert dot_text.startswith("digraph influence {")
    assert '"1,0" -> "0,1";' in dot_text


def _export_n60_graph(tmp_path):
    """Save the log of a 1000-step n=60 leave-init trial, then export its
    graph at step 1000; returns (exit code, tracemalloc peak, text, dot)."""
    log_path, out, dot = tmp_path / "n60.log", tmp_path / "graph.txt", tmp_path / "graph.dot"
    assert main(["run", "--protocol", "leave-init", "--n", "60", "--trials", "1", "--seed", "7",
                 "--max-steps", "1000", "--out", str(tmp_path / "run.csv"),
                 "--save-log", str(log_path)]) == 0
    tracemalloc.start()
    try:
        code = main(["export-graph", "--log", str(log_path), "--agent", "2", "--step", "1000",
                     "--out", str(out), "--dot", str(dot)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, peak, out.read_bytes(), dot.read_bytes()


def test_export_graph_saved_log_digests(tmp_path):
    # pinned when the layered graph was still built in memory
    code, _, text, dot = _export_n60_graph(tmp_path)
    assert code == 0
    assert text.count(b" -> ") == dot.count(b" -> ") == 1000 * (60 + 2)
    assert hashlib.sha256(text).hexdigest() == (
        "59e499b9e68147e9e6e64c295d28b0b4b8c30283e8f8afc233e5a52bbde160c5")
    assert hashlib.sha256(dot).hexdigest() == (
        "ce88827d959b745d11a7201a7439bc4ad0cebb274286e0f39183bd4381b029f9")


def test_export_graph_streams_its_output(tmp_path):
    # 62000 edges written twice; holding them, or the text, would take tens of MB
    code, peak, _, _ = _export_n60_graph(tmp_path)
    assert code == 0
    assert peak < 4 * 2**20


# ------------------------------------------------------------------- cold start

COLD_START = textwrap.dedent("""
    import json
    import sys

    def loaded(names):
        return [m for m in names if m in sys.modules]

    everything = json.loads(sys.argv[1])
    import popsim

    assert loaded(everything) == [], ("import popsim", loaded(everything))
    from popsim.cli import main

    assert loaded(everything) == [], ("import popsim.cli", loaded(everything))
    for argv, code, absent, present in json.loads(sys.argv[2]):
        try:
            got = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            got = exc.code
        assert got == code, (argv, got)
        assert loaded(absent) == [], (argv, "loaded", loaded(absent))
        assert loaded(present) == present, (argv, "did not load", present)
""")

# numpy and hashlib are heavy, and popsim's records need neither
# dataclasses nor the inspect it pulls in
HEAVY = ["numpy", "_hashlib", "dataclasses", "inspect"]
EXACT, INFLUENCE, STATS, PROTOCOLS, RNG = (
    f"popsim.{m}" for m in ("exact", "influence", "stats", "protocols", "rng")
)


def test_commands_without_pair_streams_load_neither_numpy_nor_hashlib(tmp_path):
    # and each command loads only the popsim modules it runs; each sequence
    # runs in a fresh interpreter, as this one has imported everything
    out = str(tmp_path / "out")
    sequences = [
        [
            (["exact", "--protocol", "pairwise-elimination", "--n", "5", "--out", out], 0,
             [*HEAVY, INFLUENCE, STATS, RNG, "csv"], [EXACT, PROTOCOLS]),
            (["exact", "--n", "5"], 2, [*HEAVY, INFLUENCE, STATS, RNG, "csv"], []),
        ],
        [(["export-graph", "--fixture", "--agent", "0", "--step", "6", "--out", out], 0,
          [*HEAVY, EXACT, STATS, PROTOCOLS], [INFLUENCE])],
        [(["run", "--protocol", "pairwise-elimination", "--n", "5", "--out", out], 0,
          [EXACT, INFLUENCE], ["numpy", PROTOCOLS, RNG])],
        # a stream of 0 steps computes no block, so the saved log loads no numpy
        [(["run", "--protocol", "leave-init", "--n", "6", "--max-steps", "0", "--out", out,
           "--save-log", str(tmp_path / "z.log")], 0,
          [*HEAVY, EXACT, STATS], [PROTOCOLS, RNG, INFLUENCE])],
        # their n^2/3 thresholds are split with integers, not fractions, and
        # coupon reads its drain off the pair stream with no protocol
        [(["coupon", "--n", "16", "--trials", "2", "--out", out], 0,
          [EXACT, INFLUENCE, PROTOCOLS, "fractions"], ["numpy", RNG, STATS])],
        [(["influencer", "--n", "16", "--trials", "2", "--out", out], 0,
          [EXACT, PROTOCOLS, "fractions"], [INFLUENCE, RNG, STATS])],
    ]
    src = Path(popsim.__file__).resolve().parent.parent
    everything = [*HEAVY, EXACT, INFLUENCE, STATS, PROTOCOLS, RNG]
    for steps in sequences:
        result = subprocess.run(
            [sys.executable, "-c", COLD_START, json.dumps(everything), json.dumps(steps)],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0, result.stderr


def test_a_catalog_run_loads_no_json():
    # the harness above imports json itself; this child imports nothing but
    # popsim, so it sees whether the run did
    script = textwrap.dedent("""
        import sys
        from popsim.cli import main
        code = main(["run", "--protocol", "pairwise-elimination", "--n", "5", "--trials", "2"])
        sys.exit(code or "json" in sys.modules)
    """)
    src = Path(popsim.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("# schema=popsim.run.v1 ")


# ------------------------------------------------------------------- exit path

EXIT_CASES = [
    (["exact", "--protocol", "pairwise-elimination", "--n", "4"], {}, 0),
    (["run", "--protocol", "nope", "--n", "4"], {}, 2),
    (["run", "--protocol", "pairwise-elimination", "--n", "four"], {}, 2),
    (["exact", "--protocol", "pairwise-elimination", "--n", "6"], {"POPSIM_BUDGET": "5"}, 3),
]


@pytest.mark.parametrize("argv, env, code", EXIT_CASES)
def test_console_exits_as_main_returns(argv, env, code, monkeypatch, capsys):
    # python -m popsim.cli runs console(), which freezes the heap on its way
    # out: the process writes what in-process main writes and exits with its
    # code; usage text is wrapped to COLUMNS on both sides
    env = {"COLUMNS": "80", **env}
    src = Path(popsim.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-m", "popsim.cli", *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src), **env}, timeout=60)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    try:
        got = main(argv)
    except SystemExit as exc:  # argparse's usage errors
        got = exc.code
    out, err = capsys.readouterr()
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)
    assert got == code


def test_console_freezes_the_heap_on_every_way_out():
    script = textwrap.dedent("""
        import gc, sys
        from popsim.cli import console
        for argv in (["exact", "--protocol", "pairwise-elimination", "--n", "3", "--out", sys.argv[1]],
                     ["exact", "--n", "three"]):
            sys.argv = ["popsim", *argv]
            try:
                code = console()
            except SystemExit as exc:
                code = exc.code
            print(code, gc.get_freeze_count() > 0)
            gc.unfreeze()
    """)
    src = Path(popsim.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-c", script, os.devnull], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert proc.stdout.splitlines() == ["0 True", "2 True"], proc.stderr
    # python -m popsim.cli runs console too: the heap is frozen when atexit runs
    script = textwrap.dedent("""
        import atexit, gc, runpy, sys
        atexit.register(lambda: print(gc.get_freeze_count() > 0))
        sys.argv = ["popsim", "exact", "--protocol", "pairwise-elimination", "--n", "3", "--out", sys.argv[1]]
        runpy.run_module("popsim.cli", run_name="__main__")
    """)
    proc = subprocess.run([sys.executable, "-c", script, os.devnull], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "True\n"), proc.stderr
    # the installed script is console too
    pyproject = Path(popsim.__file__).resolve().parents[2] / "pyproject.toml"
    if pyproject.exists():
        assert 'popsim = "popsim.cli:console"' in pyproject.read_text()


def test_in_process_main_never_freezes(tmp_path):
    assert main(["exact", "--protocol", "pairwise-elimination", "--n", "3", "--out", str(tmp_path / "r.json")]) == 0
    assert main(["run", "--protocol", "nope", "--n", "4"]) == 2
    assert gc.get_freeze_count() == 0
