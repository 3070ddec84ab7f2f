import math
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popsim.core import (
    DENSE_GAP,
    CountWindow,
    Interaction,
    Protocol,
    TrialRecord,
    apply_interaction,
    configuration_digest,
    output_vector,
    run_trial,
    sample_interaction,
    step_budget,
)
from popsim.influence import ScheduleRecorder
from popsim.protocols import CATALOG, make_protocol, protocol_from_dict
from popsim.rng import Splitmix64, pair_blocks

# 0.999 quantile of the chi-square distribution with 55 degrees of freedom
# (8 agents -> 56 ordered pairs).
CHI2_CRIT_DF55_P999 = 93.16753277222854


def identity_protocol(num_states=2):
    table = tuple(tuple((a, b) for b in range(num_states)) for a in range(num_states))
    return Protocol(num_states, 0, table, ("F",) * num_states, name="identity")


# ---------------------------------------------------------------- protocol type


def test_protocol_rejects_partial_table():
    with pytest.raises(ValueError):
        Protocol(2, 0, (((0, 0),),), ("F", "F"))


def test_protocol_rejects_out_of_range_entries():
    table = (((0, 2), (0, 1)), ((1, 0), (1, 1)))
    with pytest.raises(ValueError):
        Protocol(2, 0, table, ("F", "F"))


def test_protocol_rejects_bad_initial_state():
    table = (((0, 0),),)
    with pytest.raises(ValueError):
        Protocol(1, 1, table, ("F",))


def test_protocol_rejects_partial_outputs():
    table = (((0, 0), (0, 1)), ((1, 0), (1, 1)))
    with pytest.raises(ValueError):
        Protocol(2, 0, table, ("F",))


# ------------------------------------------------------------ apply_interaction


def test_apply_pairwise_elimination_demotes_responder():
    proto = make_protocol("pairwise-elimination", 3)
    assert apply_interaction(proto, [0, 0, 1], Interaction(0, 1)) == [0, 1, 1]


def test_apply_identity_changes_nothing():
    proto = identity_protocol()
    config = [0, 1, 0, 1]
    assert apply_interaction(proto, config, Interaction(2, 1)) == config


def test_apply_epidemic_infects_responder():
    proto = make_protocol("one-way-epidemic", 4)
    assert apply_interaction(proto, [1, 0, 0, 0], Interaction(0, 3)) == [1, 0, 0, 1]


def test_apply_is_pure():
    proto = make_protocol("pairwise-elimination", 3)
    config = [0, 0, 1]
    apply_interaction(proto, config, Interaction(0, 1))
    assert config == [0, 0, 1]


def test_apply_changes_at_most_two_entries():
    proto = make_protocol("one-way-epidemic", 6)
    rng = Splitmix64(3)
    config = [rng.randbelow(2) for _ in range(6)]
    for _ in range(200):
        e = sample_interaction(rng, 6)
        after = apply_interaction(proto, config, e)
        changed = [i for i in range(6) if after[i] != config[i]]
        assert set(changed) <= {e.initiator, e.responder}
        config = after


def test_apply_rejects_bad_indices():
    proto = make_protocol("pairwise-elimination", 3)
    with pytest.raises(ValueError):
        apply_interaction(proto, [0, 0, 0], Interaction(0, 3))
    with pytest.raises(ValueError):
        apply_interaction(proto, [0, 0, 0], Interaction(1, 1))


# ----------------------------------------------------------- sample_interaction


def test_sample_two_agents_is_fair_coin():
    rng = Splitmix64(17)
    seen = {sample_interaction(rng, 2) for _ in range(100)}
    assert seen == {Interaction(0, 1), Interaction(1, 0)}


def test_sample_rejects_tiny_population():
    with pytest.raises(ValueError):
        sample_interaction(Splitmix64(0), 1)


def test_sample_deterministic_per_seed():
    rng1, rng2 = Splitmix64(5), Splitmix64(5)
    seq1 = [sample_interaction(rng1, 5) for _ in range(100)]
    seq2 = [sample_interaction(rng2, 5) for _ in range(100)]
    assert seq1 == seq2


def test_sample_uniform_over_ordered_pairs():
    # chi-square over the 56 ordered pairs at n=8, plus a 5-sigma band on
    # every single pair's frequency.
    n = 8
    draws = 1_000_000
    rng = Splitmix64(2024)
    counts = {}
    for _ in range(draws):
        e = sample_interaction(rng, n)
        counts[e] = counts.get(e, 0) + 1
    assert len(counts) == n * (n - 1)
    expected = draws / (n * (n - 1))
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < CHI2_CRIT_DF55_P999
    p = 1 / (n * (n - 1))
    sigma = math.sqrt(p * (1 - p) / draws)
    for c in counts.values():
        assert abs(c / draws - p) < 5 * sigma


# ------------------------------------------------------------------- run_trial


def test_two_leaders_resolve_in_one_step():
    proto = make_protocol("pairwise-elimination", 2)
    rec = run_trial(proto, 2, seed=1, stop_event=("stabilized", lambda t: t.counts[0] == 1))
    assert rec.steps_taken == 1
    assert rec.event_steps == {"stabilized": 1}
    assert not rec.truncated


def test_zero_step_budget_keeps_initial_configuration():
    proto = make_protocol("pairwise-elimination", 5)
    rec = run_trial(proto, 5, seed=9, max_steps=0)
    assert rec.steps_taken == 0
    assert rec.final_states == [0] * 5
    assert not rec.truncated  # no predicate was set, so nothing was cut short


def test_budget_exhaustion_marks_truncated():
    proto = identity_protocol()
    rec = run_trial(proto, 4, seed=9, max_steps=10, stop_event=("never", lambda t: False))
    assert rec.steps_taken == 10
    assert rec.truncated


def test_predicate_checked_before_first_step():
    proto = make_protocol("pairwise-elimination", 4)
    rec = run_trial(proto, 4, seed=9, stop_event=("done", lambda t: t.counts[0] == 4))
    assert rec.steps_taken == 0
    assert rec.event_steps == {"done": 0}


def test_runs_are_deterministic():
    proto = make_protocol("leave-init", 6)
    rec_a = run_trial(proto, 6, seed=77, max_steps=50)
    rec_b = run_trial(proto, 6, seed=77, max_steps=50)
    assert rec_a == rec_b

    log_a, log_b = ScheduleRecorder(6), ScheduleRecorder(6)
    run_trial(proto, 6, seed=77, max_steps=50, observers=[log_a])
    run_trial(proto, 6, seed=77, max_steps=50, observers=[log_b])
    assert log_a.log.entries == log_b.log.entries


def test_engine_draws_match_sample_interaction():
    # The engine takes its pairs from the block stream; replaying
    # sample_interaction on the same seed must give the identical schedule,
    # across block boundaries too (at n=513 about half the initiator draws
    # are rejected).
    for n, steps in ((5, 40), (513, 5000)):
        proto = make_protocol("leave-init", n)
        recorder = ScheduleRecorder(n)
        run_trial(proto, n, seed=31, max_steps=steps, observers=[recorder])
        rng = Splitmix64(31)
        replay = [sample_interaction(rng, n) for _ in range(steps)]
        assert recorder.log.entries == replay


def reference_run(protocol, n, seed, *, max_steps, stop_event=None, initial=None, changes=None):
    """The engine's loop with one sample_interaction call per step: the
    predicate first, then the budget, then the draw.  The steps that change
    the configuration are appended to ``changes`` when it is given."""
    states = [protocol.initial_state] * n if initial is None else list(initial)
    counts = [states.count(s) for s in range(protocol.num_states)]
    trial = SimpleNamespace(states=states, counts=counts, step=0)
    rng = Splitmix64(seed)
    events, stopped = {}, False
    while True:
        if stop_event is not None and stop_event[1](trial):
            events[stop_event[0]] = trial.step
            stopped = True
            break
        if trial.step >= max_steps:
            break
        u, v = sample_interaction(rng, n)
        old = (states[u], states[v])
        for agent, new in zip((u, v), protocol.transitions[states[u]][states[v]]):
            counts[states[agent]] -= 1
            counts[new] += 1
            states[agent] = new
        trial.step += 1
        if changes is not None and (states[u], states[v]) != old:
            changes.append(trial.step)
    return TrialRecord(
        seed=seed,
        n=n,
        steps_taken=trial.step,
        event_steps=events,
        final_states=states,
        truncated=stop_event is not None and not stopped,
    )


def cyclic_protocol():
    # the initiator advances mod 3, so the final configuration depends on
    # which agent initiated each step
    table = tuple(tuple(((a + 1) % 3, b) for b in range(3)) for a in range(3))
    return Protocol(3, 0, table, ("F", "F", "F"), name="cycle")


# At n=2 every pair takes exactly two words, so the blocks of 32, 64 and 128
# words end after steps 16, 48 and 112.
@pytest.mark.parametrize("budget", [0, 1, 15, 16, 17, 48, 112, 113])
def test_budget_and_block_boundaries_match_scalar_engine(budget):
    proto = cyclic_protocol()
    variants = [
        {},
        {"stop_event": ("never", lambda t: False)},
        {"stop_event": ("at_16", lambda t: t.step == 16)},
        {"stop_event": ("at_48", lambda t: t.step == 48)},
        {"stop_event": ("init_left", lambda t: t.counts[0] == 0)},
    ]
    for n in (2, 7):
        for kwargs in variants:
            got = run_trial(proto, n, seed=budget, max_steps=budget, **kwargs)
            assert got == reference_run(proto, n, budget, max_steps=budget, **kwargs)


# A file protocol with three states: A and B turn each other blank, a
# blank copies a decided responder, and everything else is null.
THREE_STATE_DOC = {
    "name": "three-state",
    "states": ["A", "B", "_"],
    "initial": "A",
    "outputs": {"A": "L", "B": "F", "_": "F"},
    "rules": [["A", "B", "A", "_"], ["B", "A", "B", "_"], ["_", "A", "A", "A"], ["_", "B", "B", "B"]],
}


def engine_cases():
    """(label, protocol, n, run_trial kwargs) for the engine-versus-reference
    comparison: every catalog experiment, the cyclic protocol and a file
    protocol, with budgets of 0, inside the first blocks and inside the
    array blocks, stops that hold at step 0, and initial overrides."""
    cases = []
    for name, entry in CATALOG.items():
        for n in (2, 7, 60):
            threshold = max(1, n // 3)
            stop = entry.stop(n, threshold if entry.reads_threshold else None)
            plan = {"stop_event": (entry.event, stop), "initial": entry.start(n)}
            for budget in (0, 1, 37, 3000):
                cases.append((f"{name}-n{n}-b{budget}", make_protocol(name, n), n, dict(plan, max_steps=budget)))
    # to the stop at n=1000, where the last changes come thousands of steps
    # apart and the engine scans for them; the epidemic's changes move the
    # initiator half the time
    for name, threshold in (("leave-init", 10), ("one-way-epidemic", None)):
        entry = CATALOG[name]
        cases.append((f"{name}-n1000", make_protocol(name, 1000), 1000, {
            "max_steps": 10**5, "stop_event": (entry.event, entry.stop(1000, threshold)),
            "initial": entry.start(1000)}))
    for n in (2, 7):
        cases.append((f"cycle-n{n}", cyclic_protocol(), n,
                      {"max_steps": 700, "stop_event": ("init_left", lambda t: t.counts[0] == 0)}))
    three = protocol_from_dict(THREE_STATE_DOC)
    mixed = [0, 1, 2] * 10
    cases += [
        ("three-all-null", three, 30, {"max_steps": 5000}),
        ("three-mixed", three, 30, {"max_steps": 5000, "initial": mixed}),
        ("three-decided", three, 30, {"max_steps": 5000, "initial": mixed,
                                      "stop_event": ("decided", lambda t: t.counts[2] == 0
                                                     and 0 in (t.counts[0], t.counts[1]))}),
        ("stop-at-0", three, 30, {"max_steps": 5000, "initial": mixed,
                                  "stop_event": ("at_0", lambda t: t.counts[2] == 10)}),
    ]
    return cases


ENGINE_CASES = {label: case for label, *case in engine_cases()}


@pytest.mark.parametrize("label", sorted(ENGINE_CASES))
def test_run_trial_matches_reference_run(label):
    protocol, n, kwargs = ENGINE_CASES[label]
    for seed in (3, 2**64 - 5):
        assert run_trial(protocol, n, seed, **kwargs) == reference_run(protocol, n, seed, **kwargs)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_elimination_to_one_leader_matches_reference_run(seed):
    proto = make_protocol("pairwise-elimination", 100)
    stop = ("stabilized", lambda t: t.counts[0] == 1)
    rec = run_trial(proto, 100, seed, max_steps=10**6, stop_event=stop)
    assert rec == reference_run(proto, 100, seed, max_steps=10**6, stop_event=stop)
    assert rec.event_steps == {"stabilized": rec.steps_taken}


# Only an infected initiator changes a state, so a scan looks up only the
# pairs whose initiator is flagged as infected.
PUSH_EPIDEMIC_DOC = {
    "name": "push-epidemic",
    "states": ["S", "I"],
    "initial": "S",
    "outputs": {"S": "F", "I": "F"},
    "rules": [["I", "S", "I", "I"]],
}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_push_epidemic_flags_each_infected_responder_for_the_scans(seed):
    # Every infection turns its responder into an initiator that can change a
    # state, so the scans after it must look at that agent's pairs too.
    proto = protocol_from_dict(PUSH_EPIDEMIC_DOC)
    n = 1000
    kwargs = {"max_steps": 10**6, "stop_event": ("all_infected", lambda t: t.counts[1] == n),
              "initial": [1] + [0] * (n - 1)}
    rec = run_trial(proto, n, seed, **kwargs)
    assert not rec.truncated
    assert rec == reference_run(proto, n, seed, **kwargs)


@pytest.mark.parametrize("budget", [60_000, 90_000])
def test_budget_inside_a_skipped_null_run_matches_reference_run(budget):
    # At n=1000 a handful of leaders is left after 60000 steps, so a state
    # change comes about once in 10^4 steps and the engine scans for it.
    proto = make_protocol("pairwise-elimination", 1000)
    stop = ("stabilized", lambda t: t.counts[0] == 1)
    changes = []
    expected = reference_run(proto, 1000, 5, max_steps=budget, stop_event=stop, changes=changes)
    assert expected.truncated
    assert budget - changes[-1] > 2 * DENSE_GAP  # the budget ends inside a null run
    assert run_trial(proto, 1000, 5, max_steps=budget, stop_event=stop) == expected
    # the same run with the budget at the last change and just before it
    for cut in (changes[-1], changes[-1] - 1):
        assert run_trial(proto, 1000, 5, max_steps=cut, stop_event=stop) == reference_run(
            proto, 1000, 5, max_steps=cut, stop_event=stop
        )


class StepCounter:
    def __init__(self):
        self.steps = []

    def notify(self, trial, e, old, new):
        self.steps.append(trial.step)


@pytest.mark.parametrize("name,n", [("pairwise-elimination", 200), ("leave-init", 300)])
def test_observers_see_every_step_and_leave_the_record_unchanged(name, n):
    entry = CATALOG[name]
    stop = (entry.event, entry.stop(n, n // 4 if entry.reads_threshold else None))
    bare = run_trial(make_protocol(name, n), n, 17, max_steps=10**6, stop_event=stop)
    counter = StepCounter()
    observed = run_trial(make_protocol(name, n), n, 17, max_steps=10**6, stop_event=stop, observers=[counter])
    assert observed == bare
    assert counter.steps == list(range(1, bare.steps_taken + 1))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_null_skip_in_the_leading_blocks_matches_observed_and_reference_runs(seed):
    # At n=4 leave-init turns null once every agent has interacted, a few
    # steps in.  Each block here holds fewer than DENSE_GAP pairs, so the
    # first block with no change is a segment with no change, the scans start
    # at the next block, and the budget of 150 ends inside the same null
    # run.  Both fall in the leading four blocks, of 32 + 64 + 128 + 256 =
    # 480 words.
    proto = protocol_from_dict(CATALOG["leave-init"].document)  # a fresh instance, mask unbuilt
    changes = []
    expected = reference_run(proto, 4, seed, max_steps=150, changes=changes)
    assert changes[-1] + DENSE_GAP < 150
    assert len(list(pair_blocks(seed, 4, 150))) <= 4
    assert proto._mask is None
    assert run_trial(proto, 4, seed, max_steps=150) == expected
    assert proto._mask is not None  # built by the run's first scan
    counter = StepCounter()
    assert run_trial(proto, 4, seed, max_steps=150, observers=[counter]) == expected
    assert counter.steps == list(range(1, 151))


def test_with_observers_the_predicate_is_checked_every_step():
    # a predicate reading the step count is outside the contract without
    # observers, but with one attached every step is checked
    rec = run_trial(identity_protocol(), 50, 4, max_steps=1000,
                    stop_event=("at_500", lambda t: t.step == 500), observers=[StepCounter()])
    assert rec.event_steps == {"at_500": 500}


class EventLog:
    def __init__(self):
        self.events = []

    def notify(self, trial, e, old, new):
        self.events.append((trial.step, e, old, new))


@st.composite
def window_runs(draw):
    """A random protocol of 1-4 states, n, a start, a budget, a seed and a
    count window over the protocol.  The window either holds the count that
    the schedule reaches at a random step of the budget, so that the run
    stops there or before, or lies near the start's count (it may never
    hold).  All but the seed come from ``random.Random``, whose choices are
    uniform where Hypothesis favours the simplest values."""
    rnd = random.Random(draw(st.integers(0, 2**32)))
    seed = draw(st.integers(0, 2**64 - 1))
    k = rnd.randint(1, 4)
    table = tuple(tuple((rnd.randrange(k), rnd.randrange(k)) for _ in range(k)) for _ in range(k))
    protocol = Protocol(k, rnd.randrange(k), table, ("F",) * k, name="random")
    n = rnd.randint(2, rnd.choice([16, 1025]))
    initial = None
    if rnd.random() < 0.5:
        initial = rnd.choices(range(k), [rnd.randrange(4) + 1 for _ in range(k)], k=n)
    budget = rnd.choice([0, 1, 63, 64, 200, 5000])
    watched = frozenset(rnd.sample(range(k), rnd.randrange(k + 1)))
    states = [protocol.initial_state] * n if initial is None else list(initial)
    if budget and rnd.random() < 0.75:  # replay to a random step
        sampler = Splitmix64(seed)
        for _ in range(rnd.randrange(budget) + 1):
            u, v = sample_interaction(sampler, n)
            states[u], states[v] = table[states[u]][states[v]]
    count = sum(s in watched for s in states)
    move, width = rnd.choice([0, 0, 0, 0, 2, -2, 1, -1, 4, -4]), rnd.choice([1, 0, 3, -1])
    low = count + move if move >= 0 else count + move - width  # holds the count only at move 0
    return protocol, n, CountWindow(watched, low, low + width), initial, budget, seed


@settings(max_examples=300, deadline=None, derandomize=True)
@given(window_runs(), st.booleans())
def test_count_window_runs_match_predicate_and_reference_runs(case, observed):
    # Without observers the window is read as data, one count and no counts
    # list; with them it is called on the trial.  The equal lambda is always
    # called.
    protocol, n, window, initial, budget, seed = case
    states, low, high = window

    def equal(trial):
        return low <= sum(trial.counts[s] for s in states) <= high

    records, logs = [], []
    for stop in (window, equal):
        log = EventLog()
        records.append(run_trial(protocol, n, seed, max_steps=budget, stop_event=("in_window", stop),
                                 initial=initial, observers=[log] if observed else ()))
        logs.append(log.events)
    assert records[0] == records[1] == reference_run(
        protocol, n, seed, max_steps=budget, stop_event=("in_window", equal), initial=initial)
    assert logs[0] == logs[1]
    if observed:
        assert [step for step, *_ in logs[0]] == list(range(1, records[0].steps_taken + 1))


@pytest.mark.parametrize("states", [frozenset({2}), frozenset({0, 5}), frozenset({-1})])
def test_count_window_naming_a_state_outside_the_protocol_is_rejected(states):
    proto = make_protocol("pairwise-elimination", 5)
    for observers in ((), [EventLog()]):
        with pytest.raises(ValueError, match="count window"):
            run_trial(proto, 5, 0, stop_event=("x", CountWindow(states, 1, 1)), observers=observers)


def test_count_window_rows_are_built_once_per_watched_set():
    proto = protocol_from_dict(CATALOG["leave-init"].document)  # a fresh instance, no rows built
    for seed in range(3):
        run_trial(proto, 50, seed, stop_event=("drained", CountWindow(frozenset({0}), 0, 9)))
        run_trial(proto, 50, seed, stop_event=("drained", CountWindow({0}, 0, 9)))  # a plain set too
    assert list(proto._rows) == [frozenset({0})]
    rows = proto._rows[frozenset({0})]
    assert rows[0][0] == (1, 1, -2)  # init, init -> done, done
    assert rows[1][1] is None  # done, done is null


def test_observer_sees_old_and_new_states():
    proto = make_protocol("pairwise-elimination", 2)
    seen = []

    class Probe:
        def notify(self, trial, e, old, new):
            seen.append((trial.step, e, old, new))

    run_trial(proto, 2, seed=3, max_steps=1, observers=[Probe()])
    assert len(seen) == 1
    step, e, old, new = seen[0]
    assert step == 1
    assert old == (0, 0)
    assert new == (0, 1)


def test_generator_observers_keep_their_events():
    # A one-shot iterable of observers must still receive every notify; the
    # list form is the reference.
    proto = make_protocol("leave-init", 6)
    stop = ("init_left", lambda trial: trial.counts[0] == 0)
    listed = ScheduleRecorder(6)
    rec_list = run_trial(proto, 6, seed=5, max_steps=200, stop_event=stop, observers=[listed])
    streamed = ScheduleRecorder(6)
    rec_gen = run_trial(proto, 6, seed=5, max_steps=200, stop_event=stop,
                        observers=(o for o in [streamed]))
    assert rec_list.event_steps == {"init_left": rec_list.steps_taken}
    assert rec_gen == rec_list
    assert len(listed.log) == rec_list.steps_taken
    assert streamed.log.entries == listed.log.entries


def test_counts_track_configuration():
    proto = make_protocol("leave-init", 8)
    final_counts = {}

    class Probe:
        def notify(self, trial, e, old, new):
            final_counts["counts"] = list(trial.counts)
            final_counts["states"] = list(trial.states)

    run_trial(proto, 8, seed=13, max_steps=20, observers=[Probe()])
    states = final_counts["states"]
    assert final_counts["counts"] == [states.count(0), states.count(1)]


@pytest.mark.parametrize("initial", [None, [2, 0, 1, 1, 2, 2]])
def test_start_counts_match_the_start(initial):
    # the all-initial start is counted without a pass over the agents
    seen = []

    def look(trial):
        seen.append((list(trial.counts), list(trial.states)))
        return False

    run_trial(identity_protocol(3), 6, seed=1, max_steps=0, stop_event=("never", look), initial=initial)
    counts, states = seen[0]
    assert counts == [states.count(s) for s in range(3)]
    assert counts == ([6, 0, 0] if initial is None else [1, 2, 3])


def test_initial_override():
    proto = make_protocol("one-way-epidemic", 4)
    rec = run_trial(proto, 4, seed=2, max_steps=0, initial=[1, 0, 0, 0])
    assert rec.final_states == [1, 0, 0, 0]
    with pytest.raises(ValueError):
        run_trial(proto, 4, seed=2, initial=[1, 0, 0])
    with pytest.raises(ValueError):
        run_trial(proto, 4, seed=2, initial=[2, 0, 0, 0])


def test_run_trial_rejects_tiny_population():
    with pytest.raises(ValueError):
        run_trial(make_protocol("pairwise-elimination", 1), 1, seed=0)


def test_mean_stabilization_steps_near_exact_value():
    # exact expected value for three agents is 4 (solved in test_exact)
    proto = make_protocol("pairwise-elimination", 3)
    total = 0
    trials = 20_000
    for t in range(trials):
        rec = run_trial(proto, 3, seed=t, stop_event=("stabilized", lambda tr: tr.counts[0] == 1))
        total += rec.steps_taken
    assert total / trials == pytest.approx(4.0, rel=0.03)


# -------------------------------------------------------------------- the rest


def test_output_vector_maps_elementwise():
    proto = make_protocol("pairwise-elimination", 2)
    assert output_vector(proto, [0, 1]) == ["L", "F"]
    assert output_vector(proto, [1, 1, 1]) == ["F", "F", "F"]


def test_all_initial_configuration_outputs_follower_for_leave_init():
    proto = make_protocol("leave-init", 4)
    assert output_vector(proto, [proto.initial_state] * 4) == ["F"] * 4


def test_output_vector_constant_map():
    proto = make_protocol("leave-init", 3)
    for config in ([0, 0, 0], [1, 0, 1], [1, 1, 1]):
        assert output_vector(proto, config) == ["F", "F", "F"]


def test_trial_record_compares_and_prints_by_fields():
    fields = dict(seed=3, n=4, steps_taken=7, event_steps={"e": 7}, final_states=[1, 0, 0, 0], truncated=False)
    rec = TrialRecord(**fields)
    assert rec == TrialRecord(**fields)
    changed = dict(seed=4, n=5, steps_taken=8, event_steps={}, final_states=[0, 0, 0, 0], truncated=True)
    for name, value in changed.items():
        assert rec != TrialRecord(**{**fields, name: value})
    assert repr(rec) == (
        "TrialRecord(seed=3, n=4, steps_taken=7, event_steps={'e': 7}, final_states=[1, 0, 0, 0], truncated=False)"
    )


def test_parallel_time():
    assert TrialRecord(seed=0, n=5, steps_taken=0).parallel_time == 0.0
    assert TrialRecord(seed=0, n=3, steps_taken=4).parallel_time == pytest.approx(4 / 3)
    n = 100
    steps = round(n * math.log(n))
    assert TrialRecord(seed=0, n=n, steps_taken=steps).parallel_time == pytest.approx(math.log(n), rel=0.01)


def test_default_step_budget():
    assert step_budget(2, None) == 64 * 2 * 1
    assert step_budget(100, None) == 64 * 100 * 5


def test_digest_stable_and_distinct():
    assert configuration_digest([0, 1]) == configuration_digest([0, 1])
    assert configuration_digest([0, 1]) != configuration_digest([1, 0])
