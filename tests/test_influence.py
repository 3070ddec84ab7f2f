import math
import re
import tracemalloc
from collections import Counter
from itertools import accumulate, islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import forward_sets
from popsim import influence
from popsim.cli import main
from popsim.core import Interaction, run_trial, sample_interaction, step_budget
from popsim.exact import BudgetExceededError
from popsim.influence import (
    DEMO_SCHEDULE_N5,
    INFLUENCER_EVENT,
    InfluencerTable,
    InteractionLog,
    ScheduleRecorder,
    backward_sets,
    backward_step,
    demo_log,
    first_exceed_time,
    layered_edges,
    sources_reaching,
    write_log,
    write_size_series,
)
from popsim.protocols import CATALOG, make_protocol
from popsim.rng import (
    FIRST_BLOCK,
    MAX_BLOCK,
    Splitmix64,
    _block,
    derive_seed,
    described_pair_blocks,
    pair_blocks,
    pair_stream,
    reformed_blocks,
)

A, B, C, D, E = range(5)


def random_log(n: int, length: int, seed: int) -> InteractionLog:
    rng = Splitmix64(seed)
    log = InteractionLog(n)
    for _ in range(length):
        log.append(sample_interaction(rng, n))
    return log


# hypothesis strategy: a population size plus a schedule over it, encoded as
# (initiator, responder-offset) pairs so every drawn pair is valid.
@st.composite
def schedules(draw, max_n=16, max_len=60):
    n = draw(st.integers(min_value=2, max_value=max_n))
    raw = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 2)),
            max_size=max_len,
        )
    )
    log = InteractionLog(n)
    for u, k in raw:
        log.append(Interaction(u, k if k < u else k + 1))
    return log


# ------------------------------------------------------------------ demo fixture


def test_demo_schedule_forward_sets():
    table = forward_sets(demo_log())
    assert table.members(A) == frozenset({A, C, D, E})
    assert table.size(A) == 4
    # the one agent that only ever met B and C
    assert table.members(B) == frozenset({B, C, D, E})


def test_demo_schedule_backward_sets():
    layers = list(backward_sets(demo_log(), A, 6))
    assert [len(s) for s in layers] == [1, 1, 2, 2, 2, 3, 4]
    assert layers[0] == frozenset({A})          # layer 6
    assert layers[1] == frozenset({A})          # layer 5
    assert layers[2] == frozenset({A, D})       # layer 4
    assert layers[3] == frozenset({A, D})       # layer 3
    assert layers[4] == frozenset({A, D})       # layer 2
    assert layers[5] == frozenset({A, C, D})    # layer 1
    assert layers[6] == frozenset({A, C, D, E})  # layer 0


def test_demo_schedule_graph_reachability():
    assert sources_reaching(demo_log(), 6, A) == frozenset({A, C, D, E})


# ------------------------------------------------------------------ forward sets


def test_initial_sets_are_singletons():
    table = InfluencerTable(7)
    assert table.step == 0
    for v in range(7):
        assert table.members(v) == frozenset({v})
        assert table.size(v) == 1


def test_influencer_table_needs_an_agent():
    with pytest.raises(ValueError, match="population size must be >= 1"):
        InfluencerTable(0)


def test_untouched_agent_keeps_singleton():
    log = InteractionLog(4, [Interaction(0, 1), Interaction(1, 0), Interaction(0, 1)])
    table = forward_sets(log)
    assert table.members(3) == frozenset({3})
    assert table.members(2) == frozenset({2})


def test_update_merges_both_participants():
    table = InfluencerTable(4)
    table.update(Interaction(0, 1))
    assert table.members(0) == table.members(1) == frozenset({0, 1})
    assert table.step == 1
    table.update(Interaction(1, 2))
    assert table.members(1) == frozenset({0, 1, 2})
    assert table.members(0) == frozenset({0, 1})


def test_table_allocates_no_set_before_its_agent_interacts():
    # One single-bit integer per agent would peak near 18 MB at this size.
    tracemalloc.start()
    try:
        table = InfluencerTable(16384)
        table.update(Interaction(0, 1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert table.size(0) == table.size(1) == max(table.size(v) for v in range(16384)) == 2
    assert table.members(5) == frozenset({5})
    fresh = InfluencerTable(3)
    assert max(fresh.size(v) for v in range(3)) == 1


@settings(max_examples=60, deadline=None)
@given(schedules())
def test_forward_sets_grow_monotonically_and_contain_self(log):
    table = InfluencerTable(log.n)
    previous = [table.members(v) for v in range(log.n)]
    for e in log:
        table.update(e)
        current = [table.members(v) for v in range(log.n)]
        for v in range(log.n):
            assert v in current[v]
            assert previous[v] <= current[v]
        previous = current


# ----------------------------------------------------------------- backward sets


def test_backward_of_empty_log_is_singleton():
    log = InteractionLog(3)
    assert list(backward_sets(log, 2, 0)) == [frozenset({2})]


def test_backward_rejects_step_beyond_log():
    log = InteractionLog(3, [Interaction(0, 1)])
    with pytest.raises(ValueError):
        backward_sets(log, 0, 2)
    with pytest.raises(ValueError):
        backward_sets(log, 3, 1)


def test_backward_step_untouched_set_unchanged():
    members = frozenset({0, 1})
    assert backward_step(members, Interaction(2, 3)) is members


def test_backward_step_absorbs_both_participants():
    assert backward_step(frozenset({0}), Interaction(0, 3)) == frozenset({0, 3})
    assert backward_step(frozenset({0}), Interaction(3, 0)) == frozenset({0, 3})


@settings(max_examples=60, deadline=None)
@given(schedules(), st.data())
def test_backward_layer_zero_equals_forward(log, data):
    t = data.draw(st.integers(0, len(log)))
    v = data.draw(st.integers(0, log.n - 1))
    layers = list(backward_sets(log, v, t))
    assert layers[-1] == forward_sets(log, t).members(v)


@settings(max_examples=60, deadline=None)
@given(schedules(), st.data())
def test_backward_sizes_grow_by_zero_or_one(log, data):
    t = data.draw(st.integers(0, len(log)))
    v = data.draw(st.integers(0, log.n - 1))
    sizes = [len(s) for s in backward_sets(log, v, t)]
    assert all(b - a in (0, 1) for a, b in zip(sizes, sizes[1:]))


# ------------------------------------------------------------------ layered graph


def test_smallest_graph_counts():
    log = InteractionLog(2, [Interaction(0, 1)])
    edges = list(layered_edges(log, 1))
    nodes = {node for edge in edges for node in edge}
    assert len(nodes) == log.n * (1 + 1) == 4
    vertical = [(s, d) for s, d in edges if s[0] == d[0]]
    cross = [(s, d) for s, d in edges if s[0] != d[0]]
    assert len(vertical) == 2
    assert len(cross) == 2


def test_out_degree_one_or_two():
    log = random_log(5, 12, seed=60)
    out_degree = Counter(src for src, _ in layered_edges(log, 12))
    for i in range(12):
        participants = {log[i].initiator, log[i].responder}
        for u in range(5):
            expected = 2 if u in participants else 1
            assert out_degree[(u, i)] == expected
    for u in range(5):
        assert out_degree[(u, 12)] == 0


def test_graph_reachability_matches_forward_sets():
    # exhaustive cross-check of the two independent routes on random logs
    checks = 0
    for seed in range(40):
        n = 2 + seed % 5  # 2..6
        log = random_log(n, 20, seed=1000 + seed)
        for t in (0, 7, 20):
            table = forward_sets(log, t)
            for v in range(n):
                assert sources_reaching(log, t, v) == table.members(v)
                checks += 1
    assert checks == 480


def test_graph_routes_check_arguments_at_the_call():
    # bad steps and agents fail before any edge or layer is asked for
    log = InteractionLog(3, [Interaction(0, 1)])
    for bad_step in (-1, 2):
        with pytest.raises(ValueError, match="out of range"):
            layered_edges(log, bad_step)
        with pytest.raises(ValueError, match="out of range"):
            backward_sets(log, 0, bad_step)
        with pytest.raises(ValueError, match="out of range"):
            sources_reaching(log, bad_step, 0)
        with pytest.raises(ValueError, match="out of range"):
            forward_sets(log, bad_step)
    for bad_agent in (-1, 3):
        with pytest.raises(ValueError, match="out of range"):
            backward_sets(log, bad_agent, 1)
        with pytest.raises(ValueError, match="out of range"):
            sources_reaching(log, 1, bad_agent)


def test_layered_edges_are_generated_on_demand():
    log = random_log(4, 3, seed=61)
    edges = layered_edges(log, 3)
    assert next(edges) == ((0, 0), (0, 1))
    assert len(list(edges)) == 3 * (4 + 2) - 1


# -------------------------------------------------------------- first exceedance


def test_two_agents_cross_threshold_one_immediately():
    rec = first_exceed_time(make_protocol("leave-init", 2), 2, seed=4, threshold=1)
    assert rec.event_steps[INFLUENCER_EVENT] == 1
    assert not rec.truncated


def test_threshold_at_population_size_never_reached():
    rec = first_exceed_time(make_protocol("leave-init", 5), 5, seed=4, threshold=5, max_steps=400)
    assert INFLUENCER_EVENT not in rec.event_steps
    assert rec.truncated
    assert rec.steps_taken == 400


def test_unreachable_threshold_skips_the_kernel(monkeypatch):
    def kernel(*args):
        raise AssertionError("the kernel ran")

    monkeypatch.setattr(influence, "_crossing_step", kernel)
    for n, threshold, max_steps in [(5, 5, 400), (5, 7.5, 400), (4096, 4096, None)]:
        rec = first_exceed_time(make_protocol("leave-init", n), n, seed=4, threshold=threshold, max_steps=max_steps)
        budget = step_budget(n, max_steps)
        assert (rec.seed, rec.n, rec.steps_taken, rec.event_steps, rec.final_states, rec.truncated) == (
            4, n, budget, {}, None, True)
    # extra observers still see the budget's steps, replayed on the agent engine
    recorder = ScheduleRecorder(5)
    rec = first_exceed_time(make_protocol("leave-init", 5), 5, seed=4, threshold=5, max_steps=400,
                            extra_observers=[recorder])
    assert (rec.seed, rec.n, rec.steps_taken, rec.event_steps, rec.truncated) == (4, 5, 400, {}, True)
    assert rec.final_states == run_trial(make_protocol("leave-init", 5), 5, 4, max_steps=400).final_states
    assert recorder.log.entries == [Interaction(u, v) for u, v in pair_stream(4, 5, 400)]


def test_threshold_below_one_rejected():
    with pytest.raises(ValueError):
        first_exceed_time(make_protocol("leave-init", 4), 4, seed=0, threshold=0.5)


def test_first_exceed_matches_offline_replay():
    n, threshold = 12, 4
    proto = make_protocol("leave-init", n)
    recorder = ScheduleRecorder(n)
    rec = first_exceed_time(
        proto, n, seed=90, threshold=threshold, extra_observers=[recorder]
    )
    reported = rec.event_steps[INFLUENCER_EVENT]
    # replay the recorded schedule and find the crossing by brute force
    table = InfluencerTable(n)
    crossing = None
    for j, e in enumerate(recorder.log):
        table.update(e)
        if crossing is None and max(table.size(v) for v in range(n)) > threshold:
            crossing = j + 1
    assert crossing == reported == rec.steps_taken


def _replay_crossing(log, threshold, agent=None):
    """The first crossing found by replaying a recorded schedule into an
    InfluencerTable: the first step after which a participant's set (the
    tracked agent's, when there is one) has more than ``threshold`` members,
    or None."""
    table = InfluencerTable(log.n)
    for e in log:
        table.update(e)
        if (agent is None or agent in e) and table.size(e.initiator) > threshold:
            return table.step
    return None


def _both_routes(n, seed, threshold, **kwargs):
    """first_exceed_time on the stream kernel alone, and with a recorder as
    an extra observer, which replays the kernel's steps on the agent engine;
    also returns the recorded schedule."""
    kernel = first_exceed_time(make_protocol("leave-init", n), n, seed, threshold, **kwargs)
    recorder = ScheduleRecorder(n)
    observed = first_exceed_time(
        make_protocol("leave-init", n), n, seed, threshold, extra_observers=[recorder], **kwargs
    )
    return kernel, observed, recorder.log


def _fields(rec):
    return rec.event_steps, rec.steps_taken, rec.truncated


@pytest.mark.parametrize("n", [2, 3, 5, 64, 1000])
def test_stream_kernel_matches_observer_route(n):
    thresholds = sorted({1, 1.5, math.ceil(n ** (2 / 3)), n / 2 + 0.25, n - 0.5, n})
    for agent in (None, 0, n - 1):
        for i, threshold in enumerate(thresholds):
            seed = derive_seed(n, i)
            # Threshold n is out of reach, so the budget runs out.  At n=1000
            # the default budget is 448000 steps; a shorter one stands in.
            first_budget = 3 * n if threshold >= n and n > 64 else None
            kernel, observed, log = _both_routes(n, seed, threshold, agent=agent, max_steps=first_budget)
            assert _fields(kernel) == _fields(observed)
            assert kernel.final_states is None
            replay = run_trial(make_protocol("leave-init", n), n, seed, max_steps=kernel.steps_taken)
            assert observed.final_states == replay.final_states
            assert len(log) == kernel.steps_taken
            t_min = kernel.event_steps.get(INFLUENCER_EVENT)
            assert t_min == _replay_crossing(log, threshold, agent)
            if t_min is None:
                assert threshold >= n and kernel.truncated
                budgets = [0, 3 * n]
            else:
                assert t_min == kernel.steps_taken and not kernel.truncated
                budgets = [0, t_min - 1, t_min]
            for max_steps in budgets:
                kernel, observed, log = _both_routes(n, seed, threshold, agent=agent, max_steps=max_steps)
                assert _fields(kernel) == _fields(observed)
                assert len(log) == kernel.steps_taken
                crossed = t_min is not None and max_steps >= t_min
                # a crossing exactly at the budget is not truncated
                assert kernel.truncated == (not crossed)
                assert kernel.steps_taken == (t_min if crossed else max_steps)


@pytest.mark.parametrize(
    "n, threshold, kwargs",
    [
        (4, 0.5, {}),
        (4, 0, {}),
        (4, 2, {"max_steps": -1}),
        (1, 1, {}),
        (1 << 32, 2, {}),  # past the uint32 entries of a schedule
        (4, 2, {"agent": 4}),
    ],
)
def test_both_routes_reject_bad_arguments(n, threshold, kwargs):
    with pytest.raises(ValueError):
        first_exceed_time(make_protocol("leave-init", 2), n, 0, threshold, **kwargs)
    with pytest.raises(ValueError):
        first_exceed_time(make_protocol("leave-init", 2), n, 0, threshold,
                          extra_observers=[ScheduleRecorder(n)], **kwargs)


def test_single_agent_mode_waits_for_that_agent():
    n = 6
    log = InteractionLog(n, [Interaction(1, 2), Interaction(2, 3), Interaction(1, 3),
                             Interaction(0, 1), Interaction(0, 2)])
    assert _replay_crossing(log, 2) == 2  # agents 2,3 reach size 3 at step 2
    assert _replay_crossing(log, 2, agent=0) == 4  # agent 0 first exceeds when it meets 1
    # The kernel's crossing for agent 0 lands on one of agent 0's own steps,
    # never before anyone's, and on some seeds strictly after.
    waited = 0
    for seed in range(40):
        anyone = first_exceed_time(make_protocol("leave-init", n), n, seed, 2)
        recorder = ScheduleRecorder(n)
        zero = first_exceed_time(make_protocol("leave-init", n), n, seed, 2, agent=0, extra_observers=[recorder])
        t_any = anyone.event_steps[INFLUENCER_EVENT]
        t_zero = zero.event_steps[INFLUENCER_EVENT]
        assert t_zero == _replay_crossing(recorder.log, 2, agent=0)
        assert 0 in recorder.log[t_zero - 1]
        assert t_any <= t_zero
        waited += t_any < t_zero
    assert waited > 0


def _kernel_counters(monkeypatch):
    """Wrap the kernel's backward scan and its switch to masks (the one
    ``_replay_masks`` call of a trial); the returned dict counts the pairs
    the scans read (each reads the pairs before its own, those of the older
    blocks and the current block's first ``j``, or stops early) and the
    switches."""
    seen = {"scanned": 0, "switches": 0}
    scan, replay = influence._backward_size, influence._replay_masks

    def counted_scan(seed, n, older, U, V, j, limit):
        seen["scanned"] += sum(pairs for *_, pairs in older) + j
        return scan(seed, n, older, U, V, j, limit)

    def counted_replay(*args):
        seen["switches"] += 1
        return replay(*args)

    monkeypatch.setattr(influence, "_backward_size", counted_scan)
    monkeypatch.setattr(influence, "_replay_masks", counted_replay)
    return seen


# (n, threshold, agent, whether the kernel switches to masks on these seeds)
KERNEL_PATHS = [
    (4096, 256, None, False),  # n^(2/3): a scan or two, at the crossing
    (4096, 4000, None, True),  # thresholds near n overflow at almost every step
    (1000, 999.5, None, True),
    (4096, 256, 0, False),
    (1000, 999.5, 3, True),
]


@pytest.mark.parametrize("n, threshold, agent, switches", KERNEL_PATHS)
def test_kernel_paths_match_forward_replay(monkeypatch, n, threshold, agent, switches):
    seen = _kernel_counters(monkeypatch)
    for i in range(2):
        seed = derive_seed(n, i)
        seen.update(scanned=0, switches=0)
        rec = first_exceed_time(make_protocol("leave-init", n), n, seed, threshold, agent=agent)
        assert seen["scanned"] > 0
        assert seen["switches"] == switches
        recorder = ScheduleRecorder(n)
        run_trial(make_protocol("leave-init", n), n, seed, max_steps=rec.steps_taken, observers=[recorder])
        assert rec.event_steps[INFLUENCER_EVENT] == rec.steps_taken
        assert _replay_crossing(recorder.log, threshold, agent) == rec.steps_taken


@pytest.mark.parametrize("multiple", [0, math.inf])
@pytest.mark.parametrize("n", [3, 4, 5, 8, 64, 200])
def test_either_kernel_path_alone_matches_forward_replay(monkeypatch, n, multiple):
    # A multiple of 0 switches to masks at the first overflow after step 1,
    # and an infinite one never switches, so every overflow is scanned.  At
    # n = 4 and 8 the pair after a switch often meets one of its two agents,
    # so masks replayed one pair too far give an early crossing there.
    monkeypatch.setattr(influence, "SWITCH_MULTIPLE", multiple)
    thresholds = sorted({1, 1.5, math.ceil(n ** (2 / 3)), n / 2 + 0.25, n - 0.5})
    for agent in (None, 0):
        for i, threshold in enumerate(thresholds):
            seed = derive_seed(n + 7, i)
            rec = first_exceed_time(make_protocol("leave-init", n), n, seed, threshold, agent=agent)
            recorder = ScheduleRecorder(n)
            run_trial(make_protocol("leave-init", n), n, seed, max_steps=rec.steps_taken, observers=[recorder])
            assert rec.event_steps.get(INFLUENCER_EVENT) == _replay_crossing(recorder.log, threshold, agent)


def _block_ends(seed, n, count=6):
    """The steps at which the first ``count`` blocks of the pair stream end.
    A block's size counts words, and a pair takes one word or more, so the
    ends come from the blocks themselves, drawn whole from a stream of as
    many steps as they have words."""
    words = sum(min(FIRST_BLOCK << i, MAX_BLOCK) for i in range(count))
    return list(islice(accumulate(len(U) for U, _ in pair_blocks(seed, n, words)), count))


# (n, threshold, agent, whether the kernel switches to masks on these seeds):
# crossings at step 1, at the end of the first block (n=5, first seed), inside
# the later blocks and past the sixth (n=1000)
BLOCK_CASES = [
    (2, 1, None, False),
    (5, 3, 0, False),
    (64, 16, None, False),
    (64, 63, None, True),
    (64, 63, 0, True),
    (1000, 100, None, False),
]


@pytest.mark.parametrize("n, threshold, agent, switches", BLOCK_CASES)
def test_kernel_budgets_at_block_ends_match_forward_replay(monkeypatch, n, threshold, agent, switches):
    seen = _kernel_counters(monkeypatch)
    for i in range(3):
        seed = derive_seed(n, i)
        ends = _block_ends(seed, n)
        log = InteractionLog(n, pair_stream(seed, n, ends[-1] + 1))
        for budget in sorted({0, *ends, *(e - 1 for e in ends), *(e + 1 for e in ends)}):
            rec = first_exceed_time(None, n, seed, threshold, agent=agent, max_steps=budget)
            crossing = _replay_crossing(InteractionLog(n, islice(log, budget)), threshold, agent)
            if crossing is None:
                assert _fields(rec) == ({}, budget, True)
            else:
                assert _fields(rec) == ({INFLUENCER_EVENT: crossing}, crossing, False)
    assert (seen["switches"] > 0) == switches


@pytest.mark.parametrize("n", [2, 3, 1025, 4096, 4097])
def test_block_descriptors_reform_the_blocks(n):
    # The descriptors the kernel keeps instead of the pairs re-form exactly
    # the blocks it read: each alone, block for block, and a run of them,
    # oldest or newest first, pair for pair, with the ladder's eight leading
    # rungs (32 to 4096 words) formed as one block.  The budgets lie at the
    # ladder's block ends, one pair either side of them and inside its
    # blocks, so the last block is cut; initiators are carried across blocks.
    carried = cut = 0
    for i in range(2):
        seed = derive_seed(n, i)
        ends = _block_ends(seed, n, 9)
        inside = [(a + b) // 2 for a, b in zip([0, *ends], ends)]
        for steps in sorted({0, 1, *ends, *(e - 1 for e in ends), *(e + 1 for e in ends), *inside}):
            described = list(described_pair_blocks(seed, n, steps))
            blocks = list(pair_blocks(seed, n, steps))
            assert [(U, V) for U, V, _ in described] == blocks
            descriptors = [d for _, _, d in described]
            for d, block in zip(descriptors, blocks):
                assert list(reformed_blocks(seed, n, [d])) == [block]
            stream = list(pair_stream(seed, n, steps))
            oldest_first = list(reformed_blocks(seed, n, descriptors))
            newest_first = list(reformed_blocks(seed, n, descriptors, newest_first=True))
            assert newest_first == oldest_first[::-1]
            assert [pair for U, V in oldest_first for pair in zip(U, V)] == stream
            assert len(oldest_first) == min(len(blocks), 1) + max(len(blocks) - 8, 0)
            carried += sum(carry >= 0 for _, _, carry, _ in descriptors)
            if descriptors:
                start, size, carry, pairs = descriptors[-1]
                cut += pairs < len(_block(seed, n, start, size, carry)[0])
    # at n = 2 every word is accepted as either draw, so each pair takes two
    # words and none waits across a block's end (every size is even)
    assert cut > 0 and (carried > 0) == (n > 2)


# (n, threshold, agent): scans only, scans and a switch, and the switch
# under --agent, with crossings across the ladder's blocks and past them
RECORD_CASES = [(1025, 100, None), (4097, 256, 0), (1000, 999.5, None), (64, 63, 0)]


@pytest.mark.parametrize("n, threshold, agent", RECORD_CASES)
def test_kernel_reads_the_stream_before_each_pair_again(monkeypatch, n, threshold, agent):
    # Each scan, and the switch to masks, is handed the pairs before its own
    # as the kernel's descriptors of the older blocks and the current block
    # up to position j: re-formed, they are the stream's pairs in order, and
    # the scan's size and the switch's masks are those of the forward route.
    scan, replay = influence._backward_size, influence._replay_masks
    seen = Counter()

    def read_before(seed, older, U, V, j):
        before = [pair for A, B in reformed_blocks(seed, n, older) for pair in zip(A, B)]
        before += zip(U[:j], V[:j])
        assert before + [(U[j], V[j])] == list(pair_stream(seed, n, len(before) + 1))
        return InteractionLog(n, before), Interaction(U[j], V[j])

    def checked_scan(seed, n, older, U, V, j, limit):
        log, (u, v) = read_before(seed, older, U, V, j)
        table = forward_sets(log)
        true = len(table.members(u) | table.members(v))
        size = scan(seed, n, older, U, V, j, limit)
        assert size == true or limit < size <= true
        seen["scans"] += 1
        return size

    def checked_replay(seed, n, older, U, V, j):
        log, pair = read_before(seed, older, U, V, j)
        log.append(pair)
        masks = replay(seed, n, older, U, V, j)
        assert masks == forward_sets(log).masks
        seen["switches"] += 1
        return masks

    monkeypatch.setattr(influence, "_backward_size", checked_scan)
    monkeypatch.setattr(influence, "_replay_masks", checked_replay)
    for i in range(2):
        first_exceed_time(None, n, derive_seed(n, i), threshold, agent=agent)
    assert seen["scans"] > 0
    assert (seen["switches"] > 0) == (threshold > n / 2)


def _fewer_missing_step(seed, n, f):
    """The first step t at which fewer than ``f`` agents are missing from the
    first t pairs of the stream."""
    fresh, missing = [True] * n, n
    for t, (u, v) in enumerate(pair_stream(seed, n, step_budget(n, None)), 1):
        missing -= fresh[u] + fresh[v]
        fresh[u] = fresh[v] = False
        if missing < f:
            return t


def _flag_pass_step(seed, n):
    """The first step at which a flag passed on by every pair, starting from
    agent 0, covers all agents."""
    flagged, count = [True] + [False] * (n - 1), 1
    for t, (u, v) in enumerate(pair_stream(seed, n, step_budget(n, None)), 1):
        if flagged[u] is not flagged[v]:
            flagged[u] = flagged[v] = True
            count += 1
            if count == n:
                return t


@pytest.mark.parametrize("n", [5, 60, 1000, 20000])
def test_stream_walkers_match_pathwise_identities(n):
    # Identities read straight off the pair stream check both of its walkers,
    # the null-skipping run_trial and the crossing kernel, on long runs and
    # with no oracle engine.
    f = math.ceil(n ** (2 / 3))
    drain, epidemic = CATALOG["leave-init"], CATALOG["one-way-epidemic"]
    for i in range(3):
        seed = derive_seed(n, i)
        # leave-init's init count at step t is the number of agents missing
        # from the first t pairs
        rec = run_trial(make_protocol("leave-init", n), n, seed, stop_event=(drain.event, drain.stop(n, f)))
        assert rec.event_steps[drain.event] == _fewer_missing_step(seed, n, f)
        rec = run_trial(make_protocol("one-way-epidemic", n), n, seed, stop_event=(epidemic.event, epidemic.stop(n, None)),
                        initial=epidemic.start(n))
        assert rec.event_steps[epidemic.event] == _flag_pass_step(seed, n)
        # an agent's set passes one member at its first step
        for a in (0, n - 1):
            stream = pair_stream(seed, n, step_budget(n, None))
            first = next(t for t, pair in enumerate(stream, 1) if a in pair)
            assert first_exceed_time(None, n, seed, 1, agent=a).event_steps[INFLUENCER_EVENT] == first


def test_switching_kernel_memory_is_the_masks(monkeypatch):
    # After the switch the masks of 4096 agents take at most 2 MB; the
    # kernel keeps none of the pairs it read.
    n = 4096
    seen = _kernel_counters(monkeypatch)
    import numpy  # noqa: F401  popsim imports it on first use; its import is not the kernel's memory

    tracemalloc.start()
    try:
        rec = first_exceed_time(None, n, derive_seed(n, 0), 4000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert seen["switches"] == 1 and not rec.truncated
    assert peak < 3 * 2**20


@pytest.mark.parametrize("n, threshold, agent", [case[:3] for case in KERNEL_PATHS if case[3]])
def test_kernel_scans_stay_within_the_switch_multiple(monkeypatch, n, threshold, agent):
    seen = _kernel_counters(monkeypatch)
    for i in range(3):
        seen.update(scanned=0, switches=0)
        rec = first_exceed_time(make_protocol("leave-init", n), n, derive_seed(n, i), threshold, agent=agent)
        assert seen["switches"] == 1
        assert seen["scanned"] <= influence._switch_multiple(n) * rec.steps_taken


def _traced_kernel_peak(protocol, n, seed, threshold):
    """One first_exceed_time trial on the kernel alone, and the peak of the
    memory it traced."""
    import numpy  # noqa: F401  popsim imports it on first use; its import is not the kernel's memory

    tracemalloc.start()
    try:
        rec = first_exceed_time(protocol, n, seed, threshold)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return rec, peak


def test_kernel_memory_grows_with_the_prefix_not_the_masks():
    # Masks for every set would take about 25 MB here.  The prefix of the
    # stream the kernel has read is now a descriptor per block, not the
    # pairs, so the kernel's memory is linear in n.
    n = 16384
    rec, peak = _traced_kernel_peak(make_protocol("leave-init", n), n, derive_seed(0, 0), 646)
    assert rec.event_steps[INFLUENCER_EVENT] == 32665
    assert peak < 8 * 2**20


def test_kernel_keeps_its_prefix_at_8_bytes_a_step():
    # At most 8 bytes a step: the 32665 pairs read, kept as two uint32
    # columns, would take about 260 kB, and the kernel keeps none of them,
    # only each block's descriptor.  Its memory is the bounds and a scan's
    # flags, about 130 kB each as lists of n entries, the int objects of the
    # bounds, and a block or two of pairs.
    n = 16384
    rec, peak = _traced_kernel_peak(make_protocol("leave-init", n), n, derive_seed(0, 0), 646)
    assert rec.event_steps[INFLUENCER_EVENT] == 32665
    assert peak < 2**20


def test_kernel_keeps_no_pair_it_read():
    # One n^(2/3) trial at n = 2^16 reads 162482 pairs.  Kept as a prefix of
    # two uint32 columns, they take about 1.3 MB, and the trial peaked at
    # 2.9 MiB traced; with its blocks re-formed from their descriptors it
    # peaked at 1.7 MiB (Python 3.11, numpy 2.4).  The bound lies halfway,
    # about 0.6 MiB from either.
    rec, peak = _traced_kernel_peak(None, 65536, derive_seed(0, 0), 1626)
    assert rec.event_steps[INFLUENCER_EVENT] == 162482
    assert peak < 2.25 * 2**20


def test_switch_to_masks_past_the_budget_exceeds_it(monkeypatch):
    # The budget is the one limit on masks: when they do not fit, a kernel
    # that needs them stops with the budget error (exit 3) rather than
    # approximate.  A threshold near n overflows at almost every step, so the
    # scans pass their share and the kernel reaches its switch.  Masks at
    # n=100 take 200 words.
    n, seed = 100, derive_seed(100, 0)
    seen = _kernel_counters(monkeypatch)
    first_exceed_time(make_protocol("leave-init", n), n, seed, n - 1)
    assert seen["switches"] == 1
    low = first_exceed_time(make_protocol("leave-init", n), n, seed, 21)
    assert seen["switches"] == 1
    seen.update(scanned=0)
    with pytest.raises(BudgetExceededError, match=r"at step \d+, 200 words for n=100, past budget 199"):
        first_exceed_time(make_protocol("leave-init", n), n, seed, n - 1, budget=199)
    assert seen["scanned"] > 0 and seen["switches"] == 1
    monkeypatch.setenv("POPSIM_BUDGET", "199")
    assert main(["influencer", "--n", str(n), "--threshold", str(n - 1), "--trials", "1"]) == 3
    # a run that needs no masks is the same when they do not fit
    assert _fields(first_exceed_time(make_protocol("leave-init", n), n, seed, 21, budget=199)) == _fields(low)


def test_switch_charges_its_masks_against_the_budget(monkeypatch, capsys, tmp_path):
    # A switch builds n ceil(n/64) mask words, 262144 at n=4096: past a
    # budget of 10^5 the kernel raises instead, before it builds any mask,
    # and at exactly that many it switches.  The CLI exits 3 with
    # no output, the size series of the first --n (inside the budget)
    # included.
    n, seed = 4096, derive_seed(4096, 0)
    seen = _kernel_counters(monkeypatch)
    with pytest.raises(BudgetExceededError, match="262144 words for n=4096, past budget 100000"):
        first_exceed_time(None, n, seed, 4000, budget=10**5)
    assert seen["scanned"] > 0 and seen["switches"] == 0
    rec = first_exceed_time(None, n, seed, 4000, budget=n * 64)
    assert seen["switches"] == 1 and not rec.truncated
    assert _fields(first_exceed_time(None, n, seed, 4000)) == _fields(rec)
    monkeypatch.setenv("POPSIM_BUDGET", str(10**5))
    out, series = tmp_path / "inf.csv", tmp_path / "series.csv"
    argv = ["influencer", "--n", "64", "--n", str(n), "--threshold", "4000", "--trials", "1"]
    assert main([*argv, "--out", str(out), "--series-out", str(series)]) == 3
    assert "262144 words for n=4096, past budget 100000" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_scans_without_masks_stop_at_the_budget_or_the_flat_multiple(monkeypatch):
    # When the masks do not fit the budget no switch can follow the scans,
    # so the kernel raises once they pass the budget, or SWITCH_MULTIPLE
    # times the step where that is more; not the multiple that grows with n
    # (12 at n=16384, where it scans 11.7 times).  Masks at n=16384 take
    # 4194304 words: a budget of 10^5 is below SWITCH_MULTIPLE times the
    # step, and one word short of the masks above it.
    seen = _kernel_counters(monkeypatch)
    for budget, below_flat in ((10**5, True), (4194303, False)):
        seen.update(scanned=0)
        with pytest.raises(BudgetExceededError) as raised:
            first_exceed_time(None, 16384, 0, 16000, budget=budget)
        step = int(re.search(r"masks at step (\d+)", str(raised.value)).group(1))
        flat = influence.SWITCH_MULTIPLE * step
        assert seen["switches"] == 0
        assert (budget < flat) == below_flat
        assert 0 < min(budget, flat) < seen["scanned"] <= max(budget, flat)


def test_scans_without_masks_reach_a_crossing_past_the_flat_multiple():
    # No mask fits the default budget at n = 2^18.  This n^(2/3) trial's
    # scans read 3088430 pairs, 3.97 times its crossing step, so they stop
    # short of it at SWITCH_MULTIPLE times the step; within the budget's
    # 10^7 pairs they reach it.
    rec = first_exceed_time(None, 262144, derive_seed(0, 87), 4096)
    assert _fields(rec) == ({INFLUENCER_EVENT: 778821}, 778821, False)


def test_series_tracking(tmp_path):
    recorder = ScheduleRecorder(4)
    run_trial(make_protocol("leave-init", 4), 4, seed=3, max_steps=6, observers=[recorder])
    assert recorder.log.entries == [Interaction(*e) for e in pair_stream(3, 4, 6)]
    out = tmp_path / "series.csv"
    write_size_series(4, recorder.log, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "step,max_size,participant_size"
    assert len(lines) == 7
    series = [tuple(map(int, line.split(","))) for line in lines[1:]]
    steps = [row[0] for row in series]
    assert steps == list(range(1, 7))
    max_sizes = [row[1] for row in series]
    assert all(b >= a for a, b in zip(max_sizes, max_sizes[1:]))
    # brute force: every set's size after each step of the replay
    table = InfluencerTable(4)
    expected = []
    for e in recorder.log:
        table.update(e)
        expected.append((table.step, max(table.size(v) for v in range(4)), table.size(e.responder)))
    assert series == expected


# ------------------------------------------------------------------ log file I/O


def test_log_save_load_round_trip(tmp_path):
    log = random_log(9, 25, seed=5)
    path = tmp_path / "schedule.log"
    write_log(log.n, log, path)
    loaded = InteractionLog.load(path)
    assert loaded.n == log.n
    assert loaded.entries == log.entries
    # byte-exact format: population size line, then "initiator responder" lines
    lines = path.read_text().splitlines()
    assert lines[0] == "9"
    assert lines[1] == f"{log[0].initiator} {log[0].responder}"


def test_long_log_loads_at_8_bytes_a_step(tmp_path):
    # Two uint32 arrays hold these entries in 1.6 MB; one Interaction tuple
    # per entry would take about 16 MB.
    n, steps = 300, 200_000
    path = tmp_path / "long.log"
    write_log(n, pair_stream(12, n, steps), path)
    tracemalloc.start()
    try:
        log = InteractionLog.load(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    written = [Interaction(*e) for e in pair_stream(12, n, steps)]
    assert len(log) == steps
    assert [log[j] for j in (0, 1, steps - 1, -1)] == [written[j] for j in (0, 1, steps - 1, -1)]
    assert list(log) == log.entries == written
    assert type(log[7]) is type(next(iter(log))) is Interaction


def test_log_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.log"
    path.write_text("not-a-number\n")
    with pytest.raises(ValueError):
        InteractionLog.load(path)
    path.write_text("4\n1 2 3\n")
    with pytest.raises(ValueError):
        InteractionLog.load(path)


def test_log_load_skips_blank_lines_and_keeps_its_messages(tmp_path):
    path = tmp_path / "log"
    path.write_bytes(b"\n3\n\n0 1\r\n  \n2 1")
    assert InteractionLog.load(path).entries == [Interaction(0, 1), Interaction(2, 1)]
    out_of_range = f"{path}: population size must be >= 1 and below 2^32, the range of a schedule's entries"
    for text, message in [
        ("\n \n", f"{path}: empty interaction log"),
        ("x\n0 1\n", f"{path}: first line must be the population size"),
        ("0\n", out_of_range),
        (f"{1 << 32}\n0 1\n", out_of_range),
        ("4\n1 2 3\n", f"{path}: malformed entry '1 2 3'"),
        ("4\n1 2\n3\n", f"{path}: malformed entry '3'"),
        ("3\n0 x\n", f"{path}: malformed entry '0 x'"),
        ("3\n0 5\n", f"{path}: interaction Interaction(initiator=0, responder=5) out of range for n=3"),
        ("3\n1 1\n", f"{path}: initiator and responder must be distinct"),
    ]:
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            InteractionLog.load(path)
        assert str(err.value) == message


def test_log_append_validates():
    log = InteractionLog(3)
    with pytest.raises(ValueError):
        log.append(Interaction(0, 3))
    with pytest.raises(ValueError):
        log.append(Interaction(1, 1))


def test_demo_schedule_is_stable():
    assert DEMO_SCHEDULE_N5 == (
        Interaction(4, 2),
        Interaction(2, 3),
        Interaction(1, 4),
        Interaction(1, 2),
        Interaction(0, 3),
        Interaction(1, 2),
    )


# ------------------------------------------------------- growth-law spot checks


def test_merged_set_growth_probability_matches_formula():
    # holding a set of size k, the chance a fresh uniform interaction grows it
    # is 2k(n-k)/(n(n-1)); quick 3-sigma check at one (k, n)
    n, k, draws = 16, 4, 40_000
    members = frozenset(range(k))
    rng = Splitmix64(314)
    grown = 0
    for _ in range(draws):
        e = sample_interaction(rng, n)
        if len(backward_step(members, e)) == k + 1:
            grown += 1
    p = 2 * k * (n - k) / (n * (n - 1))
    assert abs(grown / draws - p) < 3 * math.sqrt(p * (1 - p) / draws)


def test_first_exceed_scales_like_n_log_n_at_small_sizes():
    # coarse sanity that crossing times live on the n*ln(n) scale
    for n in (64, 128):
        threshold = round(n ** (2 / 3))
        ratios = []
        for t in range(10):
            rec = first_exceed_time(make_protocol("leave-init", n), n, derive_seed(500, t), threshold)
            ratios.append(rec.event_steps[INFLUENCER_EVENT] / (n * math.log(n)))
        assert 0.05 < min(ratios) and max(ratios) < 2.0


def test_single_agent_crossing_time_distributed_as_geometric_sum():
    # For one fixed agent, the crossing time of its influencer set past a
    # threshold c has exactly the law of the sum of geometric climb times
    # with success probabilities 2k(n-k)/(n(n-1)), k = 1..c: two seeded
    # samplers of the same law must pass a two-sample KS test.
    from oracles import ks_critical_value, ks_statistic
    from popsim.stats import ceil_rational_power, epidemic_spec, simulate_geometric_sum

    n = 64
    threshold = ceil_rational_power(n, 2, 3)  # 16
    proto = make_protocol("leave-init", n)
    samples = 10_000
    crossings = []
    for t in range(samples):
        rec = first_exceed_time(proto, n, derive_seed(700, t), threshold, agent=0)
        crossings.append(rec.event_steps[INFLUENCER_EVENT])
    spec = epidemic_spec(n, threshold + 1)
    sums = [
        simulate_geometric_sum(Splitmix64(derive_seed(701, t)), spec)
        for t in range(samples)
    ]
    stat = ks_statistic(crossings, sums)
    assert stat < ks_critical_value(0.001, samples, samples)
