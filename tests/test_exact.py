import tracemalloc
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest

from popsim import exact
from popsim.core import LEADER, Protocol, apply_interaction, output_vector, run_trial
from popsim.exact import (
    BudgetExceededError,
    NonAbsorbingError,
    enumerate_reachable,
    expected_hitting_steps,
    safety_verdicts,
)
from popsim.protocols import CATALOG, make_protocol

from oracles import reachable_by_pairs


def _replay(protocol, config, path):
    """The configuration a witness path leads to: apply_interaction folded
    over its hops."""
    return tuple(reduce(lambda states, e: apply_interaction(protocol, states, e), path, config))


def identity_protocol(num_states=3):
    table = tuple(tuple((a, b) for b in range(num_states)) for a in range(num_states))
    return Protocol(0, table, ("F",) * num_states, name="identity")


def leader_swap_protocol():
    """A circulating leader token: per-agent outputs churn forever.

    Two fresh agents mint a (token, plain) pair; a token initiator then swaps
    roles with a plain responder.  Along swap paths the output multiset is
    frozen at one L, so a multiset-based safety check would be fooled; the
    per-agent check must reject every configuration.
    """
    # states: 0 = fresh (F, initial), 1 = token (L), 2 = plain (F)
    table = [[(a, b) for b in range(3)] for a in range(3)]
    table[0][0] = (1, 2)
    table[1][2] = (2, 1)
    return Protocol(0, tuple(map(tuple, table)), ("F", LEADER, "F"), name="leader-swap")


def leader_decay_protocol():
    """Pairwise elimination plus abdication: (L, F) -> (F, F).

    One-leader configurations stay reachable but are not stable, so they must
    come back unsafe with an output-change witness path.
    """
    table = [[(0, 1), (1, 1)], [(1, 0), (1, 1)]]
    return Protocol(0, tuple(tuple(r) for r in table), (LEADER, "F"), name="leader-decay")


def tired_leader_protocol():
    """Pairwise elimination where a leader tires before it abdicates.

    A fresh leader that initiates with a follower becomes tired, still
    outputting L; a tired leader that initiates with a follower becomes one.
    From a one-fresh-leader configuration the nearest output change is two
    interactions away.
    """
    # states: 0 = fresh leader (L, initial), 1 = follower (F), 2 = tired leader (L)
    table = [[(a, b) for b in range(3)] for a in range(3)]
    table[0][0] = (0, 1)
    table[0][1] = (2, 1)
    table[2][1] = (1, 1)
    return Protocol(0, tuple(map(tuple, table)), (LEADER, "F", LEADER), name="tired-leader")


def cyclic_token_protocol():
    """A leader token that keeps circulating before it settles.

    Nearly every configuration falls in one strongly connected non-target
    component (60 of 65 at n=4, 205 of 211 at n=5, 658 of 665 at n=6), so
    the hitting-time solve eliminates one large block.
    """
    # states: 0 = a (L, initial), 1 = b (F), 2 = c (L)
    table = [[(a, b) for b in range(3)] for a in range(3)]
    table[0][0] = (0, 2)
    table[0][2] = (0, 1)
    table[1][2] = (0, 2)
    return Protocol(0, tuple(map(tuple, table)), (LEADER, "F", LEADER), name="cyclic-token")


# ----------------------------------------------------------------- enumeration


def test_pairwise_two_agents_reachable_set():
    space = enumerate_reachable(make_protocol("pairwise-elimination", 2), 2)
    assert sorted(space.configs) == [(0, 0), (0, 1), (1, 0)]
    assert space.configs[0] == (0, 0)  # the all-initial start comes first


def test_leave_init_two_agents_reachable_set():
    space = enumerate_reachable(make_protocol("leave-init", 2), 2)
    assert sorted(space.configs) == [(0, 0), (1, 1)]


def test_identity_protocol_single_configuration():
    space = enumerate_reachable(identity_protocol(), 4)
    assert len(space) == 1
    assert space.successors[0] == {0: 12}  # all n(n-1) interactions loop


def test_enumeration_needs_two_agents():
    with pytest.raises(ValueError, match="population size must be >= 2"):
        enumerate_reachable(make_protocol("pairwise-elimination", 1), 1)


def test_successor_multiset_counts_sum_to_pair_count():
    space = enumerate_reachable(make_protocol("pairwise-elimination", 4), 4)
    for succ in space.successors:
        assert sum(succ.values()) == 12


def test_one_state_enumeration_holds_no_list_of_pairs():
    # all n(n-1) ordered pairs are null: one configuration with one self-loop
    # count; a list of the 999000 pairs as tuples alone would take about 70 MB
    tracemalloc.start()
    try:
        space = enumerate_reachable(identity_protocol(1), 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert space.configs == [(0,) * 1000] and space.successors == [{0: 999000}]
    assert peak < 2 * 2**20


FIXTURES = [identity_protocol, leader_swap_protocol, leader_decay_protocol, tired_leader_protocol,
            cyclic_token_protocol]


@pytest.mark.parametrize("name", [*CATALOG, *(make.__name__ for make in FIXTURES)])
def test_enumeration_matches_the_pair_by_pair_walk(name):
    # idle initiators' null pairs are counted at once, yet every successor
    # dict keeps the walk's key order, which the witness search and the
    # solve's component order follow
    makers = {make.__name__: make for make in FIXTURES}
    sizes = [2, 3, 4, 5, 6, *([8] if name == "pairwise-elimination" else [])]
    for n in sizes:
        proto = makers[name]() if name in makers else make_protocol(name, n)
        space = enumerate_reachable(proto, n)
        configs, index, successors = reachable_by_pairs(proto, n)
        assert space.configs == configs
        assert list(space.index.items()) == list(index.items())
        assert [list(s.items()) for s in space.successors] == [list(s.items()) for s in successors]


def test_budget_error_names_the_size():
    with pytest.raises(BudgetExceededError, match=r"3\^16"):
        enumerate_reachable(identity_protocol(3), 16, budget=10**6)


def test_budget_can_be_raised():
    space = enumerate_reachable(identity_protocol(3), 16, budget=3**16 * 16 * 15)
    assert len(space) == 1


# ---------------------------------------------------------------------- safety


def test_pairwise_three_agents_safety_classification():
    proto = make_protocol("pairwise-elimination", 3)
    space = enumerate_reachable(proto, 3)
    assert len(space) == 7
    verdicts = {v.config: v for v in safety_verdicts(space)}
    one_leader = [(0, 1, 1), (1, 0, 1), (1, 1, 0)]
    for config in one_leader:
        assert verdicts[config].safe
    for config, verdict in verdicts.items():
        if config not in one_leader:
            assert not verdict.safe
            assert verdict.leader_count in (2, 3)
            assert "leader count" in verdict.reason


def test_all_initial_is_unsafe_when_initial_outputs_follower():
    proto = make_protocol("leave-init", 3)
    space = enumerate_reachable(proto, 3)
    verdict = safety_verdicts(space)[space.index[(0, 0, 0)]]
    assert not verdict.safe
    assert verdict.leader_count == 0


def test_leader_swap_is_never_safe_despite_stable_multiset():
    proto = leader_swap_protocol()
    space = enumerate_reachable(proto, 3)
    verdicts = safety_verdicts(space)
    assert not any(v.safe for v in verdicts)
    one_leader = [v for v in verdicts if v.leader_count == 1]
    assert one_leader  # the minted-token configurations
    for verdict in one_leader:
        assert verdict.witness_agent is not None
        landed = _replay(proto, verdict.config, verdict.witness_path)
        assert landed == verdict.witness_config
        before = output_vector(proto, verdict.config)
        after = output_vector(proto, landed)
        # the multiset never budges along the witness path, yet some agent's
        # own output flips: exactly the case a multiset check would miss
        assert sorted(before) == sorted(after)
        assert before[verdict.witness_agent] != after[verdict.witness_agent]


def test_witness_paths_replay_to_an_output_change():
    proto = leader_decay_protocol()
    space = enumerate_reachable(proto, 3)
    unsafe_with_path = [v for v in safety_verdicts(space) if v.witness_path is not None]
    assert unsafe_with_path
    for verdict in unsafe_with_path:
        landed = _replay(proto, verdict.config, verdict.witness_path)
        assert (
            output_vector(proto, landed)[verdict.witness_agent]
            != output_vector(proto, verdict.config)[verdict.witness_agent]
        )


# Witness (path, agent) of every one-leader configuration at n=3: the BFS
# parent chain, each hop labelled with the first (u, v) in enumeration order
# that takes the parent to the child.
PINNED_WITNESSES = {
    "leader-swap": {
        (1, 2, 0): (((0, 1),), 0), (1, 0, 2): (((0, 2),), 0), (2, 1, 0): (((1, 0),), 0),
        (0, 1, 2): (((1, 2),), 1), (2, 0, 1): (((2, 0),), 0), (0, 2, 1): (((2, 1),), 1),
    },
    "leader-decay": {
        (1, 1, 0): (((2, 0),), 2), (0, 1, 1): (((0, 1),), 0), (1, 0, 1): (((1, 0),), 1),
    },
    "tired-leader": {
        (0, 1, 1): (((0, 1), (0, 1)), 0), (1, 1, 0): (((2, 0), (2, 0)), 2),
        (1, 0, 1): (((1, 0), (1, 0)), 1), (2, 1, 1): (((0, 1),), 0),
        (1, 1, 2): (((2, 0),), 2), (1, 2, 1): (((1, 0),), 1),
    },
}


@pytest.mark.parametrize("make", [leader_swap_protocol, leader_decay_protocol, tired_leader_protocol])
def test_witness_paths_are_pinned(make):
    proto = make()
    space = enumerate_reachable(proto, 3)
    witnesses = {}
    for verdict in safety_verdicts(space):
        if verdict.witness_path is not None:
            assert _replay(proto, verdict.config, verdict.witness_path) == verdict.witness_config
            witnesses[verdict.config] = (
                tuple(tuple(e) for e in verdict.witness_path), verdict.witness_agent
            )
    assert witnesses == PINNED_WITNESSES[proto.name]


def changed_outputs_stop(proto, config):
    """Stop event of a walk from ``config``: some agent's output differs."""
    base = output_vector(proto, config)
    return ("changed", lambda trial: output_vector(proto, trial.states) != base)


def test_safe_configurations_survive_random_walks():
    proto = make_protocol("pairwise-elimination", 4)
    space = enumerate_reachable(proto, 4)
    safe = [i for i, v in enumerate(safety_verdicts(space)) if v.safe]
    for i in safe:
        config = space.configs[i]
        rec = run_trial(proto, 4, 9 + i, max_steps=1000, initial=config,
                        stop_event=changed_outputs_stop(proto, config))
        assert rec.truncated and rec.steps_taken == 1000


def test_random_walk_reports_an_output_change():
    # from all leaders, the first interaction demotes someone
    proto = make_protocol("pairwise-elimination", 4)
    start = enumerate_reachable(proto, 4).configs[0]
    stop = changed_outputs_stop(proto, start)
    rec = run_trial(proto, 4, 3, max_steps=1000, initial=start, stop_event=stop)
    assert not rec.truncated and rec.event_steps == {"changed": 1}
    assert run_trial(proto, 4, 3, max_steps=0, initial=start, stop_event=stop).truncated


# ---------------------------------------------------------------- hitting times


def test_pairwise_two_agents_one_step():
    space = enumerate_reachable(make_protocol("pairwise-elimination", 2), 2)
    safe = {i for i, v in enumerate(safety_verdicts(space)) if v.safe}
    steps = expected_hitting_steps(space, lambda c: space.index[c] in safe)
    assert steps == Fraction(1)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 12])
def test_pairwise_matches_square_closed_form(n):
    space = enumerate_reachable(make_protocol("pairwise-elimination", n), n)
    safe = {i for i, v in enumerate(safety_verdicts(space)) if v.safe}
    steps = expected_hitting_steps(space, lambda c: space.index[c] in safe)
    assert steps == Fraction((n - 1) ** 2)


def test_leave_init_drain_time_matches_count_chain():
    # independent oracle: the init-count process is itself a Markov chain;
    # solve it by hand with first-step analysis over counts
    n = 3
    space = enumerate_reachable(make_protocol("leave-init", n), n)
    solver = expected_hitting_steps(space, lambda c: c.count(0) == 0)

    def count_chain(n):
        # E[steps] from i agents in init until none remain
        total = n * (n - 1)
        expect = {0: Fraction(0)}
        for i in range(1, n + 1):
            p_two = Fraction(i * (i - 1), total)
            p_one = Fraction(2 * i * (n - i), total)
            move = p_two + p_one
            prev2 = expect.get(i - 2, Fraction(0))
            expect[i] = (1 + p_two * prev2 + p_one * expect[i - 1]) / move
        return expect[n]

    assert solver == count_chain(n) == Fraction(5, 2)


def test_unreachable_target_raises():
    space = enumerate_reachable(make_protocol("pairwise-elimination", 3), 3)
    with pytest.raises(NonAbsorbingError):
        expected_hitting_steps(space, lambda c: output_vector(space.protocol, c).count(LEADER) == 0)
    # From (0, 0, 0) the walk reaches (1, 0, 1) and (1, 1, 0), whose one
    # leader never passes to agent 0: each is a closed class of one
    # configuration, and the error names one of them.
    with pytest.raises(NonAbsorbingError) as err:
        expected_hitting_steps(space, lambda c: c == (0, 1, 1))
    named = str(err.value).removeprefix("target unreachable from configuration ")
    assert named in {"(1, 0, 1)", "(1, 1, 0)"}
    # Leader-swap's fresh agents stay fresh until they mint, so a first
    # step other than agents 0 and 1 minting misses (1, 2, 0, 0) for good.
    # Once no fresh agent is left, the two tokens move among the four agents
    # forever: a closed class of C(4, 2) = 6 configurations, whose
    # elimination ends on a zero pivot, and the error names its
    # lowest-index member.
    space = enumerate_reachable(leader_swap_protocol(), 4)
    closed = [c for c in space.configs if c.count(1) == 2 and c.count(2) == 2]
    with pytest.raises(NonAbsorbingError) as err:
        expected_hitting_steps(space, lambda c: c == (1, 2, 0, 0))
    assert str(err.value).endswith(str(min(closed, key=space.index.get)))


def test_stuck_configurations_behind_the_target_do_not_raise():
    # every first step leaves two leaders; the one-leader configurations
    # after them never return to two, but the target is hit before them
    space = enumerate_reachable(make_protocol("pairwise-elimination", 3), 3)
    two_leaders = lambda c: output_vector(space.protocol, c).count(LEADER) == 2
    assert expected_hitting_steps(space, two_leaders) == 1


def test_empty_target_raises():
    space = enumerate_reachable(make_protocol("leave-init", 2), 2)
    with pytest.raises(NonAbsorbingError, match="empty"):
        expected_hitting_steps(space, lambda c: False)


def test_target_at_start_is_zero():
    space = enumerate_reachable(make_protocol("leave-init", 2), 2)
    assert expected_hitting_steps(space, lambda c: True) == 0


def dense_hitting_steps(space, target):
    """Oracle for the exact solver: the same first-step system over every
    non-target configuration, solved densely in floating point by numpy.
    Returns (h at the start, max absolute row error of the solution)."""
    transient = [i for i, c in enumerate(space.configs) if not target(c)]
    pos = {i: r for r, i in enumerate(transient)}
    total = float(space.n * (space.n - 1))
    matrix = np.zeros((len(transient), len(transient)))
    rhs = np.full(len(transient), total)
    for r, i in enumerate(transient):
        matrix[r, r] += total
        for j, count in space.successors[i].items():
            if j in pos:
                matrix[r, pos[j]] -= count
    solution = np.linalg.solve(matrix, rhs)
    residual = float(np.abs(matrix @ solution - rhs).max())
    return float(solution[pos[0]]), residual


def test_float_solver_agrees_with_exact():
    for n in (3, 4, 5):
        space = enumerate_reachable(make_protocol("pairwise-elimination", n), n)
        safe = {i for i, v in enumerate(safety_verdicts(space)) if v.safe}
        exact_value = expected_hitting_steps(space, lambda c: space.index[c] in safe)
        value, residual = dense_hitting_steps(space, lambda c: space.index[c] in safe)
        assert value == pytest.approx(float(exact_value), rel=1e-12)
        assert residual < 1e-9


def record_component_sizes(monkeypatch):
    """Sizes of the components the hitting-time solve is handed, in order."""
    sizes = []
    solve = exact._solve_component

    def recorded(space, component, total, solved):
        sizes.append(len(component))
        return solve(space, component, total, solved)

    monkeypatch.setattr(exact, "_solve_component", recorded)
    return sizes


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_float_solver_agrees_on_a_cyclic_chain(n, monkeypatch):
    # Token swaps make multi-configuration strongly connected components, so
    # this exercises elimination, not just one-configuration steps.
    sizes = record_component_sizes(monkeypatch)
    space = enumerate_reachable(leader_swap_protocol(), n)
    target = lambda c: c.count(0) <= 1  # at most one fresh agent
    exact_value = expected_hitting_steps(space, target)
    # at n = 3 the first step hits the target; from n = 4 on there are cycles
    assert (n > 3) == any(m > 1 for m in sizes)
    value, residual = dense_hitting_steps(space, target)
    assert exact_value > 0
    assert value == pytest.approx(float(exact_value), rel=1e-12)
    assert residual < 1e-9


@pytest.mark.parametrize("n, expected", [(3, Fraction(16)), (4, Fraction(1336, 25)),
                                         (5, Fraction(103711, 711))])
def test_cyclic_token_solves_its_large_component(n, expected, monkeypatch):
    sizes = record_component_sizes(monkeypatch)
    space = enumerate_reachable(cyclic_token_protocol(), n)
    safe = {i for i, v in enumerate(safety_verdicts(space)) if v.safe}
    target = lambda c: space.index[c] in safe
    assert expected_hitting_steps(space, target) == expected
    assert n == 3 or max(sizes) > len(space) // 2
    value, residual = dense_hitting_steps(space, target)
    assert value == pytest.approx(float(expected), rel=1e-12)
    assert residual < 1e-9


def test_cyclic_token_solve_is_held_to_the_budget():
    # 658^3 = 284890312 for the large component at n=6, far past 10^7,
    # though the enumeration's 3^6 * 30 edges are well inside it
    space = enumerate_reachable(cyclic_token_protocol(), 6)
    safe = {i for i, v in enumerate(safety_verdicts(space)) if v.safe}
    with pytest.raises(BudgetExceededError, match="284890312 exceeds budget 10000000"):
        expected_hitting_steps(space, lambda c: space.index[c] in safe)
