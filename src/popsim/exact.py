"""Exhaustive analysis of tiny populations: reachability, safety, hitting times.

Configurations are stored as per-agent state vectors, not multisets, because
the safety criterion is per-agent: a configuration is safe iff exactly one
agent outputs the leader symbol and no agent's output differs in any
configuration reachable from it.  A multiset view could declare a
leader-swapping protocol safe; the per-agent view cannot.

Deciding safety by finite reachability is sound and complete for that
definition: outputs are a function of the configuration alone, and any
schedule prefix reaches some configuration in the reachable set, so "no agent
ever changes output under any schedule" holds iff every reachable
configuration carries the identical per-agent output vector.

Expected hitting times solve the first-step linear system over the reachable
space exactly, one strongly connected component of the non-target subgraph
at a time, sinks first, each by one fraction-free integer elimination that
makes one Fraction per configuration.  A component with no exit is a closed
class that never reaches the target.  The work is charged against the
budget: the enumeration |Q|^n * n(n-1) potential edges, the solve m^3 per
component of m configurations.  No floating point, no numpy; the test
suite checks the solve against a dense floating-point one and its residual.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from itertools import chain
from math import gcd
from typing import Callable, Iterator, NamedTuple, Optional

from .core import (
    DEFAULT_BUDGET,
    LEADER,
    BudgetExceededError,
    Interaction,
    NonAbsorbingError,
    Protocol,
    apply_interaction,
    output_vector,
)

Config = tuple[int, ...]


class ConfigurationSpace:
    """All configurations reachable from the all-initial one, with structure.

    ``configs[0]`` is the all-initial start; ``index`` maps a configuration
    to its position in ``configs``.  ``successors[i]`` maps successor index
    -> number of ordered interactions leading there (the multiset of
    successors over all n(n-1) interactions).  ``budget`` is the budget it
    was enumerated under, which the hitting-time solve is held to as well.
    ``n``, the population size, is the length of the start.
    """

    __slots__ = ("protocol", "n", "configs", "index", "successors", "budget")

    def __init__(self, protocol: Protocol, configs: list[Config], index: dict[Config, int],
                 successors: list[dict[int, int]], budget: int):
        self.protocol = protocol
        self.n = len(configs[0])
        self.configs = configs
        self.index = index
        self.successors = successors
        self.budget = budget

    def __len__(self) -> int:
        return len(self.configs)


def enumerate_reachable(
    protocol: Protocol, n: int, budget: Optional[int] = None
) -> ConfigurationSpace:
    """Breadth-first closure from the all-initial configuration.

    Raises :class:`BudgetExceededError` when the potential edges
    ``|Q|**n * n(n-1)``, one per configuration and ordered interaction,
    exceed the budget (default 10**7).
    """
    if n < 2:
        raise ValueError("population size must be >= 2")
    if budget is None:
        budget = DEFAULT_BUDGET
    states, pairs = protocol.num_states, n * (n - 1)
    # |Q|^n >= 2^n passes a budget of fewer than n bits, and past n = 14284 it has
    # too many digits for Python to print; it is not built (at n = 2^32, 512 MB)
    huge = states > 1 and n > max(budget.bit_length(), 14284)
    potential = None if huge else states**n * pairs
    if huge or potential > budget:
        shown = "" if huge or potential >= 10**4300 else f" = {potential}"
        raise BudgetExceededError(f"|Q|^n * n(n-1) = {states}^{n} * {pairs}{shown} exceeds budget {budget}")

    table = protocol.transitions
    start: Config = (protocol.initial_state,) * n
    configs: list[Config] = [start]
    index: dict[Config, int] = {start: 0}
    successors: list[dict[int, int]] = [{}]

    queue = deque([0])
    while queue:
        i = queue.popleft()
        base = configs[i]
        succ: dict[int, int] = {}
        held = {a: base.count(a) for a in set(base)}
        # an initiator in a state that fires with no state another agent
        # holds has n - 1 null pairs, counted at once
        idle = {a: not any(table[a][b] != (a, b) and k > (a == b) for b, k in held.items()) for a in held}
        # ordered pairs (u, v), u != v, in order; a null one is a self-loop
        for u in range(n):
            a = base[u]
            if idle[a]:
                succ[i] = succ.get(i, 0) + n - 1
                continue
            for v in chain(range(u), range(u + 1, n)):
                b = base[v]
                a2, b2 = table[a][b]
                if a2 == a and b2 == b:
                    succ[i] = succ.get(i, 0) + 1
                    continue
                mutable = list(base)
                mutable[u] = a2
                mutable[v] = b2
                nxt = tuple(mutable)
                j = index.get(nxt)
                if j is None:
                    j = len(configs)
                    index[nxt] = j
                    configs.append(nxt)
                    successors.append({})
                    queue.append(j)
                succ[j] = succ.get(j, 0) + 1
        successors[i] = succ

    return ConfigurationSpace(protocol, configs, index, successors, budget)


class SafetyVerdict(NamedTuple):
    """Classification of one configuration against the safety criterion.

    Unsafe verdicts carry a witness: either the offending leader count, or a
    path of interactions to a reachable configuration where ``witness_agent``
    outputs something different.
    """

    config: Config
    safe: bool
    leader_count: int
    reason: Optional[str] = None
    witness_path: Optional[tuple[Interaction, ...]] = None
    witness_agent: Optional[int] = None
    witness_config: Optional[Config] = None


def _hop_label(protocol: Protocol, src: Config, dst: Config) -> Interaction:
    """The first ordered pair, in the enumeration's ``(u, v)`` order, that
    takes ``src`` to ``dst``."""
    n = len(src)
    pairs = (Interaction(u, v) for u in range(n) for v in range(n) if u != v)
    return next(e for e in pairs if tuple(apply_interaction(protocol, src, e)) == dst)


def _output_change_witness(space: ConfigurationSpace, i: int):
    """BFS for a reachable config whose per-agent outputs differ from ``i``'s."""
    protocol = space.protocol
    configs = space.configs
    base_outputs = output_vector(protocol, configs[i])
    parents: dict[int, int] = {}
    seen = {i}
    queue = deque([i])
    while queue:
        j = queue.popleft()
        outputs = output_vector(protocol, configs[j])
        if outputs != base_outputs:
            agent = next(a for a, (x, y) in enumerate(zip(outputs, base_outputs)) if x != y)
            path = []
            k = j
            while k != i:
                parent = parents[k]
                path.append(_hop_label(protocol, configs[parent], configs[k]))
                k = parent
            path.reverse()
            return tuple(path), agent, configs[j]
        for k in space.successors[j]:
            if k not in seen:
                seen.add(k)
                parents[k] = j
                queue.append(k)
    return None


def safety_verdicts(space: ConfigurationSpace) -> list[SafetyVerdict]:
    """Apply the two-clause safety criterion to every configuration of the
    space, in ``space.configs`` order.

    A configuration is safe iff (a) exactly one agent outputs the leader
    symbol, and (b) every configuration reachable from it has the identical
    per-agent output vector.
    """
    verdicts = []
    for i, config in enumerate(space.configs):
        leader_count = output_vector(space.protocol, config).count(LEADER)
        if leader_count != 1:
            verdict = SafetyVerdict(
                config=config,
                safe=False,
                leader_count=leader_count,
                reason=f"leader count = {leader_count}, not 1",
            )
        elif (witness := _output_change_witness(space, i)) is not None:
            path, agent, bad_config = witness
            verdict = SafetyVerdict(
                config=config,
                safe=False,
                leader_count=1,
                reason=f"agent {agent} changes output on a reachable path",
                witness_path=path,
                witness_agent=agent,
                witness_config=bad_config,
            )
        else:
            verdict = SafetyVerdict(config=config, safe=True, leader_count=1)
        verdicts.append(verdict)
    return verdicts


def _components_sinks_first(
    space: ConfigurationSpace, root: int, targets: frozenset[int]
) -> Iterator[list[int]]:
    """Strongly connected components of the non-target subgraph reachable
    from ``root``, each yielded after every component it can reach.

    Iterative Tarjan (SIAM J. Comput. 1972): a component is complete, and
    popped, only once the search has finished everything reachable from it,
    which is exactly the sinks-first order back-substitution needs.
    """
    order: dict[int, int] = {}
    low: dict[int, int] = {}
    stack: list[int] = []
    on_stack: set[int] = set()
    work: list[tuple[int, Iterator[int]]] = []

    def visit(i: int) -> None:
        order[i] = low[i] = len(order)
        stack.append(i)
        on_stack.add(i)
        work.append((i, iter(space.successors[i])))

    visit(root)
    while work:
        i, successors = work[-1]
        for j in successors:
            if j in targets:
                continue
            if j not in order:
                visit(j)
                break
            if j in on_stack:
                low[i] = min(low[i], order[j])
        else:
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[i])
            if low[i] == order[i]:
                component = []
                while True:
                    j = stack.pop()
                    on_stack.discard(j)
                    component.append(j)
                    if j == i:
                        break
                yield component


def expected_hitting_steps(
    space: ConfigurationSpace, target: Callable[[Config], bool]
) -> Fraction:
    """Exact expected number of steps from all-initial to the target set.

    Solves h(C) = 0 on targets and
    h(C) = 1 + (1/(n(n-1))) * sum over ordered interactions of h(successor)
    elsewhere, in rational arithmetic.  Raises :class:`NonAbsorbingError` if
    the target set is empty or the hitting time is infinite.

    Components of the non-target subgraph are solved sinks first, and each
    adds m**3 for its m configurations to a charge that may not pass the
    budget the space was enumerated under (:class:`BudgetExceededError`).
    A component with no exit never reaches the target; the error names its
    lowest-index member.
    """
    targets = frozenset(i for i, c in enumerate(space.configs) if target(c))
    if not targets:
        raise NonAbsorbingError("target set is empty")
    if 0 in targets:
        return Fraction(0)

    total = space.n * (space.n - 1)
    solved: dict[int, Fraction] = dict.fromkeys(targets, Fraction(0))
    charge = 0
    for component in _components_sinks_first(space, 0, targets):
        m = len(component)
        charge += m**3
        if charge > space.budget:
            raise BudgetExceededError(
                f"the hitting-time solve reached a component of {m} configurations: "
                f"sum of m^3 = {charge} exceeds budget {space.budget}"
            )
        if not _solve_component(space, component, total, solved):
            raise NonAbsorbingError(
                f"target unreachable from configuration {space.configs[min(component)]}"
            )
    return solved[0]


def _solve_component(
    space: ConfigurationSpace, component: list[int], total: int, solved: dict[int, Fraction]
) -> bool:
    """Solve one component's first-step equations into ``solved``; False
    when no interaction leaves the component.

    Row i is N + sum_j c_ij h(j) - N h(i) = 0, with c_ij the number of
    ordered interactions taking C_i to C_j, as a sparse integer dict over
    members and exits.  Members are eliminated in component order with no
    pivot search: negated, the member block is an irreducible Z-matrix (the
    component is strongly connected) with diagonally dominant rows, strict
    in each row with an exit.  With an exit it is a nonsingular M-matrix,
    so every pivot is negative here; with none its rows sum to zero and only
    the last pivot is zero.  Updated rows are divided by the gcd of their
    entries (fraction-free, after Bareiss, Math. Comp. 22, 1968).
    Back-substitution makes one Fraction per configuration; for m = 1 it is
    just h(i) = (N + sum_{j != i} c_ij h(j)) / (N - c_ii).
    """
    m = len(component)
    rows = []
    for i in component:
        row = dict(space.successors[i])
        row[i] = row.get(i, 0) - total
        rows.append(row)
    consts = [total] * m

    for k in range(m - 1):
        i = component[k]
        pivot = rows[k]
        p = -pivot[i]
        for r in range(k + 1, m):
            row = rows[r]
            a = row.pop(i, 0)
            if not a:
                continue
            g = gcd(p, a)
            s, t = p // g, a // g
            for j in row:
                row[j] *= s
            for j, x in pivot.items():
                if j != i:
                    row[j] = row.get(j, 0) + t * x
            const = s * consts[r] + t * consts[k]
            g = gcd(const, *row.values())
            if g > 1:
                for j in row:
                    row[j] //= g
                const //= g
            consts[r] = const
    if not rows[-1][component[-1]]:
        return False

    for k in range(m - 1, -1, -1):
        i = component[k]
        row = rows[k]
        num, den = consts[k], 1
        for j, x in row.items():
            if j != i:
                h = solved[j]
                q = h.denominator
                if den % q:
                    scale = q // gcd(den, q)
                    num *= scale
                    den *= scale
                num += x * h.numerator * (den // q)
        solved[i] = Fraction(num, -den * row[i])
    return True
