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
space in exact rational arithmetic, one strongly connected component of the
non-target subgraph at a time, in topological order with sinks first.  A
component's unknowns depend only on its own and on already-solved
components, so an acyclic chain (every catalog protocol, apart from
self-loops) costs O(edges) integer operations and one Fraction per
configuration, and only components with cycles fall back to an elimination
on their own block.  A component with no exit is a closed class that never
reaches the target.  The solve uses no floating point and the module no
numpy; the test suite checks it against a dense floating-point solve of the
same system and that solve's residual.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from math import gcd
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from .core import LEADER, BudgetExceededError, Interaction, Protocol, apply_interaction, output_vector

DEFAULT_BUDGET = 10**7

Config = tuple[int, ...]


class NonAbsorbingError(RuntimeError):
    """The target set is not reached with probability 1 from the start."""


class ConfigurationSpace:
    """All configurations reachable from the all-initial one, with structure.

    ``configs[0]`` is the all-initial start; ``index`` maps a configuration
    to its position in ``configs``.  ``successors[i]`` maps successor index
    -> number of ordered interactions leading there (the multiset of
    successors over all n(n-1) interactions).
    """

    __slots__ = ("protocol", "n", "configs", "index", "successors")

    def __init__(
        self,
        protocol: Protocol,
        n: int,
        configs: list[Config],
        index: dict[Config, int],
        successors: list[dict[int, int]],
    ):
        self.protocol = protocol
        self.n = n
        self.configs = configs
        self.index = index
        self.successors = successors

    def __len__(self) -> int:
        return len(self.configs)


def enumerate_reachable(
    protocol: Protocol, n: int, budget: Optional[int] = None
) -> ConfigurationSpace:
    """Breadth-first closure from the all-initial configuration.

    Raises :class:`BudgetExceededError` when the potential space ``|Q|**n``
    exceeds the budget (default 10**7 vector configurations).
    """
    if n < 2:
        raise ValueError("population size must be >= 2")
    if budget is None:
        budget = DEFAULT_BUDGET
    potential = protocol.num_states**n
    if potential > budget:
        raise BudgetExceededError(
            f"|Q|^n = {protocol.num_states}^{n} = {potential} exceeds budget {budget}"
        )

    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
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
        for u, v in pairs:
            a2, b2 = table[base[u]][base[v]]
            if a2 == base[u] and b2 == base[v]:
                nxt = base
            else:
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

    return ConfigurationSpace(
        protocol=protocol, n=n, configs=configs, index=index, successors=successors
    )


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


def _solve_fractions(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Gaussian elimination with nonzero pivoting, exact arithmetic."""
    m = len(rows)
    aug = [row[:] + [rhs[i]] for i, row in enumerate(rows)]
    for col in range(m):
        pivot = next((r for r in range(col, m) if aug[r][col] != 0), None)
        if pivot is None:
            raise NonAbsorbingError("hitting-time system is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Fraction(1, 1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(m):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [aug[r][m] for r in range(m)]


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

    Components of the non-target subgraph are solved sinks first, each as
    one block whose right-hand side is N = n(n-1) plus its exits into solved
    components.  With c_ij the number of ordered interactions taking C_i to
    C_j, a configuration alone in its component is the 1x1 block
    h(i) = (N + sum_{j != i} c_ij h(j)) / (N - c_ii), solved in integers by
    :func:`_solve_one`.  A component with no exit never reaches the target;
    the error names its lowest-index member.
    """
    targets = frozenset(i for i, c in enumerate(space.configs) if target(c))
    if not targets:
        raise NonAbsorbingError("target set is empty")
    if 0 in targets:
        return Fraction(0)

    total = space.n * (space.n - 1)
    solved: dict[int, Fraction] = dict.fromkeys(targets, Fraction(0))
    for component in _components_sinks_first(space, 0, targets):
        if len(component) == 1:
            values = _solve_one(space, component[0], total, solved)
        else:
            values = _solve_block(space, component, total, solved)
        if values is None:
            raise NonAbsorbingError(
                f"target unreachable from configuration {space.configs[min(component)]}"
            )
        solved.update(zip(component, values))
    return solved[0]


def _solve_one(
    space: ConfigurationSpace, i: int, total: int, solved: dict[int, Fraction]
) -> Optional[list[Fraction]]:
    """The 1x1 block h(i) = (N + sum_{j != i} c_ij h(j)) / (N - c_ii) in
    integers: the sum is kept as num/den over the least common multiple of
    the solved successors' denominators, so only the result is a Fraction.
    None when every interaction loops back to ``i``."""
    num, den, loops = total, 1, 0
    for j, count in space.successors[i].items():
        if j == i:
            loops = count
            continue
        h = solved[j]
        q = h.denominator
        if den % q:
            scale = q // gcd(den, q)
            num *= scale
            den *= scale
        num += count * h.numerator * (den // q)
    if loops == total:
        return None
    return [Fraction(num, den * (total - loops))]


def _solve_block(
    space: ConfigurationSpace, component: list[int], total: int, solved: dict[int, Fraction]
) -> Optional[list[Fraction]]:
    """A component with cycles, eliminated as one block in Fractions; None
    when no interaction leaves it."""
    pos = {i: r for r, i in enumerate(component)}
    m = len(component)
    rows = [[Fraction(0) for _ in range(m)] for _ in range(m)]
    rhs = [Fraction(total) for _ in range(m)]
    closed = True
    for r, i in enumerate(component):
        rows[r][r] += Fraction(total)
        for j, count in space.successors[i].items():
            if j in pos:
                rows[r][pos[j]] -= Fraction(count)
            else:
                rhs[r] += count * solved[j]
                closed = False
    return None if closed else _solve_fractions(rows, rhs)


def closed_form_pairwise(n: int) -> float:
    """Analytic expected stabilization steps of pairwise elimination:
    n(n-1) * sum_{k=2..n} 1/(k(k-1)), which telescopes to (n-1)**2."""
    if n < 2:
        raise ValueError("population size must be >= 2")
    return float((n - 1) ** 2)


def replay_path(protocol: Protocol, config: Config, path: Sequence[Interaction]) -> Config:
    """Apply a witness path and return the resulting configuration."""
    states = config
    for e in path:
        states = apply_interaction(protocol, states, e)
    return tuple(states)
