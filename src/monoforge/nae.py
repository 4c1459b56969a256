"""Not-all-equal machinery: variable graphs, trivial-pair stripping, a
constructive 4-coloring in the Brooks style, and the always-satisfiable
solvers built on it.

The two-appearance all-positive instances are solved constructively: strip
duplicated clause pairs, 4-color the co-occurrence graph of the rest, send
two colors to true and two to false.  A clause of three distinct, pairwise
adjacent variables then sees at least two colors, hence both truth values.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass

from .formula import (
    Assignment,
    Clause,
    CnfFormula,
    InstanceClass,
    InvalidInstanceError,
    canonical_clause,
    is_total,
    satisfies,
    validate_class,
    validate_instance,
    ValidationReport,
    Violation,
)


@dataclass(frozen=True)
class VariableGraph:
    """Co-occurrence graph: an edge joins variables sharing a clause."""

    vertices: tuple[int, ...]
    adj: dict[int, frozenset[int]]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in self.vertices for v in self.adj[u] if u < v]

    def components(self) -> list[list[int]]:
        seen: set[int] = set()
        out = []
        for start in self.vertices:
            if start in seen:
                continue
            comp = []
            queue = deque([start])
            seen.add(start)
            while queue:
                u = queue.popleft()
                comp.append(u)
                for w in sorted(self.adj[u]):
                    if w not in seen:
                        seen.add(w)
                        queue.append(w)
            out.append(sorted(comp))
        return out


def variable_graph(f: CnfFormula) -> VariableGraph:
    adj: dict[int, set[int]] = {v: set() for v in range(1, f.n_vars + 1)}
    for c in f.clauses:
        vs = sorted({abs(l) for l in c})
        for i, u in enumerate(vs):
            for w in vs[i + 1:]:
                adj[u].add(w)
                adj[w].add(u)
    return VariableGraph(
        tuple(range(1, f.n_vars + 1)),
        {v: frozenset(s) for v, s in adj.items()},
    )


def complete_component_check(g: VariableGraph, k: int) -> list[list[int]]:
    """Components isomorphic to the complete graph on k vertices."""
    return [
        comp
        for comp in g.components()
        if len(comp) == k and all(g.degree(v) == k - 1 for v in comp)
    ]


def strip_trivial_pairs(f: CnfFormula) -> tuple[CnfFormula, list[Clause]]:
    """Remove duplicated clause pairs {x,y,z},{x,y,z} from a valid instance.

    Their variables occur nowhere else, so afterwards every vertex of the
    variable graph has degree 3 or 4.  Returns the residual formula and one
    clause per removed pair.
    """
    rep = validate_class(f, InstanceClass.MONO_NAE_E2)
    if not rep.verdict:
        raise InvalidInstanceError(rep, "two-appearance all-positive instance")
    counts = Counter(f.clauses)
    removed = [c for c in counts if counts[c] == 2]
    kept = tuple(c for c in f.clauses if counts[c] != 2)
    return CnfFormula(f.n_vars, kept, f.allows_duplicate_literals, f.symbol_table), removed


class ColoringError(RuntimeError):
    def __init__(self, message: str, component: list[int] | None = None):
        self.component = component
        super().__init__(message)


def _greedy(order: list[int], adj, colors: dict[int, int]) -> None:
    for v in order:
        used = {colors[w] for w in adj(v) if w in colors}
        for color in range(5):
            if color not in used:
                colors[v] = color
                break


def _bfs_order(root: int, vertices: set[int], adj) -> list[int]:
    order = [root]
    seen = {root}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for w in sorted(adj(u)):
            if w in vertices and w not in seen:
                seen.add(w)
                order.append(w)
                queue.append(w)
    return order


def _connected_without(vertices: set[int], adj, banned: set[int]) -> bool:
    rest = vertices - banned
    if not rest:
        return True
    start = min(rest)
    seen = {start}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for w in adj(u):
            if w in rest and w not in seen:
                seen.add(w)
                queue.append(w)
    return seen == rest


def _color_component(g: VariableGraph, comp: list[int]) -> dict[int, int]:
    comp_set = set(comp)

    def adj(v: int):
        return [w for w in g.adj[v] if w in comp_set]

    n = len(comp)
    colors: dict[int, int] = {}
    if all(len(adj(v)) == n - 1 for v in comp):  # complete component
        if n > 4:
            raise ColoringError(
                f"component is a complete graph on {n} > 4 vertices", comp)
        for i, v in enumerate(comp):
            colors[v] = i
        return colors

    low = [v for v in comp if len(adj(v)) < 4]
    if low:
        # color in reverse breadth-first order from a low-degree root: every
        # non-root still has its parent uncolored when processed
        order = _bfs_order(low[0], comp_set, adj)
        _greedy(list(reversed(order)), adj, colors)
        return colors

    # 4-regular. A cut vertex splits the component into parts where it has
    # degree < 4; color the parts separately and align the cut's color.
    for v in comp:
        if not _connected_without(comp_set, adj, {v}):
            parts: list[list[int]] = []
            seen: set[int] = {v}
            for w in comp:
                if w in seen:
                    continue
                part = _bfs_order(w, comp_set - {v}, adj)
                seen.update(part)
                parts.append(part)
            for part in parts:
                sub = set(part) | {v}

                def sub_adj(x: int, _sub=sub):
                    return [w for w in g.adj[x] if w in _sub]

                local: dict[int, int] = {}
                order = _bfs_order(v, sub, sub_adj)
                _greedy(list(reversed(order)), sub_adj, local)
                if local[v] != 0:
                    swap = local[v]
                    for x in local:
                        if local[x] == 0:
                            local[x] = swap
                        elif local[x] == swap:
                            local[x] = 0
                for x, color in local.items():
                    if x != v:
                        colors[x] = color
            colors[v] = 0
            return colors

    # 2-connected, 4-regular, not complete: pick x with two non-adjacent
    # neighbours u, w whose removal keeps the rest connected, pre-color u and
    # w alike, then greedy toward x
    for x in comp:
        nx = sorted(adj(x))
        for i, u in enumerate(nx):
            for w in nx[i + 1:]:
                if w in g.adj[u]:
                    continue
                if not _connected_without(comp_set, adj, {u, w}):
                    continue
                colors[u] = 0
                colors[w] = 0
                order = _bfs_order(x, comp_set - {u, w}, adj)
                _greedy(list(reversed(order)), adj, colors)
                return colors
    raise ColoringError("no admissible splitting triple found", comp)


def four_coloring(g: VariableGraph) -> dict[int, int]:
    """Proper coloring with at most four colors.

    Requires maximum degree at most 4 and no complete component on five
    vertices; valid stripped two-appearance instances always qualify.
    """
    for v in g.vertices:
        if g.degree(v) > 4:
            raise ColoringError(f"vertex {v} has degree {g.degree(v)} > 4")
    colors: dict[int, int] = {}
    for comp in g.components():
        colors.update(_color_component(g, comp))
    for u in g.vertices:
        if colors[u] > 3:
            raise ColoringError(f"internal error: vertex {u} got color {colors[u]}")
        for w in g.adj[u]:
            if colors[u] == colors[w]:
                raise ColoringError(f"internal error: edge {u}-{w} monochromatic")
    return colors


def is_nae_satisfied(f: CnfFormula, a: Assignment) -> bool:
    """Each clause must see at least one true and at least one false literal."""
    if not is_total(a, f.n_vars):
        raise ValueError("assignment must be total")
    for c in f.clauses:
        truths = [(a[abs(l)] if l > 0 else not a[abs(l)]) for l in c]
        if all(truths) or not any(truths):
            return False
    return True


def nae_solve_e2(f: CnfFormula) -> Assignment:
    """Constructive solver for all-positive instances with two appearances.

    Every valid instance is satisfiable: strip, 4-color, map colors {0,1} to
    true and {2,3} to false, then give each stripped pair (x, y, z) the fixed
    values x=T, y=F, z=F.  A coloring failure is surfaced, never patched.
    """
    stripped, removed = strip_trivial_pairs(f)
    touched = {abs(l) for c in stripped.clauses for l in c}
    g = variable_graph(stripped)
    core = VariableGraph(
        tuple(sorted(touched)), {v: g.adj[v] for v in sorted(touched)}
    )
    colors = four_coloring(core)
    assignment: Assignment = {v: colors[v] < 2 for v in touched}
    for c in removed:
        x, y, z = sorted({abs(l) for l in c})
        assignment[x] = True
        assignment[y] = False
        assignment[z] = False
    for v in range(1, f.n_vars + 1):
        assignment.setdefault(v, False)
    if not is_nae_satisfied(f, assignment):
        raise ColoringError("internal error: constructed assignment is not nae-satisfying")
    return assignment


def solve_complement_closed_22(f: CnfFormula) -> Assignment:
    """Satisfy a monotone (2,2) instance closed under clause complement.

    Complementary clause pairs impose the same not-all-equal restriction, so
    the all-positive projection is a two-appearance instance and its
    constructive solution satisfies both halves.  Clause uniqueness is not
    required here: a duplicated pair plus its duplicated complement is still
    solvable (the projection is then a trivial pair).
    """
    violations = validate_instance(
        f, [("occurrence", range(1, f.n_vars + 1), (2, 2))],
        distinct=True, monotone=True, all_positive=False, unique=False,
    )
    counts = Counter(f.clauses)
    for c, k in counts.items():
        comp = canonical_clause(-l for l in c)
        if counts[comp] != k:
            violations.append(Violation(
                "complement-closure", None,
                f"clause {c} occurs {k} times but its complement {comp} "
                f"occurs {counts[comp]} times"))
    if violations:
        raise InvalidInstanceError(ValidationReport(False, tuple(violations)),
                                   "complement-closed (2,2) instance")
    positive = CnfFormula(
        f.n_vars,
        tuple(c for c in f.clauses if all(l > 0 for l in c)),
        f.allows_duplicate_literals,
    )
    assignment = nae_solve_e2(positive)
    if not satisfies(f, assignment):
        raise ColoringError("internal error: nae assignment fails the closed instance")
    return assignment


def graph_edge_text(g: VariableGraph) -> str:
    """Edge-list export: one 'u v' line per edge, sorted."""
    return "".join(f"{u} {v}\n" for u, v in sorted(g.edges()))
