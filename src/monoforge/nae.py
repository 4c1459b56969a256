"""Not-all-equal machinery: variable graphs, trivial-pair stripping, a
constructive 4-coloring in the Brooks style, and the always-satisfiable
solvers built on it.

The two-appearance all-positive instances are solved constructively: strip
duplicated clause pairs, 4-color the co-occurrence graph of the rest, send
two colors to true and two to false.  A clause of three distinct, pairwise
adjacent variables then sees at least two colors, hence both truth values.

The coloring is Brooks' theorem in the form of Lovász's proof ("Three short
proofs in graph theory", J. Combin. Theory Ser. B 19, 1975).  A component
takes the first case that applies:

1. complete: one color per vertex; K5 is reported;
2. a vertex of degree < 4: greedy in reverse breadth-first order from it,
   so each other vertex still has its parent uncolored;
3. a cut vertex v, the smallest: each part plus v by case 2 from root v,
   colors swapped so that v gets 0;
4. a vertex x with non-adjacent neighbours u, w whose removal keeps the
   rest connected: u, w share color 0, then greedy in reverse breadth-first
   order toward x.

Case 3's vertex comes from one depth-first pass with low numbers, which
finds every cut vertex in linear time (Hopcroft & Tarjan, "Efficient
algorithms for graph manipulation", Comm. ACM 16, 1973); a component costs a
constant number of traversals before case 4, not one per vertex.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from typing import NamedTuple

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


class VariableGraph(NamedTuple):
    """Co-occurrence graph: an edge joins variables sharing a clause."""

    vertices: tuple[int, ...]
    adj: dict[int, frozenset[int]]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in self.vertices for v in self.adj[u] if u < v]

    def components(self) -> list[list[int]]:
        """Vertex sets of the connected components, as :func:`_components`
        gives them for all of ``vertices``."""
        return _components(self, self.vertices)


def _components(g: VariableGraph, vertices) -> list[list[int]]:
    """Components of the subgraph induced by ``vertices``, each sorted, in
    the order in which ``vertices`` first reaches them.

    A component grows by whole neighbourhoods: each vertex adds the unseen
    part of its adjacency set in one set intersection.
    """
    adj = g.adj
    unseen = set(vertices)
    out = []
    for start in vertices:
        if start in unseen:
            unseen.remove(start)
            comp = [start]
            for u in comp:
                new = adj[u] & unseen
                unseen -= new
                comp += new
            comp.sort()
            out.append(comp)
    return out


def variable_graph(f: CnfFormula) -> VariableGraph:
    """The co-occurrence graph on 1..n_vars; each clause adds the edges
    between its distinct variables, pair by pair from one set of them."""
    adj: dict[int, set[int]] = {v: set() for v in range(1, f.n_vars + 1)}
    for c in f.clauses:
        for u, w in combinations(set(map(abs, c)), 2):
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


def _bfs_order(g: VariableGraph, root: int, vertices: set[int]) -> list[int]:
    """Breadth-first order from root within ``vertices``, neighbours ascending."""
    order = [root]
    seen = {root}
    for u in order:
        for w in sorted(g.adj[u]):
            if w in vertices and w not in seen:
                seen.add(w)
                order.append(w)
    return order


def _lowest_cut_vertex(g: VariableGraph, root: int) -> int | None:
    """Smallest cut vertex of the component of root, or None when it has none.

    One iterative depth-first pass from root computes discovery and low
    numbers.  The root is a cut vertex when it has two or more tree children;
    any other vertex p when some tree child u has low[u] >= disc[p].
    """
    disc = {root: 0}
    low = {root: 0}
    cuts = []
    root_children = 0
    stack = [(root, iter(g.adj[root]))]
    while stack:
        p, todo = stack[-1]
        for u in todo:
            if u not in disc:
                disc[u] = low[u] = len(disc)
                stack.append((u, iter(g.adj[u])))
                break
            low[p] = min(low[p], disc[u])
        else:
            stack.pop()
            if not stack:
                break
            q = stack[-1][0]
            low[q] = min(low[q], low[p])
            if q == root:
                root_children += 1
            elif low[p] >= disc[q]:
                cuts.append(q)
    if root_children > 1:
        cuts.append(root)
    return min(cuts, default=None)


def _greedy(g: VariableGraph, order, colors: dict[int, int]) -> dict[int, int]:
    """Smallest color free among each vertex's already colored neighbours."""
    for v in order:
        colors[v] = min({0, 1, 2, 3, 4} - {colors[w] for w in g.adj[v] if w in colors})
    return colors


def _color(g: VariableGraph, vertices: list[int]) -> dict[int, int]:
    """Color one component of g, given as its sorted vertex list."""
    vset = set(vertices)
    n = len(vertices)
    if all(len(g.adj[v]) == n - 1 for v in vertices):
        if n > 4:
            raise ColoringError(
                f"component is a complete graph on {n} > 4 vertices", vertices)
        return {v: i for i, v in enumerate(vertices)}

    low = [v for v in vertices if len(g.adj[v]) < 4]
    if low:
        return _greedy(g, reversed(_bfs_order(g, low[0], vset)), {})

    v = _lowest_cut_vertex(g, vertices[0])
    if v is not None:  # each part plus v has degree < 4 at v only: case 2
        colors: dict[int, int] = {}
        for part in _components(g, sorted(vset - {v})):
            local = _greedy(g, reversed(_bfs_order(g, v, {v, *part})), {})
            swap = {local[v]: 0, 0: local[v]}
            for x, color in local.items():
                if x != v:
                    colors[x] = swap.get(color, color)
        colors[v] = 0
        return colors

    for x in vertices:
        nx = sorted(g.adj[x])
        for i, u in enumerate(nx):
            for w in nx[i + 1:]:
                if w in g.adj[u] or len(_components(g, vset - {u, w})) > 1:
                    continue
                order = _bfs_order(g, x, vset - {u, w})
                return _greedy(g, reversed(order), {u: 0, w: 0})
    raise ColoringError("no admissible splitting triple found", vertices)


def four_coloring(g: VariableGraph) -> dict[int, int]:
    """Proper coloring with at most four colors.

    Requires maximum degree at most 4 and no complete component on five
    vertices; valid stripped two-appearance instances always qualify.
    """
    degrees = list(map(len, map(g.adj.__getitem__, g.vertices)))
    if max(degrees, default=0) > 4:
        v, d = next((v, d) for v, d in zip(g.vertices, degrees) if d > 4)
        raise ColoringError(f"vertex {v} has degree {d} > 4")
    colors: dict[int, int] = {}
    for comp in g.components():
        colors.update(_color(g, comp))
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
    colors = four_coloring(variable_graph(stripped))
    assignment: Assignment = {v: color < 2 for v, color in colors.items()}
    for c in removed:  # stripped-pair variables are isolated vertices
        x, y, z = sorted({abs(l) for l in c})
        assignment[x] = True
        assignment[y] = False
        assignment[z] = False
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
