import pytest

import corpus
from monoforge import nae
from monoforge.formula import InvalidInstanceError, cnf, negate_formula, satisfies
from monoforge.gadgets import build_U_NAE
from monoforge.generate import random_mono_nae_e2
from monoforge.kernels import clause_arrays, first_nae
from monoforge.nae import (
    ColoringError,
    VariableGraph,
    complete_component_check,
    four_coloring,
    graph_edge_text,
    is_nae_satisfied,
    nae_solve_e2,
    solve_complement_closed_22,
    strip_trivial_pairs,
    variable_graph,
)


def cycle_graph(n):
    adj = {v: frozenset({(v % n) + 1, ((v - 2) % n) + 1}) for v in range(1, n + 1)}
    return VariableGraph(tuple(range(1, n + 1)), adj)


def complete_graph(n):
    adj = {v: frozenset(set(range(1, n + 1)) - {v}) for v in range(1, n + 1)}
    return VariableGraph(tuple(range(1, n + 1)), adj)


def test_variable_graph_examples():
    tri = variable_graph(cnf([[1, 2, 3]]))
    assert set(tri.edges()) == {(1, 2), (1, 3), (2, 3)}

    two = variable_graph(cnf([[1, 2, 3], [4, 5, 6]]))
    assert len(two.components()) == 2
    assert all(len(c) == 3 for c in two.components())

    unae = variable_graph(build_U_NAE())
    assert all(unae.degree(v) == 6 for v in unae.vertices)
    assert complete_component_check(unae, 7) == [[1, 2, 3, 4, 5, 6, 7]]


def test_complete_component_check_negative():
    assert complete_component_check(cycle_graph(6), 7) == []


def test_strip_trivial_pairs():
    f = cnf([[1, 2, 3], [1, 2, 3]])
    stripped, removed = strip_trivial_pairs(f)
    assert stripped.m == 0
    assert removed == [(1, 2, 3)]

    g = cnf([[1, 2, 3], [1, 4, 5], [2, 4, 6], [3, 5, 6]])
    stripped, removed = strip_trivial_pairs(g)
    assert stripped == g and removed == []


def test_strip_requires_valid_instance():
    with pytest.raises(InvalidInstanceError):
        strip_trivial_pairs(cnf([[1, 2, 3]]))  # variables appear once


def test_stripped_degree_bound(nae_corpus):
    for f in nae_corpus[:40]:
        stripped, _ = strip_trivial_pairs(f)
        g = variable_graph(stripped)
        touched = {abs(l) for c in stripped.clauses for l in c}
        assert all(g.degree(v) in (3, 4) for v in touched)


# -- the graph pass against the sorted-pair loop and BFS it replaced ------------

def variable_graph_by_pairs(f):
    adj = {v: set() for v in range(1, f.n_vars + 1)}
    for c in f.clauses:
        vs = sorted({abs(l) for l in c})
        for i, u in enumerate(vs):
            for w in vs[i + 1:]:
                adj[u].add(w)
                adj[w].add(u)
    return VariableGraph(tuple(range(1, f.n_vars + 1)), {v: frozenset(s) for v, s in adj.items()})


def components_by_bfs(g):
    unseen = set(g.vertices)
    out = []
    for start in g.vertices:
        if start in unseen:
            order, seen = [start], {start}
            for u in order:
                for w in sorted(g.adj[u]):
                    if w in unseen and w not in seen:
                        seen.add(w)
                        order.append(w)
            unseen.difference_update(order)
            out.append(sorted(order))
    return out


def test_graph_pass_matches_pair_loop_and_breadth_first_search(nae_corpus):
    formulas = list(nae_corpus) + [strip_trivial_pairs(f)[0] for f in nae_corpus]
    formulas += [negate_formula(f) for f in nae_corpus[:20]]
    # isolated vertices: variables that no clause mentions
    formulas += [cnf([[1, 2, 3], [2, 3, 4]], n_vars=9), cnf([[5]], n_vars=7),
                 cnf([], n_vars=4), cnf([], n_vars=0)]
    # clauses that repeat a literal or a variable
    formulas += [cnf([[1, 1, 2], [2, 3, 3], [-4, 4, 4], [6, -6], [8, 8, 8]], n_vars=9,
                     allows_duplicate_literals=True)]
    graphs = []
    for f in formulas:
        g = variable_graph(f)
        assert g == variable_graph_by_pairs(f)
        graphs.append(g)
    graphs += [cycle_graph(7), complete_graph(5), corpus.octahedron(), corpus.cut_vertex_graph()]
    graphs += [corpus.glued_chain(3, seed) for seed in range(4)]
    graphs += [corpus.random_degree4_graph(6 + seed, seed) for seed in range(10)]
    # the components come in vertex order, whatever that order is
    graphs += [VariableGraph(tuple(reversed(g.vertices)), g.adj) for g in graphs[::7]]
    sizes = set()
    for g in graphs:
        components = g.components()
        assert components == components_by_bfs(g)
        sizes.add(min(len(components), 2))
    # not vacuous: no component, one, and several all occur
    assert sizes == {0, 1, 2}


def test_four_coloring_reports_the_first_vertex_of_degree_above_four():
    # vertex 3 has degree 5 and vertex 7 degree 6; the first in vertex order is named
    g = corpus._graph(8, [(3, w) for w in (1, 2, 4, 5, 6)] + [(7, w) for w in (1, 2, 4, 5, 6, 8)])
    for vertices, message in ((g.vertices, "vertex 3 has degree 5 > 4"),
                              (tuple(reversed(g.vertices)), "vertex 7 has degree 6 > 4")):
        with pytest.raises(ColoringError) as err:
            four_coloring(VariableGraph(vertices, g.adj))
        assert str(err.value) == message
        assert err.value.component is None


def test_four_coloring_cycle_and_triangle():
    colors = four_coloring(cycle_graph(6))
    assert len(set(colors.values())) == 2
    colors = four_coloring(complete_graph(3))
    assert sorted(colors.values()) == [0, 1, 2]


def test_four_coloring_rejects_k5_and_high_degree():
    with pytest.raises(ColoringError) as err:
        four_coloring(complete_graph(5))
    assert err.value.component == [1, 2, 3, 4, 5]
    with pytest.raises(ColoringError, match="degree"):
        four_coloring(complete_graph(7))


def test_four_coloring_4regular_two_connected():
    # the 4-regular octahedron is not complete; the splitting-triple branch
    colors = four_coloring(corpus.octahedron())
    assert max(colors.values()) <= 3


def test_four_coloring_4regular_with_cut_vertex():
    # two complete-minus-an-edge blocks glued through one vertex: 4-regular
    # with a cut vertex, which the recursive cut-vertex branch handles
    g = corpus.cut_vertex_graph()
    assert all(g.degree(v) == 4 for v in g.vertices)
    colors = four_coloring(g)
    assert max(colors.values()) <= 3


def test_nae_solve_trivial_pair():
    f = cnf([[1, 2, 3], [1, 2, 3]])
    a = nae_solve_e2(f)
    assert is_nae_satisfied(f, a)
    assert a == {1: True, 2: False, 3: False}


def test_nae_solve_corpus_slice(nae_corpus):
    for f in nae_corpus[:60]:
        a = nae_solve_e2(f)
        assert is_nae_satisfied(f, a)


def test_nae_exhaustive_crosscheck(nae_corpus):
    small = [g for g in nae_corpus[:60] if g.n_vars <= 18]
    assert small
    for f in small:
        lits, widths = clause_arrays(f.clauses)
        assert first_nae(lits, widths, f.n_vars) >= 0


def test_is_nae_satisfied_edge_cases():
    f = build_U_NAE()
    constant = {v: True for v in range(1, 8)}
    assert not is_nae_satisfied(f, constant)
    with pytest.raises(ValueError, match="total"):
        is_nae_satisfied(f, {1: True})


def test_solve_complement_closed_strict():
    base = cnf([[1, 2, 3], [1, 4, 5], [2, 4, 6], [3, 5, 6]])
    f = cnf(base.clauses + negate_formula(base).clauses, n_vars=6)
    a = solve_complement_closed_22(f)
    assert satisfies(f, a)


def test_solve_complement_closed_duplicate_pairs():
    f = cnf(
        [[1, 2, 3], [1, 2, 3], [-1, -2, -3], [-1, -2, -3]],
        n_vars=3,
    )
    a = solve_complement_closed_22(f)
    assert satisfies(f, a)


def test_solve_complement_closed_rejects_missing_complement():
    base = cnf([[1, 2, 3], [1, 4, 5], [2, 4, 6], [3, 5, 6]])
    clauses = base.clauses + negate_formula(base).clauses
    broken = cnf(clauses[:-1] + ((-3, -5, 6),), n_vars=6)
    with pytest.raises(InvalidInstanceError) as err:
        solve_complement_closed_22(broken)
    assert any("complement" in v.rule for v in err.value.report.violations)


def test_solve_complement_closed_reports_class_rules():
    # a repeated variable and a short clause fail under the same rule names
    # that validate_class uses
    f = cnf([[1, 1, 2], [-1, -1, -2], [1, 2], [-1, -2]], n_vars=2,
            allows_duplicate_literals=True)
    with pytest.raises(InvalidInstanceError) as err:
        solve_complement_closed_22(f)
    rules = [(v.rule, v.index) for v in err.value.report.violations]
    assert rules == [
        ("distinct-vars", 0), ("distinct-vars", 1), ("width", 2), ("width", 3),
        ("occurrence", 1),
    ]


def test_graph_edge_text():
    text = graph_edge_text(variable_graph(cnf([[1, 2, 3]])))
    assert text == "1 2\n1 3\n2 3\n"


def assert_proper(g, colors):
    assert sorted(colors) == sorted(g.vertices)
    for u in g.vertices:
        assert colors[u] in (0, 1, 2, 3)
        for w in g.adj[u]:
            assert colors[u] != colors[w], (u, w)


@pytest.mark.parametrize("seed", range(8))
def test_four_coloring_property(seed):
    for k in range(25):
        g = corpus.random_degree4_graph(6 + (seed * 25 + k) % 45, seed * 25 + k)
        assert_proper(g, four_coloring(g))
    for blocks in range(2, 7):
        for size in (5, 6 + (seed + blocks) % 7):
            g = corpus.glued_chain(blocks, seed * 10 + blocks, size)
            assert all(g.degree(v) == 4 for v in g.vertices)
            assert_proper(g, four_coloring(g))


@pytest.mark.parametrize("seed", range(4))
def test_four_coloring_reports_k5_component(seed):
    chain = corpus.glued_chain(2 + seed, seed)
    n = len(chain.vertices)
    adj = dict(chain.adj)
    k5 = list(range(n + 1, n + 6))
    adj.update({v: frozenset(set(k5) - {v}) for v in k5})
    g = VariableGraph(tuple(range(1, n + 6)), adj)
    with pytest.raises(ColoringError) as err:
        four_coloring(g)
    assert err.value.component == k5


# -- the lowpoint pass that finds case 3's cut vertex -----------------------------

def brute_lowest_cut_vertex(g, vertices):
    """Delete each vertex in turn and search the rest; None when no deletion
    disconnects it."""
    for v in sorted(vertices):
        rest = set(vertices) - {v}
        if not rest:
            continue
        seen, todo = set(), [min(rest)]
        while todo:
            u = todo.pop()
            if u not in seen:
                seen.add(u)
                todo += [w for w in g.adj[u] if w in rest]
        if seen != rest:
            return v
    return None


def _cut_vertex_cases(nae_corpus):
    """(graph, connected vertex set) pairs, each of maximum degree 4."""
    bowtie = corpus._graph(5, [(1, 2), (1, 3), (2, 3), (1, 4), (1, 5), (4, 5)])
    path = corpus._graph(3, [(1, 2), (1, 3)])
    graphs = [bowtie, path, corpus._graph(1, []), corpus._graph(2, [(1, 2)]),
              corpus.octahedron(), corpus.cut_vertex_graph(), cycle_graph(7), complete_graph(5)]
    graphs += [corpus.random_connected_graph(n, extra, 100 * n + extra)
               for n in range(1, 41, 3) for extra in (0, 1, 3, n // 2, n, 2 * n)]
    graphs += [corpus.glued_chain(blocks, seed, size)
               for blocks, seed, size in ((2, 0, 5), (3, 1, 6), (5, 2, 9), (4, 3, 11))]
    graphs += [corpus.random_degree4_graph(6 + seed, seed) for seed in range(20)]
    graphs += [variable_graph(strip_trivial_pairs(f)[0]) for f in nae_corpus[:80]]
    return [(g, set(comp)) for g in graphs for comp in g.components()]


def test_lowest_cut_vertex_matches_brute_force(nae_corpus):
    found = []
    for g, vertices in _cut_vertex_cases(nae_corpus):
        want = brute_lowest_cut_vertex(g, vertices)
        # the pass finds every cut vertex, so the answer does not depend on the root
        for root in {min(vertices), max(vertices)}:
            assert nae._lowest_cut_vertex(g, root, vertices) == want, (sorted(vertices), root)
        found.append("none" if want is None else "root" if want == min(vertices) else "inner")
    # not vacuous: 2-connected parts, cut roots and cut inner vertices all occur
    assert {"none", "root", "inner"} <= set(found)


def test_nae_solve_makes_a_few_traversals_per_component(monkeypatch):
    # one BFS per vertex in the cut-vertex search made 3003 traversals here
    f = random_mono_nae_e2(3000, 0)
    components = variable_graph(strip_trivial_pairs(f)[0]).components()
    calls = []
    bfs = nae._bfs_order
    monkeypatch.setattr(nae, "_bfs_order", lambda g, root, vs: calls.append(root) or bfs(g, root, vs))
    assert is_nae_satisfied(f, nae_solve_e2(f))
    assert len(calls) <= 4 * len(components)
