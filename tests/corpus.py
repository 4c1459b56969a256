"""Fixed-seed corpora shared by the unit tests and the acceptance suite."""

import random

from monoforge.generate import (
    random_3sat22,
    random_balanced_qbf,
    random_mono_3sat_star22,
    random_mono_nae_e2,
)
from monoforge.nae import VariableGraph

# 20 duplicate-literal monotone (2,2) instances, up to 12 variables
STAR22_SPECS = [((seed % 3 + 2) * 3, seed) for seed in range(1, 21)]

# 20 mixed (2,2) instances, up to 10 variables (sizes divisible by 3)
SAT22_SPECS = [((seed % 2 + 2) * 3, seed) for seed in range(21, 41)]

# 200 two-appearance all-positive instances, 6..60 variables
NAE_SPECS = [(6 + 3 * ((seed - 1) % 19), seed) for seed in range(1, 201)]

# balanced two-level corpora, universal count at most 4
QBF_1122_SPECS = [(p, 100 + i) for i, p in enumerate((2, 2, 2, 3, 3, 3, 3, 3, 4, 4))]
QBF_2222_SPECS = [(3, 200 + i) for i in range(10)]

# pinned seeds for the miner rediscovery run
REDISCOVERY_PERTURB_SEED = 2
REDISCOVERY_MINE_SEED = 0


def star22_corpus():
    return [random_mono_3sat_star22(n, seed) for n, seed in STAR22_SPECS]


def sat22_corpus():
    return [random_3sat22(n, seed) for n, seed in SAT22_SPECS]


def nae_corpus():
    return [random_mono_nae_e2(n, seed) for n, seed in NAE_SPECS]


def qbf_1122_corpus():
    return [random_balanced_qbf(p, 1, 1, seed) for p, seed in QBF_1122_SPECS]


def qbf_2222_corpus():
    return [random_balanced_qbf(p, 2, 2, seed) for p, seed in QBF_2222_SPECS]


# -- graphs of maximum degree 4 for the colouring tests --------------------------

def _graph(n, edges):
    adj = {v: set() for v in range(1, n + 1)}
    for u, w in edges:
        adj[u].add(w)
        adj[w].add(u)
    return VariableGraph(tuple(range(1, n + 1)), {v: frozenset(s) for v, s in adj.items()})


def octahedron():
    """4-regular and 2-connected, not complete: the splitting-triple case."""
    return _graph(6, [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 5), (2, 6),
                      (3, 4), (3, 6), (4, 5), (4, 6), (5, 6)])


def cut_vertex_graph():
    """Two K5-minus-an-edge blocks glued through vertex 11: 4-regular with a
    cut vertex."""
    edges = []
    for block, missing in (((1, 2, 3, 4, 5), (4, 5)), ((6, 7, 8, 9, 10), (9, 10))):
        edges += [(u, w) for i, u in enumerate(block) for w in block[i + 1:]
                  if (u, w) != missing]
    edges += [(11, w) for w in (4, 5, 9, 10)]
    return _graph(11, edges)


def _four_regular_edges(n, rng):
    """A random 4-regular graph on 1..n (K5 when n is 5), as sorted edges.

    Starts from the circulant in which i is adjacent to i +- 1 and i +- 2
    on shuffled labels, then makes degree-keeping double-edge swaps.
    """
    order = rng.sample(range(1, n + 1), n)
    edges = sorted({tuple(sorted((order[i], order[(i + k) % n]))) for i in range(n) for k in (1, 2)})
    present = set(edges)
    for _ in range(4 * n):
        i, j = rng.sample(range(len(edges)), 2)
        (a, b), (c, d) = edges[i], rng.sample(edges[j], 2)
        e, f = tuple(sorted((a, c))), tuple(sorted((b, d)))
        if a != c and b != d and e not in present and f not in present:
            present -= {edges[i], edges[j]}
            present |= {e, f}
            edges[i], edges[j] = e, f
    return edges


def random_degree4_graph(n, seed):
    """A random 4-regular graph on 1..n (n >= 6), minus up to two edges.

    Half the seeds keep it 4-regular, mostly 2-connected (the
    splitting-triple case); the others drop an edge or two (the low-degree
    case).
    """
    rng = random.Random(seed)
    edges = _four_regular_edges(n, rng)
    for _ in range(rng.choice((0, 0, 1, 2))):
        edges.pop(rng.randrange(len(edges)))
    return _graph(n, edges)


def glued_chain(blocks, seed, size=5):
    """A 4-regular chain of ``blocks`` >= 2 random 4-regular graphs on
    ``size`` vertices (K5 when size is 5), glued through cut vertices.

    End blocks lose one edge and inner blocks two disjoint edges; connector
    i is adjacent to the ends of one lost edge in block i and of one in
    block i + 1, so every vertex has degree 4 and every connector is a cut
    vertex.  Labels are shuffled by the seed.
    """
    rng = random.Random(seed)
    n = blocks * (size + 1) - 1
    label = rng.sample(range(1, n + 1), n)
    edges = []
    for b in range(blocks):
        vs = label[b * (size + 1):][:size]
        block = [(vs[u - 1], vs[w - 1]) for u, w in _four_regular_edges(size, rng)]
        lost = [block.pop(rng.randrange(len(block)))]
        if 0 < b < blocks - 1:
            disjoint = [e for e in block if not set(e) & set(lost[0])]
            lost.append(disjoint[rng.randrange(len(disjoint))])
            block.remove(lost[1])
        edges += block
        if b > 0:
            edges += [(label[b * (size + 1) - 1], x) for x in lost[0]]
        if b < blocks - 1:
            edges += [(label[b * (size + 1) + size], x) for x in lost[-1]]
    return _graph(n, edges)


def random_connected_graph(n, extra, seed):
    """A random connected graph on 1..n of maximum degree 4: a random tree,
    whose every edge is a bridge, plus up to ``extra`` more edges that close
    cycles.  Labels are shuffled by the seed."""
    rng = random.Random(seed)
    label = rng.sample(range(1, n + 1), n)
    degree = [0] * n
    edges = set()

    def join(u, w):
        edges.add((label[u], label[w]))
        degree[u] += 1
        degree[w] += 1

    for w in range(1, n):
        join(rng.choice([u for u in range(w) if degree[u] < 4]), w)
    for _ in range(extra if n > 1 else 0):
        u, w = rng.sample(range(n), 2)
        if max(degree[u], degree[w]) < 4 and not {(label[u], label[w]), (label[w], label[u])} & edges:
            join(u, w)
    return _graph(n, sorted(edges))
