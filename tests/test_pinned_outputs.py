"""Byte-level pins of the transformation outputs, the verdicts and first
counterexamples of ``qbf_truth`` on every pipeline stage, the builders'
outputs, the NAE solver's colorings, the CLI's validation messages and, for
every subcommand, the CLI's stdout, stderr, exit code and written files.

Each digest covers everything a transformation returns: the clauses and
``n_vars`` of the formula, the quantifier blocks, and, for the reductions,
the per-clause provenance and the stats; for the port gadgets, the symbol
table, ports, fresh-variable names and allocator state.  Any change to
clause order, fresh-variable numbering or provenance changes a digest.
"""

import hashlib
import itertools
import json
import random

import pytest

import corpus
from monoforge import gadgets, solver as solver_module
from monoforge.cli import _PLAIN_GADGETS, _PORT_GADGETS, main
from monoforge.fileio import formula_to_json, write_clause_list, write_dimacs
from monoforge.formula import simplify_under
from monoforge.generate import (
    random_3sat22,
    random_balanced_qbf,
    random_mono_22,
    random_mono_3sat_star22,
    random_mono_nae_e2,
)
from monoforge.miner import MinerConfig, mine, swap_move
from monoforge.models import count_models
from monoforge.nae import four_coloring, nae_solve_e2
from monoforge.qbf import (
    PadVariant,
    monotonize,
    pad_to_balance,
    qbf_truth,
    transform_1122,
    transform_2222,
    triple_copy,
    write_qdimacs,
)
from monoforge.reductions import reduce_3sat22_to_mono22, reduce_star22_to_mono22


def _formula_rows(f):
    return (f.n_vars, f.allows_duplicate_literals, f.clauses)


def _reduction_rows(out):
    return (_formula_rows(out.formula), out.provenance_json(), out.stats)


def _qbf_rows(q):
    return (q.universals, q.existentials, _formula_rows(q.matrix))


def _digest(rows) -> str:
    h = hashlib.sha256()
    for row in rows:
        h.update(repr(row).encode())
        h.update(b"\n")
    return h.hexdigest()


DIGESTS = {
    "reduce_star22_to_mono22": "482be6cf81ad2901495e5dd46ae117a899b5408d3a4b53ea852884ffbf6185be",
    "reduce_3sat22_to_mono22": "95725bd644e5b4bdc8a70ce1bcba6baf3b305545e734c91e4ad3058d385c47ef",
    "triple_copy_1122": "7b4da5c22cf13906ca07127bc88cb8635ba48448717c8a8277017fed12766549",
    "triple_copy_2222": "83f41719fbfb7fa4fe5e4f98adc35f5d6836fb98d31259eb00a28e5abc8c2346",
    "monotonize_1122": "f5cf61438cc73727b9dabed78978e0c44684e244eb071cece94e3ea118592279",
    "monotonize_2222": "cb182c5a9f5794cd4e2bc787d5db1a17dd1c46d3aefe4eb322a0b96af538a6cb",
    "transform_1122": "40d910e26826e233eea473bdbaa19ebe4444f88f81beb1351c03c739e4362167",
    "transform_2222": "a282feafb3d8c9ab7d23c1f3ddef417324d29ba110e67045fdf07c0ad7693114",
}


def _pinned_rows(name):
    if name == "reduce_star22_to_mono22":
        return [_reduction_rows(reduce_star22_to_mono22(f)) for f in corpus.star22_corpus()]
    if name == "reduce_3sat22_to_mono22":
        return [_reduction_rows(reduce_3sat22_to_mono22(f)) for f in corpus.sat22_corpus()]
    stage, kind = name.rsplit("_", 1)
    qs = corpus.qbf_1122_corpus() if kind == "1122" else corpus.qbf_2222_corpus()
    if stage == "triple_copy":
        return [_qbf_rows(triple_copy(q)) for q in qs]
    if stage == "monotonize":
        return [_qbf_rows(monotonize(triple_copy(q))) for q in qs]
    fn = transform_1122 if kind == "1122" else transform_2222
    return [_qbf_rows(fn(q)) for q in qs]


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_transformation_output_digest(name):
    assert _digest(_pinned_rows(name)) == DIGESTS[name]


# the whole QDIMACS text of one large transform per pipeline, far past the
# corpora's p <= 5: `transform_2222` of its source has 55,860 variables
QDIMACS_DIGESTS = {
    "transform_1122_p30": (transform_1122, (30, 1, 1, 1),
                           "a1e283465c2af60834cc83bb6485fd0dfc64681cbbdbe00a560c3126198a472e"),
    "transform_2222_p30": (transform_2222, (30, 2, 2, 1),
                           "74b2c0fa4da49299dc240580768190685a9b458ef0f5d2b7a1331ffde93f70b8"),
}


@pytest.mark.parametrize("name", sorted(QDIMACS_DIGESTS))
def test_large_transform_qdimacs_digest(name):
    transform, source, digest = QDIMACS_DIGESTS[name]
    text = write_qdimacs(transform(random_balanced_qbf(*source)))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _truth_rows(kind):
    """``qbf_truth`` on the source, tripled, monotonized and padded stage of
    each corpus formula: the value and the counterexample in declared order."""
    qs = corpus.qbf_1122_corpus() if kind == "1122" else corpus.qbf_2222_corpus()
    variant = PadVariant.USE_Q3 if kind == "1122" else PadVariant.USE_Q1MON
    rows = []
    for q in qs:
        tripled = triple_copy(q)
        mono = monotonize(tripled)
        for stage in (q, tripled, mono, pad_to_balance(mono, variant)):
            res = qbf_truth(stage)
            rows.append((res.value.value,
                         None if res.counterexample is None else list(res.counterexample.items())))
    return rows


TRUTH_DIGESTS = {
    "qbf_truth_1122": "401e62bb8b23b93bdead53c462f15159d17bccebea36f563d5cae8fbaa1644bd",
    "qbf_truth_2222": "bf0a440815f435e6606672b846cc3c1e22130bd6f019cedef0bd80ba70737662",
}


@pytest.mark.parametrize("name", sorted(TRUTH_DIGESTS))
def test_qbf_truth_digest(name):
    assert _digest(_truth_rows(name.rsplit("_", 1)[1])) == TRUTH_DIGESTS[name]


def _simplify_rows():
    """``simplify_under`` on the seeded corpora, each formula under no
    assignment and three seeded partial ones, then on the matrix of every
    pipeline stage of the QBF corpora under its first counterexample: the
    output formulas, conflicts (empty clauses) included."""
    rng = random.Random(7)
    rows = []
    for f in corpus.star22_corpus() + corpus.sat22_corpus() + corpus.nae_corpus()[:40]:
        rows.append(_formula_rows(simplify_under(f, {})))
        for _ in range(3):
            a = {v: rng.random() < 0.5 for v in range(1, f.n_vars + 1) if rng.random() < 0.3}
            rows.append(_formula_rows(simplify_under(f, a)))
    for qs, variant in ((corpus.qbf_1122_corpus(), PadVariant.USE_Q3),
                        (corpus.qbf_2222_corpus(), PadVariant.USE_Q1MON)):
        for q in qs:
            mono = monotonize(triple_copy(q))
            for stage in (q, triple_copy(q), mono, pad_to_balance(mono, variant)):
                alpha = qbf_truth(stage).counterexample
                if alpha is not None:
                    rows.append(_formula_rows(simplify_under(stage.matrix, alpha)))
    return rows


def test_simplify_under_digest():
    # pinned from the rescanning implementation: 356 outputs, 40 of them
    # with a conflict
    rows = _simplify_rows()
    assert (len(rows), sum(() in r[2] for r in rows)) == (356, 40)
    assert _digest(rows) == "fa887559224aa10817d8d23b6a1d893a74c0b1c149dff20816baa4d99176585a"


def _stderr_lines(capsys, tmp_path, text, *argv):
    path = tmp_path / "in.txt"
    path.write_text(text)
    code = main([*argv, "--in", str(path)])
    captured = capsys.readouterr()
    assert captured.out == ""
    return code, captured.err.splitlines()


# each input breaks several rules at once, so the report order is pinned too
VALIDATE_CASES = [
    (
        "mono3sat22",
        "p cnf 4 3\n1 -2 3 0\n1 2 0\n1 2 3 0\n",
        [
            "monotone: clause 0 is mixed: (1, -2, 3)",
            "width: clause 1 has width 2, expected 3",
            "occurrence: variable 1 appears (3,0), expected (2,2)",
            "occurrence: variable 2 appears (2,1), expected (2,2)",
            "occurrence: variable 3 appears (2,0), expected (2,2)",
            "occurrence: variable 4 appears (0,0), expected (2,2)",
        ],
    ),
    (
        "mono3sat-star22",
        "p cnf 4 4\n1 1 2 0\n-1 -2 -3 0\n-1 -2 -3 0\n1 2 -4 0\n",
        [
            "monotone: clause 3 is mixed: (1, 2, -4)",
            "unique: clause 2 duplicates clause 1: (-1, -2, -3)",
            "occurrence: variable 1 appears (3,2), expected (2,2)",
            "occurrence: variable 3 appears (0,2), expected (2,2)",
            "occurrence: variable 4 appears (0,1), expected (2,2)",
        ],
    ),
    (
        "3sat22",
        "p cnf 3 3\n1 -2 3 0\n1 -2 3 0\n-1 -1 2 0\n",
        [
            "distinct-vars: clause 2 repeats a variable: (-1, -1, 2)",
            "unique: clause 1 duplicates clause 0: (1, -2, 3)",
            "occurrence: variable 2 appears (1,2), expected (2,2)",
            "occurrence: variable 3 appears (2,0), expected (2,2)",
        ],
    ),
    (
        "mono-nae-e2",
        "p cnf 5 3\n1 2 3 0\n1 -2 4 0\n3 3 0\n",
        [
            "monotone: clause 1 is mixed: (1, -2, 4)",
            "all-positive: clause 1 has a negated literal: (1, -2, 4)",
            "width: clause 2 has width 2, expected 3",
            "distinct-vars: clause 2 repeats a variable: (3, 3)",
            "occurrence: variable 2 appears (1,1), expected (2,0)",
            "occurrence: variable 3 appears (3,0), expected (2,0)",
            "occurrence: variable 4 appears (1,0), expected (2,0)",
            "occurrence: variable 5 appears (0,0), expected (2,0)",
        ],
    ),
]


@pytest.mark.parametrize("cls,text,expected", VALIDATE_CASES, ids=[c[0] for c in VALIDATE_CASES])
def test_validate_stderr_lines(capsys, tmp_path, cls, text, expected):
    code, lines = _stderr_lines(capsys, tmp_path, text, "validate", "--class", cls)
    assert code == 20
    assert lines == expected


QBF_CASES = [
    (
        "transform-1122",
        "p cnf 6 3\na 1 2 0\ne 3 4 5 0\n1 -3 4 0\n-1 2 0\n-3 -4 5 0\n",
        [
            "width: clause 1 has width 2, expected 3",
            "universal-occurrence: universal 2 appears (1, 0), expected (1, 1)",
            "existential-occurrence: existential 3 appears (0, 2), expected (2, 2)",
            "existential-occurrence: existential 4 appears (1, 1), expected (2, 2)",
            "existential-occurrence: existential 5 appears (1, 0), expected (2, 2)",
            "equal-counts: 2 universal vs 3 existential variables",
        ],
    ),
    (
        "transform-2222",
        "p cnf 4 2\na 1 0\ne 2 3 4 0\n1 2 3 0\n-1 -2 4 0\n",
        [
            "universal-occurrence: universal 1 appears (1, 1), expected (2, 2)",
            "existential-occurrence: existential 2 appears (1, 1), expected (2, 2)",
            "existential-occurrence: existential 3 appears (1, 0), expected (2, 2)",
            "existential-occurrence: existential 4 appears (1, 0), expected (2, 2)",
            "equal-counts: 1 universal vs 3 existential variables",
        ],
    ),
]


@pytest.mark.parametrize("action,text,expected", QBF_CASES, ids=[c[0] for c in QBF_CASES])
def test_qbf_transform_stderr_lines(capsys, tmp_path, action, text, expected):
    code, lines = _stderr_lines(capsys, tmp_path, text, "qbf", action)
    assert code == 20
    assert lines == expected


def test_nae_solve_stderr_lines(capsys, tmp_path):
    text = "p cnf 4 3\n1 2 3 0\n1 -2 4 0\n1 2 3 0\n"
    code, lines = _stderr_lines(capsys, tmp_path, text, "nae", "solve")
    assert code == 20
    assert lines == [
        "monotone: clause 1 is mixed: (1, -2, 4)",
        "all-positive: clause 1 has a negated literal: (1, -2, 4)",
        "occurrence: variable 1 appears (3,0), expected (2,0)",
        "occurrence: variable 2 appears (2,1), expected (2,0)",
        "occurrence: variable 4 appears (1,0), expected (2,0)",
    ]


# -- builders: gadgets, the CLI gadget listing, the generators, the miner ------

# name -> (builder, port tuples); for each tag in PORT_GADGET_TAGS every
# port tuple is built on one shared allocator, so fresh ranges and
# reservation labels are pinned too
PORT_GADGET_CASES = {
    "M_enforcer": (gadgets.build_M_enforcer, [(1, 2, 3), (4, 2, 2), (3, 1, 5)]),
    "Mbar_enforcer": (gadgets.build_Mbar_enforcer, [(1, 2, 3), (4, 2, 2), (3, 1, 5)]),
    "N": (gadgets.build_N, [(1,), (5,)]),
    "S": (gadgets.build_S, [(1, 2, 3), (1, 1, 2), (5, 5, 5)]),
    "Sbar": (gadgets.build_Sbar, [(1, 2, 3), (2, 1, 1)]),
    "frakM": (gadgets.build_frakM, [[(1, -2, -3), (4, -5, -6), (7, -8, -9)],
                                    [(2, -1, -3), (2, -4, -5), (1, -4, -5)]]),
    "frakMbar": (gadgets.build_frakMbar, [[(-1, 2, 3), (-4, 5, 6), (-7, 8, 9)],
                                          [(-3, 1, 2), (-3, 4, 5), (-1, 2, 4)]]),
    # clauses out of canonical order, the lone literal anywhere: frakM keeps
    # the other two ports in the order given, frakMbar puts them in
    # ascending variable order
    "frakM_unsorted": (gadgets.build_frakM, [[(1, -5, -3), (4, -6, -2), (9, -8, -7)],
                                             [(-9, 3, -1), (-4, -2, 8), (6, -7, -5)]]),
    "frakMbar_unsorted": (gadgets.build_frakMbar, [[(-1, 5, 3), (-4, 6, 2), (-9, 8, 7)],
                                                   [(3, -9, 1), (8, 4, -2), (-6, 7, 5)]]),
}
PORT_GADGET_TAGS = (0, 7, "t")


def _gadget_rows(name):
    build, port_sets = PORT_GADGET_CASES[name]
    rows = []
    for tag in PORT_GADGET_TAGS:
        alloc = gadgets.FreshVarAllocator(10)
        for ports in port_sets:
            if name.startswith("frak"):
                inst = build(alloc, ports, tag=tag)
            else:
                inst = build(alloc, *ports, tag=tag)
            f = inst.formula
            rows.append((
                _formula_rows(f),
                list(f.symbol_table.items()),
                list(inst.port_literals.items()),
                list(inst.fresh_vars.items()),
                inst.tag,
                alloc.next_id,
                alloc.reservations,
            ))
    return rows


def _cli_gadget_rows(capsys):
    rows = []
    names = sorted(_PLAIN_GADGETS) + sorted(_PORT_GADGETS) + ["Q1mon", "Q3"]
    for name in names:
        arity = _PORT_GADGETS[name][1] if name in _PORT_GADGETS else 0
        ports = ["--ports", *map(str, range(1, arity + 1))] if arity else []
        fmt = "dimacs" if name in ("Q1mon", "Q3") else "json"  # QDIMACS only
        code = main(["gadget", name, "--format", fmt, *ports])
        rows.append((name, code, capsys.readouterr().out))
    return rows


def _cli_unsorted_port_rows(capsys):
    rows = []
    for name in ("frakM", "frakMbar"):
        for ports in ("1 5 3 4 6 7 8 9 10", "9 2 1 3 8 4 7 6 5"):
            for fmt in ("dimacs", "json"):
                code = main(["gadget", name, "--ports", *ports.split(), "--format", fmt])
                captured = capsys.readouterr()
                rows.append((name, ports, fmt, code, captured.out, captured.err))
    return rows


GENERATOR_SPECS = {
    "random_3sat22": [(n, seed) for n in (6, 9, 15, 30) for seed in range(8)],
    "random_mono_3sat_star22": [(n, seed) for n in (6, 9, 15, 30) for seed in range(8)],
    "random_mono_nae_e2": [(n, seed) for n in (6, 9, 15, 30, 60) for seed in range(8)],
    "random_mono_22": [(n, seed) for n in (6, 9, 15, 30) for seed in range(8)],
    "random_balanced_qbf": [(p, s, seed) for p, s in ((2, 1), (3, 1), (4, 1), (3, 2), (6, 2))
                            for seed in range(6)],
}


def _generator_rows(name):
    rows = []
    for spec in GENERATOR_SPECS[name]:
        if name == "random_balanced_qbf":
            p, s, seed = spec
            rows.append(_qbf_rows(random_balanced_qbf(p, s, s, seed)))
        elif name == "random_mono_22":
            n, seed = spec
            rng = random.Random(seed)
            rows.append((_formula_rows(random_mono_22(n, rng)), rng.random()))
        else:
            build = {"random_3sat22": random_3sat22,
                     "random_mono_3sat_star22": random_mono_3sat_star22,
                     "random_mono_nae_e2": random_mono_nae_e2}[name]
            rows.append(_formula_rows(build(*spec)))
    return rows


def _miner_rows(name):
    if name == "mine_generated":
        cfg = MinerConfig(n_vars=9, n_clauses=12, population_size=4, max_iters=120,
                          stall_window=15, seed=5)
    else:
        start = swap_move(gadgets.build_y_core(), random.Random(2))
        cfg = MinerConfig(n_vars=9, n_clauses=13, initial=start, max_iters=120,
                          stall_window=15, seed=0)
    return [json.dumps(mine(cfg).to_json(), sort_keys=True)]


BUILDER_DIGESTS = {
    "gadget_M_enforcer": "cb14ca26b31d45aa52ef5e307de2cc6f02a2c00705382397e93a4691da0dcdc0",
    "gadget_Mbar_enforcer": "6f24ce729c546f90b462d26bce82d7165f6253d1724305d64b660f7d28c03053",
    "gadget_N": "6e8b62af14aa6087d77a734190b7b67d3df01f9a12fc5d71cab1c7f5b10111c0",
    "gadget_S": "33f392913273c06c2918cb7224cfe627e6da9a1f5d1033b185758ca7e4f8330f",
    "gadget_Sbar": "c4341699efb88c2e65bcaa2ce165639ac3c678910bc8de58ea0e30381f5c0d34",
    "gadget_frakM": "4cff13fd31daf2d4d06e72b6fa8ae417b45d16dc92dfa7c55d189db9ad6d97c3",
    "gadget_frakMbar": "935dd82a1d2216942cbbef6989390949f6cb827d75bad84e2aeae9b4579334b2",
    "gadget_frakM_unsorted": "5ab5743a1b99524f4a56793d96a70a02ec30eb58d91f9c466c355800bbbdffd4",
    "gadget_frakMbar_unsorted": "701632f410978414865d05189406b8cf99e9daabd0737cd1afebe1c5e07f6318",
    "cli_gadget_json": "b63f6662bd7b410e4a961c1a16414da1c22b755f63d5b3d7521ce4456c75d0f2",
    "cli_gadget_unsorted": "e58232ed311cfad5e90057dbc4622ea5de64960ec58fe53e87d8fbedc27941d9",
    "random_3sat22": "09abe706b77a946a53cec1592b7881f6f1c595bfd7dd675832a6907a8f2c6211",
    "random_mono_3sat_star22": "aa36628237e53f4eca1ea9a5076a3ea5a95a8b13c664acb4727e2a0c527d2ce9",
    "random_mono_nae_e2": "3cd636366b8018c18bf68210613e75d3fd8f3c7e4481128418e6faa3ba9b06d9",
    "random_mono_22": "5dc32158da32559366da69d30e1a30b69a792b21435ce1de982167082b525974",
    "random_balanced_qbf": "86748791355e882ce77b0fbe6c7d82b9f78f5c72d693d615bf46e1a82dec1806",
    "mine_initial": "d95eb24484a10ccd6f64cd36be35993147ace3a9cd7c4fe3d6502fb49e3e88dc",
    "mine_generated": "ad72d60c95881b1c7802a939155d0603f0f295f6621cc72128184920b64aa2c0",
}


@pytest.mark.parametrize("name", sorted(BUILDER_DIGESTS))
def test_builder_output_digest(capsys, name):
    if name.startswith("gadget_"):
        rows = _gadget_rows(name[len("gadget_"):])
    elif name == "cli_gadget_json":
        rows = _cli_gadget_rows(capsys)
    elif name == "cli_gadget_unsorted":
        rows = _cli_unsorted_port_rows(capsys)
    elif name.startswith("mine_"):
        rows = _miner_rows(name)
    else:
        rows = _generator_rows(name)
    assert _digest(rows) == BUILDER_DIGESTS[name]


# -- the constructive NAE solver and the 4-colouring under it -------------------

def _nae_rows(name):
    if name == "nae_solve_e2":
        return [sorted(nae_solve_e2(random_mono_nae_e2(n, seed)).items())
                for n in range(6, 61, 3) for seed in range(8)]
    if name == "nae_solve_e2_scale":  # pinned when a cut vertex took one BFS per vertex
        return [sorted(nae_solve_e2(random_mono_nae_e2(n, seed)).items())
                for n in (300, 999, 3000) for seed in range(3)]
    graphs = [corpus.octahedron(), corpus.cut_vertex_graph()]
    graphs += [corpus.random_degree4_graph(6 + seed, seed) for seed in range(12)]
    graphs += [corpus.glued_chain(blocks, seed, size) for blocks, seed, size in
               ((2, 0, 5), (3, 1, 5), (4, 2, 5), (3, 3, 8), (4, 4, 11))]
    return [sorted(four_coloring(g).items()) for g in graphs]


NAE_DIGESTS = {
    "nae_solve_e2": "58159d472eda34077a1b63762c75c48ac1a064c521289dcb01c603da61767559",
    "nae_solve_e2_scale": "6ceb22a70ae598c6d32f53b474470f9d23716f9625b72d7998b9bde382243cd6",
    "four_coloring": "1d24db32417546fffc5d1506e48aa561e88100b69474543372a24272804106c7",
}


@pytest.mark.parametrize("name", sorted(NAE_DIGESTS))
def test_nae_output_digest(name):
    assert _digest(_nae_rows(name)) == NAE_DIGESTS[name]


# -- the CLI front end: every subcommand's bytes, exit code and written files ---

def _cli_inputs():
    """File name -> text of the fixed inputs the pinned CLI runs read."""
    sat = random_3sat22(6, 1)
    return {
        "sat.cnf": "p cnf 3 2\n1 2 0\n-1 3 0\n",
        "y.cnf": write_dimacs(gadgets.build_y_core()),
        "bad.rup": "1 0\n0\n",
        "three.cnf": "p cnf 3 1\n1 2 3 0\n",
        "mixed.cnf": "p cnf 3 1\n1 -2 3 0\n",
        "u.cnf": write_dimacs(gadgets.build_U()),
        "star.cnf": write_dimacs(random_mono_3sat_star22(6, 1)),
        "sat22.cnf": write_dimacs(sat),
        "sat22.list": write_clause_list(sat),
        "sat22.json": formula_to_json(sat),
        "yes.qdimacs": write_qdimacs(corpus.qbf_1122_corpus()[0]),
        "no.qdimacs": write_qdimacs(corpus.qbf_2222_corpus()[3]),
        "nae.cnf": write_dimacs(random_mono_nae_e2(9, 2)),
    }


# (argv, files the run writes)
CLI_RUNS = [
    (["solve", "--in", "sat.cnf"], []),
    (["solve", "--in", "y.cnf", "--trace", "y.rup"], ["y.rup"]),
    (["count", "--in", "three.cnf"], []),
    (["count", "--in", "three.cnf", "--cap", "3"], []),
    (["validate", "--class", "mono3sat22", "--in", "u.cnf"], []),
    (["validate", "--class", "mono3sat22", "--in", "mixed.cnf"], []),
    (["rup-check", "--in", "y.cnf", "--proof", "y.rup"], []),
    (["rup-check", "--in", "y.cnf", "--proof", "bad.rup"], []),
    *[(["reduce", "--from", source, "--in", path, "--out", "red.out", "--out-format", fmt,
        "--provenance", "prov.json"], ["red.out", "prov.json"])
      for source, path in (("star22", "star.cnf"), ("3sat22", "sat22.cnf"))
      for fmt in ("dimacs", "list", "json")],
    (["qbf", "check", "--in", "yes.qdimacs"], []),
    (["qbf", "check", "--in", "no.qdimacs"], []),
    (["qbf", "transform-1122", "--in", "yes.qdimacs", "--out", "t.qdimacs"], ["t.qdimacs"]),
    (["qbf", "transform-2222", "--in", "no.qdimacs"], []),
    (["nae", "solve", "--in", "nae.cnf"], []),
    (["nae", "graph", "--in", "nae.cnf"], []),
    (["nae", "check", "--in", "nae.cnf", "--assignment", "nae.v"], []),
    (["mine", "--vars", "9", "--clauses", "12", "--seed", "1", "--iters", "40",
      "--out", "best.cnf", "--trace", "trace.json"], ["best.cnf", "trace.json"]),
    *[(["gadget", "S", "--ports", "1", "2", "3", "--format", fmt], [])
      for fmt in ("dimacs", "list", "json")],
    (["gadget", "frakMbar", "--ports", *map(str, range(1, 10))], []),
    (["gadget", "S", "--ports", "1", "2"], []),
    (["gadget", "Q3", "--ports", "1"], []),
    (["gadget", "Menf", "--ports", "1", "1", "2"], []),
    (["gadget", "nosuch"], []),
    *[(["solve", "--format", "auto", "--in", path], [])
      for path in ("sat22.list", "sat22.json", "sat22.cnf")],
    (["rup-check", "--in", "y.cnf", "--proof", "three.cnf"], []),
    (["qbf", "check", "--in", "three.cnf"], []),
    (["nae", "check", "--in", "nae.cnf"], []),
    (["mine", "--vars", "9", "--clauses", "13"], []),
]

CLI_DIGEST = "2290a5b216e8f6ae72bb34f2b346da9c3bcfda51306c6b8bbac5854595b9a9ba"


def test_cli_output_digest(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, text in _cli_inputs().items():
        (tmp_path / name).write_text(text)
    rows = []
    for argv, written in CLI_RUNS:
        code = main(argv)
        captured = capsys.readouterr()
        if argv[:2] == ["nae", "solve"]:  # the assignment that nae check reads
            (tmp_path / "nae.v").write_text(captured.out)
        rows.append((argv, code, captured.out, captured.err,
                     [(tmp_path / path).read_bytes() for path in written]))
    assert _digest(rows) == CLI_DIGEST


# -- the CDCL search: every decision shows in conflicts, models and proofs -------

def _solve_row(res):
    return (res.status.value, res.conflicts,
            None if res.model is None else sorted(res.model.items()),
            None if res.proof is None else res.proof.lines())


def _solver_rows(monkeypatch):
    """Every ``Solver.solve`` answer of: the golden refutations (traced), one
    solve per reduction output of both corpora, the S, Sbar and frakM truth
    tables under assumptions on one solver each, a capped solve-and-block
    count, and U with activity rescales every few conflicts."""
    rows = []
    plain_solve = solver_module.Solver.solve

    def recorded(self, assumptions=()):
        res = plain_solve(self, assumptions)
        rows.append(_solve_row(res))
        return res

    monkeypatch.setattr(solver_module.Solver, "solve", recorded)
    for g in (gadgets.build_U(), gadgets.build_M(), gadgets.build_y_core(), gadgets.build_z_core()):
        solver_module.solve(g, trace=True)
    for f in corpus.star22_corpus():
        solver_module.solve(reduce_star22_to_mono22(f).formula)
    for f in corpus.sat22_corpus():
        solver_module.solve(reduce_3sat22_to_mono22(f).formula)
    frak = [(1, -2, -3), (4, -5, -6), (7, -8, -9)]
    for build, ports in ((gadgets.build_S, (1, 2, 3)), (gadgets.build_Sbar, (1, 2, 3)),
                         (lambda alloc, *_: gadgets.build_frakM(alloc, frak), tuple(range(1, 10)))):
        s = solver_module.Solver(build(gadgets.FreshVarAllocator(len(ports) + 1), *ports).formula)
        for bits in itertools.product((False, True), repeat=len(ports)):
            s.solve([v if b else -v for v, b in zip(ports, bits)])
    count = count_models(random_3sat22(24, 3), 40)
    rows.append((count.count, count.capped))
    monkeypatch.setattr(solver_module, "_ACT_RESCALE", 1e3)
    solver_module.solve(gadgets.build_U(), trace=True)
    return rows


# pinned before the heap kept one live entry per variable: 614 answers with
# 12827 conflicts between them, and the capped count
SOLVER_DIGEST = "7339d5648980875496c4ceea9deafb58053ae4dbad5f5ef03de06c09b7e9e24f"


def test_solver_search_digest(monkeypatch):
    rows = _solver_rows(monkeypatch)
    assert (len(rows), sum(row[1] for row in rows if len(row) == 4)) == (615, 12827)
    assert _digest(rows) == SOLVER_DIGEST
