"""Byte-level pins of the transformation outputs and of the CLI's
validation messages.

Each digest covers everything a transformation returns: the clauses and
``n_vars`` of the formula, the quantifier blocks, and, for the reductions,
the per-clause provenance and the stats.  Any change to clause order,
fresh-variable numbering or provenance changes a digest.
"""

import hashlib

import pytest

import corpus
from monoforge.cli import main
from monoforge.qbf import monotonize, transform_1122, transform_2222, triple_copy
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
