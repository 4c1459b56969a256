import pytest

from monoforge import refdata
from monoforge.fileio import (
    ParseError,
    formula_from_json,
    formula_to_json,
    read_clause_list,
    read_dimacs,
    write_clause_list,
    write_dimacs,
)
from monoforge.formula import cnf
from monoforge.gadgets import build_M, build_U, build_core8


def test_read_dimacs_basic():
    f = read_dimacs("p cnf 2 1\n1 -2 0\n")
    assert f.n_vars == 2
    assert f.clauses == ((1, -2),)


def test_read_dimacs_comments_and_multiline_clauses():
    f = read_dimacs("c a comment\np cnf 3 2\n1 2\n3 0 -1\n-2 -3 0\n")
    assert f.m == 2
    assert f.clauses[0] == (1, 2, 3)


def test_dimacs_roundtrip_golden():
    for g in (build_M(), build_U(), build_core8()):
        text = write_dimacs(g)
        again = read_dimacs(text)
        assert again.clauses == g.clauses
        assert again.n_vars == g.n_vars
        assert write_dimacs(again) == text


def test_read_dimacs_errors():
    with pytest.raises(ParseError, match="out of range"):
        read_dimacs("p cnf 1 1\n2 0\n")
    with pytest.raises(ParseError, match="terminator"):
        read_dimacs("p cnf 2 1\n1 -2\n")
    with pytest.raises(ParseError, match="header"):
        read_dimacs("1 -2 0\n")
    with pytest.raises(ParseError, match="header"):
        read_dimacs("p cnf x 1\n1 0\n")
    with pytest.raises(ParseError, match="declares"):
        read_dimacs("p cnf 2 2\n1 -2 0\n")


def test_read_clause_list_basic():
    f = read_clause_list("[[1, 2], [-2, -3]]")
    assert f.n_vars == 3
    assert f.clauses == ((1, 2), (-2, -3))


def test_clause_list_golden_roundtrip():
    m = read_clause_list(refdata.M_LIST_TEXT)
    assert m.m == 42 and m.n_vars == 32
    assert write_clause_list(m) == refdata.M_LIST_TEXT
    u = read_clause_list(refdata.U_LIST_TEXT)
    assert u.m == 264 and u.n_vars == 198
    assert write_clause_list(u) == refdata.U_LIST_TEXT


def test_read_clause_list_errors():
    with pytest.raises(ParseError):
        read_clause_list("[[1, oops]]")
    with pytest.raises(ParseError, match="zero"):
        read_clause_list("[[1, 0]]")
    with pytest.raises(ParseError, match="non-integer"):
        read_clause_list("[[1.5, 2]]")
    with pytest.raises(ParseError, match="non-integer"):
        read_clause_list("[[true, 2]]")
    with pytest.raises(ParseError):
        read_clause_list("{}")


def test_clause_list_detects_dialect():
    f = read_clause_list("[[1, 1, 2]]")
    assert f.allows_duplicate_literals


def test_json_mirror_roundtrip():
    f = cnf([[1, -2], [2, 3]], n_vars=4, symbol_table={1: "a", 2: "b"})
    text = formula_to_json(f)
    g = formula_from_json(text)
    assert g.clauses == f.clauses
    assert g.n_vars == 4
    assert g.symbol_table == {1: "a", 2: "b"}
    c8 = build_core8()
    again = formula_from_json(formula_to_json(c8))
    assert again.allows_duplicate_literals
    assert again.clauses == c8.clauses


def test_json_mirror_errors():
    with pytest.raises(ParseError):
        formula_from_json("[1, 2]")
    with pytest.raises(ParseError):
        formula_from_json('{"n_vars": 2, "clauses": [[0]]}')


@pytest.mark.parametrize("text, message", [
    ('{"n_vars": 2, "clauses": [[1, 5]]}', "literal 5 out of range 1..2"),
    ('{"n_vars": 2, "clauses": [[1, 1]], "allows_duplicate_literals": false}', "repeats a variable"),
    ('{"n_vars": 2, "clauses": [[1]], "symbols": [1]}', "symbols must be an object"),
    ('{"n_vars": 2, "clauses": 5}', "clauses must be a list"),
    ('{"n_vars": 2, "clauses": [[1], 2]}', "clause 1 is not a list"),
    ('{"n_vars": 2, "clauses": [[1, "2"]]}', "clause 0: non-integer token '2'"),
    ('{"n_vars": 2, "clauses": [[1, true]]}', "clause 0: non-integer token True"),
    ('{"n_vars": 2, "clauses": [[1], [0]]}', "clause 1: zero literal"),
    ('{"n_vars": 2, "clauses": [[1]], "symbols": {"x": "a"}}', "symbol key 'x'"),
    ('{"n_vars": 2, "clauses": [[1]], "symbols": {"3": "a"}}', "symbol key '3'"),
    ('{"n_vars": true, "clauses": [[1]]}', "n_vars"),
    ('{"n_vars": 2, "clauses": [[1]], "allows_duplicate_literals": "no"}', "true or false"),
])
def test_json_mirror_rejects_malformed_fields(text, message):
    with pytest.raises(ParseError, match=message):
        formula_from_json(text)
