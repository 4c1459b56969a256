import json

import pytest
from hypothesis import given, settings, strategies as st

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
from monoforge.qbf import read_qdimacs
from monoforge.rup import RupParseError, parse_rup


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


# text shaped like the formats, so that drawn inputs get past the first
# checks: well-formed clause and quantifier lines over three variables, and
# lines with any prefix, zeros, bad tokens or no terminator
_LINE = st.one_of(
    st.tuples(st.sampled_from(("", "", "a ", "e ")),
              st.lists(st.sampled_from(("1", "-1", "2", "-2", "3", "-3")), min_size=1, max_size=3))
    .map(lambda t: t[0] + " ".join(t[1]) + " 0"),
    st.tuples(st.sampled_from(("", "a ", "e ", "c ", "d ", "p ")),
              st.lists(st.sampled_from(("1", "-1", "4", "0", "x")), max_size=4),
              st.sampled_from((" 0", "")))
    .map(lambda t: t[0] + " ".join(t[1]) + t[2]),
)


def _with_header(n: int, m: int | None, lines: list[str]) -> str:
    """The lines under a ``p cnf n m`` header; ``m`` None counts the
    0-terminated lines that are not quantifier lines."""
    if m is None:
        m = sum(1 for ln in lines if ln.endswith("0") and not ln.startswith(("a ", "e ")))
    return "\n".join([f"p cnf {n} {m}", *lines])


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                              max_size=3),
    max_leaves=8,
)
# objects shaped like the JSON mirror, each field right or of a wrong kind
_JSON_MIRROR = st.fixed_dictionaries(
    {"n_vars": st.sampled_from((1, 2, 2, 3, 3, 3, 3, -1, True, "2")),
     "clauses": st.lists(st.lists(st.sampled_from((1, -1, 2, -2, 3, -3, 1, 2, 4, 0, True, "1")),
                                  max_size=3), max_size=3)
     | st.sampled_from((5, "x", [1], None))},
    optional={"symbols": st.dictionaries(st.sampled_from(("1", "2", "0", "x", "\uff15")),
                                         st.sampled_from(("a", 1, None)), max_size=2)
              | st.sampled_from(([1], "x", None)),
              "allows_duplicate_literals": st.booleans() | st.sampled_from(("no", 0, None))},
)

_LINES_TEXT = st.one_of(
    st.builds(_with_header, st.sampled_from((-1, 0, 2, 3, 3)),
              st.one_of(st.none(), st.integers(-1, 4)), st.lists(_LINE, max_size=5)),
    st.lists(_LINE, max_size=5).map("\n".join),  # proofs have no header
)
_JSON_TEXT = st.one_of(_JSON, _JSON_MIRROR).map(json.dumps)

# each reader and the one error it may raise on malformed text; any other
# exception is a traceback for the CLI user
_READERS = [
    (read_dimacs, ParseError),
    (read_clause_list, ParseError),
    (formula_from_json, ParseError),
    (read_qdimacs, ParseError),
    (parse_rup, RupParseError),
]


def _read_all(text):
    for reader, error in _READERS:
        try:
            reader(text)
        except error:
            pass


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(text=st.text())
def test_readers_raise_only_their_parse_error(text):
    _read_all(text)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(text=_LINES_TEXT)
def test_readers_raise_only_their_parse_error_on_line_formats(text):
    _read_all(text)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(text=_JSON_TEXT)
def test_readers_raise_only_their_parse_error_on_json(text):
    _read_all(text)
