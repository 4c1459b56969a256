"""CNF interchange formats: DIMACS (with the QDIMACS quantifier prefix),
bracketed signed-integer lists, JSON.

The list format is the nested ``[[1, 2], [-2, -3]]`` form used by the
machine-readable gadget listings; it doubles as valid JSON.
"""

from __future__ import annotations

import json

from .formula import CnfFormula, FormulaError, canonical_clause, clause_has_distinct_vars


class ParseError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _needs_dup_flag(clauses) -> bool:
    return any(not clause_has_distinct_vars(c) for c in clauses)


def parse_dimacs(text: str, prefix: list | None = None) -> tuple[int, list[tuple[int, ...]]]:
    """Header and 0-terminated clauses of DIMACS text: (n_vars, clauses).

    With ``prefix``, the text is QDIMACS: a line whose first token is 'a' or
    'e' is a quantifier line, appended to ``prefix`` as (kind, variables).
    It must come after the header and before any clause, end in 0 and name
    variables in 1..n_vars, and no 'a' line may follow an 'e' line.
    """
    n_vars = None
    n_clauses = None
    clauses: list[tuple[int, ...]] = []
    pending: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        toks = line.split()
        if line.startswith("p"):
            if n_vars is not None:
                raise ParseError("duplicate header", lineno)
            # both counts are plain ASCII digits: int() alone also takes
            # '1_0', '+3' and non-ASCII digits
            if (len(toks) != 4 or toks[0] != "p" or toks[1] != "cnf"
                    or not all(t.isascii() and t.isdigit() for t in toks[2:])):
                raise ParseError(f"malformed header {line!r}", lineno)
            n_vars, n_clauses = int(toks[2]), int(toks[3])
            continue
        if prefix is not None and toks[0] in ("a", "e"):
            if n_vars is None:
                raise ParseError("quantifier line before header", lineno)
            if clauses or pending:
                raise ParseError("quantifier line after clauses", lineno)
            if toks[-1] != "0":
                raise ParseError("quantifier line missing 0 terminator", lineno)
            if not all(t.isascii() and t.removeprefix("-").isdigit() for t in toks[1:-1]):
                raise ParseError(f"invalid variable in quantifier line {line!r}", lineno)
            ids = [int(t) for t in toks[1:-1]]
            if not all(0 < i <= n_vars for i in ids):
                raise ParseError("quantified variable out of range", lineno)
            # no 'a' line follows an 'e' line, so the last kind tells if one was seen
            if toks[0] == "a" and prefix and prefix[-1][0] == "e":
                raise ParseError("universal block after existential block", lineno)
            prefix.append((toks[0], ids))
            continue
        if n_vars is None:
            raise ParseError(f"clause before header: {line!r}", lineno)
        for tok in toks:
            if not (tok.isascii() and tok.removeprefix("-").isdigit()):
                raise ParseError(f"invalid literal token {tok!r}", lineno)
            lit = int(tok)
            if lit == 0:
                clauses.append(canonical_clause(pending))
                pending = []
            else:
                if abs(lit) > n_vars:
                    raise ParseError(f"literal {lit} out of range 1..{n_vars}", lineno)
                pending.append(lit)
    if n_vars is None:
        raise ParseError("missing 'p cnf' header")
    if pending:
        raise ParseError("missing 0 terminator for the last clause")
    if len(clauses) != n_clauses:
        raise ParseError(
            f"header declares {n_clauses} clauses but {len(clauses)} were read"
        )
    return n_vars, clauses


def read_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS CNF: 'p cnf <vars> <clauses>' then 0-terminated clauses.

    Clauses may span lines.  The duplicate-literal dialect flag is set
    automatically when some clause repeats a variable.
    """
    n_vars, clauses = parse_dimacs(text)
    return CnfFormula(n_vars, tuple(clauses), _needs_dup_flag(clauses))


def write_dimacs(f: CnfFormula) -> str:
    lines = [f"p cnf {f.n_vars} {f.m}"]
    for c in f.clauses:
        lines.append(" ".join(str(l) for l in c) + " 0")
    return "\n".join(lines) + "\n"


def _json_clauses(data: list) -> list[tuple[int, ...]]:
    """Canonical clauses from decoded JSON: each a list of nonzero integers."""
    clauses = []
    for j, c in enumerate(data):
        if not isinstance(c, list):
            raise ParseError(f"clause {j} is not a list")
        for l in c:
            if not isinstance(l, int) or isinstance(l, bool):
                raise ParseError(f"clause {j}: non-integer token {l!r}")
            if l == 0:
                raise ParseError(f"clause {j}: zero literal")
        clauses.append(canonical_clause(c))
    return clauses


def read_clause_list(text: str) -> CnfFormula:
    """Parse a bracketed list of signed-integer clauses, e.g. [[1, 2], [-2, -3]]."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"not a well-formed clause list: {e}") from None
    if not isinstance(data, list):
        raise ParseError("expected a list of clauses")
    clauses = _json_clauses(data)
    n_vars = max((abs(l) for c in clauses for l in c), default=0)
    return CnfFormula(n_vars, tuple(clauses), _needs_dup_flag(clauses))


def write_clause_list(f: CnfFormula) -> str:
    return json.dumps([list(c) for c in f.clauses])


def formula_to_json(f: CnfFormula) -> str:
    obj: dict = {
        "n_vars": f.n_vars,
        "clauses": [list(c) for c in f.clauses],
        "allows_duplicate_literals": f.allows_duplicate_literals,
    }
    if f.symbol_table:
        obj["symbols"] = {str(v): s for v, s in f.symbol_table.items()}
    return json.dumps(obj, indent=None)


def formula_from_json(text: str) -> CnfFormula:
    """Parse the JSON mirror written by :func:`formula_to_json`.

    Every malformed input raises :class:`ParseError`.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"not well-formed JSON: {e}") from None
    if not isinstance(obj, dict) or "n_vars" not in obj or "clauses" not in obj:
        raise ParseError("expected an object with n_vars and clauses")
    n_vars = obj["n_vars"]
    if not isinstance(n_vars, int) or isinstance(n_vars, bool) or n_vars < 0:
        raise ParseError("n_vars must be a non-negative integer")
    if not isinstance(obj["clauses"], list):
        raise ParseError("clauses must be a list")
    clauses = _json_clauses(obj["clauses"])
    symbols = None
    if obj.get("symbols") is not None:
        if not isinstance(obj["symbols"], dict):
            raise ParseError("symbols must be an object")
        symbols = {}
        for v, name in obj["symbols"].items():
            # exactly the str(v) that formula_to_json writes: no sign, no
            # leading zero, ASCII digits only
            if not (v.isascii() and v.isdigit() and v[0] != "0" and int(v) <= n_vars):
                raise ParseError(f"symbol key {v!r} is not a variable in 1..{n_vars}")
            if not isinstance(name, str):
                raise ParseError(f"symbol name for variable {v} is not a string: {name!r}")
            symbols[int(v)] = name
    dup = obj.get("allows_duplicate_literals", _needs_dup_flag(clauses))
    if not isinstance(dup, bool):
        raise ParseError("allows_duplicate_literals must be true or false")
    try:
        return CnfFormula(n_vars, tuple(clauses), dup, symbols)
    except FormulaError as e:
        raise ParseError(str(e)) from None
