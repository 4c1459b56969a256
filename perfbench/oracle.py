"""Reference answers that do not come from the code under test.

Everything here is written from the definitions: a CNF truth table built
with bitsliced uint64 columns (64 assignments per word), a forall-exists
brute force over explicit loops, and small structural validators.  Nothing
in this module imports monoforge, so a defect in a timed layer cannot hide
in its own check.

Assignment index convention, as in the rest of the project: bit ``v - 1`` of
the index is the value of variable ``v``.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

_LOW_PATTERNS = (
    0xAAAAAAAAAAAAAAAA,
    0xCCCCCCCCCCCCCCCC,
    0xF0F0F0F0F0F0F0F0,
    0xFF00FF00FF00FF00,
    0xFFFF0000FFFF0000,
    0xFFFFFFFF00000000,
)
_CHUNK_WORDS = 1 << 14  # 2^20 assignments per chunk
_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


class OracleError(AssertionError):
    """A reference computation disagrees with a golden fact."""


def _column(v: int, words: np.ndarray) -> np.ndarray:
    """uint64 words holding variable v's value for each covered assignment."""
    if v <= 6:
        return np.full(words.shape[0], _LOW_PATTERNS[v - 1], dtype=np.uint64)
    bit = (words >> np.uint64(v - 7)) & np.uint64(1)
    return np.where(bit == 1, _ONES, np.uint64(0))


def _literal(l: int, words: np.ndarray, cache: dict) -> np.ndarray:
    col = cache.get(abs(l))
    if col is None:
        col = cache[abs(l)] = _column(abs(l), words)
    return col if l > 0 else ~col


def _valid_mask(n_vars: int) -> np.uint64:
    return np.uint64((1 << (1 << n_vars)) - 1) if n_vars < 6 else _ONES


def _chunks(n_vars: int):
    n_words = max(1, (1 << n_vars) >> 6)
    for start in range(0, n_words, _CHUNK_WORDS):
        yield np.arange(start, min(start + _CHUNK_WORDS, n_words), dtype=np.uint64)


def _sat_words(clauses, n_vars: int, words: np.ndarray) -> np.ndarray:
    cache: dict = {}
    acc = np.full(words.shape[0], _valid_mask(n_vars), dtype=np.uint64)
    for c in clauses:
        cl = np.zeros(words.shape[0], dtype=np.uint64)
        for l in c:
            cl |= _literal(l, words, cache)
        acc &= cl
    return acc


def _nae_words(clauses, n_vars: int, words: np.ndarray) -> np.ndarray:
    cache: dict = {}
    acc = np.full(words.shape[0], _valid_mask(n_vars), dtype=np.uint64)
    for c in clauses:
        some_true = np.zeros(words.shape[0], dtype=np.uint64)
        some_false = np.zeros(words.shape[0], dtype=np.uint64)
        for l in c:
            lit = _literal(l, words, cache)
            some_true |= lit
            some_false |= ~lit
        acc &= some_true & some_false
    return acc


def _popcount(words: np.ndarray) -> int:
    return int(np.unpackbits(words.view(np.uint8)).sum())


def _set_indices(words: np.ndarray, first_word: int) -> np.ndarray:
    bits = np.unpackbits(words.view(np.uint8), bitorder="little")
    return np.nonzero(bits)[0].astype(np.int64) + (first_word << 6)


def count_models(clauses, n_vars: int) -> int:
    """Exact number of satisfying assignments over variables 1..n_vars."""
    return sum(_popcount(_sat_words(clauses, n_vars, w)) for w in _chunks(n_vars))


def first_models(clauses, n_vars: int, k: int) -> list[int]:
    """The k smallest satisfying assignment indices (fewer if there are fewer).

    Scans the table in chunks and stops once k are found, so a capped count
    above any dense limit reads only a short prefix of the table.
    """
    out: list[int] = []
    for w in _chunks(n_vars):
        hits = _set_indices(_sat_words(clauses, n_vars, w), int(w[0]))
        out.extend(int(i) for i in hits[: k - len(out)])
        if len(out) >= k:
            break
    return out


def first_nae(clauses, n_vars: int) -> int:
    """Smallest index with a true and a false literal in every clause, or -1."""
    for w in _chunks(n_vars):
        hits = _set_indices(_nae_words(clauses, n_vars, w), int(w[0]))
        if hits.shape[0]:
            return int(hits[0])
    return -1


def assignment(index: int, n_vars: int) -> dict[int, bool]:
    return {v: bool((index >> (v - 1)) & 1) for v in range(1, n_vars + 1)}


def satisfies(clauses, a) -> bool:
    return all(any(a[abs(l)] == (l > 0) for l in c) for c in clauses)


def nae_satisfies(clauses, a) -> bool:
    for c in clauses:
        values = {a[abs(l)] == (l > 0) for l in c}
        if len(values) != 2:
            return False
    return True


def _exists_extension(clauses, fixed: dict[int, bool], free: list[int]) -> bool:
    """Some assignment of ``free`` satisfies ``clauses`` together with ``fixed``."""
    residue = []
    for c in clauses:
        if any(abs(l) in fixed and fixed[abs(l)] == (l > 0) for l in c):
            continue
        rest = tuple(l for l in c if abs(l) not in fixed)
        if not rest:
            return False
        residue.append(rest)
    index = {v: i + 1 for i, v in enumerate(free)}
    local = [tuple(index[abs(l)] if l > 0 else -index[abs(l)] for l in c) for c in residue]
    return bool(first_models(local, len(free), 1))


def qbf_first_counterexample(universals, existentials, clauses):
    """Brute-force forall-exists truth.

    Returns None for a true formula, else the lexicographically first
    failing universal assignment (declared order, false before true).
    """
    for bits in itertools.product((False, True), repeat=len(universals)):
        alpha = dict(zip(universals, bits))
        if not _exists_extension(clauses, alpha, list(existentials)):
            return alpha
    return None


def is_counterexample(universals, existentials, clauses, alpha) -> bool:
    fixed = {u: alpha[u] for u in universals}
    return not _exists_extension(clauses, fixed, list(existentials))


# -- structure -----------------------------------------------------------------

def occurrences(clauses) -> dict[int, tuple[int, int]]:
    pos: dict[int, int] = {}
    neg: dict[int, int] = {}
    for c in clauses:
        for l in c:
            d = pos if l > 0 else neg
            d[abs(l)] = d.get(abs(l), 0) + 1
    return {v: (pos.get(v, 0), neg.get(v, 0)) for v in set(pos) | set(neg)}


def _shape_problem(clauses) -> str | None:
    for j, c in enumerate(clauses):
        if len(c) != 3 or len({abs(l) for l in c}) != 3:
            return f"clause {j} is not a 3-clause over distinct variables: {c}"
        if not (all(l > 0 for l in c) or all(l < 0 for l in c)):
            return f"clause {j} is mixed: {c}"
    return None


def mono22_problem(clauses, n_vars: int) -> str | None:
    """Why a formula is not monotone (2,2) 3-SAT, or None when it is."""
    bad = _shape_problem(clauses)
    if bad:
        return bad
    if len(set(map(tuple, clauses))) != len(clauses):
        return "repeated clause"
    occ = occurrences(clauses)
    for v in range(1, n_vars + 1):
        if occ.get(v, (0, 0)) != (2, 2):
            return f"variable {v} appears {occ.get(v, (0, 0))}, expected (2, 2)"
    return None


def balanced_mono_qbf_problem(universals, existentials, clauses, s: int) -> str | None:
    """Why a two-level formula misses the monotone (s,s,2,2) balanced class."""
    bad = _shape_problem(clauses)
    if bad:
        return bad
    if len(universals) != len(existentials):
        return f"{len(universals)} universals vs {len(existentials)} existentials"
    occ = occurrences(clauses)
    for vs, want in ((universals, (s, s)), (existentials, (2, 2))):
        for v in vs:
            if occ.get(v, (0, 0)) != want:
                return f"variable {v} appears {occ.get(v, (0, 0))}, expected {want}"
    return None


def parse_listing(text: str) -> list[tuple[int, ...]]:
    """The bracketed clause-list format is a JSON array of integer arrays."""
    return [tuple(c) for c in json.loads(text)]


def parse_dimacs(text: str) -> tuple[int, list[tuple[int, ...]]]:
    n_vars = None
    clauses: list[tuple[int, ...]] = []
    pending: list[int] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            n_vars = int(line.split()[2])
            continue
        for tok in line.split():
            lit = int(tok)
            if lit == 0:
                clauses.append(tuple(pending))
                pending = []
            else:
                pending.append(lit)
    if n_vars is None or pending:
        raise ValueError("malformed DIMACS text")
    return n_vars, clauses


def self_check(core8, y_core, z_core, u_nae) -> None:
    """The oracle against facts that are known independently of it.

    Small hand-checkable cases first, then the golden ones: the eight-clause
    core and the two mined cores have no model, and the seven-clause
    all-positive instance has no not-all-equal model.
    """
    facts = [
        (count_models([], 3), 8),
        (count_models([(1,)], 3), 4),
        (count_models([(1, 2), (-1, -2)], 2), 2),
        (count_models([(1, 2, 3)], 7), 112),
        (first_models([(1, 2), (-1, -2)], 2, 5), [1, 2]),
        (first_models([(-7,)], 8, 3), [0, 1, 2]),
        (first_nae([(1, 2, 3)], 3), 1),
        (qbf_first_counterexample([1], [2], [(1, 2), (-1, -2)]), None),
        (qbf_first_counterexample([1], [2], [(1, 2), (1, -2)]), {1: False}),
        (count_models(core8.clauses, core8.n_vars), 0),
        (count_models(y_core.clauses, y_core.n_vars), 0),
        (count_models(z_core.clauses, z_core.n_vars), 0),
        (first_nae(u_nae.clauses, u_nae.n_vars), -1),
    ]
    for i, (got, want) in enumerate(facts):
        if got != want:
            raise OracleError(f"oracle self-check {i}: got {got!r}, expected {want!r}")
