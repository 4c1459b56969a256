"""Dense truth-table kernels for small-universe enumeration.

Assignment index convention: bit ``v - 1`` of the index is the value of
variable ``v``, so index 0 is the all-false assignment.

The kernels are bitsliced (Biham, FSE 1997) on Python ints: one int holds a
chunk of ``2 ** min(n_vars, 16)`` assignments, bit ``b`` of chunk ``c`` being
index ``(c << 16) + b``.  Variables 1-16 are column masks, the same in every
chunk (``0b...1010`` for variable 1, ``0b...1100`` for 2, ...), built by
doubling.  A variable above 16 is constant within a chunk: bit ``v - 17`` of
the chunk number.  So a clause reduces to the OR of its low literals' masks,
needed only in the chunks where all its high literals are false, and the
formula is the AND of those masks; a clause is not-all-equal when both it
and its negation hold.  Chunks run in ascending order, and a chunk stops at
its first all-zero AND.
"""

from __future__ import annotations

from itertools import accumulate, count
from operator import add

_CHUNK_VARS = 16


def clause_arrays(clauses) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """The kernels' packing of ``clauses``: their literals, and their widths.

    The kernels read only the literals; the widths keep the
    ``(lits, widths, n_vars, ...)`` call shape of packed-matrix kernels.
    """
    lits = tuple(tuple(c) for c in clauses)
    return lits, tuple(len(c) for c in lits)


def _chunks(lits, n_vars: int, nae: bool):
    """Yield ``(start, word)`` per chunk of assignments, in ascending order.

    Bit ``b`` of ``word`` is set when assignment ``start + b`` satisfies every
    clause: some literal true, and with ``nae`` also some literal false, that
    is, the negated clause satisfied too.
    """
    k = min(n_vars, _CHUNK_VARS)
    full = (1 << (1 << k)) - 1
    cols = []
    for i in range(k):
        width = 1 << i
        cols = [c | c << width for c in cols]
        cols.append(((1 << width) - 1) << width)
    # Each row is (its high variables, their values in the chunks where all
    # its high literals are false, its low mask).  A row with a high
    # variable in both signs always holds.
    base, rows = full, []
    for c in lits:
        for sign in (1, -1) if nae else (1,):
            pos = neg = low = 0
            for l in c:
                l *= sign
                v = abs(l)
                if v <= _CHUNK_VARS:
                    low |= cols[v - 1] if l > 0 else full ^ cols[v - 1]
                elif l > 0:
                    pos |= 1 << (v - _CHUNK_VARS - 1)
                else:
                    neg |= 1 << (v - _CHUNK_VARS - 1)
            if pos & neg:
                continue
            if pos | neg:
                rows.append((pos | neg, neg, low))
            else:
                base &= low
    for chunk in range(1 << max(n_vars - _CHUNK_VARS, 0)):
        word = base
        for high, want, low in rows:
            if not word:
                break
            if chunk & high == want:
                word &= low
        yield chunk << _CHUNK_VARS, word


def active_backend() -> str:
    """Name of the kernel implementation, for benchmark metadata."""
    return "python-int"


def count_sat(lits, widths, n_vars: int, limit: int) -> int:
    """Number of satisfying assignments, or ``limit`` once it is reached."""
    total = 0
    for _, word in _chunks(lits, n_vars, nae=False):
        total += word.bit_count()
        if total >= limit:
            return limit
    return total


def collect_sat(lits, widths, n_vars: int, cap: int) -> list[int]:
    """Ascending indices of satisfying assignments, at most ``cap`` of them."""
    out: list[int] = []
    if cap > 0:
        for start, word in _chunks(lits, n_vars, nae=False):
            # Split the bits, lowest first, at each set bit: set bit i
            # (from 0) lies at i plus the zeros below it, summed in C.
            gaps = bin(word)[:1:-1].split("1", cap - len(out))
            gaps.pop()
            out += map(add, accumulate(map(len, gaps)), count(start))
            if len(out) == cap:
                break
    return out


def first_nae(lits, widths, n_vars: int) -> int:
    """First assignment index with a true and a false literal in every clause."""
    for start, word in _chunks(lits, n_vars, nae=True):
        if word:
            return start + (word & -word).bit_length() - 1
    return -1
