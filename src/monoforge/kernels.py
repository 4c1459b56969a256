"""Dense truth-table kernels for small-universe enumeration.

Assignment index convention: bit ``v - 1`` of the index is the value of
variable ``v``, so index 0 is the all-false assignment.

The kernels are bitsliced (Biham, FSE 1997): one uint64 word holds 64
assignments, bit ``b`` of word ``w`` being index ``64 * w + b``.  Variables
1-6 are then the same mask in every word (``0xAAAA...`` for variable 1,
``0xCCCC...`` for 2, ...), and variable ``v >= 7`` is an all-ones or
all-zero word, bit ``v - 7`` of the word number.  A clause is the OR of its
literal words and the formula the AND of its clauses, so each word operation
decides 64 assignments; a clause is not-all-equal when both it and its
negation hold.  Words are evaluated in blocks of ``_BLOCK_WORDS`` (65536
assignments), and bits past ``2 ** n_vars`` are cleared.
"""

from __future__ import annotations

import numpy as np

_BLOCK_WORDS = 1 << 10
_ONES = np.uint64(0xFFFF_FFFF_FFFF_FFFF)
_LANES = np.array(
    [0xAAAA_AAAA_AAAA_AAAA, 0xCCCC_CCCC_CCCC_CCCC, 0xF0F0_F0F0_F0F0_F0F0,
     0xFF00_FF00_FF00_FF00, 0xFFFF_0000_FFFF_0000, 0xFFFF_FFFF_0000_0000],
    dtype=np.uint64,
)


def clause_arrays(clauses) -> tuple[np.ndarray, np.ndarray]:
    """Pack clauses into a zero-padded literal matrix plus a width vector."""
    m = len(clauses)
    w = max((len(c) for c in clauses), default=1)
    w = max(w, 1)
    lits = np.zeros((m, w), dtype=np.int64)
    widths = np.zeros(m, dtype=np.int64)
    for j, c in enumerate(clauses):
        widths[j] = len(c)
        for k, l in enumerate(c):
            lits[j, k] = l
    return lits, widths


def _blocks(lits, widths, n_vars: int, nae: bool):
    """Yield ``(start, words)`` per block of assignments, in ascending order.

    Bit ``b`` of ``words[w]`` is set when assignment ``start + 64 * w + b``
    satisfies every clause: some literal true, and with ``nae`` also some
    literal false, that is, the negated clause satisfied too.
    """
    # Padding repeats a clause's first literal, which leaves its OR unchanged;
    # an empty clause reads row 0 of the table, which is all-zero.
    pad = np.arange(lits.shape[1]) >= widths[:, None]
    lits = np.where(pad, lits[:, :1], lits)
    var = np.abs(lits).T
    flips = [np.where(lits < 0, _ONES, np.uint64(0)).T[:, :, None]]
    if nae:
        flips.append(~flips[0])
    high = np.arange(max(n_vars - 6, 0), dtype=np.uint64)[:, None]
    n_words = 1 << max(n_vars - 6, 0)
    for w0 in range(0, n_words, _BLOCK_WORDS):
        words = np.arange(w0, min(w0 + _BLOCK_WORDS, n_words), dtype=np.uint64)
        table = np.zeros((n_vars + 1, words.shape[0]), dtype=np.uint64)
        table[1:7] = _LANES[:n_vars, None]
        table[7:] = ((words >> high) & 1) * _ONES
        ok = np.full(words.shape[0], _ONES)
        for flip in flips:
            some_true = table[var[0]] ^ flip[0]
            for k in range(1, var.shape[0]):
                some_true |= table[var[k]] ^ flip[k]
            ok &= np.bitwise_and.reduce(some_true, axis=0)
        if n_vars < 6:
            ok &= np.uint64((1 << (1 << n_vars)) - 1)
        yield 64 * w0, ok


def active_backend() -> str:
    """Name of the kernel implementation, for benchmark metadata."""
    return "numpy"


def count_sat(lits, widths, n_vars: int, limit: int) -> int:
    """Number of satisfying assignments, or ``limit`` once it is reached."""
    total = 0
    for _, ok in _blocks(lits, widths, n_vars, nae=False):
        total += int(np.bitwise_count(ok).sum())
        if total >= limit:
            return limit
    return total


def collect_sat(lits, widths, n_vars: int, cap: int) -> np.ndarray:
    """Ascending indices of satisfying assignments, at most ``cap`` of them."""
    out: list[np.ndarray] = []
    found = 0
    if cap > 0:
        for start, ok in _blocks(lits, widths, n_vars, nae=False):
            bits = np.unpackbits(ok.astype("<u8", copy=False).view(np.uint8), bitorder="little")
            out.append(np.flatnonzero(bits)[: cap - found] + start)
            found += out[-1].shape[0]
            if found >= cap:
                break
    return np.concatenate(out) if out else np.empty(0, np.int64)


def first_nae(lits, widths, n_vars: int) -> int:
    """First assignment index with a true and a false literal in every clause."""
    for start, ok in _blocks(lits, widths, n_vars, nae=True):
        nonzero = np.flatnonzero(ok)
        if nonzero.shape[0]:
            w = int(nonzero[0])
            word = int(ok[w])
            return start + 64 * w + (word & -word).bit_length() - 1
    return -1
