"""Bounded DP elimination on a renumbered part: universals 1..k, existentials k+1..n.

Each part loses its existentials to DP resolution (the "resolve" half of
Quantor: Biere, "Resolve and Expand", SAT 2004), highest local id first.
That is reverse declared order, so the gadget and padding existentials the
pipelines append go first.  Fixing the universals commutes with resolution
on an existential, so under every universal assignment the matrix stays
satisfiable exactly when it was, and neither the verdict nor the first
counterexample can move.  The elimination is bounded as in Eén & Biere,
"Effective preprocessing in SAT through variable and clause elimination"
(SAT 2005): a variable stays when a resolvent that no other one subsumes
would have more than ``MAX_RESOLVENT_WIDTH`` (9) literals, or when
eliminating it would add more than ``MAX_ADDED_CLAUSES`` (64) clauses.
Tautologies are dropped, a pure existential takes its clauses with it, and
a new resolvent is skipped when a live clause subsumes it and removes the
live clauses it subsumes.  An empty resolvent makes the part false under
every assignment, so its first counterexample is all-false.  On the
pipelines' outputs every existential goes, the 96-variable enforcers that
join the three copies of a formula included, and the walk is left with
clauses over the universals alone.

Elimination goes block by block, because a monotonized part is many copies
of one 96-variable enforcer on other ports.  Let ``need(x)`` be the highest
variable up to x of any clause that also has one above x.  For a base bound
L, every x >= L with ``need(x) <= L`` is a cut; the cuts split the
existentials above L into blocks, and no clause touches two blocks.  L is
the one in k..n with the least (L - k) + the size of the largest block, the
smallest on ties: on the pipelines' parts the tripled source's variables,
with one block per enforcer.  Each block is eliminated, top down, from the
clauses that touch it, once per process for all blocks whose clauses are
the same in matrix order with the ports numbered by first occurrence and
the block's own variables by offset: a bounded memo keyed by that numbered
block and both caps keeps the result.  So each enforcer shape that the
monotonized and padded formulas carry is eliminated once, whatever the
number of formulas decided.  The results, mapped back, join the other
clauses with the subsumption checks of a resolvent, and the base
existentials go last.
"""

from __future__ import annotations

import functools
from bisect import bisect_left
from collections.abc import Iterable, Sequence

# existential elimination keeps a variable whose resolvents would include
# one wider than MAX_RESOLVENT_WIDTH literals that no other one subsumes, or
# whose elimination would add more than MAX_ADDED_CLAUSES clauses to those
# it removes
MAX_RESOLVENT_WIDTH = 9
MAX_ADDED_CLAUSES = 64


def _resolvents(
    v: int, pos: set[frozenset[int]], neg: set[frozenset[int]]
) -> set[frozenset[int]] | None:
    """The distinct non-tautological resolvents on ``v``, or None when they
    outnumber the clauses they replace by more than ``MAX_ADDED_CLAUSES``
    (counted before subsumption, which bounds the work) or when one that no
    other resolvent subsumes is wider than ``MAX_RESOLVENT_WIDTH``."""
    limit = len(pos) + len(neg) + MAX_ADDED_CLAUSES
    rests = [b - {-v} for b in neg]
    out: set[frozenset[int]] = set()
    for a in pos:
        rest = a - {v}
        flipped = {-l for l in rest}
        for b in rests:
            if flipped.isdisjoint(b):
                out.add(rest | b)
        if len(out) > limit:
            return None
    # a wide resolvent that a narrower one subsumes would not be added
    for r in out:
        if len(r) > MAX_RESOLVENT_WIDTH and not any(s < r for s in out):
            return None
    return out


def eliminate(
    clauses: Iterable[tuple[int, ...]], k: int, n: int,
    resolved: Iterable[tuple[int, ...]] = (), top: int | None = None,
) -> list[tuple[int, ...]] | None:
    """DP resolution on the existentials k+1..``top`` (default n) of a
    renumbered part, highest first, skipping each variable that
    ``_resolvents`` refuses; None when an empty resolvent makes the matrix
    false under every universal assignment, else the canonical clauses left.
    The ``resolved`` clauses, non-empty with their literals in any order,
    join before the first step with the subsumption checks of a resolvent."""
    # occ[l] holds the live clauses with literal l; it has 2n + 1 entries,
    # so occ[-l] is entry 2n + 1 - l.  live keeps the live clauses in the
    # order they joined.
    occ: list[set[frozenset[int]]] = [set() for _ in range(2 * n + 1)]
    live: dict[frozenset[int], None] = {}

    def add(c: frozenset[int]) -> None:
        live[c] = None
        for l in c:
            occ[l].add(c)

    def remove(c: frozenset[int]) -> None:
        del live[c]
        for l in c:
            occ[l].discard(c)

    def admit(r: frozenset[int]) -> None:
        # skip a clause that a live one subsumes, else add it and remove the
        # live clauses it subsumes, which all hold each literal of r
        if any(c <= r for l in r for c in occ[l]):
            return
        for c in [c for c in occ[max(r, key=abs)] if r < c]:
            remove(c)
        add(r)

    for t in clauses:
        c = frozenset(t)
        if c not in live and not any(-l in c for l in c):
            add(c)
    for t in resolved:
        admit(frozenset(t))
    for v in range(n if top is None else top, k, -1):
        pos, neg = occ[v], occ[-v]
        resolvents = _resolvents(v, pos, neg) if pos and neg else set()
        if resolvents is None:
            continue
        for c in [*pos, *neg]:
            remove(c)
        # shortest first, so a resolvent subsumed by another is skipped
        # rather than added and removed
        for r in sorted(resolvents, key=len):
            if not r:
                return None
            admit(r)
    return [tuple(sorted(c, key=abs)) for c in live]


def block_cuts(clauses: Iterable[tuple[int, ...]], k: int, n: int) -> list[int]:
    """The base bound L of a renumbered part and its cuts above: [L, ..., n].

    ``need(x)`` is the highest variable up to x of a clause that also has one
    above x, so a clause spans x only through variables up to ``need(x)``.
    For a base bound L, every x >= L with ``need(x) <= L`` is a cut, and no
    clause has variables in two of the blocks (c, c'] between cuts.  L is
    the one in k..n with the least (L - k) + the largest block's size, the
    smallest on ties.
    """
    # reach[a]: the highest variable that follows a in some canonical clause;
    # index 0 is a sentinel that is never popped
    reach = list(range(n + 1))
    reach[0] = n + 1
    for c in clauses:
        a = abs(c[0])
        for l in c[1:]:
            b = abs(l)
            if b > reach[a]:
                reach[a] = b
            a = b
    # need[x] is the highest a <= x with reach[a] > x: a stack of candidates
    # that pops those that end at or before x
    need = [0] * (n + 1)
    stack = [0]
    for x in range(1, n + 1):
        if reach[x] > x:
            stack.append(x)
        while reach[stack[-1]] <= x:
            stack.pop()
        need[x] = stack[-1]
    # descending L: cut L joins at the bottom and the cuts x with
    # need(x) = L + 1 leave.  Leaving merges two blocks, so the largest block
    # only grows and one doubly linked list of cuts tracks it.
    leaving: list[list[int]] = [[] for _ in range(n + 1)]
    for x in range(k + 1, n + 1):
        leaving[need[x]].append(x)
    below, above = [0] * (n + 1), [0] * (n + 1)
    low, largest, best, base = n, 0, n - k, n
    for L in range(n - 1, k - 1, -1):
        above[L], below[low] = low, L
        largest = max(largest, low - L)
        low = L
        for x in leaving[L + 1]:
            b, a = below[x], above[x]
            above[b], below[a] = a, b
            largest = max(largest, a - b)
        if L - k + largest <= best:
            best, base = L - k + largest, L
    return [x for x in range(base, n + 1) if need[x] <= base]


# a part has a few distinct numbered blocks; the bound caps what a
# long-lived process keeps
@functools.lru_cache(maxsize=256)
def eliminated_block(
    key: tuple[int, int, tuple[tuple[int, ...], ...]], caps: tuple[int, int],
) -> tuple[tuple[int, ...], ...] | None:
    """``eliminate`` on a numbered block ``key`` = (port count, block size,
    clauses), the ports universal, memoized for the process.  ``caps`` is
    (``MAX_RESOLVENT_WIDTH``, ``MAX_ADDED_CLAUSES``) at the call: it only
    keys the memo, so a result under other caps is never reused."""
    out = eliminate(key[2], key[0], key[0] + key[1])
    return None if out is None else tuple(out)


def eliminate_blocks(
    clauses: Sequence[tuple[int, ...]], k: int, n: int,
) -> list[tuple[int, ...]] | None:
    """``eliminate`` on a renumbered part, block by block.

    Each block of ``block_cuts`` above the base bound is eliminated, top
    down, from the clauses that touch it, through ``eliminated_block``: the
    key is those clauses in matrix order with the ports (variables up to the
    bound) numbered by first occurrence and the block's own variables by
    offset.  The results, mapped back, join the other clauses with the
    subsumption checks of a resolvent, and the base existentials go last.
    """
    cuts = block_cuts(clauses, k, n)
    base = cuts[0]
    # a clause belongs to the block of its highest variable, if any
    touching: list[list[tuple[int, ...]]] = [[] for _ in cuts[1:]]
    rest = []
    for c in clauses:
        top = abs(c[-1])
        (touching[bisect_left(cuts, top) - 1] if top > base else rest).append(c)
    caps = (MAX_RESOLVENT_WIDTH, MAX_ADDED_CLAUSES)
    resolved: list[tuple[int, ...]] = []
    # lid[l], the literal's id in its block, has 2n + 1 entries, so a
    # negative literal's entry lies past n; glob, the literal of each id, is
    # laid out the same way
    lid = [0] * (2 * n + 1)
    get = lid.__getitem__
    for lo, hi, cs in reversed(list(zip(cuts, cuts[1:], touching))):
        ports = dict.fromkeys(abs(l) for c in cs for l in c if abs(l) <= base)
        names = [*ports, *range(lo + 1, hi + 1)]
        for i, v in enumerate(names, 1):
            lid[v], lid[-v] = i, -i
        out = eliminated_block(
            (len(ports), hi - lo, tuple(tuple(map(get, c)) for c in cs)), caps)
        if out is None:
            return None
        glob = [0, *names, *(-v for v in reversed(names))].__getitem__
        resolved.extend(tuple(map(glob, c)) for c in out)
    return eliminate(rest, k, n, resolved=resolved, top=base)
