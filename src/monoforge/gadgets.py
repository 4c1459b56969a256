"""Builders for every named clause set, enforcer and instance.

Template numbering: x1..x8 -> 1..8, y1..y9 -> 9..17, z1..z15 -> 18..32.  The
42-clause core gadget M is the union of four clause groups; its first three
clauses (the 2-clause and the two binary implications) are the port slots of
every enforcer derived from it.  The published listing of M orders the last
group positives-first, which `M_LISTING` reproduces so that instances built
here match the reference lists clause-for-clause, in order.

Every gadget made of copies of M (the enforcers M, M-bar and N, the simulators
S and S-bar, the combined enforcers frakM and frakMbar, and the instance U)
instantiates them through the one routine `_m_copies`; the builders add only
their links, reservation labels and port literals.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, Sequence

from .formula import (
    CnfFormula,
    canonical_clause,
    canonicalize,
    clause_has_distinct_vars,
    cnf,
    map_variables,
    simplify_under,
)

# clause groups in their construction numbering
F2_CLAUSES = ((1, 2), (-2, -3), (-2, -4))

F3_CLAUSES = (
    (-3, -5, -6),
    (-4, -5, -6),
    (5, 7, 8),
    (6, 7, 8),
    (-7, -18, -19),
    (-7, -20, -21),
    (-8, -18, -19),
    (-8, -20, -21),
)

G_CLAUSES = (
    (3, 9, 10),
    (3, 11, 12),
    (4, 13, 14),
    (4, 15, 16),
    (9, 12, 15),
    (10, 13, 17),
    (11, 16, 17),
    (-9, -13, -16),
    (-9, -14, -17),
    (-10, -11, -14),
    (-10, -12, -16),
    (-11, -13, -15),
    (-12, -15, -17),
)

H_CLAUSES = (
    (-1, -22, -23),
    (-1, -24, -25),
    (2, 24, 32),
    (18, 23, 25),
    (18, 28, 29),
    (19, 23, 25),
    (19, 28, 29),
    (20, 22, 26),
    (20, 30, 31),
    (21, 22, 31),
    (21, 26, 27),
    (24, 27, 30),
    (-22, -25, -32),
    (-23, -24, -26),
    (-26, -28, -30),
    (-27, -28, -31),
    (-27, -29, -31),
    (-29, -30, -32),
)


# the published listing reorders only the last group: positive clauses first,
# each half in canonical order
_H_LISTING = tuple(
    c
    for positive in (True, False)
    for c in canonicalize(cnf(h for h in H_CLAUSES if (h[0] > 0) == positive)).clauses
)

M_LISTING: tuple[tuple[int, ...], ...] = F2_CLAUSES + F3_CLAUSES + G_CLAUSES + _H_LISTING

TEMPLATE_SYMBOLS: dict[int, str] = (
    {v: f"x{v}" for v in range(1, 9)}
    | {8 + i: f"y{i}" for i in range(1, 10)}
    | {17 + i: f"z{i}" for i in range(1, 16)}
)

# one getter per listed clause; every clause has at least two literals, so
# each getter returns a tuple
_LISTING_GETTERS = tuple(itemgetter(*c) for c in M_LISTING)

# template variables that appear once unnegated and twice negated in M
ONCE_POSITIVE_VARS = (1, 5, 6, 14, 32)  # x1, x5, x6, y6, z15


class FreshVarAllocator:
    """Hands out contiguous ranges of fresh variable ids, never reusing one."""

    def __init__(self, start: int = 1):
        if start < 1:
            raise ValueError("variable ids start at 1")
        self._next = start
        self.reservations: list[tuple[str, range]] = []

    @property
    def next_id(self) -> int:
        return self._next

    def reserve(self, count: int, tag: str = "") -> range:
        if count < 0:
            raise ValueError(f"cannot reserve {count} variable ids")
        r = range(self._next, self._next + count)
        self._next += count
        self.reservations.append((tag, r))
        return r


@dataclass(frozen=True)
class GadgetInstantiation:
    """One freshly built gadget: its formula, port literals and tag.

    The formula's symbol table names exactly the fresh variables;
    ``fresh_vars`` is that table inverted (name -> id), in the same order.
    """

    formula: CnfFormula
    port_literals: dict[str, int] = field(compare=False)
    tag: int | str = 0

    @property
    def fresh_vars(self) -> dict[str, int]:
        return {s: v for v, s in self.formula.symbol_table.items()}


def _group_formula(clauses) -> CnfFormula:
    return cnf(clauses, n_vars=32, symbol_table=dict(TEMPLATE_SYMBOLS))


def build_F2() -> CnfFormula:
    """The three 2-clauses that pin down x1..x4."""
    return _group_formula(F2_CLAUSES)


def build_F3() -> CnfFormula:
    """The eight 3-clauses bridging x3..x8 into z1..z4."""
    return _group_formula(F3_CLAUSES)


def build_G() -> CnfFormula:
    """The 13-clause group over x3, x4 and y1..y9."""
    return _group_formula(G_CLAUSES)


def build_H() -> CnfFormula:
    """The 18-clause group over x1, x2 and z1..z15."""
    return _group_formula(H_CLAUSES)


def build_M() -> CnfFormula:
    """The unsatisfiable 42-clause set over 32 variables, in listing order."""
    return _group_formula(M_LISTING)


def build_y_core() -> CnfFormula:
    """The 13-clause unsatisfiable core over y1..y9.

    Equals the G group with its two port variables set false, renumbered to
    1..9; matches the published core listing clause-for-clause.
    """
    g = simplify_under(build_G(), {3: False, 4: False})
    return map_variables(g, {8 + i: i for i in range(1, 10)}, n_vars=9)


def build_z_core() -> CnfFormula:
    """The 20-clause unsatisfiable core over z1..z15.

    The two leading 2-clauses are the implied constraints from the bridge
    group; the rest is the H group with x1 true and x2 false.
    """
    h = simplify_under(build_H(), {1: True, 2: False})
    lead = ((-18, -19), (-20, -21))
    f = cnf(lead + h.clauses, n_vars=32, symbol_table=h.symbol_table)
    return map_variables(f, {17 + i: i for i in range(1, 16)}, n_vars=15)


def _m_copies(
    copies: Iterable[tuple[range, tuple[int | None, int | None, int | None], bool, int | str]],
) -> tuple[list[list[tuple[int, ...]]], dict[int, str]]:
    """Instantiate the 42-clause listing once per ``(fresh, slots, negate, tag)``.

    Each copy lies on the 32-variable block ``fresh``, its variables named
    ``x1^tag`` .. ``z15^tag``.  ``slots`` are signed external literals
    appended to the three port slots (None leaves a slot as written), and
    ``negate`` flips every literal, the slots' included.  Returns each copy's
    clauses, in listing order, and the symbol table of all copies.

    Each copy maps the listing through one 64-entry table (template literal
    -> shifted, signed literal), one `itemgetter` per clause.  A shift and a
    global sign flip keep a clause over distinct variables canonical, so only
    the port slots, whose literal may land anywhere in the order, go through
    `canonical_clause`.
    """
    bodies: list[list[tuple[int, ...]]] = []
    symbols: dict[int, str] = {}
    for fresh, slots, negate, tag in copies:
        base = fresh.start - 1
        sign = -1 if negate else 1
        table = {t: sign * (t + base) for t in TEMPLATE_SYMBOLS}
        table |= {-t: -v for t, v in table.items()}
        body = [get(table) for get in _LISTING_GETTERS]
        for j, slot in enumerate(slots):
            if slot is not None:
                body[j] = canonical_clause(body[j] + (sign * slot,))
        bodies.append(body)
        symbols |= {base + t: f"{s}^{tag}" for t, s in TEMPLATE_SYMBOLS.items()}
    return bodies, symbols


def _reserve_fresh(
    alloc: FreshVarAllocator, ports: Sequence[int], requests: Iterable[tuple[str, int]]
) -> list[range]:
    """Reserve one range per ``(label, count)`` after checking the ports.

    A port must be a variable id (an int, not a bool, at least 1) below the
    allocator's next id, so no range handed out now or later can hold it.
    The checks run first: a rejected build leaves the allocator untouched.
    """
    for p in ports:
        if not isinstance(p, int) or isinstance(p, bool) or p < 1:
            raise ValueError(f"port variable {p} is not a variable id")
    for p in ports:
        if p >= alloc.next_id:
            raise ValueError(f"port variable {p} collides with fresh ids from {alloc.next_id}")
    return [alloc.reserve(count, label) for label, count in requests]


def _m_enforcer(
    alloc: FreshVarAllocator,
    label: str,
    tag: int | str,
    ports: tuple[int, ...],
    slots: tuple[int | None, int | None, int | None],
    negate: bool,
    port_literals: dict[str, int],
) -> GadgetInstantiation:
    """One 42-clause instance over a fresh block, ``slots`` on its port slots.

    The first port must differ from the others.
    """
    if ports[0] in ports[1:]:
        raise ValueError("u1 must differ from u2 and u3")
    (fresh,) = _reserve_fresh(alloc, ports, [(f"{label}^{tag}", 32)])
    (clauses,), symbols = _m_copies([(fresh, slots, negate, tag)])
    formula = CnfFormula(alloc.next_id - 1, tuple(clauses), False, symbols)
    return GadgetInstantiation(formula, port_literals, tag)


def build_M_enforcer(
    alloc: FreshVarAllocator, u1: int, u2: int, u3: int, tag: int | str = 0
) -> GadgetInstantiation:
    """Enforcer simulating the mixed clause {u1, -u2, -u3}.

    u2 = u3 is allowed (that is how duplicate literals are absorbed); u1
    coinciding with u2 or u3 is rejected.
    """
    return _m_enforcer(alloc, "M", tag, (u1, u2, u3), (u1, -u2, -u3), False,
                       {"u1": u1, "u2": -u2, "u3": -u3})


def build_Mbar_enforcer(
    alloc: FreshVarAllocator, u1: int, u2: int, u3: int, tag: int | str = 0
) -> GadgetInstantiation:
    """Literal-wise negation of the M enforcer: simulates {-u1, u2, u3}."""
    return _m_enforcer(alloc, "Mbar", tag, (u1, u2, u3), (u1, -u2, -u3), True,
                       {"u1": -u1, "u2": u2, "u3": u3})


def build_N(alloc: FreshVarAllocator, u: int, tag: int | str = 0) -> GadgetInstantiation:
    """42-clause blocker: keeps the 2-clause, hangs -u on both implications.

    Satisfiable exactly when the external assignment sets u false.
    """
    return _m_enforcer(alloc, "N", tag, (u,), (None, -u, -u), False, {"u": -u})


def build_S(
    alloc: FreshVarAllocator,
    v1: int,
    v2: int,
    v3: int,
    negative: bool = False,
    tag: int | str = 0,
) -> GadgetInstantiation:
    """Monotone clause simulator over ports (v1, v2, v3): 99 fresh variables,
    133 monotone 3-clauses, every fresh variable twice unnegated and twice
    negated.  Ports may repeat; each lands in a different clause.

    positive polarity: satisfiable iff at least one port is true;
    ``negative=True`` emits the literal-wise negation (ports -v1, -v2, -v3).
    """
    ports = (v1, v2, v3)
    *copies, us = _reserve_fresh(
        alloc, ports, [(f"S{tag}/copy{i}", 32) for i in (1, 2, 3)] + [(f"S{tag}/u", 3)]
    )
    # copy i carries port v_i on its 2-clause and -u_i on both implications
    bodies, symbols = _m_copies(
        (fresh, (p, -u, -u), negative, f"{tag}.{i}")
        for i, (fresh, p, u) in enumerate(zip(copies, ports, us), 1)
    )
    sign = -1 if negative else 1
    clauses = [body[0] for body in bodies] + [c for body in bodies for c in body[1:]]
    clauses.append(canonical_clause(sign * u for u in us))
    for t in (1, 5, 6):
        clauses.append(canonical_clause(sign * fresh[t - 1] for fresh in copies))
    for fresh, u in zip(copies, us):  # y6 and z15 of copy i with u_i
        clauses.append(canonical_clause(sign * v for v in (fresh[13], fresh[31], u)))
    for i, uv in enumerate(us, 1):
        symbols[uv] = f"u{i}^{tag}"
    formula = CnfFormula(alloc.next_id - 1, tuple(clauses), False, symbols)
    return GadgetInstantiation(formula, {f"v{i}": sign * p for i, p in enumerate(ports, 1)}, tag)


def build_Sbar(
    alloc: FreshVarAllocator, v1: int, v2: int, v3: int, tag: int | str = 0
) -> GadgetInstantiation:
    return build_S(alloc, v1, v2, v3, negative=True, tag=tag)


def _frak_ports(clause: tuple[int, ...], negate: bool) -> tuple[int, int, int]:
    """Split a mixed clause into enforcer ports (u1, u2, u3), simulated as
    {u1, -u2, -u3}, or as {-u1, u2, u3} when ``negate``: u1 is the variable
    of its lone positive (negative when ``negate``) literal.  u2 and u3 keep
    their order, or ascend when ``negate``, as in the negated canonical clause.
    """
    if len(clause) != 3 or not clause_has_distinct_vars(clause):
        raise ValueError(f"not a 3-clause over distinct variables: {clause}")
    sign = -1 if negate else 1
    lone = [l for l in clause if sign * l > 0]
    if len(lone) != 1:
        one, two = ("negative", "positive") if negate else ("positive", "negative")
        raise ValueError(f"expected one {one} and two {two} literals: {clause}")
    rest = [abs(l) for l in clause if l != lone[0]]
    u2, u3 = sorted(rest) if negate else rest
    return abs(lone[0]), u2, u3


def _build_frak(
    alloc: FreshVarAllocator,
    triple: Sequence[tuple[int, ...]],
    negate: bool,
    tag: int | str,
) -> GadgetInstantiation:
    if len(triple) != 3:
        raise ValueError("exactly three clauses are combined per instance")
    ports = [_frak_ports(c, negate) for c in triple]
    copies = _reserve_fresh(alloc, [v for t in ports for v in t],
                            [(f"frak{tag}/copy{i}", 32) for i in (1, 2, 3)])
    slots = [(u1, -u2, -u3) for u1, u2, u3 in ports]
    bodies, symbols = _m_copies(
        (fresh, s, negate, f"{tag}.{i}") for i, (fresh, s) in enumerate(zip(copies, slots), 1)
    )
    clauses = [c for body in bodies for c in body]
    # five links: the copies' once-positive variables, in order, three at a time
    once = [fresh.start + t - 1 for fresh in copies for t in ONCE_POSITIVE_VARS]
    sign = -1 if negate else 1
    for j in range(0, len(once), 3):
        clauses.append(canonical_clause(sign * v for v in once[j:j + 3]))

    formula = CnfFormula(alloc.next_id - 1, tuple(clauses), False, symbols)
    port_literals = {f"u{j}": sign * l for j, l in enumerate(itertools.chain(*slots), 1)}
    return GadgetInstantiation(formula, port_literals, tag)


def build_frakM(
    alloc: FreshVarAllocator, triple: Sequence[tuple[int, ...]], tag: int | str = 0
) -> GadgetInstantiation:
    """Replace three one-positive/two-negative mixed clauses at once.

    96 fresh variables, 131 monotone clauses (three 42-clause instances plus
    five linking clauses), every fresh variable twice unnegated and twice
    negated.  Satisfiable iff each simulated clause is satisfied externally.
    """
    return _build_frak(alloc, triple, negate=False, tag=tag)


def build_frakMbar(
    alloc: FreshVarAllocator, triple: Sequence[tuple[int, ...]], tag: int | str = 0
) -> GadgetInstantiation:
    """Mirror image of :func:`build_frakM` for one-negative/two-positive triples."""
    return _build_frak(alloc, triple, negate=True, tag=tag)


CORE8_SYMBOLS = {1: "a", 2: "b", 3: "c", 4: "d", 5: "e", 6: "f"}


def build_core8() -> CnfFormula:
    """The eight-clause unsatisfiable core over a..f, duplicates included."""
    clauses = (
        (-1, -4, -6),
        (2, 4, 5),
        (5, -2, -2),
        (4, -6, -3),
        (1, -3, -5),
        (-5, 3, 3),
        (-4, 1, 2),
        (-1, 6, 6),
    )
    return cnf(clauses, n_vars=6, allows_duplicate_literals=True,
               symbol_table=dict(CORE8_SYMBOLS))


def build_U() -> CnfFormula:
    """The unsatisfiable balanced monotone instance: 198 variables, 264 clauses.

    Copy i of the 42-clause gadget occupies ids 32*(i-1)+1 .. 32*i (copies
    4..6 literal-wise negated), the six shared variables a..f are 193..198,
    and ten mop-up clauses balance the five once-positive variables of each
    copy.  Clause order matches the reference listing exactly.
    """
    a, b, c, d, e, f = range(193, 199)
    specs = (
        (False, (e, b, b)),
        (False, (d, c, f)),
        (False, (a, c, e)),
        (True, (e, c, c)),
        (True, (d, a, b)),
        (True, (a, f, f)),
    )
    bodies, symbols = _m_copies(
        (range(32 * i + 1, 32 * i + 33), (p1, -p2, -p3), bar, i + 1)
        for i, (bar, (p1, p2, p3)) in enumerate(specs)
    )
    clauses = [canonical_clause((-a, -d, -f)), canonical_clause((b, d, e))]
    clauses += [c for body in bodies for c in body]
    for t in ONCE_POSITIVE_VARS:
        clauses.append(canonical_clause((t, 32 + t, 64 + t)))
        clauses.append(canonical_clause((-(96 + t), -(128 + t), -(160 + t))))
    symbols |= {193 + k: s for k, s in enumerate("abcdef")}
    return CnfFormula(198, tuple(clauses), False, symbols)


def build_U_NAE() -> CnfFormula:
    """Seven all-positive clauses whose variable graph is complete on 7 vertices."""
    clauses = (
        (1, 2, 7),
        (1, 3, 6),
        (1, 4, 5),
        (2, 3, 4),
        (2, 5, 6),
        (3, 5, 7),
        (4, 6, 7),
    )
    return cnf(clauses, n_vars=7)
