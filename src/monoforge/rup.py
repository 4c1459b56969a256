"""Clause-addition unsatisfiability proofs and their replay checker.

Proof text format, exactly as solvers print it: one step per line, literals
separated by spaces, terminated by ``0``; deletion steps carry a leading
``d``.  A proof certifies unsatisfiability when every added clause passes
reverse unit propagation against the formula plus the live added clauses, and
an empty clause is derived.

The checker numbers literals internally: ``2v`` stands for v and ``2v+1``
for -v, so ``i ^ 1`` negates ``i``; literal ``i`` is true when ``true[i]`` is
set and false when ``true[i ^ 1]`` is.  Between calls the root trail is at a
unit-propagation fixpoint (``qhead == len(trail)``) unless a root conflict
was found: each clause added propagates what it implies, and a RUP test
undoes its assumptions by clearing the trail suffix it pushed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .formula import CnfFormula


class RupParseError(ValueError):
    def __init__(self, message: str, step: int | None = None):
        self.step = step
        if step is not None:
            message = f"step {step}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class RupStep:
    lits: tuple[int, ...]
    delete: bool = False

    def text(self) -> str:
        body = " ".join(str(l) for l in self.lits + (0,))
        return f"d {body}" if self.delete else body


@dataclass(frozen=True)
class RupProof:
    steps: tuple[RupStep, ...]

    def lines(self) -> list[str]:
        return [s.text() for s in self.steps]

    @classmethod
    def from_added_clauses(cls, clauses: Iterable[tuple[int, ...]]) -> "RupProof":
        return cls(tuple(RupStep(tuple(c)) for c in clauses))


def parse_rup(source: str | Iterable[str]) -> RupProof:
    """Parse proof text (one string or an iterable of step lines)."""
    if isinstance(source, str):
        lines = [ln for ln in source.splitlines() if ln.strip()]
    else:
        lines = [ln for ln in source if ln.strip()]
    steps = []
    for i, line in enumerate(lines):
        toks = line.split()
        delete = False
        if toks and toks[0] == "d":
            delete = True
            toks = toks[1:]
        lits = []
        for t in toks:
            if not (t.isascii() and t.removeprefix("-").isdigit()):
                raise RupParseError(f"non-integer token {t!r}", i)
            lits.append(int(t))
        if not lits or lits[-1] != 0:
            raise RupParseError("missing 0 terminator", i)
        if any(l == 0 for l in lits[:-1]):
            raise RupParseError("zero literal inside a step", i)
        steps.append(RupStep(tuple(lits[:-1]), delete))
    return RupProof(tuple(steps))


@dataclass
class RupCheck:
    ok: bool
    failed_step: int | None = None
    message: str = "ok"

    def __bool__(self) -> bool:
        return self.ok


class _Propagator:
    """Watched-literal unit propagation over a mutable clause set.

    Supports permanent clause addition and deletion plus temporary
    assumption pushes for the RUP test.  As in forward proof checking,
    deleting a clause never retracts root implications it already produced.
    """

    def __init__(self, n_vars: int):
        self.true = bytearray(2 * n_vars + 2)  # indexed by internal literal
        self.trail: list[int] = []  # internal lits, permanent prefix first
        self.qhead = 0
        self.watches: list[list[int]] = [[] for _ in range(2 * n_vars + 2)]
        self.db: list[list[int] | None] = []
        self.by_key: dict[frozenset[int], list[int]] = {}
        self.root_conflict = False

    def _propagate(self) -> bool:
        """Run to fixpoint; False on conflict."""
        true, trail, watches, db = self.true, self.trail, self.watches, self.db
        qhead = self.qhead
        while qhead < len(trail):
            fl = trail[qhead] ^ 1
            qhead += 1
            ws = watches[fl]
            keep: list[int] = []
            idx = 0
            nws = len(ws)
            while idx < nws:
                ci = ws[idx]
                idx += 1
                c = db[ci]
                if c is None:
                    continue  # deleted, drop the watch entry
                if c[0] == fl:
                    c[0] = c[1]
                    c[1] = fl
                w0 = c[0]
                if true[w0]:
                    keep.append(ci)  # satisfied by the other watch
                    continue
                for k in range(2, len(c)):
                    lk = c[k]
                    if not true[lk ^ 1]:
                        c[1] = lk
                        c[k] = fl
                        watches[lk].append(ci)
                        break
                else:
                    keep.append(ci)
                    if true[w0 ^ 1]:
                        keep.extend(ws[idx:])
                        watches[fl] = keep
                        self.qhead = qhead
                        return False  # conflict: both watches false
                    true[w0] = 1  # unit: enqueue w0
                    trail.append(w0)
            watches[fl] = keep
        self.qhead = qhead
        return True

    def add(self, ext: tuple[int, ...]) -> None:
        # every clause is registered for deletion; an inert one (a tautology, any
        # clause after a root conflict, one with at most one literal not false
        # at root) keeps None in db
        ci = len(self.db)
        self.db.append(None)
        key = frozenset(ext)  # the one pass that drops repeated literals
        self.by_key.setdefault(key, []).append(ci)
        if self.root_conflict or len({abs(e) for e in key}) < len(key):
            return
        true = self.true
        # a literal false at root stays false, so the clause keeps the others
        lits = [i for i in [e << 1 if e > 0 else -e << 1 | 1 for e in key] if not true[i ^ 1]]
        if len(lits) > 1:
            self.db[ci] = lits
            self.watches[lits[0]].append(ci)
            self.watches[lits[1]].append(ci)
        elif not lits:
            self.root_conflict = True  # the empty clause, or all literals false
        elif not true[lits[0]]:
            true[lits[0]] = 1  # a unit at root
            self.trail.append(lits[0])
            self.root_conflict = not self._propagate()

    def delete(self, ext: tuple[int, ...]) -> None:
        # an absent clause is ignored, as in forward checking; watches go lazily
        ids = self.by_key.get(frozenset(ext))
        if ids:
            self.db[ids.pop()] = None

    def rup_holds(self, ext: tuple[int, ...]) -> bool:
        """Assume the negation of every literal; propagation must conflict."""
        if self.root_conflict:
            return True
        true, trail = self.true, self.trail
        mark = len(trail)
        conflict = True
        for e in ext:
            n = e << 1 | 1 if e > 0 else -e << 1  # -e
            if true[n ^ 1]:
                break
            if not true[n]:
                true[n] = 1
                trail.append(n)
        else:
            conflict = not self._propagate()
        for n in trail[mark:]:
            true[n] = 0
        del trail[mark:]
        self.qhead = mark
        return conflict


def verify_rup(f: CnfFormula, proof: RupProof) -> RupCheck:
    """Replay a proof: every add step must be RUP, and the empty clause derived.

    A step naming a variable outside the formula's 1..n_vars is rejected.
    """
    eng = _Propagator(f.n_vars)
    for c in f.clauses:
        eng.add(c)
    empty_derived = False
    for i, step in enumerate(proof.steps):
        if any(not 1 <= abs(l) <= f.n_vars for l in step.lits):
            return RupCheck(False, i, f"step {i} names a variable outside 1..{f.n_vars}: "
                                      f"{step.text()}")
        if step.delete:
            eng.delete(step.lits)
            continue
        if not eng.rup_holds(step.lits):
            return RupCheck(False, i, f"step {i} is not RUP: {step.text()}")
        eng.add(step.lits)
        empty_derived = empty_derived or not step.lits
    if not empty_derived:
        return RupCheck(False, None, "no empty clause was derived")
    return RupCheck(True, None, "ok")
