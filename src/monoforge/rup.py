"""Clause-addition unsatisfiability proofs and their replay checker.

Proof text format, exactly as solvers print it: one step per line, literals
separated by spaces, terminated by ``0``; deletion steps carry a leading
``d``.  A proof certifies unsatisfiability when every added clause passes
reverse unit propagation against the formula plus the live added clauses, and
an empty clause is derived.
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
            try:
                lits.append(int(t))
            except ValueError:
                raise RupParseError(f"non-integer token {t!r}", i) from None
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
        self.n = n_vars
        self.val = [0] * (n_vars + 1)  # 0 unknown, 1 true, -1 false
        self.trail: list[int] = []  # internal lits, permanent prefix first
        self.qhead = 0
        self.watches: list[list[int]] = [[] for _ in range(2 * n_vars + 2)]
        self.db: list[list[int] | None] = []
        self.by_key: dict[tuple[int, ...], list[int]] = {}
        self.root_conflict = False

    @staticmethod
    def _ilit(e: int) -> int:
        return (e << 1) if e > 0 else ((-e << 1) | 1)

    def _lit_true(self, i: int) -> bool:
        v = self.val[i >> 1]
        return v != 0 and (v > 0) == ((i & 1) == 0)

    def _lit_false(self, i: int) -> bool:
        v = self.val[i >> 1]
        return v != 0 and (v > 0) == ((i & 1) == 1)

    def _enqueue(self, i: int) -> bool:
        if self._lit_false(i):
            return False
        if not self._lit_true(i):
            self.val[i >> 1] = -1 if (i & 1) else 1
            self.trail.append(i)
        return True

    def _propagate(self) -> bool:
        """Run to fixpoint; False on conflict."""
        while self.qhead < len(self.trail):
            p = self.trail[self.qhead]
            self.qhead += 1
            fl = p ^ 1
            ws = self.watches[fl]
            keep: list[int] = []
            idx = 0
            ok = True
            while idx < len(ws):
                ci = ws[idx]
                idx += 1
                c = self.db[ci]
                if c is None:
                    continue  # deleted, drop the watch entry
                if c[0] == fl:
                    c[0], c[1] = c[1], c[0]
                if self._lit_true(c[0]):
                    keep.append(ci)
                    continue
                moved = False
                for k in range(2, len(c)):
                    if not self._lit_false(c[k]):
                        c[1], c[k] = c[k], c[1]
                        self.watches[c[1]].append(ci)
                        moved = True
                        break
                if moved:
                    continue
                keep.append(ci)
                if self._lit_false(c[0]):
                    keep.extend(ws[idx:])
                    ok = False
                    break
                self._enqueue(c[0])
            self.watches[fl] = keep
            if not ok:
                return False
        return True

    def _internal_clause(self, ext: tuple[int, ...]) -> tuple[list[int], bool]:
        """Distinct internal lits plus a tautology flag."""
        seen: set[int] = set()
        lits: list[int] = []
        taut = False
        for e in ext:
            i = self._ilit(e)
            if i ^ 1 in seen:
                taut = True
            if i not in seen:
                seen.add(i)
                lits.append(i)
        return lits, taut

    def add(self, ext: tuple[int, ...]) -> None:
        lits, taut = self._internal_clause(ext)
        # every clause is registered for deletion matching; an inert one (a
        # tautology, the empty clause, any clause after a root conflict, a
        # unit at root) keeps None in db
        ci = len(self.db)
        self.db.append(None)
        self.by_key.setdefault(tuple(sorted(lits)), []).append(ci)
        if taut or self.root_conflict:
            return
        if not lits:
            self.root_conflict = True
            return
        # prefer unassigned or true literals as watches
        lits.sort(key=self._lit_false)
        if len(lits) == 1 or self._lit_false(lits[1]):
            # effectively unit (or conflicting) at root
            if not self._enqueue(lits[0]) or not self._propagate():
                self.root_conflict = True
            return
        self.db[ci] = lits
        self.watches[lits[0]].append(ci)
        self.watches[lits[1]].append(ci)

    def delete(self, ext: tuple[int, ...]) -> None:
        lits, _ = self._internal_clause(ext)
        key = tuple(sorted(lits))
        ids = self.by_key.get(key)
        if not ids:
            return  # deleting an absent clause is ignored, as in forward checking
        ci = ids.pop()
        if not ids:
            del self.by_key[key]
        self.db[ci] = None  # watch entries are dropped lazily

    def rup_holds(self, ext: tuple[int, ...]) -> bool:
        """Assume the negation of every literal; propagation must conflict."""
        if self.root_conflict:
            return True
        mark = len(self.trail)
        mark_q = self.qhead
        conflict = False
        lits, _ = self._internal_clause(ext)
        for i in lits:
            if not self._enqueue(i ^ 1):
                conflict = True
                break
        if not conflict:
            conflict = not self._propagate()
        for i in range(len(self.trail) - 1, mark - 1, -1):
            self.val[self.trail[i] >> 1] = 0
        del self.trail[mark:]
        self.qhead = mark_q
        return conflict


def verify_rup(f: CnfFormula, proof: RupProof) -> RupCheck:
    """Replay a proof: every add step must be RUP, and the empty clause derived.

    A step naming a variable outside the formula's 1..n_vars is rejected.
    """
    eng = _Propagator(f.n_vars)
    for c in f.clauses:
        eng.add(c)
    if not eng._propagate():
        eng.root_conflict = True
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
        if not step.lits:
            empty_derived = True
    if not empty_derived:
        return RupCheck(False, None, "no empty clause was derived")
    return RupCheck(True, None, "ok")
