"""Conflict-driven clause learning with two watched literals.

The solver is deterministic: variable activities with a lazy heap (ties break
toward the smaller variable id), phase saving starting from all-false, and
Luby restarts.  The heap holds at most one live entry per variable, the one
carrying its current activity, flagged in ``in_heap``; a bump pushes a new
live entry and leaves the old one stale, to be dropped when popped.  Every
unassigned variable has its live entry, so a decision is the unassigned
variable of highest activity.  With ``trace=True`` every learned clause is
recorded in order; on a global UNSAT answer the empty clause is appended,
giving a proof that :func:`monoforge.rup.verify_rup` accepts.  The proof
record's module is imported only when a traced solve answers UNSAT, so
deciding without a trace never loads the checker.

Assumptions are asserted as the first decisions, so one solver instance can
decide a fixed matrix under many partial assignments while keeping its
learned clauses (they are consequences of the clause set alone).

The solver is incremental: :meth:`Solver.add_clause` may be called between
solves, and every later solve decides ``formula.clauses`` plus the clauses
added so far.  Learned clauses stay valid because the clause set only grows.
``__init__`` feeds the formula through the same intake, and the SAT model
check covers the added clauses too.  The intake asserts a unit clause on the
level-0 trail as it is read; once a solve has propagated level 0, it also
reads each clause under the level-0 values.  With ``trace=True`` the added
clauses are premises, not proof steps: the proof replays against the formula
plus every clause added before the UNSAT answer.
"""

from __future__ import annotations

import heapq
from enum import Enum
from typing import TYPE_CHECKING, Iterable, NamedTuple

from .formula import Assignment, CnfFormula

if TYPE_CHECKING:
    from .rup import RupProof

_ACT_RESCALE = 1e100
_ACT_DECAY = 0.95
_RESTART_BASE = 128


class Status(Enum):
    SAT = "sat"
    UNSAT = "unsat"
    BUDGET = "budget"


class SolveResult(NamedTuple):
    status: Status
    model: Assignment | None = None
    proof: RupProof | None = None
    conflicts: int = 0


def _luby(i: int) -> int:
    """i-th element (1-based) of the Luby restart sequence 1,1,2,1,1,2,4,..."""
    size, seq = 1, 0
    x = i - 1
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) // 2
        seq -= 1
        x = x % size
    return 1 << seq


def _ilit(e: int) -> int:
    return (e << 1) if e > 0 else ((-e << 1) | 1)


def _elit(i: int) -> int:
    v = i >> 1
    return -v if (i & 1) else v


class Solver:
    def __init__(
        self,
        formula: CnfFormula,
        conflict_budget: int = 1_000_000,
        trace: bool = False,
    ):
        self.formula = formula
        n = formula.n_vars
        self.n = n
        self.conflict_budget = conflict_budget
        self.trace_enabled = trace
        self.trace_clauses: list[tuple[int, ...]] = []

        self.val = [0] * (n + 1)  # 0 unknown, 1 true, -1 false
        self.level_of = [0] * (n + 1)
        self.reason = [-1] * (n + 1)
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.watches: list[list[int]] = [[] for _ in range(2 * n + 2)]
        self.db: list[list[int]] = []
        self.activity = [0.0] * (n + 1)
        self.var_inc = 1.0
        self.heap: list[tuple[float, int]] = [(0.0, v) for v in range(1, n + 1)]
        heapq.heapify(self.heap)
        self.in_heap = bytearray([0]) + bytearray([1]) * n  # v has a live heap entry
        self.phase = [False] * (n + 1)
        self.seen = bytearray(n + 1)
        self.root_conflict = False
        self.added: list[tuple[int, ...]] = []

        for c in formula.clauses:
            self._intake(c)

    def add_clause(self, clause: Iterable[int]) -> None:
        """Add a clause between solves; later solves decide it too.

        Literals are signed variable ids in 1..n_vars.  With ``trace=True`` the
        clause is a premise of any later proof, not a step of it.
        """
        clause = self._checked(clause)
        self._backtrack(0)
        self.added.append(clause)
        self._intake(clause)

    def _checked(self, lits: Iterable[int]) -> tuple[int, ...]:
        """The literals as a tuple, each a signed variable id in 1..n_vars."""
        lits = tuple(lits)
        for e in lits:
            if not isinstance(e, int) or isinstance(e, bool) or not 1 <= abs(e) <= self.n:
                raise ValueError(f"literal {e!r} out of range 1..{self.n}")
        return lits

    def _intake(self, clause: Iterable[int]) -> None:
        """The one clause path: collapse duplicates, drop tautologies, watch.

        Called at level 0 only.  Once level 0 has been propagated, the two
        watches go to literals that are not false there.  A clause with one
        such literal is asserted on the level-0 trail as it is read, and one
        with none is a root conflict (level-0 values are final).
        """
        lits: list[int] = []
        seen: set[int] = set()
        for e in clause:
            i = _ilit(e)
            if i ^ 1 in seen:
                return  # tautology
            if i in seen:
                continue  # duplicate literals collapse for propagation
            seen.add(i)
            lits.append(i)
        if self.qhead:  # only once a solve has propagated level 0
            free = [i for i in lits if not self._lit_false(i)]
            lits = free + [i for i in lits if self._lit_false(i)]
            n_free = len(free)
        else:
            n_free = len(lits)
        if n_free == 0:
            self.root_conflict = True
        elif n_free == 1:
            if self._lit_false(lits[0]):
                self.root_conflict = True
            elif not self._lit_true(lits[0]):
                self._enqueue(lits[0], -1)
        else:
            self._attach(lits)

    # -- literal and clause plumbing ------------------------------------

    def _attach(self, lits: list[int]) -> int:
        ci = len(self.db)
        self.db.append(lits)
        self.watches[lits[0]].append(ci)
        self.watches[lits[1]].append(ci)
        return ci

    def _lit_true(self, i: int) -> bool:
        v = self.val[i >> 1]
        return v != 0 and (v > 0) == ((i & 1) == 0)

    def _lit_false(self, i: int) -> bool:
        v = self.val[i >> 1]
        return v != 0 and (v > 0) == ((i & 1) == 1)

    def _enqueue(self, lit: int, reason: int) -> None:
        v = lit >> 1
        self.val[v] = -1 if (lit & 1) else 1
        self.level_of[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.trail.append(lit)

    def _backtrack(self, level: int) -> None:
        trail_lim = self.trail_lim
        if len(trail_lim) <= level:
            return
        lim = trail_lim[level]
        trail = self.trail
        val, reason, phase = self.val, self.reason, self.phase
        activity, heap, in_heap = self.activity, self.heap, self.in_heap
        for lit in trail[lim:]:
            v = lit >> 1
            phase[v] = (lit & 1) == 0
            val[v] = 0
            reason[v] = -1
            if not in_heap[v]:
                in_heap[v] = 1
                heapq.heappush(heap, (-activity[v], v))
        del trail[lim:]
        del trail_lim[level:]
        self.qhead = len(trail)

    def _rescale(self) -> None:
        """Scale the activities and the increment down; the heap, rebuilt in
        place, holds one live entry per unassigned variable."""
        scale = 1.0 / _ACT_RESCALE
        activity = self.activity
        for u in range(1, self.n + 1):
            activity[u] *= scale
        self.var_inc *= scale
        free = [u for u in range(1, self.n + 1) if self.val[u] == 0]
        self.heap[:] = [(-activity[u], u) for u in free]
        heapq.heapify(self.heap)
        self.in_heap[:] = bytes(self.n + 1)
        for u in free:
            self.in_heap[u] = 1

    # -- search core ------------------------------------------------------

    def _propagate(self) -> int:
        """Propagate pending trail literals; return conflict clause index or -1."""
        val, trail, level_of, reason = self.val, self.trail, self.level_of, self.reason
        db = self.db
        watches = self.watches
        level = len(self.trail_lim)
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
                if c[0] == fl:
                    c[0] = c[1]
                    c[1] = fl
                w0 = c[0]
                v0 = val[w0 >> 1]
                if v0 != 0 and (v0 > 0) == ((w0 & 1) == 0):
                    keep.append(ci)  # satisfied by the other watch
                    continue
                for k in range(2, len(c)):
                    lk = c[k]
                    vk = val[lk >> 1]
                    if vk == 0 or (vk > 0) == ((lk & 1) == 0):
                        c[1] = lk
                        c[k] = fl
                        watches[lk].append(ci)
                        break
                else:
                    keep.append(ci)
                    if v0 != 0:
                        keep.extend(ws[idx:])
                        watches[fl] = keep
                        self.qhead = qhead
                        return ci  # conflict: both watches false
                    v = w0 >> 1  # unit: enqueue w0
                    val[v] = -1 if (w0 & 1) else 1
                    level_of[v] = level
                    reason[v] = ci
                    trail.append(w0)
            watches[fl] = keep
        self.qhead = qhead
        return -1

    def _analyze(self, confl: int) -> tuple[list[int], int]:
        """First-UIP conflict analysis: (learned clause, backjump level)."""
        seen = self.seen
        level = self.level_of
        trail = self.trail
        activity, heap, in_heap = self.activity, self.heap, self.in_heap
        inc = self.var_inc
        cur = len(self.trail_lim)
        tail: list[int] = []
        touched: list[int] = []
        counter = 0
        p = -1
        c = self.db[confl]
        idx = len(trail) - 1
        while True:
            for q in c:
                if q == p:
                    continue
                v = q >> 1
                if not seen[v] and level[v] > 0:
                    seen[v] = 1
                    touched.append(v)
                    a = activity[v] + inc
                    activity[v] = a
                    if a > _ACT_RESCALE:
                        self._rescale()
                        inc = self.var_inc
                    else:
                        heapq.heappush(heap, (-a, v))
                        in_heap[v] = 1
                    if level[v] >= cur:
                        counter += 1
                    else:
                        tail.append(q)
            while True:
                pl = trail[idx]
                idx -= 1
                if seen[pl >> 1]:
                    break
            p = pl
            counter -= 1
            if counter == 0:
                break
            c = self.db[self.reason[p >> 1]]
        learnt = [p ^ 1] + tail
        for v in touched:
            seen[v] = 0
        if len(learnt) == 1:
            return learnt, 0
        # move a literal of the backjump level into the second watch slot
        bi = 1
        for k in range(2, len(learnt)):
            if level[learnt[k] >> 1] > level[learnt[bi] >> 1]:
                bi = k
        learnt[1], learnt[bi] = learnt[bi], learnt[1]
        return learnt, level[learnt[1] >> 1]

    def _model_satisfies_formula(self) -> bool:
        """Check the formula and the added clauses against the total assignment."""
        val = self.val
        for clauses in (self.formula.clauses, self.added):
            for c in clauses:
                for l in c:
                    if (val[l] > 0) if l > 0 else (val[-l] < 0):
                        break
                else:
                    return False
        return True

    def _result_unsat(self, conflicts: int) -> SolveResult:
        proof = None
        if self.trace_enabled:
            from .rup import RupProof

            if not self.trace_clauses or self.trace_clauses[-1]:
                self.trace_clauses.append(())  # once, however often asked
            proof = RupProof.from_added_clauses(self.trace_clauses)
        return SolveResult(Status.UNSAT, proof=proof, conflicts=conflicts)

    def solve(self, assumptions: Iterable[int] = ()) -> SolveResult:
        """Decide the formula under the given assumption literals.

        Returns SAT with a verified total model, UNSAT (with a proof when
        tracing and no assumptions are involved), or BUDGET once the conflict
        budget is exhausted.  UNSAT under assumptions carries no proof.
        """
        assume = [_ilit(e) for e in self._checked(assumptions)]
        used = 0
        if self.root_conflict:
            return self._result_unsat(0)
        self._backtrack(0)
        val, trail, trail_lim, level_of, reason = (
            self.val, self.trail, self.trail_lim, self.level_of, self.reason)
        activity, heap, in_heap, phase = self.activity, self.heap, self.in_heap, self.phase
        restart_since = 0
        restart_idx = 1
        threshold = _luby(restart_idx) * _RESTART_BASE

        while True:
            confl = self._propagate()
            if confl >= 0:
                used += 1
                if not trail_lim:
                    self.root_conflict = True
                    return self._result_unsat(used)
                learnt, bl = self._analyze(confl)
                self._backtrack(bl)
                if self.trace_enabled:
                    self.trace_clauses.append(tuple(_elit(i) for i in learnt))
                if len(learnt) == 1:
                    self._enqueue(learnt[0], -1)
                else:
                    ci = self._attach(learnt)
                    self._enqueue(learnt[0], ci)
                self.var_inc /= _ACT_DECAY
                restart_since += 1
                if used >= self.conflict_budget:
                    self._backtrack(0)
                    return SolveResult(Status.BUDGET, conflicts=used)
                if restart_since >= threshold:
                    restart_since = 0
                    restart_idx += 1
                    threshold = _luby(restart_idx) * _RESTART_BASE
                    self._backtrack(0)
                continue

            dl = len(trail_lim)
            if dl < len(assume):
                a = assume[dl]
                if val[a >> 1] == 0:
                    trail_lim.append(len(trail))
                    self._enqueue(a, -1)
                elif self._lit_true(a):
                    trail_lim.append(len(trail))  # already implied
                else:
                    self._backtrack(0)
                    return SolveResult(Status.UNSAT, conflicts=used)
                continue

            while heap:  # decide the unassigned variable of highest activity
                nact, v = heapq.heappop(heap)
                if -nact == activity[v]:  # the live entry
                    in_heap[v] = 0
                    if val[v] == 0:
                        break
            else:
                if not self._model_satisfies_formula():
                    raise AssertionError("internal error: model fails verification")
                model = {u: val[u] > 0 for u in range(1, self.n + 1)}
                self._backtrack(0)
                return SolveResult(Status.SAT, model=model, conflicts=used)
            trail_lim.append(len(trail))
            val[v] = 1 if phase[v] else -1
            level_of[v] = len(trail_lim)
            reason[v] = -1
            trail.append((v << 1) | (0 if phase[v] else 1))


def solve(
    f: CnfFormula,
    *,
    trace: bool = False,
    conflict_budget: int = 1_000_000,
    assumptions: Iterable[int] = (),
) -> SolveResult:
    """One-shot decision procedure; see :class:`Solver` for the contract."""
    return Solver(f, conflict_budget=conflict_budget, trace=trace).solve(assumptions)
