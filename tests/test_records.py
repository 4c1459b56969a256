"""The records the package returns and takes: their repr, equality, hash
and immutability, and what importing the package loads for them."""

import copy
import os
import subprocess
import sys
from pathlib import Path

import pytest

import monoforge
from monoforge.formula import (
    CnfFormula,
    OccurrenceProfile,
    ValidationReport,
    Violation,
    cnf,
    occurrence_profile,
)
from monoforge.gadgets import GadgetInstantiation
from monoforge.generate import random_balanced_qbf
from monoforge.miner import MinerConfig, SearchTrace, TraceEntry
from monoforge.models import ModelCount, ModelEnumeration, count_models, enumerate_models
from monoforge.nae import VariableGraph, variable_graph
from monoforge.qbf import BalanceSpec, Qbf2Formula, QbfResult, QbfValue, triple_copy
from monoforge.reductions import ProvenanceEntry, ReductionOutput, ReductionStats
from monoforge.rup import RupCheck, RupProof, RupStep, parse_rup, verify_rup
from monoforge.solver import SolveResult, Status

F = cnf([[1, -2], [2, 3]], symbol_table={1: "a"})


def _records():
    """One instance of each record, with its repr."""
    entry = ProvenanceEntry("gadget", None, "S")
    stats = ReductionStats(1, 2, 3)
    return [
        (F, "CnfFormula(n_vars=3, clauses=((1, -2), (2, 3)), allows_duplicate_literals=False,"
            " symbol_table={1: 'a'})"),
        (occurrence_profile(F), "OccurrenceProfile(counts=((1, 0), (1, 1), (1, 0)))"),
        (Violation("occurrence", 2, "m"), "Violation(rule='occurrence', index=2, message='m')"),
        (ValidationReport(True, ()), "ValidationReport(verdict=True, violations=())"),
        (SolveResult(Status.SAT, {1: True}),
         "SolveResult(status=<Status.SAT: 'sat'>, model={1: True}, proof=None, conflicts=0)"),
        (RupStep((1, -2), True), "RupStep(lits=(1, -2), delete=True)"),
        (parse_rup("1 0\n0\n"),
         "RupProof(steps=(RupStep(lits=(1,), delete=False), RupStep(lits=(), delete=False)))"),
        (verify_rup(cnf([[1], [-1]]), parse_rup("0\n")),
         "RupCheck(ok=True, failed_step=None, message='ok')"),
        (count_models(cnf([[1, 2]])), "ModelCount(count=3, capped=False)"),
        (enumerate_models(cnf([[1]])), "ModelEnumeration(models=[{1: True}], capped=False)"),
        (variable_graph(cnf([[1, 2]])),
         "VariableGraph(vertices=(1, 2), adj={1: frozenset({2}), 2: frozenset({1})})"),
        (Qbf2Formula((1,), (2,), cnf([[1, 2]])),
         "Qbf2Formula(universals=(1,), existentials=(2,), matrix=CnfFormula(n_vars=2,"
         " clauses=((1, 2),), allows_duplicate_literals=False, symbol_table=None))"),
        (QbfResult(QbfValue.NO, {1: False}),
         "QbfResult(value=<QbfValue.NO: 'no'>, counterexample={1: False})"),
        (BalanceSpec(1, 1, 2, 2),
         "BalanceSpec(s1=1, s2=1, t1=2, t2=2, require_equal_counts=False,"
         " require_monotone=False)"),
        (entry, "ProvenanceEntry(kind='gadget', source_clause=None, gadget='S')"),
        (stats, "ReductionStats(vars_added=1, clauses_added=2, enforcers_used=3)"),
        (ReductionOutput(cnf([[1]]), (entry,), stats),
         "ReductionOutput(formula=CnfFormula(n_vars=1, clauses=((1,),),"
         " allows_duplicate_literals=False, symbol_table=None), provenance=(ProvenanceEntry("
         "kind='gadget', source_clause=None, gadget='S'),), stats=ReductionStats(vars_added=1,"
         " clauses_added=2, enforcers_used=3))"),
        (GadgetInstantiation(cnf([[1, 2]]), {"v1": 1}, "t"),
         "GadgetInstantiation(formula=CnfFormula(n_vars=2, clauses=((1, 2),),"
         " allows_duplicate_literals=False, symbol_table=None), port_literals={'v1': 1},"
         " tag='t')"),
        (MinerConfig(9, 12),
         "MinerConfig(n_vars=9, n_clauses=12, population_size=8, max_iters=500,"
         " sideways_prob=0.2, stall_window=100, seed=0, initial=None)"),
        (TraceEntry(1, "ab", 3, True),
         "TraceEntry(iteration=1, candidate_hash='ab', model_count=3, accepted=True)"),
        (SearchTrace(), "SearchTrace(entries=[], best_formula=None, best_count=None, restarts=0)"),
    ]


@pytest.mark.parametrize("record, text", _records(), ids=lambda x: type(x).__name__)
def test_repr(record, text):
    assert repr(record) == text


# the records that could not be assigned to when they were frozen dataclasses
_FROZEN = (CnfFormula, OccurrenceProfile, Violation, ValidationReport, RupStep, RupProof,
           ModelCount, ModelEnumeration, VariableGraph, Qbf2Formula, QbfResult, BalanceSpec,
           ProvenanceEntry, ReductionStats, ReductionOutput, GadgetInstantiation, MinerConfig,
           TraceEntry)


@pytest.mark.parametrize("record", [r for r, _ in _records() if isinstance(r, _FROZEN)],
                         ids=lambda r: type(r).__name__)
def test_frozen_records_refuse_assignment(record):
    field = repr(record).split("(", 1)[1].split("=", 1)[0]
    value = getattr(record, field)
    for name in (field, "no_such_field"):
        with pytest.raises(AttributeError):
            setattr(record, name, value)
    assert getattr(record, field) is value


def test_formula_equality_and_hash_ignore_the_symbol_table():
    plain = CnfFormula(3, F.clauses)
    assert F == plain and hash(F) == hash(plain)
    assert F.symbol_table == {1: "a"} and plain.symbol_table is None
    assert F != CnfFormula(3, F.clauses, True)
    assert F != CnfFormula(4, F.clauses)
    assert F != CnfFormula(3, F.clauses[:1])
    assert F != (3, F.clauses, False)
    assert len({F, plain, cnf([[2, 3], [1, -2]])}) == 2


def test_gadget_equality_and_hash_ignore_the_port_literals():
    a = GadgetInstantiation(F, {"v1": 1}, 0)
    b = GadgetInstantiation(F, {"v1": -1}, 0)
    assert a == b and hash(a) == hash(b)
    assert a != GadgetInstantiation(F, {"v1": 1}, 1)
    assert a.fresh_vars == {"a": 1}


def test_miner_config_and_search_trace_equality():
    assert MinerConfig(9, 12) == MinerConfig(9, 12, seed=0)
    assert hash(MinerConfig(9, 12)) == hash(MinerConfig(9, 12))
    assert MinerConfig(9, 12) != MinerConfig(9, 12, seed=1)
    entry = TraceEntry(1, "ab", 3, True)
    assert SearchTrace([entry], F, 3) == SearchTrace([entry], F, 3, 0)
    assert SearchTrace([entry]) != SearchTrace()
    with pytest.raises(TypeError):
        hash(SearchTrace())
    trace = SearchTrace()
    trace.entries.append(entry)
    trace.restarts += 1
    assert SearchTrace().entries == [] and trace.restarts == 1


@pytest.mark.parametrize("record", [F, Qbf2Formula((1,), (2,), cnf([[1, 2]])),
                                    GadgetInstantiation(F, {"v1": 1}, "t"), MinerConfig(9, 12)],
                         ids=lambda r: type(r).__name__)
def test_checked_records_copy(record):
    for twin in (copy.copy(record), copy.deepcopy(record)):
        assert twin == record and repr(twin) == repr(record)


def test_a_stage_built_from_copies_equals_the_constructed_formula():
    m = triple_copy(random_balanced_qbf(3, 1, 1, 1)).matrix
    built = CnfFormula(m.n_vars, m.clauses, m.allows_duplicate_literals)
    assert m == built and hash(m) == hash(built) and repr(m) == repr(built)
    assert m.symbol_table is None


def test_importing_every_module_loads_neither_dataclasses_nor_inspect():
    # the records are plain classes, so a process that loads the package pays
    # for no generated methods and none of what the generator imports
    package = Path(monoforge.__file__).parent
    modules = sorted(p.stem for p in package.glob("*.py") if p.stem != "__init__")
    probe = ("import sys\n"
             f"for m in {modules!r}:\n"
             "    __import__('monoforge.' + m)\n"
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n")
    env = dict(os.environ, PYTHONPATH=str(package.parent))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
