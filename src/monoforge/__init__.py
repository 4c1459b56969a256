"""monoforge: gadget construction, reduction, solving and certificate
checking for balanced monotone 3-SAT and two-level quantified 3-SAT.

Each public name is imported from its module on first use (PEP 562), so
``import monoforge`` loads no submodule and a process pays only for the
layers it touches.
"""

from importlib import import_module as _import_module

# the module that defines each public name
_EXPORTS = {
    "formula": (
        "Assignment", "Clause", "CnfFormula", "FormulaError", "InstanceClass",
        "InvalidInstanceError", "OccurrenceProfile", "ValidationReport", "Violation",
        "canonical_clause", "canonicalize", "cnf", "map_variables", "negate_formula",
        "occurrence_profile", "satisfies", "simplify_under", "validate_class",
    ),
    "fileio": (
        "ParseError", "formula_from_json", "formula_to_json", "read_clause_list",
        "read_dimacs", "write_clause_list", "write_dimacs",
    ),
    "solver": ("SolveResult", "Solver", "Status", "solve"),
    "models": ("ModelCount", "ModelEnumeration", "count_models", "enumerate_models"),
    "rup": ("RupCheck", "RupParseError", "RupProof", "RupStep", "parse_rup", "verify_rup"),
    "gadgets": (
        "FreshVarAllocator", "GadgetInstantiation", "build_core8", "build_F2", "build_F3",
        "build_frakM", "build_frakMbar", "build_G", "build_H", "build_M", "build_M_enforcer",
        "build_Mbar_enforcer", "build_N", "build_S", "build_Sbar", "build_U", "build_U_NAE",
        "build_y_core", "build_z_core",
    ),
    "reductions": ("ReductionOutput", "reduce_3sat22_to_mono22", "reduce_star22_to_mono22"),
    "qbf": (
        "BalanceSpec", "PadVariant", "Qbf2Formula", "QbfResult", "QbfValue", "build_Q1mon",
        "build_Q3", "monotonize", "pad_to_balance", "qbf_truth", "read_qdimacs",
        "transform_1122", "transform_2222", "triple_copy", "validate_balanced", "write_qdimacs",
    ),
    "nae": (
        "ColoringError", "VariableGraph", "complete_component_check", "four_coloring",
        "is_nae_satisfied", "nae_solve_e2", "solve_complement_closed_22",
        "strip_trivial_pairs", "variable_graph",
    ),
    "miner": ("MinerConfig", "SearchTrace", "mine", "random_candidate", "swap_move"),
    "generate": (
        "GenerationError", "random_3sat22", "random_balanced_qbf", "random_mono_22",
        "random_mono_3sat_star22", "random_mono_nae_e2",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
