"""EFX allocations and orientations on multi-graph fair-division instances.

Agents are vertices; items are edges valued only by their two endpoints.  The
package provides exact-rational verifiers, the three-stage bipartite solver with
its completion variants, structure-specific solvers for stars, shallow trees and
cycles, generators for the benchmark instance families (including the partition
gadget), and an exhaustive oracle for desk-scale existence questions.

Importing the package imports none of its modules.  Each public name below
(``_EXPORTS``) is read from its home module, which is imported on the first read
of any of its names (PEP 562 ``__getattr__``); ``from efx_multigraph import X``
works as it always did.  So a CLI command loads only the modules it runs.
"""
from importlib import import_module

__version__ = "0.1.0"

# Home module -> the public names read from it.
_EXPORTS = {
    "bipartite": (
        "PipelineTrace",
        "PropertyFlags",
        "check_properties",
        "complete_efx",
        "enforce_safe_sets",
        "greedy_orientation",
        "half_efx_orientation",
        "half_efx_parts",
        "saturate_non_envied",
    ),
    "cutting": ("CutConfig", "cut", "preferred_bundle"),
    "derived": ("available", "available_bundles", "available_set", "safe_set", "t_side_of"),
    "fairness": (
        "Verdict",
        "Witness",
        "achieved_alpha",
        "bundle_value",
        "check_efx",
        "check_envied_singleton",
        "envied_set",
        "envies",
        "enviers_of",
        "is_efx_feasible",
        "strongly_envies",
    ),
    "forge": (
        "FamilySpec",
        "c4_counter",
        "generate",
        "np_gadget",
        "p3_block",
        "p4_q3",
        "p4_qn",
        "p6_counter",
        "random_instance",
        "reduce_partition",
        "running_example",
    ),
    "model": (
        "Allocation",
        "BudgetExceededError",
        "EdgeItem",
        "Instance",
        "InstanceError",
        "StructureError",
        "StructureReport",
        "allocation_from_json",
        "allocation_to_json",
        "analyze_structure",
        "build_instance",
        "edge_set",
        "instance_from_json",
        "instance_to_json",
        "instance_to_text",
        "is_complete",
        "is_orientation",
        "load_allocation",
        "load_instance",
        "make_allocation",
        "parse_rational",
        "save_instance",
        "two_coloring",
    ),
    "oracle": ("OracleResult", "decide_efx_allocation", "decide_efx_orientation"),
    "solvers": ("solve_multicycle", "solve_multistar", "solve_multitree_d4_q2"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    """A public name, read from its home module, or one of the package's modules."""
    module = _HOME.get(name)
    if module is None:
        if name in _EXPORTS:
            return import_module(f"{__name__}.{name}")
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
