"""EFX allocations and orientations on multi-graph fair-division instances.

Agents are vertices; items are edges valued only by their two endpoints.  The
package provides exact-rational verifiers, the three-stage bipartite solver with
its completion variants, structure-specific solvers for stars, shallow trees and
cycles, generators for the benchmark instance families (including the partition
gadget), and an exhaustive oracle for desk-scale existence questions.
"""
from .bipartite import (
    PipelineTrace,
    PropertyFlags,
    check_properties,
    complete_efx,
    enforce_safe_sets,
    greedy_orientation,
    half_efx_orientation,
    half_efx_parts,
    saturate_non_envied,
)
from .cutting import CutConfig, cut, preferred_bundle
from .derived import (
    available,
    available_bundles,
    available_set,
    safe_set,
    t_side_of,
)
from .fairness import (
    Verdict,
    Witness,
    achieved_alpha,
    bundle_value,
    check_efx,
    check_envied_singleton,
    envied_set,
    envies,
    enviers_of,
    is_efx_feasible,
    strongly_envies,
)
from .forge import (
    FamilySpec,
    c4_counter,
    generate,
    np_gadget,
    p3_block,
    p4_q3,
    p4_qn,
    p6_counter,
    random_instance,
    reduce_partition,
    running_example,
)
from .model import (
    Allocation,
    EdgeItem,
    Instance,
    InstanceError,
    StructureError,
    StructureReport,
    allocation_from_json,
    allocation_to_json,
    analyze_structure,
    build_instance,
    edge_set,
    instance_from_json,
    instance_to_json,
    instance_to_text,
    is_complete,
    is_orientation,
    load_allocation,
    load_instance,
    make_allocation,
    parse_rational,
    save_instance,
    two_coloring,
)
from .oracle import (
    BudgetExceededError,
    OracleResult,
    decide_efx_allocation,
    decide_efx_orientation,
)
from .solvers import solve_multicycle, solve_multistar, solve_multitree_d4_q2

__version__ = "0.1.0"
