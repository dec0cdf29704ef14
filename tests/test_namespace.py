"""The package namespace: every public name, read lazily from its home module."""
from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import efx_multigraph

# Each public name under the module the package has always imported it from.
PUBLIC = {
    "bipartite": ["PipelineTrace", "PropertyFlags", "check_properties", "complete_efx",
                  "enforce_safe_sets", "greedy_orientation", "half_efx_orientation",
                  "half_efx_parts", "saturate_non_envied"],
    "cutting": ["CutConfig", "cut", "preferred_bundle"],
    "derived": ["available", "available_bundles", "available_set", "safe_set", "t_side_of"],
    "fairness": ["Verdict", "Witness", "achieved_alpha", "bundle_value", "check_efx",
                 "check_envied_singleton", "envied_set", "envies", "enviers_of",
                 "is_efx_feasible", "strongly_envies"],
    "forge": ["FamilySpec", "c4_counter", "generate", "np_gadget", "p3_block", "p4_q3", "p4_qn",
              "p6_counter", "random_instance", "reduce_partition", "running_example"],
    "model": ["Allocation", "EdgeItem", "Instance", "InstanceError", "StructureError",
              "StructureReport", "allocation_from_json", "allocation_to_json",
              "analyze_structure", "build_instance", "edge_set", "instance_from_json",
              "instance_to_json", "instance_to_text", "is_complete", "is_orientation",
              "load_allocation", "load_instance", "make_allocation", "parse_rational",
              "save_instance", "two_coloring"],
    "oracle": ["BudgetExceededError", "OracleResult", "decide_efx_allocation",
               "decide_efx_orientation"],
    "solvers": ["solve_multicycle", "solve_multistar", "solve_multitree_d4_q2"],
}


def test_all_lists_the_public_names():
    names = [name for names in PUBLIC.values() for name in names]
    assert len(names) == len(set(names)) == 68
    assert sorted(efx_multigraph.__all__) == sorted(names)
    assert efx_multigraph.__version__ == "0.1.0"


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_each_name_is_its_module_object(module):
    home = importlib.import_module(f"efx_multigraph.{module}")
    for name in PUBLIC[module]:
        assert getattr(efx_multigraph, name) is getattr(home, name), name


def test_star_import_and_dir_list_every_name():
    namespace: dict = {}
    exec("from efx_multigraph import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(efx_multigraph.__all__)
    assert set(efx_multigraph.__all__) <= set(dir(efx_multigraph))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        efx_multigraph.no_such_name
    with pytest.raises(ImportError):
        exec("from efx_multigraph import no_such_name", {})


def test_a_module_read_by_name_is_imported_then():
    # A fresh process: this session has imported every module already.
    code = ("import sys, efx_multigraph; from efx_multigraph import bipartite; "
            "print(bipartite.__name__, efx_multigraph.solvers.__name__, "
            "'efx_multigraph.oracle' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(efx_multigraph.__file__).resolve().parent.parent))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, text=True,
                            timeout=60, check=True)
    assert result.stdout.split() == ["efx_multigraph.bipartite", "efx_multigraph.solvers", "False"]


def test_budget_error_is_one_class():
    from efx_multigraph import model, oracle

    assert efx_multigraph.BudgetExceededError is oracle.BudgetExceededError
    assert oracle.BudgetExceededError is model.BudgetExceededError
