from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from efx_multigraph import (
    StructureError,
    allocation_to_json,
    build_instance,
    bundle_value,
    c4_counter,
    check_efx,
    check_envied_singleton,
    cut,
    decide_efx_orientation,
    is_complete,
    is_orientation,
    random_instance,
    solve_multicycle,
    solve_multistar,
    solve_multitree_d4_q2,
)
from efx_multigraph.bipartite import PipelineTrace
from efx_multigraph.fairness import value_rows
from efx_multigraph.solvers import _divergent_split, _tree_center
from reference import center_by_bfs


def _solved(inst, alloc, orientation):
    assert is_complete(inst, alloc)
    assert check_efx(inst, alloc).passed
    if orientation:
        assert is_orientation(inst, alloc)


# ---------------------------------------------------------------------------
# stars


def test_star_single_leaf_cut_and_choose():
    inst = build_instance(2, [(0, 1, 10, 10), (0, 1, 9, 9)])
    alloc = solve_multistar(inst)
    assert alloc.bundles[1] == {0}
    assert alloc.bundles[0] == {1}
    _solved(inst, alloc, orientation=True)


def test_star_simple_leaves_take_their_edges():
    inst = build_instance(4, [(0, 1, 1, 2), (0, 2, 1, 3), (0, 3, 1, 4)])
    alloc = solve_multistar(inst)
    assert alloc.bundles[1] == {0}
    assert alloc.bundles[2] == {1}
    assert alloc.bundles[3] == {2}
    assert alloc.bundles[0] == frozenset()
    _solved(inst, alloc, orientation=True)


def test_star_q2_leaf_takes_preferred():
    inst = build_instance(3, [(0, 1, 8, 8), (0, 1, 3, 3), (0, 2, 2, 5), (0, 2, 9, 4)])
    alloc = solve_multistar(inst)
    assert 0 in alloc.bundles[1]  # the 8-edge
    assert 2 in alloc.bundles[2]  # the edge leaf 2 values at 5
    _solved(inst, alloc, orientation=True)


def test_star_rejects_path():
    inst = build_instance(4, [(0, 1, 1, 1), (1, 2, 1, 1), (2, 3, 1, 1)])
    with pytest.raises(StructureError):
        solve_multistar(inst)


def test_star_random_sweep():
    for seed in range(60):
        rng = random.Random(seed)
        n = rng.randint(1, 8)
        m = 0 if n == 1 else rng.randint(n - 1, min(5 * (n - 1), 20))
        inst = random_instance(n, m, 5, "star", num_max=60, den_max=7,
                               symmetric=bool(seed % 2), seed=seed)
        _solved(inst, solve_multistar(inst), orientation=True)


# ---------------------------------------------------------------------------
# trees


def test_tree_star_degenerates_to_base_case():
    inst = build_instance(3, [(0, 1, 5, 5), (0, 1, 4, 4), (0, 2, 3, 3)])
    alloc = solve_multitree_d4_q2(inst)
    _solved(inst, alloc, orientation=True)
    assert alloc.bundles[0] == {0}  # the center keeps its favorite item


def test_tree_case_b_children_take_whole_pairs():
    inst = build_instance(4, [(0, 1, 10, 10), (0, 2, 9, 9), (0, 2, 8, 8),
                              (2, 3, 5, 5), (2, 3, 1, 1)])
    alloc = solve_multitree_d4_q2(inst)
    assert alloc.bundles[2] == {1, 2}
    assert alloc.bundles[3] == {3, 4}
    _solved(inst, alloc, orientation=True)


def test_tree_case_c_reroots_the_branch():
    # The depth-1 agent prefers its child's big item over its center edges: it
    # keeps only that item, the center takes the shared pair back, and the
    # center's old envier is paid off with the center's previous item.
    inst = build_instance(4, [(0, 1, 10, 10), (0, 2, 9, 9), (0, 2, 8, 8),
                              (2, 3, 100, 100), (2, 3, 1, 1)])
    alloc = solve_multitree_d4_q2(inst)
    assert alloc.bundles[2] == {3}
    assert alloc.bundles[3] == {4}
    assert alloc.bundles[0] == {1, 2}
    assert alloc.bundles[1] == {0}
    _solved(inst, alloc, orientation=True)


def test_tree_rejects_deep_or_thick():
    path6 = build_instance(6, [(i, i + 1, 1, 1) for i in range(5)])
    with pytest.raises(StructureError):
        solve_multitree_d4_q2(path6)
    thick = build_instance(2, [(0, 1, 1, 1)] * 3)
    with pytest.raises(StructureError):
        solve_multitree_d4_q2(thick)


def test_tree_random_sweep_with_step_invariants():
    done = 0
    seed = 0
    while done < 80:
        seed += 1
        rng = random.Random(seed)
        n = rng.randint(2, 9)
        m = rng.randint(n - 1, min(2 * (n - 1), 18))
        inst = random_instance(n, m, 2, "tree", num_max=40, den_max=6,
                               symmetric=bool(seed % 2), seed=seed)
        trace = PipelineTrace()
        alloc = solve_multitree_d4_q2(inst, trace=trace)
        _solved(inst, alloc, orientation=True)
        for snap in trace.snapshots.values():
            assert check_envied_singleton(inst, snap).passed
        done += 1


# ---------------------------------------------------------------------------
# cycles


def test_cycle_even_is_solved_via_bipartite_route():
    inst = c4_counter()
    alloc = solve_multicycle(inst)
    _solved(inst, alloc, orientation=False)
    # no orientation exists for this instance, so waste is forced
    assert not is_orientation(inst, alloc)
    assert not decide_efx_orientation(inst).exists


def test_cycle_odd_aligned_preferences_case2():
    pairs = []
    for i in range(5):
        j = (i + 1) % 5
        a, b = min(i, j), max(i, j)
        pairs += [(a, b, 2, 2), (a, b, 1, 1)]
    inst = build_instance(5, pairs)
    alloc = solve_multicycle(inst)
    _solved(inst, alloc, orientation=False)


def test_cycle_triangle_rejected():
    inst = build_instance(3, [(0, 1, 1, 1), (1, 2, 1, 1), (0, 2, 1, 1)])
    with pytest.raises(StructureError, match="3-cycle"):
        solve_multicycle(inst)


def test_cycle_rejects_non_cycle():
    inst = build_instance(3, [(0, 1, 1, 1), (1, 2, 1, 1)])
    with pytest.raises(StructureError):
        solve_multicycle(inst)


def test_cycle_random_sweep():
    done = 0
    seed = 0
    while done < 60:
        seed += 1
        rng = random.Random(seed)
        n = rng.randint(4, 8)
        m = rng.randint(n, min(3 * n, 20))
        inst = random_instance(n, m, 3, "cycle", num_max=30, den_max=5,
                               symmetric=bool(seed % 2), seed=seed)
        _solved(inst, solve_multicycle(inst), orientation=False)
        done += 1


# ---------------------------------------------------------------------------
# output pin


def _pin_instances(k):
    """Seeded star, tree and cycle instances for solve k.  Small value ranges
    make exact ties, which the cut-half tie rules decide."""
    rng = random.Random(k)
    num_max, den_max = ((3, 1), (10, 3), (1000, 1000))[k % 3]
    kw = dict(num_max=num_max, den_max=den_max, symmetric=bool(k // 3 % 2), seed=k)
    n = rng.randint(2, 8)
    star = random_instance(n, rng.randint(n - 1, 3 * (n - 1)), 3, "star", **kw)
    n = rng.randint(2, 9)
    tree = random_instance(n, rng.randint(n - 1, 2 * (n - 1)), 2, "tree", **kw)
    n = rng.randint(3, 9)
    cycle = random_instance(n, rng.randint(n, 3 * n), 3, "cycle", **kw)
    return star, tree, cycle


def _pin_outcome(solve, inst, **kw):
    try:
        return allocation_to_json(solve(inst, **kw))["bundles"]
    except StructureError as exc:
        return str(exc)


def _ranked_alike(inst, a, b):
    """Both endpoints of (a, b) rank the halves of each of the pair's two cuts
    the same way (strictly, or both indifferent)."""
    for cutter, other in ((a, b), (b, a)):
        cfg = cut(inst, cutter, other)
        da, db = (bundle_value(inst, x, cfg.c1) - bundle_value(inst, x, cfg.c2) for x in (a, b))
        if not (da * db > 0 or da == db == 0):
            return False
    return True


def _shrinks(snapshots):
    """Some bundle loses an edge between consecutive tree-solver snapshots: only
    the re-root step takes edges away."""
    return any(not old <= new for before, after in zip(snapshots, snapshots[1:])
               for old, new in zip(before.bundles, after.bundles))


# SHA-256 over the outputs of the batch below, recorded before the solvers were
# rebuilt on the shared cut and shape rules.
SOLVER_PIN_SHA = "0ffaa2bdda50c606247bcb596b301b9acab856ebd4729208ec6d8ac7aefdf6b6"


def test_structure_solver_outputs_pinned():
    outcomes = []
    odd_case2 = reroots = 0
    for k in range(300):
        star, tree, cycle = _pin_instances(k)
        trace = PipelineTrace()
        outcomes.append(_pin_outcome(solve_multistar, star))
        outcomes.append(_pin_outcome(solve_multitree_d4_q2, tree, trace=trace))
        outcomes.append(_pin_outcome(solve_multicycle, cycle))
        reroots += _shrinks(list(trace.snapshots.values()))
        if cycle.n % 2 and cycle.n > 3 and all(_ranked_alike(cycle, a, b) for a, b in cycle.pairs()):
            odd_case2 += 1
    digest = hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()
    # The batch reaches the odd-cycle case-2 path and the tree re-root step.
    assert (odd_case2, reroots) == (64, 10)
    assert digest == SOLVER_PIN_SHA


# SHA-256 over the tree solver's step snapshots on the trees of the batch above,
# recorded when the solver still appended them to a list of its own.
TREE_STEPS_SHA = "9fa3cd85e05601e44ba11a321550ca1f677333b7c0de70ef985ef391c6a640da"


def test_tree_step_snapshots_pinned():
    steps = []
    for k in range(300):
        tree = _pin_instances(k)[1]
        trace = PipelineTrace()
        alloc = solve_multitree_d4_q2(tree, trace=trace)
        assert trace.snapshots.pop("final") == alloc
        assert all(name.split()[0] in ("center", "attach") for name in trace.snapshots)
        assert not trace.flags and not trace.events
        steps.append([[sorted(b) for b in snap.bundles] for snap in trace.snapshots.values()])
    assert hashlib.sha256(json.dumps(steps).encode()).hexdigest() == TREE_STEPS_SHA


def test_tree_center_matches_least_eccentricity():
    rng = random.Random(11)
    trees = [_pin_instances(k)[1] for k in range(300)]
    for n in range(2, 60):
        # Each agent hangs off a random earlier one: diameters up to n - 1,
        # odd and even, with ties in the farthest agent.
        trees.append(build_instance(n, [(rng.randrange(v), v, 1, 1) for v in range(1, n)]))
    for tree in trees:
        for depth in tree.component_depths:
            if len(depth) > 1:
                assert _tree_center(tree, depth) == center_by_bfs(tree, sorted(depth))


def test_tree_solver_computes_no_eccentricities(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the tree solver computed every eccentricity")

    monkeypatch.setattr("efx_multigraph.model._ball_center", forbidden)
    monkeypatch.setattr("efx_multigraph.solvers._ball_center", forbidden, raising=False)
    for k in range(300):
        tree = _pin_instances(k)[1]
        _solved(tree, solve_multitree_d4_q2(tree), orientation=True)
    path = build_instance(4000, [(i, i + 1, 1 + i % 3, 2) for i in range(3999)])
    with pytest.raises(StructureError, match="diameter above 4"):
        solve_multitree_d4_q2(path)


def test_tree_solver_rebuilds_no_value_rows(monkeypatch):
    calls = []

    def counted(inst, alloc):
        calls.append(1)
        return value_rows(inst, alloc)

    for module in ("fairness", "derived", "solvers"):
        monkeypatch.setattr(f"efx_multigraph.{module}.value_rows", counted, raising=False)
    for k in range(300):
        tree = _pin_instances(k)[1]
        calls.clear()
        solve_multitree_d4_q2(tree)
        # Once when the allocation state starts, once in the output check.
        assert len(calls) <= 2, k


def _rational_split(inst, a, b, cfg):
    """The divergent labeling by the rational margins v(c1) - v(c2)."""
    da, db = (bundle_value(inst, x, cfg.c1) - bundle_value(inst, x, cfg.c2) for x in (a, b))
    if da * db > 0 or da == db:
        return None
    return (cfg.c1, cfg.c2) if da > db else (cfg.c2, cfg.c1)


def test_divergent_split_across_scales():
    # Agent 0's values are whole (scale 1), agent 1's are sevenths (scale 7).
    # Cut by 0: c1 = {0} (3 against 2).  Agent 0's margin is 1, agent 1's is
    # 1/7 - 5/7 = -4/7, or -4 in its own integer weights: larger in size than
    # agent 0's 1, smaller as a rational.  The halves still go by the signs.
    inst = build_instance(2, [(0, 1, 3, Fraction(1, 7)), (0, 1, 2, Fraction(5, 7))])
    assert inst.scales == (1, 7)
    cfg = cut(inst, 0, 1)
    assert (cfg.c1, cfg.c2) == ({0}, {1})
    assert _divergent_split(0, 1, cfg) == ({0}, {1})
    assert _divergent_split(1, 0, cfg) == ({1}, {0})


_weight = st.builds(Fraction, st.integers(1, 60), st.sampled_from([1, 2, 3, 7, 10, 12, 1000]))


@given(st.lists(st.tuples(_weight, _weight), min_size=1, max_size=5))
def test_divergent_split_matches_rational_margins(weights):
    inst = build_instance(2, [(0, 1, wu, wv) for wu, wv in weights])
    for cutter in (0, 1):
        cfg = cut(inst, cutter, 1 - cutter)
        for a in (0, 1):
            assert _divergent_split(a, 1 - a, cfg) == _rational_split(inst, a, 1 - a, cfg)
