from __future__ import annotations

import random

import pytest

from efx_multigraph import (
    BudgetExceededError,
    build_instance,
    c4_counter,
    check_efx,
    complete_efx,
    decide_efx_allocation,
    decide_efx_orientation,
    envied_set,
    p3_block,
    p4_qn,
    random_instance,
)


def test_orientation_counts_building_block():
    result = decide_efx_orientation(p3_block(), count=True)
    assert result.exists
    assert result.count == 2
    assert result.state_space == 16


def test_orientation_nonexistence_on_c4():
    result = decide_efx_orientation(c4_counter(), count=True)
    assert not result.exists
    assert result.count == 0
    assert result.state_space == 256


def test_single_edge_both_directions():
    inst = build_instance(2, [(0, 1, 3, 4)])
    result = decide_efx_orientation(inst, count=True)
    assert result.exists and result.count == 2
    assert result.witness.bundles[0] == {0}  # lexicographically first: edge to u


def test_witness_is_lexicographically_first():
    inst = build_instance(2, [(0, 1, 5, 5), (0, 1, 5, 5)])
    result = decide_efx_orientation(inst)
    # first EFX vector in lex order is (u, v): edge 0 to agent 0, edge 1 to agent 1
    assert result.witness.bundles[0] == {0}
    assert result.witness.bundles[1] == {1}


def test_allocation_exists_on_c4():
    result = decide_efx_allocation(c4_counter())
    assert result.exists
    assert check_efx(c4_counter(), result.witness).passed


def test_allocation_trivial():
    inst = build_instance(2, [(0, 1, 1, 2)])
    result = decide_efx_allocation(inst)
    assert result.exists


def test_budget_enforced():
    inst = build_instance(2, [(0, 1, 1, 1)] * 5)
    with pytest.raises(BudgetExceededError):
        decide_efx_orientation(inst, budget=31)
    decide_efx_orientation(inst, budget=32)


def test_empty_instance():
    inst = build_instance(3, [])
    result = decide_efx_orientation(inst, count=True)
    assert result.exists and result.count == 1


def _tiny_instances(count, max_m, allow_general=True):
    out = []
    seed = 0
    while len(out) < count:
        seed += 1
        rng = random.Random(seed)
        n = rng.randint(2, 4)
        m = rng.randint(1, max_m)
        shape = rng.choice(["bipartite", "star"]) if not allow_general else "bipartite"
        try:
            inst = random_instance(n, m, 3, shape, num_max=12, den_max=3,
                                   symmetric=bool(seed % 2), seed=seed)
        except Exception:
            continue
        out.append(inst)
    return out


def test_pruned_and_unpruned_agree_orientation():
    for inst in _tiny_instances(25, max_m=9):
        pruned = decide_efx_orientation(inst, count=True, prune=True)
        plain = decide_efx_orientation(inst, count=True, prune=False)
        assert pruned.exists == plain.exists
        assert pruned.count == plain.count
        assert pruned.witness == plain.witness
        assert pruned.explored <= plain.explored


def test_pruned_and_unpruned_agree_allocation():
    for inst in _tiny_instances(15, max_m=6):
        pruned = decide_efx_allocation(inst, prune=True)
        plain = decide_efx_allocation(inst, prune=False)
        assert pruned.exists == plain.exists
        assert pruned.witness == plain.witness


def test_orientation_implies_allocation():
    for inst in _tiny_instances(15, max_m=7):
        if decide_efx_orientation(inst).exists:
            assert decide_efx_allocation(inst).exists


def test_parallel_jobs_deterministic():
    # explored counts every node once, whichever task reaches it: the nodes above
    # the split depth are shared by several tasks.
    for inst, explored in ((c4_counter(), 101), (p3_block(), 13), (p4_qn(6), 2808)):
        solo = decide_efx_orientation(inst, count=True, jobs=1)
        assert solo.explored == explored
        for jobs in (2, 4):
            many = decide_efx_orientation(inst, count=True, jobs=jobs)
            assert (solo.exists, solo.count, solo.witness, solo.explored) == \
                (many.exists, many.count, many.witness, many.explored)


def test_pipeline_agrees_with_oracle():
    for inst in _tiny_instances(10, max_m=6):
        final, _ = complete_efx(inst)
        assert check_efx(inst, final).passed
        assert decide_efx_allocation(inst).exists


def test_p3_block_witnesses_leave_agent2_envied():
    inst = p3_block()
    result = decide_efx_orientation(inst, count=True)
    assert 2 in envied_set(inst, result.witness)
