from __future__ import annotations

import itertools
import random

import pytest

from efx_multigraph import (
    BudgetExceededError,
    InstanceError,
    build_instance,
    c4_counter,
    check_efx,
    complete_efx,
    decide_efx_allocation,
    decide_efx_orientation,
    envied_set,
    make_allocation,
    np_gadget,
    p3_block,
    p4_qn,
    random_instance,
    running_example,
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
    # the split depth are shared by several tasks.  A first-witness search reads
    # the tasks in prefix order and stops at the first that finds a witness.
    def orient(inst, count):
        return lambda jobs: decide_efx_orientation(inst, count=count, jobs=jobs)

    triangle = random_instance(3, 5, 3, "cycle", den_max=1000, seed=1)
    searches = [
        (orient(c4_counter(), True), 101),
        (orient(p3_block(), True), 13),
        (orient(p4_qn(6), True), 2808),
        (orient(running_example(), False), 10853),
        (orient(p4_qn(6), False), 2808),
        (orient(c4_counter(), False), 101),
        (orient(np_gadget((3, 1, 1, 2, 2, 1)), False), 684),
        (lambda jobs: decide_efx_allocation(triangle, jobs=jobs), 28),
    ]
    for search, explored in searches:
        solo = search(1)
        assert solo.explored == explored
        for jobs in (2, 4):
            many = search(jobs)
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


# Instances whose agents mix large denominators (the gadget's eps/delta reach
# 1/10^6; the random ones draw them from [1, 1000]), with the search each is
# run under.  The search scales every agent's values to integers on its own.
def _mixed_denominator_runs():
    def orient(inst, count=True):
        return lambda **kw: decide_efx_orientation(inst, count=count, **kw)

    runs = {
        "np_gadget(3,1,1,2,2,2)": orient(np_gadget((3, 1, 1, 2, 2, 2))),
        "running_example": orient(running_example(), count=False),
    }
    for seed in (1, 2, 3):
        inst = random_instance(4, 8, 4, "bipartite", den_max=1000, seed=seed)
        runs[f"bipartite-4x8-seed{seed}"] = orient(inst)
    triangle = random_instance(3, 5, 3, "cycle", den_max=1000, seed=1)
    runs["cycle-3x5-seed1/allocation"] = lambda **kw: decide_efx_allocation(triangle, **kw)
    return runs


def _outcome(result):
    witness = None if result.witness is None else [sorted(b) for b in result.witness.bundles]
    return (result.exists, result.count, witness, result.explored)


# (exists, count, witness bundles, explored) per (run, prune, jobs), recorded
# with the search on exact rationals.  explored is the same for every jobs
# value, with or without a count.
MIXED_DENOMINATOR_PINS = {
    ('bipartite-4x8-seed1', True, 1):
        (True, 14, [[5, 6], [0, 4], [1, 2, 7], [3]], 129),
    ('bipartite-4x8-seed1', True, 2):
        (True, 14, [[5, 6], [0, 4], [1, 2, 7], [3]], 129),
    ('bipartite-4x8-seed1', False, 1):
        (True, 14, [[5, 6], [0, 4], [1, 2, 7], [3]], 511),
    ('bipartite-4x8-seed1', False, 2):
        (True, 14, [[5, 6], [0, 4], [1, 2, 7], [3]], 511),
    ('bipartite-4x8-seed2', True, 1):
        (True, 13, [[0, 6], [3, 4], [1, 2, 5], [7]], 128),
    ('bipartite-4x8-seed2', True, 2):
        (True, 13, [[0, 6], [3, 4], [1, 2, 5], [7]], 128),
    ('bipartite-4x8-seed2', False, 1):
        (True, 13, [[0, 6], [3, 4], [1, 2, 5], [7]], 511),
    ('bipartite-4x8-seed2', False, 2):
        (True, 13, [[0, 6], [3, 4], [1, 2, 5], [7]], 511),
    ('bipartite-4x8-seed3', True, 1):
        (True, 19, [[0, 1, 3, 4, 6], [2], [5], [7]], 134),
    ('bipartite-4x8-seed3', True, 2):
        (True, 19, [[0, 1, 3, 4, 6], [2], [5], [7]], 134),
    ('bipartite-4x8-seed3', False, 1):
        (True, 19, [[0, 1, 3, 4, 6], [2], [5], [7]], 511),
    ('bipartite-4x8-seed3', False, 2):
        (True, 19, [[0, 1, 3, 4, 6], [2], [5], [7]], 511),
    ('cycle-3x5-seed1/allocation', True, 1):
        (True, None, [[1, 3], [0, 2], [4]], 28),
    ('cycle-3x5-seed1/allocation', True, 2):
        (True, None, [[1, 3], [0, 2], [4]], 28),
    ('cycle-3x5-seed1/allocation', False, 1):
        (True, None, [[1, 3], [0, 2], [4]], 142),
    ('cycle-3x5-seed1/allocation', False, 2):
        (True, None, [[1, 3], [0, 2], [4]], 142),
    ('np_gadget(3,1,1,2,2,2)', True, 1):
        (False, 0, None, 3661),
    ('np_gadget(3,1,1,2,2,2)', True, 2):
        (False, 0, None, 3661),
    ('np_gadget(3,1,1,2,2,2)', False, 1):
        (False, 0, None, 131071),
    ('np_gadget(3,1,1,2,2,2)', False, 2):
        (False, 0, None, 131071),
    ('running_example', True, 1):
        (True, None, [[0, 4, 5, 9, 10], [1, 2], [8, 13], [14, 15, 16], [3, 17], [6, 7], [11, 12]], 10853),
    ('running_example', True, 2):
        (True, None, [[0, 4, 5, 9, 10], [1, 2], [8, 13], [14, 15, 16], [3, 17], [6, 7], [11, 12]], 10853),
    ('running_example', False, 1):
        (True, None, [[0, 4, 5, 9, 10], [1, 2], [8, 13], [14, 15, 16], [3, 17], [6, 7], [11, 12]], 39119),
    ('running_example', False, 2):
        (True, None, [[0, 4, 5, 9, 10], [1, 2], [8, 13], [14, 15, 16], [3, 17], [6, 7], [11, 12]], 39119),
}


@pytest.mark.parametrize("name", sorted(_mixed_denominator_runs()))
def test_mixed_denominator_outcomes_pinned(name):
    run = _mixed_denominator_runs()[name]
    for prune in (True, False):
        for jobs in (1, 2):
            assert _outcome(run(prune=prune, jobs=jobs)) == MIXED_DENOMINATOR_PINS[name, prune, jobs]


def test_count_and_witness_match_the_definition():
    # Reference: every orientation vector in lexicographic order, judged by the
    # exact-rational check_efx alone.
    checked = 0
    seed = 0
    while checked < 20:
        seed += 1
        rng = random.Random(seed)
        n, m = rng.randint(2, 4), rng.randint(5, 9)
        try:
            inst = random_instance(n, m, 4, "bipartite", den_max=1000, seed=seed)
        except InstanceError:
            continue
        choices = [(e.u, e.v) for e in inst.edges]
        efx = []
        for vector in itertools.product(*choices):
            bundles = [set() for _ in range(inst.n)]
            for e, k in enumerate(vector):
                bundles[k].add(e)
            if check_efx(inst, make_allocation(inst.n, bundles)).passed:
                efx.append(bundles)
        for prune in (True, False):
            result = decide_efx_orientation(inst, count=True, prune=prune)
            assert result.count == len(efx)
            if efx:
                assert [set(b) for b in result.witness.bundles] == efx[0]
            else:
                assert result.witness is None
        checked += 1
