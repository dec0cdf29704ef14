"""Acceptance suite: one test per advertised guarantee, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -v -s`` to see them live).

Criterion 6 pins the whole trace of the three-stage solver on the seven-agent
walkthrough instance to snapshots and an event log derived by hand from the
stage rules (see ``conftest.py``).  It also checks why the published
walkthrough's stage-2 snapshot is not used: that state leaves nobody envied yet
gives agents 0 and 1 non-empty available sets, so it fails P4, the stage-2 exit
condition.
"""
from __future__ import annotations

import hashlib
import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import product

import pytest

from efx_multigraph import (
    InstanceError,
    achieved_alpha,
    available_set,
    build_instance,
    c4_counter,
    check_efx,
    check_envied_singleton,
    check_properties,
    complete_efx,
    cut,
    decide_efx_allocation,
    decide_efx_orientation,
    envied_set,
    greedy_orientation,
    half_efx_orientation,
    is_complete,
    is_efx_feasible,
    is_orientation,
    make_allocation,
    np_gadget,
    p3_block,
    p4_q3,
    p4_qn,
    p6_counter,
    random_instance,
    running_example,
    saturate_non_envied,
    solve_multicycle,
    solve_multistar,
    solve_multitree_d4_q2,
    two_coloring,
)
from efx_multigraph.bipartite import PipelineTrace, enforce_safe_sets
from conftest import (
    FINAL_ACTUAL,
    STAGE1_BUNDLES,
    STAGE2_ACTUAL,
    STAGE2_DOCUMENTED,
    STAGE3_ACTUAL,
    WALKTHROUGH_EVENTS,
)
from reference import claim_leftover_pairs, claim_non_envied_bound, envied_only_in_s


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num:>2} {label}: FAIL")
        raise
    print(f"\nACCEPTANCE {num:>2} {label}: PASS")


# ---------------------------------------------------------------------------
# shared batches


def _random_bipartite(seed: int) -> build_instance:
    rng = random.Random(seed)
    n = rng.randint(2, 8)
    m = rng.randint(0, 20)
    den_max = rng.choice([1, 6, 1000])
    return random_instance(n, m, 4, "bipartite", num_max=1000, den_max=den_max,
                           symmetric=bool(seed % 2), seed=seed)


@pytest.fixture(scope="module")
def bipartite_batch():
    instances = []
    seed = 0
    while len(instances) < 1000:
        seed += 1
        try:
            instances.append(_random_bipartite(seed))
        except InstanceError:
            continue
    return instances


@pytest.fixture(scope="module")
def pipeline_runs(bipartite_batch):
    t0 = time.time()
    runs = [(inst,) + complete_efx(inst) for inst in bipartite_batch]
    return runs, time.time() - t0


@pytest.fixture(scope="module")
def half_runs(bipartite_batch):
    runs = []
    for inst in bipartite_batch:
        trace = PipelineTrace()
        alloc = half_efx_orientation(inst, trace=trace)
        runs.append((inst, alloc, trace))
    return runs


@pytest.fixture(scope="module")
def special_runs():
    stars, trees, cycles = [], [], []
    seed = 0
    while len(stars) < 300:
        seed += 1
        rng = random.Random(seed)
        n = rng.randint(1, 8)
        m = 0 if n == 1 else rng.randint(n - 1, min(5 * (n - 1), 20))
        inst = random_instance(n, m, 5, "star", num_max=200, den_max=8,
                               symmetric=bool(seed % 2), seed=seed)
        stars.append((inst, solve_multistar(inst)))
    seed = 0
    while len(trees) < 300:
        seed += 1
        rng = random.Random(30_000 + seed)
        n = rng.randint(2, 9)
        m = rng.randint(n - 1, min(2 * (n - 1), 18))
        inst = random_instance(n, m, 2, "tree", num_max=200, den_max=8,
                               symmetric=bool(seed % 2), seed=seed)
        trace = PipelineTrace()
        alloc = solve_multitree_d4_q2(inst, trace=trace)
        trees.append((inst, alloc, trace))
    seed = 0
    while len(cycles) < 200:
        seed += 1
        rng = random.Random(60_000 + seed)
        n = rng.randint(4, 8)
        m = rng.randint(n, min(3 * n, 20))
        inst = random_instance(n, m, 3, "cycle", num_max=200, den_max=8,
                               symmetric=bool(seed % 2), seed=seed)
        cycles.append((inst, solve_multicycle(inst)))
    return stars, trees, cycles


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_c4_has_no_orientation():
    with criterion(1, "four-cycle counter-example"):
        t0 = time.time()
        result = decide_efx_orientation(c4_counter(Fraction(1, 100), Fraction(1, 10**6)))
        assert result.state_space == 256
        assert result.exists is False
        assert time.time() - t0 < 1.0


def test_criterion_02_thick_paths_have_no_orientation():
    with criterion(2, "thick four-agent paths"):
        for inst, space in ((p4_q3(), 2 ** 7), (p4_qn(4), 2 ** 9), (p4_qn(5), 2 ** 11)):
            t0 = time.time()
            result = decide_efx_orientation(inst)
            assert result.state_space == space
            assert result.exists is False
            assert time.time() - t0 < 1.0


def test_criterion_03_building_block_count():
    with criterion(3, "building block has exactly two orientations"):
        inst = p3_block()
        result = decide_efx_orientation(inst, count=True)
        assert result.count == 2
        # independent enumeration of all 16 orientations
        found = []
        for vector in product(*[(e.u, e.v) for e in inst.edges]):
            bundles = [set() for _ in range(inst.n)]
            for e, holder in enumerate(vector):
                bundles[holder].add(e)
            alloc = make_allocation(inst.n, bundles)
            if check_efx(inst, alloc).passed:
                found.append(alloc)
        assert len(found) == 2
        for alloc in found:
            assert 2 in envied_set(inst, alloc)


def test_criterion_04_p6_has_no_orientation():
    with criterion(4, "six-agent double-block path"):
        result = decide_efx_orientation(p6_counter())
        assert result.state_space == 512
        assert result.exists is False


def _splits_evenly(values) -> bool:
    total = sum(values)
    if total % 2:
        return False
    half = total // 2
    return any(sum(combo) == half
               for r in range(len(values) + 1)
               for combo in __import__("itertools").combinations(values, r))


def test_criterion_05_partition_gadget():
    with criterion(5, "partition gadget"):
        assert decide_efx_orientation(np_gadget((1, 2, 3))).exists is True
        assert decide_efx_orientation(np_gadget((1, 1, 1))).exists is False
        assert decide_efx_orientation(np_gadget((2,))).exists is False
        rng = random.Random(7)
        for _ in range(20):
            k = rng.randint(1, 4)
            values = tuple(rng.randint(0, 6) for _ in range(k))
            if all(v == 0 for v in values):
                values = values[:-1] + (rng.randint(1, 6),)
            gadget = np_gadget(values)
            assert decide_efx_orientation(gadget).exists == _splits_evenly(values), values


def test_criterion_06_walkthrough_golden_trace():
    with criterion(6, "walkthrough golden trace"):
        inst = running_example()
        parts = two_coloring(inst)
        stage1 = greedy_orientation(inst)
        assert [set(b) for b in stage1.bundles] == STAGE1_BUNDLES
        stage2 = saturate_non_envied(inst, stage1)
        assert [set(b) for b in stage2.bundles] == STAGE2_ACTUAL
        stage3 = enforce_safe_sets(inst, stage2)
        assert [set(b) for b in stage3.bundles] == STAGE3_ACTUAL
        final, trace = complete_efx(inst)
        assert [set(b) for b in final.bundles] == FINAL_ACTUAL
        snapshots = {name: [set(b) for b in alloc.bundles]
                     for name, alloc in trace.snapshots.items()}
        assert snapshots == {"greedy": STAGE1_BUNDLES, "saturate": STAGE2_ACTUAL,
                             "safe": STAGE3_ACTUAL, "final": FINAL_ACTUAL}
        assert trace.events == WALKTHROUGH_EVENTS
        # The published stage-2 snapshot is no stage-2 fixpoint: nobody is envied
        # there, yet agents 0 and 1 can still claim edges, so P4 fails.
        documented = make_allocation(inst.n, STAGE2_DOCUMENTED)
        assert envied_set(inst, documented) == set()
        assert not check_properties(inst, documented, parts).p4
        assert available_set(inst, documented, 0, parts) == {5, 10}
        assert available_set(inst, documented, 1, parts) == {7, 12}


def test_criterion_07_bipartite_pipeline_properties(pipeline_runs):
    with criterion(7, "bipartite pipeline on 1000 random instances"):
        runs, elapsed = pipeline_runs
        assert len(runs) == 1000
        for inst, final, trace in runs:
            parts = two_coloring(inst)
            assert is_complete(inst, final)
            assert check_efx(inst, final).passed
            f1 = trace.flags["greedy"]
            f2 = trace.flags["saturate"]
            f3 = trace.flags["safe"]
            assert f1.p1 and f1.p2 and f1.p3
            assert f2.p1 and f2.p2 and f2.p3 and f2.p4
            assert f3.p1 and f3.p2 and f3.p3 and f3.p4 and f3.p5
            for name in ("greedy", "saturate", "safe"):
                assert envied_only_in_s(inst, trace.snapshots[name], parts)
            for name in ("saturate", "safe"):
                assert claim_leftover_pairs(inst, trace.snapshots[name], parts)
                assert claim_non_envied_bound(inst, trace.snapshots[name])
        assert elapsed < 60.0, f"pipeline batch took {elapsed:.1f}s"


def test_criterion_08_half_efx_guarantees(half_runs):
    with criterion(8, "half-EFX orientation on the same 1000 instances"):
        assert len(half_runs) == 1000
        for inst, alloc, _ in half_runs:
            assert is_complete(inst, alloc)
            assert is_orientation(inst, alloc)
            alphas = [achieved_alpha(inst, alloc, a) for a in range(inst.n)]
            assert all(a >= Fraction(1, 2) for a in alphas)
            assert sum(1 for a in alphas if a == 1) >= (inst.n + 1) // 2


def test_criterion_09_cut_halves_always_feasible():
    with criterion(9, "greedy cut feasibility on 1000 multisets"):
        rng = random.Random(11)
        for _ in range(1000):
            size = rng.randint(0, 12)
            values = [Fraction(rng.randint(1, 400), rng.randint(1, 20)) for _ in range(size)]
            inst = build_instance(2, [(0, 1, w, w) for w in values])
            cutter = rng.choice([0, 1])
            cfg = cut(inst, cutter, 1 - cutter)
            assert is_efx_feasible(inst, cutter, [cfg.c1, cfg.c2], 0)
            assert is_efx_feasible(inst, cutter, [cfg.c1, cfg.c2], 1)


def test_criterion_10_special_solvers(special_runs):
    with criterion(10, "star, tree and cycle solvers on random instances"):
        stars, trees, cycles = special_runs
        assert len(stars) == 300 and len(trees) == 300 and len(cycles) == 200
        for inst, alloc in stars:
            assert is_complete(inst, alloc) and is_orientation(inst, alloc)
            assert check_efx(inst, alloc).passed
        for inst, alloc, _ in trees:
            assert is_complete(inst, alloc) and is_orientation(inst, alloc)
            assert check_efx(inst, alloc).passed
        for inst, alloc in cycles:
            assert is_complete(inst, alloc)
            assert check_efx(inst, alloc).passed


def test_criterion_11_oracle_cross_checks():
    with criterion(11, "exhaustive oracle cross-checks"):
        caps = {3: 12, 4: 10, 5: 9}
        made = 0
        seed = 0
        while made < 100:
            seed += 1
            rng = random.Random(90_000 + seed)
            n = rng.choice([3, 4, 5])
            m = rng.randint(2, caps[n])
            try:
                inst = random_instance(n, m, 4, "bipartite", num_max=100, den_max=8,
                                       symmetric=bool(seed % 2), seed=seed)
            except InstanceError:
                continue
            assert n ** m <= 10 ** 7
            assert decide_efx_allocation(inst).exists
            final, _ = complete_efx(inst)
            assert check_efx(inst, final).passed
            made += 1
        made = 0
        seed = 0
        while made < 50:
            seed += 1
            rng = random.Random(120_000 + seed)
            n = rng.randint(2, 4)
            m = rng.randint(1, 10)
            try:
                inst = random_instance(n, m, 3, "bipartite", num_max=20, den_max=4,
                                       symmetric=bool(seed % 2), seed=seed)
            except InstanceError:
                continue
            fast = decide_efx_orientation(inst, count=True, prune=True)
            slow = decide_efx_orientation(inst, count=True, prune=False)
            assert (fast.exists, fast.count, fast.witness) == \
                (slow.exists, slow.count, slow.witness)
            if m <= 6 and n <= 3:
                fast_a = decide_efx_allocation(inst, prune=True)
                slow_a = decide_efx_allocation(inst, prune=False)
                assert (fast_a.exists, fast_a.witness) == (slow_a.exists, slow_a.witness)
            made += 1


# SHA-256 over the batch's traces, recorded by running
# test_batch_traces_match_reference against the source of the commit before the
# pipeline moved onto one incremental allocation state.  Any change to a bundle,
# event or flag of either solver on the batch changes it.
BATCH_TRACES_SHA256 = "20064efae12848453b6f4242092eb8514a29a3efbda95991e5b05bcbe11409c0"


def test_batch_traces_match_reference(pipeline_runs, half_runs):
    digest = hashlib.sha256()
    runs, _ = pipeline_runs
    traces = [trace for _, _, trace in runs] + [trace for _, _, trace in half_runs]
    for trace in traces:
        digest.update(json.dumps(trace.to_json(), sort_keys=True).encode())
    assert digest.hexdigest() == BATCH_TRACES_SHA256


def test_criterion_12_envied_singleton_everywhere(pipeline_runs, half_runs, special_runs):
    with criterion(12, "envied agents have one envier across all snapshots"):
        runs, _ = pipeline_runs
        for inst, _, trace in runs:
            for name in ("greedy", "saturate", "safe"):
                assert check_envied_singleton(inst, trace.snapshots[name]).passed
        for inst, _, trace in half_runs:
            for name in ("greedy", "saturate", "safe"):
                assert check_envied_singleton(inst, trace.snapshots[name]).passed
        _, trees, _ = special_runs
        for inst, _, trace in trees:
            for snap in trace.snapshots.values():
                assert check_envied_singleton(inst, snap).passed
        stars = special_runs[0]
        for inst, alloc in stars:
            assert check_envied_singleton(inst, alloc).passed
        inst = running_example()
        stage1 = greedy_orientation(inst)
        assert check_envied_singleton(inst, stage1).passed
        stage2 = saturate_non_envied(inst, stage1)
        assert check_envied_singleton(inst, stage2).passed
