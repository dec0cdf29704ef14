from __future__ import annotations

import hashlib
import itertools
import json
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

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
    p4_q3,
    p4_qn,
    p6_counter,
    random_instance,
    running_example,
)
from efx_multigraph import oracle
from reference import ReferenceSearch


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


def test_jobs_fall_back_to_one_process_when_no_pool_starts(monkeypatch):
    # Where worker processes cannot start, the tasks run one by one in this
    # process, with the same result as one job, explored nodes included.
    import multiprocessing

    searches = [lambda jobs: decide_efx_orientation(p4_qn(5), count=True, jobs=jobs),
                lambda jobs: decide_efx_allocation(random_instance(3, 5, 3, "cycle", seed=1), jobs=jobs)]
    solo = [search(1) for search in searches]
    refused = []

    def no_pool(*args, **kwargs):
        refused.append(kwargs.get("processes"))
        raise OSError("no process can start here")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    for search, want in zip(searches, solo):
        got = search(2)
        assert (got.exists, got.count, got.witness, got.explored) == \
            (want.exists, want.count, want.witness, want.explored)
    assert refused == [2, 2]


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


def _pinned_searches():
    """Labelled oracle searches whose full results, ``explored`` included, are
    pinned by one digest: the families, the gadgets, the running example and
    seeded small instances, some under two jobs or without pruning."""
    def orient(inst, count=True, **kw):
        return lambda: decide_efx_orientation(inst, count=count, **kw)

    def allocate(inst, **kw):
        return lambda: decide_efx_allocation(inst, **kw)

    runs = [(f"p4_qn({q})", orient(p4_qn(q))) for q in range(4, 9)]
    runs += [("c4_counter", orient(c4_counter())), ("p4_q3", orient(p4_q3())),
             ("p6_counter", orient(p6_counter()))]
    rng = random.Random(2024)
    gadgets = [(3, 1, 1, 2, 2, 1), (3, 1, 1, 2, 2, 2)]
    gadgets += [tuple(rng.randint(1, 6) for _ in range(5)) for _ in range(4)]
    runs += [(f"np_gadget{pset}", orient(np_gadget(pset))) for pset in gadgets]
    runs.append(("running_example", orient(running_example(), count=False)))
    for seed in range(1, 9):
        inst = random_instance(4, 8, 4, "bipartite", symmetric=seed % 2 == 0, seed=seed)
        runs.append((f"bipartite-4x8-seed{seed}", orient(inst)))
        runs.append((f"bipartite-4x8-seed{seed}/first", orient(inst, count=False)))
    for seed in range(1, 7):
        runs.append((f"bipartite-3x5-seed{seed}/allocation",
                     allocate(random_instance(3, 5, 3, "bipartite", seed=seed))))
        runs.append((f"cycle-3x5-seed{seed}/allocation",
                     allocate(random_instance(3, 5, 3, "cycle", seed=seed))))
    jobs2 = [("p4_qn(6)/jobs2", orient(p4_qn(6), jobs=2)),
             ("running_example/jobs2", orient(running_example(), count=False, jobs=2)),
             ("np_gadget(3,1,1,2,2,1)/jobs2", orient(np_gadget((3, 1, 1, 2, 2, 1)), jobs=2)),
             ("bipartite-4x8-seed1/jobs2",
              orient(random_instance(4, 8, 4, "bipartite", seed=1), jobs=2)),
             ("cycle-3x5-seed1/allocation/jobs2",
              allocate(random_instance(3, 5, 3, "cycle", seed=1), jobs=2))]
    unpruned = [("c4_counter/unpruned", orient(c4_counter(), prune=False)),
                ("bipartite-4x8-seed3/unpruned",
                 orient(random_instance(4, 8, 4, "bipartite", seed=3), prune=False)),
                ("cycle-3x5-seed2/allocation/unpruned",
                 allocate(random_instance(3, 5, 3, "cycle", seed=2), prune=False))]
    return runs + jobs2 + unpruned


# SHA-256 over the JSON of every pinned search's ``to_json()``, in order, recorded
# with the search's literal per-node envy tests (``reference.ReferenceSearch``).
ORACLE_OUTCOMES_SHA256 = "a38d9b4c9e485bdaf506ebee3646c73693c9cf1ebad44fc3f6473a5dd1068767"


def test_oracle_outcomes_pinned():
    doc = [[label, run().to_json()] for label, run in _pinned_searches()]
    text = json.dumps(doc, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == ORACLE_OUTCOMES_SHA256


@st.composite
def _multigraphs(draw):
    """2-5 agents and up to 9 edges drawn from a pool of at most 4 edge specs,
    so parallel edges repeat verbatim; small integer values make ties, and
    denominators reach 1000.  Agents without edges are common."""
    n = draw(st.integers(2, 5))
    value = st.one_of(st.integers(1, 4).map(Fraction),
                      st.builds(Fraction, st.integers(1, 1000), st.integers(1, 1000)))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 2)).map(
        lambda p: (p[0], p[1] + (p[1] >= p[0])))
    pool = draw(st.lists(st.tuples(pair, value, value), min_size=1, max_size=4))
    specs = draw(st.lists(st.sampled_from(pool), max_size=9))
    return build_instance(n, [(u, v, wu, wv) for (u, v), wu, wv in specs])


def _first_edges(inst, m):
    return build_instance(inst.n, [(e.u, e.v, e.wu, e.wv) for e in inst.edges[:m]])


def _tasks(choices):
    """Every task prefix at split depths 0, 1 and 2."""
    for depth in range(min(2, len(choices)) + 1):
        yield from itertools.product(*choices[:depth])


@settings(max_examples=150, deadline=None)
@given(_multigraphs())
# Agents 0 and 1 both close at edge 2, before the last edge: giving it to 0
# raises 0's own value and 1's value of bundle 0 at once.
@example(build_instance(4, [(0, 1, 2, 4), (0, 1, 1, 4), (0, 1, 2, 4), (2, 3, 1, 1)]))
# The allocation search gives edge 3, agent 0's last, to agent 2, whose bundle
# holds edge 0 (worth 3 to agent 0): edge 3 (worth 2) becomes its least item
# there.  The orientation search never reaches that bundle.
@example(build_instance(3, [(0, 2, 3, 2), (1, 0, 1, 2), (2, 1, 2, 2), (0, 1, 2, 2)]))
# Edge 2, agent 0's last (worth 1), joins edge 1 (worth 3) in bundle 1 and
# becomes agent 0's least item there.
@example(build_instance(2, [(0, 1, 1, 1), (0, 1, 3, 1), (0, 1, 1, 1)]))
def test_count_based_search_matches_reference(inst):
    # Allocations keep n^m <= 729 by searching a prefix of the edges.
    m_alloc = inst.m
    while inst.n ** m_alloc > 729:
        m_alloc -= 1
    alloc_inst = _first_edges(inst, m_alloc)
    searches = [(inst, [(e.u, e.v) for e in inst.edges]),
                (alloc_inst, [tuple(range(inst.n))] * m_alloc)]
    for target, choices in searches:
        for counting in (False, True):
            for prefix in _tasks(choices):
                ref = ReferenceSearch(target, choices, True, counting, prefix)
                ref.run(0)
                assert oracle._run_task((target, choices, prefix, True, counting)) == \
                    (ref.witness, ref.count, ref.explored)
            # The search leaves every counter as it found it.
            search = oracle._Search(target, choices, True, counting)
            search.run(0)
            for x in search.agents:
                assert not any(search.val[x]) and not any(search.held[x])
            assert not any(search.bundles)


@st.composite
def _repeated_edges(draw):
    """1-3 edge specs on 2-4 agents, each given 1-7 times, at most 14 edges in a
    drawn order: classes of parallel edges spread out in id order, beside
    classes of one edge.  Small integer values make ties."""
    n = draw(st.integers(2, 4))
    value = st.one_of(st.integers(1, 3).map(Fraction),
                      st.builds(Fraction, st.integers(1, 1000), st.integers(1, 1000)))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 2)).map(
        lambda p: (p[0], p[1] + (p[1] >= p[0])))
    specs = draw(st.lists(st.tuples(pair, value, value), min_size=1, max_size=3))
    counts = draw(st.lists(st.integers(1, 7), min_size=len(specs), max_size=len(specs)))
    edges = [spec for spec, count in zip(specs, counts) for _ in range(count)][:14]
    edges = draw(st.permutations(edges))
    return build_instance(n, [(u, v, wu, wv) for (u, v), wu, wv in edges])


@settings(max_examples=100, deadline=None)
@given(_repeated_edges())
# Edges 1 and 3 form a class, as do edges 2 and 4, and edge 0 is alone in its
# own: a node that gave edge 0 to agent 0 and one that gave it to agent 2 differ
# only in edge 0.
@example(build_instance(3, [(0, 2, 2, 1), (0, 1, 1, 1), (1, 2, 1, 2), (0, 1, 1, 1), (1, 2, 1, 2)]))
@example(p4_qn(4))  # edges 0 and 1 are one class: a task of depth 2 fixes both
def test_table_search_matches_reference_on_repeated_edges(inst):
    # Allocations keep n^m <= 6561 by searching a prefix of the edges.
    m_alloc = inst.m
    while inst.n ** m_alloc > 6561:
        m_alloc -= 1
    searches = [(inst, [(e.u, e.v) for e in inst.edges]),
                (_first_edges(inst, m_alloc), [tuple(range(inst.n))] * m_alloc)]
    for target, choices in searches:
        for counting in (False, True):
            for prefix in _tasks(choices):
                ref = ReferenceSearch(target, choices, True, counting, prefix)
                ref.run(0)
                search = oracle._Search(target, choices, True, counting, prefix)
                search.run(0)
                # Past its entry budget a search only looks up: it stores the
                # first entries the uncapped search stores, and finds the same.
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(oracle, "_TABLE_ENTRIES", 3)
                    capped = oracle._Search(target, choices, True, counting, prefix)
                    capped.run(0)
                for run in (search, capped):
                    assert (run.witness, run.count, run.explored) == \
                        (ref.witness, ref.count, ref.explored)
                assert _stored(capped) == min(3, _stored(search))
                # The search leaves every counter as it found it, and a task
                # keeps no table inside its fixed prefix.
                for x in search.agents:
                    assert not any(search.val[x]) and not any(search.held[x])
                assert not any(search.bundles)
                assert all(step[-1] is None for step in search.steps[:len(prefix)])


def _stored(search):
    """The entries a search's tables hold."""
    return sum(len(step[-1]) for step in search.steps if step[-1] is not None)


def _distinct_edges(inst):
    """``inst`` with each repeated edge kept once."""
    specs = dict.fromkeys((e.u, e.v, e.wu, e.wv) for e in inst.edges)
    return build_instance(inst.n, list(specs))


@settings(max_examples=100, deadline=None)
@given(_multigraphs())
def test_tables_only_below_repeated_edges_in_pruned_search(inst):
    # A search keeps no table without pruning, nor without a repeated edge
    # past its prefix that is not the last edge: below, the only repeats are
    # edges 0 and 1 under a depth-2 prefix, or the last edge.
    distinct = _distinct_edges(inst)
    edges = [(e.u, e.v, e.wu, e.wv) for e in distinct.edges]
    runs = [(inst, False, ()), (distinct, True, ())]
    if edges:
        runs.append((build_instance(inst.n, edges + edges[-1:]), True, ()))
        head = build_instance(inst.n, edges[:1] + edges)
        runs += [(head, True, prefix)
                 for prefix in itertools.product(*[(e.u, e.v) for e in head.edges[:2]])]
    for target, prune, prefix in runs:
        for choices in ([(e.u, e.v) for e in target.edges], [tuple(range(target.n))] * target.m):
            search = oracle._Search(target, choices, prune, True, prefix)
            assert all(step[-1] is None for step in search.steps)


def test_p4_qn11_is_refuted_from_stored_subtrees():
    # ROADMAP's figure: refuting p4_qn(11) takes 2,085,261 nodes.  Most of them
    # are counted from stored subtrees; searching every one took 3-6 s.
    inst = p4_qn(11)
    for jobs in (1, 2):
        start = time.perf_counter()
        result = decide_efx_orientation(inst, count=True, jobs=jobs)
        elapsed = time.perf_counter() - start
        assert (result.exists, result.count, result.explored) == (False, 0, 2_085_261)
        if jobs == 1:
            assert elapsed < 1.0


def _work(inst, choices, counting, monkeypatch):
    """(nodes visited, placements booked, bundle reads) by one pruned search:
    the calls of ``run``, the edges appended to a bundle and the oracle's
    ``min`` calls, which read a bundle's least item."""
    search = oracle._Search(inst, choices, True, counting)
    booked = []
    reads = 0

    class Bundle(list):
        def append(self, edge):
            booked.append(edge)
            super().append(edge)

    def counted_min(*args):
        nonlocal reads
        reads += 1
        return min(*args)

    search.bundles = [Bundle() for _ in search.bundles]
    visited = 0
    run = search.run

    def counted_run(*args):
        nonlocal visited
        visited += 1
        return run(*args)

    search.run = counted_run
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "min", counted_min, raising=False)
        search.run(0)
    return visited, len(booked), reads


def test_only_placements_that_pass_both_rules_are_booked(monkeypatch):
    # Every placement is tested before its edge is booked, so each booked edge
    # starts a visited node, and a dead placement books nothing.  Booking first
    # and testing after booked 11,491, 3,262 and 231 edges here, dead ones
    # included.  A closing agent reads a rival bundle's least item only when
    # the bundle holds none of its zero-valued items.
    gadget = np_gadget((3, 1, 1, 2, 2, 1))
    triangle = random_instance(3, 5, 3, "cycle", seed=1)
    runs = [(running_example(), [(e.u, e.v) for e in running_example().edges], False),
            (gadget, [(e.u, e.v) for e in gadget.edges], True),
            (triangle, [(0, 1, 2)] * triangle.m, True)]
    work = [_work(inst, choices, counting, monkeypatch) for inst, choices, counting in runs]
    assert work == [(5791, 5790, 1633), (1897, 1896, 439), (86, 85, 127)]


def _tree_nodes(choices):
    """Nodes of the full search tree: the sum over depths of the products of the
    option counts above them."""
    total = width = 1
    for options in choices:
        width *= len(options)
        total += width
    return total


def test_unpruned_search_is_the_literal_enumeration():
    # Without pruning, a search that never stops early visits every node: a
    # counting search, or a first-witness search that finds none.
    for inst in _tiny_instances(12, max_m=8) + [c4_counter(), p3_block()]:
        orientations = [(e.u, e.v) for e in inst.edges]
        for jobs in (1, 2):
            result = decide_efx_orientation(inst, count=True, prune=False, jobs=jobs)
            assert result.explored == _tree_nodes(orientations)
        allocations = [tuple(range(inst.n))] * min(inst.m, 6)
        task = (_first_edges(inst, len(allocations)), allocations, (), False, True)
        _, _, explored = oracle._run_task(task)
        assert explored == _tree_nodes(allocations)
    none = decide_efx_orientation(c4_counter(), prune=False)
    assert not none.exists and none.explored == _tree_nodes([(e.u, e.v) for e in c4_counter().edges])
