from __future__ import annotations

import random
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from efx_multigraph import (
    Allocation,
    InstanceError,
    StructureError,
    available,
    available_set,
    bundle_value,
    build_instance,
    check_properties,
    cut,
    envied_set,
    is_orientation,
    make_allocation,
    preferred_bundle,
    random_instance,
    safe_set,
    t_side_of,
    two_coloring,
)
from efx_multigraph.bipartite import _flags, _greedy, _next_violation
from efx_multigraph.derived import AllocationState
from efx_multigraph.fairness import envier_lists, value_rows
from reference import (
    available_by_scan,
    p1_p2_by_scan,
    p3_p4_by_scan,
    p5_by_scan,
    unallocated_incident,
)


def test_available_remainder_rule(walkthrough):
    # Mid-greedy state: only the S side has picked.  Agent 4's view of its pair
    # with agent 1: agent 1 holds the 10-edge, so the 9-edge is still available.
    parts = two_coloring(walkthrough)
    mid = make_allocation(7, [{0}, {1}, {3}, {16}])
    assert available(walkthrough, mid, 4, 1, parts) == {2}
    assert available(walkthrough, mid, 1, 4, parts) == frozenset()


def test_available_untouched_pair_uses_cut(walkthrough, stage1_alloc):
    # Pair (0,5) is untouched after stage 1; the cut splits {6,5} into ({6},{5})
    # and agent 5 prefers the 6-edge.
    parts = two_coloring(walkthrough)
    assert available(walkthrough, stage1_alloc, 5, 0, parts) == {4}
    assert available(walkthrough, stage1_alloc, 0, 5, parts) == {4}


def test_available_fully_split_pair(walkthrough, stage1_alloc):
    # Pair (1,4) is fully allocated, one cut half each: nothing is available.
    parts = two_coloring(walkthrough)
    assert available(walkthrough, stage1_alloc, 1, 4, parts) == frozenset()
    assert available(walkthrough, stage1_alloc, 4, 1, parts) == frozenset()


def test_available_third_holder_blocks():
    inst = build_instance(3, [(0, 1, 2, 2), (0, 1, 1, 1)])
    parts = two_coloring(inst)
    stray = make_allocation(3, [set(), set(), {0}])
    assert available(inst, stray, 0, 1, parts) == frozenset()
    assert available(inst, stray, 1, 0, parts) == frozenset()


def test_unallocated_incident(walkthrough, stage2_doc_alloc):
    assert unallocated_incident(walkthrough, stage2_doc_alloc, 0) == {5, 10}
    full = make_allocation(7, [set(range(18))])
    assert unallocated_incident(walkthrough, full, 0) == frozenset()
    empty = make_allocation(7, [])
    assert unallocated_incident(walkthrough, empty, 2) == {3, 8, 13}


def test_safe_set_requires_envied(walkthrough, stage1_alloc):
    parts = two_coloring(walkthrough)
    with pytest.raises(ValueError, match="not envied"):
        safe_set(walkthrough, stage1_alloc, 5, parts)


def test_safe_set_stage1_state(walkthrough, stage1_alloc):
    # After stage 1 both envied agents have available value 12 against own value
    # 10, so no agent is safe for them yet.
    parts = two_coloring(walkthrough)
    assert safe_set(walkthrough, stage1_alloc, 0, parts) == set()
    assert safe_set(walkthrough, stage1_alloc, 1, parts) == set()


def test_safe_set_value_inequalities(walkthrough, stage2_doc_alloc, stage3_doc_alloc):
    # The two value comparisons behind the walkthrough's swap decision, evaluated
    # on the documented snapshots (safe_set itself needs an envied precondition
    # those snapshots no longer satisfy).
    parts = two_coloring(walkthrough)
    # agent 1 against agent 4 in the documented stage-2 snapshot: 10 < 9 + 12
    a1 = available_set(walkthrough, stage2_doc_alloc, 1, parts)
    assert bundle_value(walkthrough, 1, a1) == 12
    assert bundle_value(walkthrough, 1, stage2_doc_alloc.bundles[4]) == 9
    assert bundle_value(walkthrough, 1, stage2_doc_alloc.bundles[1]) == 10
    # agent 0 against agent 4 in the documented stage-3 snapshot: 10 >= 0 + 10
    a0 = available_set(walkthrough, stage3_doc_alloc, 0, parts)
    assert bundle_value(walkthrough, 0, a0) == 10
    assert bundle_value(walkthrough, 0, stage3_doc_alloc.bundles[4]) == 0
    assert bundle_value(walkthrough, 0, stage3_doc_alloc.bundles[0]) == 10


def test_safe_set_everyone_safe_when_nothing_left():
    # Envied agent with an empty available set and worthless rival bundles:
    # every non-envied agent is safe.
    inst = build_instance(2, [(0, 1, 10, 10)])
    parts = two_coloring(inst)
    alloc = make_allocation(2, [{0}])
    assert envied_set(inst, alloc) == {0}
    assert safe_set(inst, alloc, 0, parts) == {1}


def test_safe_set_on_live_state():
    inst = build_instance(3, [(0, 1, 10, 10), (0, 1, 9, 9), (0, 2, 5, 5), (0, 2, 4, 4)])
    parts = two_coloring(inst)
    alloc = make_allocation(3, [{0}, {1}, {2}])
    assert envied_set(inst, alloc) == {0}
    # A_0 is the leftover 4-edge: agent 2 stays safe (10 >= 5 + 4) while the
    # envier 1 does not (10 < 9 + 4).
    assert safe_set(inst, alloc, 0, parts) == {2}


def test_row_exclusivity_and_subset_of_unallocated():
    rng = random.Random(5)
    for seed in range(60):
        n = rng.randint(2, 7)
        m = rng.randint(1, 14)
        try:
            inst = random_instance(n, m, 4, "bipartite", num_max=30, den_max=5, seed=seed)
        except Exception:
            continue
        parts = two_coloring(inst)
        bundles = [set() for _ in range(n)]
        for e in inst.edges:
            r = rng.random()
            if r < 0.4:
                bundles[e.u].add(e.id)
            elif r < 0.8:
                bundles[e.v].add(e.id)
        alloc = make_allocation(n, bundles)
        assigned = alloc.assigned()
        for a, b in inst.pairs():
            away = available(inst, alloc, a, b, parts)
            back = available(inst, alloc, b, a, parts)
            pair_edges = {e.id for e in inst.edges if {e.u, e.v} == {a, b}}
            if pair_edges & assigned:
                assert not (away and back)
        for i in range(n):
            assert available_set(inst, alloc, i, parts) <= unallocated_incident(inst, alloc, i)


def test_moves_keep_every_agent_that_may_violate_on_the_worklist():
    # The worklist drops every agent that is envied or claims nothing, as the
    # stage-2 loop does.  After each give or take, to and from endpoints or
    # third agents: every agent off the worklist is envied or has nothing
    # available by the scan of E(i,j), every agent's claims are the
    # neighbours the scan finds something available from, and the worklist
    # is a min-heap.
    rng = random.Random(11)
    checked = 0
    for seed in range(300):
        n = rng.randint(2, 8)
        try:
            inst = random_instance(n, rng.randint(1, 18), 4, "bipartite", num_max=30,
                                   den_max=5, seed=seed)
        except Exception:
            continue
        bundles = [set() for _ in range(n)]
        for e in inst.edges:
            if rng.random() < 0.6:
                bundles[rng.choice((e.u, e.v, rng.randrange(n)))].add(e.id)
        state = AllocationState(inst, two_coloring(inst), make_allocation(n, bundles))
        _drop_agents_that_cannot_violate(state)
        for _ in range(rng.randint(1, 6)):
            e = rng.randrange(inst.m)
            if e in state.holder:
                state.take(state.holder[e], [e])
            else:
                edge = inst.edges[e]
                state.give(rng.choice((edge.u, edge.v, rng.randrange(n))), [e])
            heap = state.dirty_heap
            assert all(heap[(k - 1) // 2] <= heap[k] for k in range(1, len(heap)))
            worklist = set(heap)
            for i in range(n):
                scan = {j for j in inst.neighbours[i] if available_by_scan(state, i, j)}
                assert state.claims[i] == scan
                if i not in worklist:
                    assert state.enviers[i] or not scan
                    checked += 1
    assert checked > 1000


def _drop_agents_that_cannot_violate(state: AllocationState) -> None:
    """Take every agent that is envied or claims nothing off the worklist, as
    the stage-2 loop does when it meets one."""
    state.dirty_heap = sorted({i for i in state.dirty_heap if state.claims[i] and not state.enviers[i]})


def test_a_move_marks_an_agent_that_starts_to_claim_or_stops_being_envied():
    # Each move below makes one agent violate in exactly one way, and only the
    # mark named for it puts the agent back on the worklist.
    inst = build_instance(3, [(0, 1, 3, 3), (0, 1, 2, 2), (1, 2, 1, 1)])
    parts = ((1,), (0, 2))
    # Agent 1 holds all of E(0,1) and agent 2 its edge with 1, so agent 0
    # claims nothing.  Taking edge 1 back leaves agent 1 part of the pair, and
    # agent 0, envied by nobody, claims the rest (``_set_claim``).
    state = AllocationState(inst, parts, make_allocation(3, [set(), {0, 1}, {2}]))
    _drop_agents_that_cannot_violate(state)
    assert 0 not in state.dirty_heap and not state.enviers[0]
    state.take(1, [1])
    assert state.claims[0] == {1}
    assert _next_violation(state) == (0, 1, {1})
    # Agent 1 holds edge 0 and is envied by agent 0; it still claims its
    # untouched pair with agent 2.  Taking edge 0 back empties agent 1's
    # enviers while its claims stay non-empty (the mover's mark in ``_move``).
    state = AllocationState(inst, parts, make_allocation(3, [set(), {0}]))
    _drop_agents_that_cannot_violate(state)
    assert 1 not in state.dirty_heap and state.claims[1] == {2}
    state.take(1, [0])
    assert not state.enviers[1]
    assert 1 in state.dirty_heap


def test_pair_records_match_the_references():
    # Every skeleton pair's cut, with either side cutting, on seeded
    # ladder-size instances and on a pair whose non-cutter, either end, values
    # both halves ({2} and {0, 1}) equally: ``pair_cut`` gives the one cut the
    # state keeps from either end, equal to the T-side agent's ``cut``.  Each
    # end's view names the half its rational values weakly prefer, ties to c1
    # (``preferred_bundle``'s), that half's worth and its worth of the whole
    # pair; ``available`` and ``available_worth`` read the view on the
    # untouched pair.
    insts = [random_instance(8, 20, 4, "bipartite", symmetric=s % 2 == 0,
                             den_max=(1, 8, 1000)[s % 3], seed=s) for s in range(6)]
    insts += [random_instance(12, 36, 4, "bipartite", seed=5),
              random_instance(16, 60, 4, "bipartite", seed=3),
              build_instance(2, [(0, 1, 1, 1), (0, 1, 1, 1), (0, 1, 2, 2)])]
    ties = 0
    for inst in insts:
        s_side, t_side = two_coloring(inst)
        for parts in ((s_side, t_side), (t_side, s_side)):
            state = AllocationState(inst, parts)
            for (a, b), pair_edges in inst._pair_edges.items():
                cutter = a if a in parts[1] else b
                other = b if cutter == a else a
                cfg = state.pair_cut(a, b)
                assert state.pair_cut(b, a) is cfg
                assert cfg == cut(inst, cutter, other)
                assert (cfg.cutter, cfg.other) == (cutter, other)
                for end, view in ((cutter, cfg.cutter_view), (other, cfg.other_view)):
                    half, worth, total = view
                    v1, v2 = bundle_value(inst, end, cfg.c1), bundle_value(inst, end, cfg.c2)
                    assert half == preferred_bundle(inst, end, cfg)
                    assert half is (cfg.c1 if v1 >= v2 else cfg.c2)
                    assert worth == state.worth(end, half)
                    assert total == state.worth(end, pair_edges)
                    assert state.available(end, a + b - end) == half
                    assert state.available_worth(end, a + b - end) == worth
                    ties += end != cutter and v1 == v2 and cfg.c1 != cfg.c2
    assert ties >= 2
    # A pair with both ends on one side has no cutter, and the state keeps no cut.
    state = AllocationState(insts[-1], ((0, 1), ()))
    with pytest.raises(ValueError, match="same bipartition side"):
        state.pair_cut(1, 0)
    assert state._records == {}


def test_t_side_of_names_the_pairs_t_side_end():
    inst = random_instance(8, 20, 4, "bipartite", seed=1)
    parts = two_coloring(inst)
    for a, b in inst._pair_edges:
        assert t_side_of((a, b), parts) == t_side_of((b, a), parts) == (a if a in parts[1] else b)
        assert t_side_of((a, b), parts[::-1]) == (b if a in parts[1] else a)
    with pytest.raises(ValueError, match="same bipartition side"):
        t_side_of((0, 1), ((0, 1), ()))
    with pytest.raises(ValueError, match="same bipartition side"):
        t_side_of((0, 1), ((), (0, 1)))


def _recount_pair_holders(state: AllocationState) -> dict[tuple[int, int], dict[int, int]]:
    out: dict[tuple[int, int], dict[int, int]] = {}
    for e, agent in state.holder.items():
        edge = state.inst.edges[e]
        held = out.setdefault((min(edge.u, edge.v), max(edge.u, edge.v)), {})
        held[agent] = held.get(agent, 0) + 1
    return out


def _recount_foreign(state: AllocationState) -> int:
    return sum(agent not in (state.inst.edges[e].u, state.inst.edges[e].v)
               for e, agent in state.holder.items())


def test_pair_holders_follow_every_move():
    # After gives, takes and swaps, to and from endpoints and third agents, on
    # random and stage-1 states: the pair holders and the count of edges held
    # off their pair match a recount from the holder map; ``available`` and
    # ``available_worth`` match the scan of E(i,j) on every ordered pair,
    # adjacent or not, and the worth is 0 exactly when the scan is empty; and
    # all five flags match their scans.
    rng = random.Random(23)
    seen: Counter = Counter()
    for seed in range(200):
        n = rng.randint(2, 7)
        try:
            inst = random_instance(n, rng.randint(1, 16), 4, "bipartite", num_max=30,
                                   den_max=5, seed=seed)
        except Exception:
            continue
        parts = two_coloring(inst)
        if rng.random() < 0.4:
            state = AllocationState(inst, parts)
            _greedy(state, None)
        else:
            bundles = [set() for _ in range(n)]
            for e in inst.edges:
                if rng.random() < 0.6:
                    bundles[rng.choice((e.u, e.v, rng.randrange(n)))].add(e.id)
            state = AllocationState(inst, parts, make_allocation(n, bundles))
        pairs = inst.pairs()
        for _ in range(rng.randint(0, 6)):
            r = rng.random()
            if r < 0.25:
                state.swap(*rng.choice(pairs))
                continue
            e = rng.randrange(inst.m)
            if e in state.holder:
                state.take(state.holder[e], [e])
                if r < 0.6:
                    continue
            edge = inst.edges[e]
            state.give(rng.choice((edge.u, edge.v, rng.randrange(n))), [e])
        assert state.pair_holders == _recount_pair_holders(state)
        assert state.foreign == _recount_foreign(state)
        for i in range(n):
            for j in range(n):
                if i != j:
                    scan = available_by_scan(state, i, j)
                    assert state.available(i, j) == scan
                    worth = state.available_worth(i, j)
                    assert worth == state.worth(i, scan)
                    assert bool(worth) == bool(scan)
        flags = p1_p2_by_scan(state) + p3_p4_by_scan(state) + (p5_by_scan(state),)
        assert _flags(state) == flags
        assert check_properties(inst, state.freeze(), parts) == flags
        seen[is_orientation(inst, state.freeze()), flags] += 1
    # Non-orientations (a third holder fails P1 and P2) occur, with each value
    # of P3, and orientations with each value of every flag.
    assert sum(c for (orientation, flags), c in seen.items() if not orientation and not any(flags[:2])) > 10
    assert {flags[2] for orientation, flags in seen if not orientation} == {False, True}
    for f in range(5):
        assert {flags[f] for orientation, flags in seen if orientation} == {False, True}


def test_give_rejects_a_held_edge():
    inst = build_instance(3, [(0, 1, 2, 2), (0, 1, 1, 1)])
    state = AllocationState(inst, two_coloring(inst), make_allocation(3, [{0}]))
    with pytest.raises(StructureError, match="edge 0 is already held by agent 0"):
        state.give(1, [1, 0])
    assert state.bundles == [{0}, set(), set()]
    assert state.pair_holders == {(0, 1): {0: 1}}


def test_swap_exchanges_what_the_pair_holds():
    # Pair (0,1) is split 2/1, and agent 0 also holds its edge with agent 2,
    # which the swap leaves where it is.
    inst = build_instance(3, [(0, 1, 5, 1), (0, 1, 1, 5), (0, 1, 2, 2), (0, 2, 3, 3)])
    state = AllocationState(inst, ((0,), (1, 2)), make_allocation(3, [{0, 1, 3}, {2}]))
    assert state.swap(0, 1) == ({0, 1}, {2})
    assert state.bundles == [{2, 3}, {0, 1}, set()]
    _assert_matches_recounts(state, make_allocation(3, [{2, 3}, {0, 1}]))


def _claims_by_scan(inst, holder: dict[int, int]) -> list[set[int]]:
    """Per agent i, the neighbours j for which a scan of E(i,j) finds A[i,j]
    non-empty: nothing of the pair is held, or j alone holds some but not all."""
    claims: list[set[int]] = [set() for _ in range(inst.n)]
    for i in range(inst.n):
        for j in inst.neighbours[i]:
            held = {holder.get(e.id) for e in inst.edges if {e.u, e.v} == {i, j}}
            if held <= {None, j} and held != {j}:
                claims[i].add(j)
    return claims


def _assert_matches_recounts(state: AllocationState, alloc: Allocation) -> None:
    """The state holds ``alloc``, and each of its five kept records matches a
    recount from the allocation alone."""
    inst = state.inst
    assert state.bundles == [set(b) for b in alloc.bundles]
    assert state.holder == alloc._holder
    rows = value_rows(inst, alloc)
    assert state.val == rows
    assert state.enviers == [set(js) for js in envier_lists(rows)]
    assert state.pair_holders == _recount_pair_holders(state)
    assert state.foreign == _recount_foreign(state)
    assert state.claims == _claims_by_scan(inst, state.holder)


@st.composite
def _held_allocations(draw):
    """An instance on two to five agents with parallel edges likely, an
    allocation that may leave edges unheld and hold edges at their ends or off
    their pair, and the held edges to take back afterwards."""
    n = draw(st.integers(2, 5))
    weight = st.builds(Fraction, st.integers(1, 4), st.integers(1, 3))
    specs = []
    for _ in range(draw(st.integers(1, 10))):
        u = draw(st.integers(0, n - 1))
        v = (u + draw(st.integers(1, n - 1))) % n
        specs.append((u, v, draw(weight), draw(weight)))
    inst = build_instance(n, specs)
    bundles: list[set[int]] = [set() for _ in range(n)]
    back: set[int] = set()
    for e in inst.edges:
        holder = draw(st.one_of(st.none(), st.sampled_from((e.u, e.v)), st.integers(0, n - 1)))
        if holder is not None:
            bundles[holder].add(e.id)
            if draw(st.booleans()):
                back.add(e.id)
    return inst, make_allocation(n, bundles), back


@settings(max_examples=300, deadline=None)
@given(_held_allocations())
def test_a_state_built_from_an_allocation_matches_recounts(drawn):
    # A state built from any allocation, partial or complete, an orientation or
    # not, matches recounts of its rows, enviers, pair holders, ``foreign`` and
    # claims, with every agent on the worklist; so does it after some of the
    # held edges are taken back, a take per holder.
    inst, alloc, back = drawn
    state = AllocationState(inst, ((), ()), alloc)
    _assert_matches_recounts(state, alloc)
    assert set(state.dirty_heap) == set(range(inst.n))
    for agent, bundle in enumerate(alloc.bundles):
        if bundle & back:
            state.take(agent, bundle & back)
    _assert_matches_recounts(state, make_allocation(inst.n, [b - back for b in alloc.bundles]))


def test_building_a_state_from_an_allocation_recounts_nothing(walkthrough, stage1_alloc):
    # A state built from an allocation reaches it by moves alone: neither
    # ``value_rows`` nor ``envier_lists`` runs while it is built or while its
    # flags are read.  ``envied_set`` under the same spy shows that it sees
    # a call to each.
    recounts = {value_rows.__code__, envier_lists.__code__}
    called: list[str] = []

    def spy(frame, event, arg):
        if event == "call" and frame.f_code in recounts:
            called.append(frame.f_code.co_name)

    parts = two_coloring(walkthrough)
    before = sys.getprofile()
    sys.setprofile(spy)
    try:
        AllocationState(walkthrough, parts, stage1_alloc)
        check_properties(walkthrough, stage1_alloc, parts)
        assert called == []
        envied_set(walkthrough, stage1_alloc)
    finally:
        sys.setprofile(before)
    assert called == ["value_rows", "envier_lists"]


def test_an_allocation_listing_an_edge_twice_or_the_wrong_bundle_count_is_refused():
    inst = build_instance(3, [(0, 1, 1, 1), (1, 2, 2, 1), (0, 1, 3, 1)])
    parts = two_coloring(inst)
    twice = make_allocation(3, [[0], [0, 1]])
    with pytest.raises(StructureError, match="edge 0 is already held by agent 0"):
        check_properties(inst, twice)
    with pytest.raises(StructureError, match="edge 0 is already held by agent 0"):
        available(inst, twice, 0, 1, parts)
    for count in (1, 2, 4):
        bundles = Allocation(((frozenset({0}),) + (frozenset(),) * 3)[:count])
        with pytest.raises(InstanceError, match=f"allocation has {count} bundles for 3 agents"):
            check_properties(inst, bundles)
    # An edge id out of range is named before any move, and the same id as
    # ``value_rows`` names: a negative id never reaches ``inst.edges``.
    for bad in ([[0], [-1]], [[0], [-1, 5]], [[7, 2], [1]], [[], [], [3, -2]]):
        alloc = make_allocation(3, bad)
        with pytest.raises(ValueError) as expected:
            value_rows(inst, alloc)
        with pytest.raises(ValueError, match=f"^{expected.value}$"):
            AllocationState(inst, parts, alloc)
