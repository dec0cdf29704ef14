from __future__ import annotations

import random
from fractions import Fraction

import pytest

from efx_multigraph import (
    StructureError,
    achieved_alpha,
    build_instance,
    check_efx,
    check_envied_singleton,
    check_properties,
    complete_efx,
    enforce_safe_sets,
    envied_set,
    greedy_orientation,
    half_efx_orientation,
    half_efx_parts,
    is_complete,
    is_orientation,
    make_allocation,
    random_instance,
    saturate_non_envied,
    two_coloring,
)
from efx_multigraph import bipartite
from efx_multigraph.bipartite import checked, efx_completion
from efx_multigraph.derived import AllocationState
from conftest import STAGE1_BUNDLES, STAGE2_ACTUAL
from reference import (
    claim_leftover_pairs,
    claim_non_envied_bound,
    envied_only_in_s,
    saturate_full_scan,
)


def test_greedy_matches_walkthrough(walkthrough):
    alloc = greedy_orientation(walkthrough)
    assert [set(b) for b in alloc.bundles] == STAGE1_BUNDLES
    flags = check_properties(walkthrough, alloc)
    assert flags.p1 and flags.p2 and flags.p3
    assert not flags.p4
    assert envied_set(walkthrough, alloc) == {0, 1}


def test_greedy_single_edge():
    inst = build_instance(2, [(0, 1, 5, 7)])
    alloc = greedy_orientation(inst)
    assert alloc.bundles[0] == {0}
    assert alloc.bundles[1] == frozenset()


def test_greedy_two_item_pair_cut_then_pick():
    inst = build_instance(2, [(0, 1, 10, 10), (0, 1, 9, 9)])
    alloc = greedy_orientation(inst)
    assert alloc.bundles[0] == {0}
    assert alloc.bundles[1] == {1}


def test_greedy_requires_bipartite():
    triangle = build_instance(3, [(0, 1, 1, 1), (1, 2, 1, 1), (0, 2, 1, 1)])
    with pytest.raises(StructureError):
        greedy_orientation(triangle)


def test_saturate_reaches_its_fixpoint(walkthrough, stage1_alloc):
    alloc = saturate_non_envied(walkthrough, stage1_alloc)
    assert [set(b) for b in alloc.bundles] == STAGE2_ACTUAL
    flags = check_properties(walkthrough, alloc)
    assert flags.p1 and flags.p2 and flags.p3 and flags.p4
    parts = two_coloring(walkthrough)
    assert claim_leftover_pairs(walkthrough, alloc, parts)
    assert claim_non_envied_bound(walkthrough, alloc)
    # every non-envied agent ended with an empty available set, so the loop halted
    assert envied_set(walkthrough, alloc) == set()


def test_saturate_noop_when_no_violator():
    inst = build_instance(2, [(0, 1, 10, 10), (0, 1, 9, 9)])
    alloc = make_allocation(2, [{0}, {1}])
    assert saturate_non_envied(inst, alloc) == alloc


def test_saturate_rejects_bad_input():
    inst = build_instance(2, [(0, 1, 10, 10), (0, 1, 9, 9), (0, 1, 1, 1)])
    greedy_all = make_allocation(2, [{0, 1, 2}, set()])
    with pytest.raises(StructureError):
        saturate_non_envied(inst, greedy_all)


def test_enforce_swap_fixture():
    # Agent 0 is envied by 1 after stage 2, and 1 is unsafe: they must swap the
    # halves of their shared pair, after which 0 absorbs its available edge.
    inst = build_instance(3, [(0, 1, 10, 10), (0, 1, 9, 9), (0, 2, 8, 8), (0, 2, 8, 8)])
    s1 = greedy_orientation(inst)
    s2 = saturate_non_envied(inst, s1)
    assert envied_set(inst, s2) == {0}
    s3 = enforce_safe_sets(inst, s2)
    assert s3.bundles[0] == {1, 3}
    assert s3.bundles[1] == {0}
    assert s3.bundles[2] == {2}
    assert envied_set(inst, s3) == set()
    flags = check_properties(inst, s3)
    assert tuple(flags) == (True, True, True, True, True)


def test_enforce_releases_third_agents_and_resaturates():
    # A swap can raise the envier's value enough to free *another* agent it
    # envied; that agent's stranded available set must then be re-homed, or the
    # empty-available-set property breaks.  Here agent 5 envies both 4 and 6;
    # swapping with 6 frees 4 as a side effect, and the follow-up absorb hands 4
    # the leftover of its pair with 3.
    edges = [(0, 1, 11, 11), (1, 2, 23, 23), (2, 3, 22, 22), (3, 4, 17, 17),
             (4, 5, 29, 29), (5, 6, 23, 23), (6, 7, 28, 28), (0, 7, 11, 11),
             (5, 6, 39, 39), (0, 7, 24, 24), (2, 3, 17, 17), (0, 1, 9, 9),
             (3, 4, 7, 7), (0, 7, 19, 19), (0, 7, 27, 27), (6, 7, 32, 32),
             (6, 7, 4, 4)]
    inst = build_instance(8, edges)
    s2 = saturate_non_envied(inst, greedy_orientation(inst))
    assert envied_set(inst, s2) == {2, 4, 6}
    events: list = []
    s3 = enforce_safe_sets(inst, s2, events=events)
    swaps = [e for e in events if "swapped_to_i" in e]
    absorbs = [e for e in events if e.get("case") == 1]
    assert swaps == [{"stage": "safe-set", "i": 6, "j": 5, "swapped_to_i": [5],
                      "swapped_to_j": [8], "absorbed": [6, 16]}]
    assert absorbs == [{"stage": "safe-set", "case": 1, "i": 4, "j": 3, "edges": [12]}]
    flags = check_properties(inst, s3)
    assert tuple(flags) == (True, True, True, True, True)
    final, _ = complete_efx(inst)
    assert is_complete(inst, final) and check_efx(inst, final).passed


def test_enforce_noop_when_envier_safe():
    inst = build_instance(2, [(0, 1, 10, 10), (0, 1, 9, 9)])
    s2 = saturate_non_envied(inst, greedy_orientation(inst))
    assert enforce_safe_sets(inst, s2) == s2


def test_completion_gives_leftovers_to_the_envier():
    # Pair (0,2) keeps a leftover half; the unique envier of agent 0 is agent 1,
    # which receives it wastefully.
    inst = build_instance(3, [(0, 1, 10, 10), (0, 2, 5, 5), (0, 2, 4, 4)])
    final, trace = complete_efx(inst)
    assert final.bundles[1] == {2}
    assert not is_orientation(inst, final)
    assert check_efx(inst, final).passed
    gifts = [e for e in trace.events if e["stage"] == "completion"]
    assert gifts == [{"stage": "completion", "pair": [0, 2], "to": 1, "edges": [2]}]


def test_complete_efx_on_walkthrough(walkthrough):
    final, trace = complete_efx(walkthrough)
    assert is_complete(walkthrough, final)
    assert check_efx(walkthrough, final).passed
    assert tuple(trace.flags["greedy"])[:3] == (True, True, True)
    assert tuple(trace.flags["saturate"])[:4] == (True, True, True, True)
    assert tuple(trace.flags["safe"]) == (True, True, True, True, True)
    parts = two_coloring(walkthrough)
    for name in ("greedy", "saturate", "safe"):
        snap = trace.snapshots[name]
        assert envied_only_in_s(walkthrough, snap, parts)
        assert check_envied_singleton(walkthrough, snap).passed


def test_complete_efx_empty_and_single_agent():
    lonely = build_instance(1, [])
    final, _ = complete_efx(lonely)
    assert final.bundles == (frozenset(),)


def test_complete_efx_disconnected():
    inst = build_instance(5, [(0, 1, 3, 4), (0, 1, 2, 2), (2, 3, 9, 1), (2, 3, 1, 5)])
    final, _ = complete_efx(inst)
    assert is_complete(inst, final)
    assert check_efx(inst, final).passed


def test_trace_serializes(walkthrough):
    _, trace = complete_efx(walkthrough)
    doc = trace.to_json()
    assert set(doc) == {"snapshots", "flags", "events"}
    assert len(doc["snapshots"]["greedy"]) == walkthrough.n


def test_half_efx_parts_prefers_smaller_side(walkthrough):
    # S has four agents and T three as labeled, so the roles flip.
    assert half_efx_parts(walkthrough) == ((4, 5, 6), (0, 1, 2, 3))


def test_half_efx_orientation_guarantees(walkthrough):
    alloc = half_efx_orientation(walkthrough)
    assert is_complete(walkthrough, alloc)
    assert is_orientation(walkthrough, alloc)
    alphas = [achieved_alpha(walkthrough, alloc, a) for a in range(walkthrough.n)]
    assert all(a >= Fraction(1, 2) for a in alphas)
    assert sum(1 for a in alphas if a == 1) >= (walkthrough.n + 1) // 2
    parts = half_efx_parts(walkthrough)
    for t_agent in parts[1]:
        assert alphas[t_agent] == 1


def test_half_efx_leftovers_stay_home():
    # Same leftover fixture as the completion test, but oriented: the leftover
    # half goes to its non-envied holder instead of a third agent.
    inst = build_instance(3, [(0, 1, 10, 10), (0, 2, 5, 5), (0, 2, 4, 4)])
    alloc = half_efx_orientation(inst)
    assert is_orientation(inst, alloc)
    assert check_efx(inst, alloc, Fraction(1, 2)).passed


def test_properties_on_empty_allocation(walkthrough):
    flags = check_properties(walkthrough, make_allocation(7, []))
    assert flags.p1 and flags.p2
    assert not flags.p3  # untouched pairs offer bundles worth more than nothing
    assert not flags.p4


def test_random_pipeline_sweep():
    rng = random.Random(42)
    done = 0
    while done < 80:
        seed = rng.randrange(10**6)
        n = rng.randint(2, 8)
        m = rng.randint(0, 20)
        try:
            inst = random_instance(n, m, 4, "bipartite", num_max=50, den_max=6,
                                   symmetric=bool(seed % 2), seed=seed)
        except Exception:
            continue
        final, trace = complete_efx(inst)
        assert is_complete(inst, final)
        assert check_efx(inst, final).passed
        assert tuple(trace.flags["safe"]) == (True, True, True, True, True)
        done += 1


def test_checked_names_the_failing_condition():
    star, cycle = "multi-star solver", "multi-cycle solver"
    pair = build_instance(2, [(0, 1, 4, 4), (0, 1, 3, 3), (0, 1, 3, 3)])
    assert checked(pair, [{0}, {1, 2}], True, star) == make_allocation(2, [{0}, {1, 2}])
    with pytest.raises(StructureError, match=rf"^{star}: output is not complete$"):
        checked(pair, [{0}, {1}], True, star)
    # [{1}, {0, 2}]: agent 0 has 3 against 7 - 3, so 3/4-EFX but not EFX.
    # [{}, {0, 1, 2}]: agent 0 has 0 against 10 - 3, so not even 1/2-EFX.
    with pytest.raises(StructureError, match=rf"^{star}: output is not EFX \(Witness"):
        checked(pair, [{1}, {0, 2}], True, star)
    assert checked(pair, [{1}, {0, 2}], True, star, Fraction(1, 2))
    with pytest.raises(StructureError, match=rf"^{star}: output is not 1/2-EFX \(Witness"):
        checked(pair, [set(), {0, 1, 2}], True, star, Fraction(1, 2))

    # Agent 2 holds the edge of pair (0, 1): complete and EFX, not an orientation.
    path = build_instance(3, [(0, 1, 1, 1), (1, 2, 1, 1)])
    waste = [set(), {1}, {0}]
    assert checked(path, waste, False, cycle) == make_allocation(3, waste)
    with pytest.raises(StructureError, match=rf"^{cycle}: output is not an orientation$"):
        checked(path, waste, True, cycle)


def test_worklist_loop_matches_full_scan(monkeypatch):
    # Every run of the stage-2 loop, from the greedy state and from the state
    # after each stage-3 swap, must log the events and reach the bundles of the
    # full scan from agent 0 on a fresh copy of the same allocation.
    production = bipartite._saturate_loop
    starts = {"saturate": 0, "safe-set": 0}

    def compared(state, events, stage):
        reference = AllocationState(state.inst, state.parts, state.freeze())
        expected: list[dict] = []
        saturate_full_scan(reference, expected, stage)
        mine: list[dict] = []
        production(state, mine, stage)
        assert mine == expected
        assert state.bundles == reference.bundles
        starts[stage] += 1
        if events is not None:
            events.extend(mine)

    monkeypatch.setattr(bipartite, "_saturate_loop", compared)
    rng = random.Random(7)
    for _ in range(400):
        n = rng.randint(2, 9)
        try:
            inst = random_instance(n, rng.randint(n - 1, 24), 4, "bipartite", num_max=40,
                                   den_max=5, symmetric=rng.random() < 0.5,
                                   seed=rng.randrange(10**6))
        except Exception:
            continue
        complete_efx(inst)
        half_efx_orientation(inst)
    assert starts["saturate"] > 600
    assert starts["safe-set"] > 50


@pytest.mark.parametrize("n, m, seed", [(256, 2000, 3), (64, 400, 7)])
def test_stage2_turns_build_no_envied_set(monkeypatch, n, m, seed):
    # Envy is read from AllocationState.enviers; only stage 3's shrink check
    # builds envied sets, one before and one after each swap.
    calls = 0
    envied = AllocationState.envied

    def counted(state):
        nonlocal calls
        calls += 1
        return envied(state)

    monkeypatch.setattr(AllocationState, "envied", counted)
    trace = bipartite.PipelineTrace()
    efx_completion(random_instance(n, m, 4, "bipartite", seed=seed), trace=trace)
    turns = sum("case" in e for e in trace.events)
    swaps = sum("swapped_to_i" in e for e in trace.events)
    assert turns > 250
    assert calls <= 2 + 2 * swaps


def _walkthrough_gate_breaks(monkeypatch, stage: int) -> None:
    """Leave the stage-1 output without its greedy picks (P3 fails), or the
    stage-2 output unsaturated (P4 fails)."""
    if stage == 1:
        monkeypatch.setattr(bipartite, "_greedy", lambda state, events: None)
    else:
        monkeypatch.setattr(bipartite, "_saturate_loop", lambda state, events, stage: None)


@pytest.mark.parametrize("stage", [1, 2])
@pytest.mark.parametrize("run", [
    complete_efx,
    efx_completion,
    half_efx_orientation,
    lambda inst: half_efx_orientation(inst, bipartite.PipelineTrace()),
], ids=["complete_efx", "efx_completion", "half_efx_orientation", "half_efx_traced"])
def test_stage_gates_fire_with_or_without_a_trace(walkthrough, monkeypatch, stage, run):
    _walkthrough_gate_breaks(monkeypatch, stage)
    with pytest.raises(StructureError, match=f"the stage-{stage} invariants"):
        run(walkthrough)


def test_untraced_completion_records_no_flags(walkthrough, monkeypatch):
    expected, trace = complete_efx(walkthrough)
    assert set(trace.flags) == {"greedy", "saturate", "safe", "final"}

    def no_flag_record(state):
        raise AssertionError("an untraced run recorded all five flags")

    monkeypatch.setattr(bipartite, "_flags", no_flag_record)
    assert efx_completion(walkthrough) == expected


@pytest.mark.parametrize("parts, message", [
    (((0, 1), (1, 2)), "two disjoint sides"),
    (((0,), (1,)), "two disjoint sides"),
    (((0, 1), (2,)), "agents 0 and 1 share edges but sit on the same side"),
])
def test_resolve_bipartition_rejects_bad_sides(parts, message):
    path = build_instance(3, [(0, 1, 1, 1), (1, 2, 1, 1)])
    assert bipartite.resolve_bipartition(path, ((1,), (0, 2))) == ((1,), (0, 2))
    with pytest.raises(StructureError, match=message):
        bipartite.resolve_bipartition(path, parts)


def test_p2_fails_on_a_split_off_the_cut():
    inst = build_instance(2, [(0, 1, 5, 5), (0, 1, 3, 3), (0, 1, 2, 2)])
    parts = ((0,), (1,))
    cfg = AllocationState(inst, parts).pair_cut(0, 1)
    assert check_properties(inst, make_allocation(2, [cfg.c1, cfg.c2]), parts).p2
    halves = {cfg.c1, cfg.c2}
    for mine in ({0}, {1}, {2}):
        split = [frozenset(mine), frozenset({0, 1, 2} - mine)]
        assert check_properties(inst, make_allocation(2, split), parts).p2 == (set(split) == halves)
