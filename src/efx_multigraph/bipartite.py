"""The three-stage solver for bipartite multi-graphs, plus completion variants.

Stage 1 (greedy orientation) lets every agent, S side first, pick the available
bundle it values most.  Stage 2 keeps handing available edges to non-envied agents
until none has any left.  Stage 3 swaps cut bundles between an envied agent and an
unsafe envier until every envier is safe.  The partial orientation that survives
all three stages has a strong shape: the only unallocated edges sit between an
envied agent and a non-envied holder, and they can be given away wastefully
(complete_efx) or to the holder (half_efx_orientation) without creating strong envy.

Stage invariants are expressed as five property flags:

  P1  the allocation is an EFX orientation;
  P2  every touched pair is placed as whole bundles of the pair's T-side cut;
  P3  nobody values any of her available bundles above her own bundle;
  P4  non-envied agents have empty available sets;
  P5  every envier of an envied agent is in that agent's safe set.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from typing import Iterable, Iterator, NamedTuple

from .derived import AllocationState, Bipartition
from .fairness import ONE, check_efx, efx_verdict
from .model import (
    Allocation,
    Instance,
    StructureError,
    edge_set,
    is_complete,
    is_orientation,
    make_allocation,
    two_coloring,
)


class PropertyFlags(NamedTuple):
    p1: bool
    p2: bool
    p3: bool
    p4: bool
    p5: bool


@dataclass
class PipelineTrace:
    """Snapshots, their property flags, and the event log of a solver run.  Every
    solver takes one; ``checked`` records the output as the ``final`` snapshot."""

    snapshots: dict[str, Allocation] = field(default_factory=dict)
    flags: dict[str, PropertyFlags] = field(default_factory=dict)
    events: list[dict] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "snapshots": {name: [sorted(b) for b in alloc.bundles] for name, alloc in self.snapshots.items()},
            "flags": {name: fl._asdict() for name, fl in self.flags.items()},
            "events": self.events,
        }


def checked(inst: Instance, bundles: Iterable[Iterable[int]], orientation: bool, label: str,
            alpha: Fraction = ONE, trace: PipelineTrace | None = None) -> Allocation:
    """The allocation with these bundles, asserted complete, alpha-EFX and, where
    promised, an orientation; a given trace records it as its ``final`` snapshot."""
    alloc = make_allocation(inst.n, bundles)
    if not is_complete(inst, alloc):
        raise StructureError(f"{label}: output is not complete")
    if orientation and not is_orientation(inst, alloc):
        raise StructureError(f"{label}: output is not an orientation")
    verdict = check_efx(inst, alloc, alpha)
    if not verdict.passed:
        kind = "EFX" if alpha == 1 else f"{alpha}-EFX"
        raise StructureError(f"{label}: output is not {kind} ({verdict.witnesses[0]})")
    if trace is not None:
        trace.snapshots["final"] = alloc
    return alloc


def resolve_bipartition(inst: Instance, parts: Bipartition | None) -> Bipartition:
    if parts is None:
        parts = two_coloring(inst)
        if parts is None:
            raise StructureError("skeleton is not bipartite")
        return parts
    s_set, t_set = set(parts[0]), set(parts[1])
    if s_set & t_set or s_set | t_set != set(range(inst.n)):
        raise StructureError("bipartition must split the agents into two disjoint sides")
    for a, b in inst.pairs():
        if (a in s_set) == (b in s_set):
            raise StructureError(f"agents {a} and {b} share edges but sit on the same side")
    return (tuple(sorted(s_set)), tuple(sorted(t_set)))


def greedy_orientation(inst: Instance, parts: Bipartition | None = None,
                       events: list[dict] | None = None) -> Allocation:
    """Stage 1: picking sequence S ascending then T ascending; each agent takes the
    available bundle it values most (ties toward the lowest co-agent).  Agents whose
    best option is worthless take nothing."""
    state = AllocationState(inst, resolve_bipartition(inst, parts))
    _greedy(state, events)
    return state.freeze()


def _greedy(state: AllocationState, events: list[dict] | None) -> None:
    for agent in state.parts[0] + state.parts[1]:
        best_k = -1
        best_bundle: frozenset[int] = frozenset()
        best_val = 0
        for k in state.neighbours[agent]:
            bundle = state.available(agent, k)
            val = state.worth(agent, bundle)
            if val > best_val:
                best_k, best_bundle, best_val = k, bundle, val
        if best_val > 0:
            state.give(agent, best_bundle)
            if events is not None:
                events.append({"stage": "greedy", "agent": agent, "from": best_k,
                               "edges": sorted(best_bundle)})


def _violation_among(state: AllocationState, agents: Iterable[int]) -> tuple[int, int, frozenset[int]] | None:
    """The first of ``agents`` that is not envied and has a non-empty available
    set, with its lowest such co-agent j and A[i,j]."""
    for i in agents:
        if state.enviers[i]:
            continue
        for j in state.neighbours[i]:
            a_ij = state.available(i, j)
            if a_ij:
                return i, j, a_ij
    return None


def _first_violation(state: AllocationState) -> tuple[int, int, frozenset[int]] | None:
    """The full scan over every agent (flag P4)."""
    return _violation_among(state, range(state.inst.n))


def _next_violation(state: AllocationState) -> tuple[int, int, frozenset[int]] | None:
    """``_first_violation`` over the dirty agents only: every other agent was
    found clean and nothing it depends on has moved since.  Clean agents leave
    the worklist."""
    dirty = state.dirty
    for i in sorted(dirty):
        hit = _violation_among(state, (i,))
        if hit is not None:
            return hit
        dirty.discard(i)
    return None


def _saturate_loop(state: AllocationState, events: list[dict] | None, stage: str) -> None:
    """Drain every non-envied agent's available sets in place (the stage-2 cases)."""
    inst = state.inst
    while True:
        hit = _next_violation(state)
        if hit is None:
            return
        i, j, a_ij = hit
        if any(state.holder.get(e) == j for e in edge_set(inst, i, j)):
            state.give(i, a_ij)
            case = 1
        else:
            cfg = state.pair_cut(i, j)
            if a_ij not in (cfg.c1, cfg.c2):
                raise StructureError("available bundle does not match the pair's cut")
            if not state.enviers[j]:
                state.give(i, a_ij)
                state.give(j, cfg.c2 if a_ij == cfg.c1 else cfg.c1)
                case = 2
            else:
                if cfg.cutter != i:
                    raise StructureError("envied agent found on the cutting side")
                state.give(i, a_ij)
                case = 3
        if events is not None:
            events.append({"stage": stage, "case": case, "i": i, "j": j,
                           "edges": sorted(a_ij)})


def _require(flags: Iterable[bool], count: int, stage: str) -> None:
    """Raise unless the first ``count`` property flags hold on a stage's output."""
    if not all(islice(flags, count)):
        raise StructureError(f"input allocation does not satisfy the {stage} invariants")


def saturate_non_envied(inst: Instance, alloc: Allocation, parts: Bipartition | None = None,
                        events: list[dict] | None = None) -> Allocation:
    """Stage 2: while some non-envied agent i has available edges (lowest i, then
    lowest co-agent j first), place A[i,j] by case:

      1. j already holds part of E(i,j)   -> i absorbs the remainder;
      2. E(i,j) untouched, j non-envied   -> i takes its preferred bundle of the
                                             T-side cut, j takes the other;
      3. E(i,j) untouched, j envied       -> i (necessarily the T side) takes its
                                             preferred bundle only.
    """
    state = AllocationState(inst, resolve_bipartition(inst, parts), alloc)
    _require(_flag_values(state), 3, "stage-1")
    _saturate_loop(state, events, "saturate")
    return state.freeze()


def enforce_safe_sets(inst: Instance, alloc: Allocation, parts: Bipartition | None = None,
                      events: list[dict] | None = None) -> Allocation:
    """Stage 3: while some envied agent (lowest id first) has an unsafe envier j,
    swap the two cut bundles of their shared pair and let the agent absorb its
    available set.

    A swap strictly raises the envier's own value, which can release *other*
    agents it envied; a released agent may leave an available set stranded, so the
    stage-2 saturation cases are re-run after every swap to restore the empty-
    available-set property before safety is rechecked.  The envied set shrinks
    monotonically (the swap never creates envy), so the loop terminates.
    """
    state = AllocationState(inst, resolve_bipartition(inst, parts), alloc)
    _require(_flag_values(state), 4, "stage-2")
    _safe_loop(state, events)
    return state.freeze()


def _first_unsafe(state: AllocationState) -> tuple[int, int] | None:
    """The lowest envied agent (one whose ``state.enviers`` entry is non-empty)
    with an envier outside its safe set, and the lowest such envier."""
    for i, who in enumerate(state.enviers):
        unsafe = who and who - state.safe_set(i, who)
        if unsafe:
            return i, min(unsafe)
    return None


def _safe_loop(state: AllocationState, events: list[dict] | None) -> None:
    while True:
        target = _first_unsafe(state)
        if target is None:
            return
        i, j = target
        before = state.envied()
        cfg = state.pair_cut(i, j)
        if cfg.cutter != j:
            raise StructureError("unsafe envier found on the non-cutting side")
        held_i, held_j = state.swap(i, j)
        if {held_i, held_j} != {cfg.c1, cfg.c2}:
            raise StructureError("swap pair is not split into the two cut bundles")
        absorbed = state.available_set(i)
        state.give(i, absorbed)
        if not state.envied() <= before - {i}:
            raise StructureError("safe-set swap failed to shrink the envied set")
        if events is not None:
            events.append({"stage": "safe-set", "i": i, "j": j,
                           "swapped_to_i": sorted(held_j), "swapped_to_j": sorted(held_i),
                           "absorbed": sorted(absorbed)})
        _saturate_loop(state, events, "safe-set")


def _run_stages(state: AllocationState, trace: PipelineTrace | None, record_flags: bool) -> None:
    """Stages 1-3 on ``state`` in place.  Flags P1-P3 of the stage-1 output and
    P1-P4 of the stage-2 output are the entry checks of stages 2 and 3.  A trace
    gets every stage's output and, with ``record_flags``, all five of its flags
    (the stage-3 output's included)."""
    events = trace.events if trace is not None else None
    _greedy(state, events)
    _require(_record(state, trace, "greedy", record_flags), 3, "stage-1")
    _saturate_loop(state, events, "saturate")
    _require(_record(state, trace, "saturate", record_flags), 4, "stage-2")
    _safe_loop(state, events)
    _record(state, trace, "safe", record_flags)


def _record(state: AllocationState, trace: PipelineTrace | None, name: str,
            record_flags: bool) -> Iterable[bool]:
    """Snapshot the state into the trace, and its flags too with ``record_flags``.
    Returns the flags in order; those no trace records are evaluated only as
    they are read."""
    if trace is not None:
        trace.snapshots[name] = state.freeze()
        if record_flags:
            trace.flags[name] = _flags(state)
            return trace.flags[name]
    return _flag_values(state)


def _leftovers(state: AllocationState) -> list[tuple[int, int, list[int], frozenset[int]]]:
    """(envied endpoint, other endpoint, pair, unallocated edges) for every pair
    with unallocated edges, which must have exactly one envied endpoint."""
    out = []
    for a, b in state.inst.pairs():
        free = frozenset(e for e in edge_set(state.inst, a, b) if e not in state.holder)
        if free:
            envied_ends = [x for x in (a, b) if state.enviers[x]]
            if len(envied_ends) != 1:
                raise StructureError(f"leftover pair ({a}, {b}) lacks a unique envied endpoint")
            i = envied_ends[0]
            out.append((i, b if i == a else a, [a, b], free))
    return out


def complete_efx(inst: Instance, parts: Bipartition | None = None) -> tuple[Allocation, PipelineTrace]:
    """Run the three stages, then hand each leftover set to the unique envier of its
    envied endpoint.  The result is a complete EFX allocation (possibly wasteful),
    with the trace of the run."""
    trace = PipelineTrace()
    return efx_completion(inst, parts, trace), trace


def efx_completion(inst: Instance, parts: Bipartition | None = None,
                   trace: PipelineTrace | None = None) -> Allocation:
    """``complete_efx``'s allocation.  A given trace gets every stage's output,
    its five flags and the events; without one, no snapshot is taken and only
    the flags that the stage gates read are evaluated."""
    state = AllocationState(inst, resolve_bipartition(inst, parts))
    _run_stages(state, trace, True)
    # Every envier is read on the stage-3 state, before any handoff moves.
    handoffs = []
    for i, j, pair, free in _leftovers(state):
        ks = state.enviers_of(i)
        if len(ks) != 1:
            raise StructureError(f"envied agent {i} has {len(ks)} enviers; expected one")
        k = ks[0]
        if k == j:
            raise StructureError("leftover holder cannot be the envier")
        handoffs.append((k, pair, free))
    for k, pair, free in handoffs:
        state.give(k, free)
        if trace is not None:
            trace.events.append({"stage": "completion", "pair": pair, "to": k,
                                 "edges": sorted(free)})
    final = checked(inst, state.bundles, False, "three-stage solver", trace=trace)
    if trace is not None:
        trace.flags["final"] = _flags(state)
    return final


def half_efx_parts(inst: Instance) -> Bipartition:
    """Role assignment for the orientation variant: per component, the smaller color
    class plays S (tie: the class holding the component's lowest agent id)."""
    resolve_bipartition(inst, None)  # raises unless the skeleton is bipartite
    s_out: list[int] = []
    t_out: list[int] = []
    for depth in inst.component_depths:
        # Depth 0 is the component's lowest agent, so a tie keeps its class as S.
        even = [v for v, d in depth.items() if d % 2 == 0]
        odd = [v for v, d in depth.items() if d % 2]
        if len(even) > len(odd):
            even, odd = odd, even
        s_out += even
        t_out += odd
    return (tuple(sorted(s_out)), tuple(sorted(t_out)))


def half_efx_orientation(inst: Instance, trace: PipelineTrace | None = None) -> Allocation:
    """Complete EFX-for-T, half-EFX-for-S orientation: run the stages with the
    smaller side as S, then give every leftover set to its non-envied holder."""
    state = AllocationState(inst, half_efx_parts(inst))
    _run_stages(state, trace, False)
    for _, j, pair, free in _leftovers(state):
        state.give(j, free)
        if trace is not None:
            trace.events.append({"stage": "orient-leftovers", "pair": pair, "to": j,
                                 "edges": sorted(free)})
    return checked(inst, state.bundles, True, "half-EFX orientation", Fraction(1, 2), trace=trace)


def check_properties(inst: Instance, alloc: Allocation, parts: Bipartition | None = None) -> PropertyFlags:
    """Evaluate the five stage invariants on an arbitrary allocation."""
    return _flags(AllocationState(inst, resolve_bipartition(inst, parts), alloc))


def _flags(state: AllocationState) -> PropertyFlags:
    return PropertyFlags(*_flag_values(state))


def _flag_values(state: AllocationState) -> Iterator[bool]:
    """P1..P5 of the state, in order, each evaluated only when it is read."""
    inst = state.inst
    alloc = state.freeze()
    yield is_orientation(inst, alloc) and efx_verdict(inst, state.val, state.bundles).passed
    yield _cut_shaped(state, alloc)
    yield all(state.worth(i, state.available(i, j)) <= state.val[i][i]
              for i in range(inst.n) for j in state.neighbours[i])
    yield _first_violation(state) is None
    yield _first_unsafe(state) is None


def _cut_shaped(state: AllocationState, alloc: Allocation) -> bool:
    """P2: every pair is untouched, split into its cut's two halves, or holds one
    half at one endpoint and nothing at the other."""
    for (a, b), pair_edges in state.inst._pair_edges.items():
        if any(state.holder.get(e) not in (None, a, b) for e in pair_edges):
            return False
        held_a = pair_edges & alloc.bundles[a]
        held_b = pair_edges & alloc.bundles[b]
        cfg = state.pair_cut(a, b)
        halves = {cfg.c1, cfg.c2}
        ok = (not held_a and not held_b) \
            or {held_a, held_b} == halves \
            or (not held_b and held_a in halves) \
            or (not held_a and held_b in halves)
        if not ok:
            return False
    return True
