"""Structure-specific solvers: multi-stars, shallow multi-trees, multi-cycles.

All three run per connected component and assert their own output (complete, EFX,
and an orientation where promised) before returning.  Each takes an optional
``PipelineTrace``, which gets the output as its ``final`` snapshot.  The tree
solver moves edges on the pipeline's ``AllocationState`` and checks each step on
the value rows and enviers that the state keeps current.
"""
from __future__ import annotations

from typing import Iterator

from .bipartite import PipelineTrace, checked, efx_completion
from .cutting import CutConfig, _view, cut
from .derived import AllocationState
from .fairness import efx_verdict
from .model import (
    FAMILY_CYCLE,
    FAMILY_STAR,
    FAMILY_TREE,
    Allocation,
    EdgeItem,
    Instance,
    StructureError,
    _component_family,
    _tree_center,
    bfs_depths,
    edge_set,
)


def _components(inst: Instance, families: tuple[str, ...], error: str) -> Iterator[dict[int, int]]:
    """Each skeleton component's BFS depths from its lowest agent, lowest first;
    each is checked to carry one of the family labels just before it is yielded,
    so a solver fails at the first component it cannot take."""
    for depth in inst.component_depths:
        if _component_family(inst, depth) not in families:
            raise StructureError(error)
        yield depth


def _halves(cfg: CutConfig, agent: int) -> tuple[frozenset[int], frozenset[int]]:
    """The half of the cut the agent weakly prefers (ties to c1), then the other."""
    mine = _view(cfg, agent)[0]
    return mine, cfg.c2 if mine == cfg.c1 else cfg.c1


# ---------------------------------------------------------------------------
# multi-stars


def solve_multistar(inst: Instance, trace: PipelineTrace | None = None) -> Allocation:
    """EFX orientation for star skeletons, any multiplicity.

    The hub cuts each leaf's shared edge set in two; the leaf keeps the half it
    prefers and the hub collects the rest.  Leaves end up with bundles they chose,
    and the hub's halves are cut-feasible for it, so nobody strongly envies.
    """
    bundles: list[set[int]] = [set() for _ in range(inst.n)]
    for comp in _components(inst, (FAMILY_STAR,), "skeleton component is not a star"):
        hub = min(v for v in comp if len(inst.neighbours[v]) == len(comp) - 1)
        for leaf in comp:
            if leaf != hub:
                mine, rest = _halves(cut(inst, hub, leaf), leaf)
                bundles[leaf] |= mine
                bundles[hub] |= rest
    return checked(inst, bundles, orientation=True, label="multi-star solver", trace=trace)


# ---------------------------------------------------------------------------
# multi-trees, diameter <= 4, multiplicity <= 2


def _best_edge(inst: Instance, agent: int, edge_ids) -> int:
    """Highest-valued edge for the agent, ties to the lowest edge id."""
    weights = inst.weights[agent]
    return min(edge_ids, key=lambda e: (-weights[e], e))


def solve_multitree_d4_q2(inst: Instance, trace: PipelineTrace | None = None) -> Allocation:
    """EFX orientation for tree skeletons with diameter <= 4 and multiplicity <= 2.

    Rooted at the component center: first orient the center's own edges (center
    keeps its single favorite item, each remaining item goes to the depth-1
    endpoint), then attach each depth-1 agent's children in ascending order.  An
    attach step depends on whether the depth-1 agent is currently envied and on
    whether it values its center-shared edges at least as much as its favorite
    child-shared item; the third case re-roots that agent on its favorite item,
    returns the center-shared edges to the center, and, if the center was envied,
    swaps the center/envier shared edges to dissolve the envy.

    Two facts are maintained after every step and asserted in-run: an envied
    depth-1 agent holds its center-shared edges entirely (or the center does), and
    an envied depth-1 agent does not envy the center.  A given trace records the
    state after each step, as ``center {c}`` and ``attach {a}``.
    """
    if any(len(edge_set(inst, a, b)) > 2 for a, b in inst.pairs()):
        raise StructureError("multiplicity above 2 is unsupported by the tree solver")
    # The solver reads no pair cut, so the state needs no bipartition sides.
    state = AllocationState(inst, ((), ()))

    for comp in _components(inst, (FAMILY_STAR, FAMILY_TREE), "skeleton component is not a tree"):
        if len(comp) == 1:
            continue
        center, radius, _ = _tree_center(inst, comp)
        if radius > 2:
            raise StructureError("tree diameter above 4 is unsupported")
        depth1 = inst.neighbours[center]

        favorite = _best_edge(inst, center, inst.incident(center))
        state.give(center, [favorite])
        for e in inst.incident(center) - {favorite}:
            u, v = inst.edges[e].endpoints()
            state.give(u if v == center else v, [e])
        _checkpoint(state, trace, f"center {center}", center, depth1)

        for agent in depth1:
            kids = [kid for kid in inst.neighbours[agent] if kid != center]
            if not kids:
                continue
            if not state.enviers[agent]:
                for kid in kids:
                    pe = edge_set(inst, agent, kid)
                    pick = _best_edge(inst, kid, pe)
                    state.give(kid, [pick])
                    state.give(agent, pe - {pick})
            else:
                shared = edge_set(inst, center, agent)
                if not shared <= state.bundles[agent]:
                    raise StructureError("envied depth-1 agent does not hold its center edges")
                child_edges = [e for kid in kids for e in edge_set(inst, agent, kid)]
                favorite = _best_edge(inst, agent, child_edges)
                if state.worth(agent, shared) < inst.weights[agent][favorite]:
                    # Re-root the agent on its favorite child-shared item.
                    center_envier = sorted(state.enviers[center])
                    state.take(agent, shared)
                    state.give(center, shared)
                    state.give(agent, [favorite])
                    if center_envier:
                        if len(center_envier) != 1:
                            raise StructureError("center has more than one envier")
                        state.swap(center, center_envier[0])
                # Each child takes what it shares with the agent, but for the
                # favorite item that a re-rooted agent keeps.
                for kid in kids:
                    state.give(kid, edge_set(inst, agent, kid) - state.bundles[agent])
            _checkpoint(state, trace, f"attach {agent}", center, depth1)

    return checked(inst, state.bundles, orientation=True, label="multi-tree solver", trace=trace)


def _checkpoint(state: AllocationState, trace: PipelineTrace | None, step: str, center: int,
                depth1: tuple[int, ...]) -> None:
    """Record the state as this step's snapshot in a given trace, then assert
    that it is EFX and that the step invariants hold."""
    if trace is not None:
        trace.snapshots[step] = state.freeze()
    inst = state.inst
    verdict = efx_verdict(inst, state.val, state.bundles)
    if not verdict.passed:
        raise StructureError(f"tree solver state is not EFX ({verdict.witnesses[0]})")
    for x in depth1:
        if state.enviers[x]:
            placed = {e for e in edge_set(inst, center, x) if e in state.holder}
            if placed and not (placed <= state.bundles[x] or placed <= state.bundles[center]):
                raise StructureError(f"center edges of envied agent {x} are split")
            if state.val[x].get(center, 0) > state.val[x][x]:
                raise StructureError(f"envied agent {x} envies the center")


# ---------------------------------------------------------------------------
# multi-cycles


def _solve_path_rest(inst: Instance, drop: list[set[int]], end_a: int, end_b: int) -> list[set[int]]:
    """Bundles of the three-stage solver on the instance without the edges of the
    dropped pairs: an even path with both ends on the T side (agents left without
    edges go to S).  Edge ids are the instance's own."""
    keep = [e for e in inst.edges if {e.u, e.v} not in drop]
    sub = Instance(inst.n, tuple(EdgeItem(k, e.u, e.v, e.ru, e.rv) for k, e in enumerate(keep)))
    depth = bfs_depths(sub.neighbours, end_a)
    if end_b not in depth or depth[end_b] % 2:
        raise StructureError("path ends do not share a side; the cycle parity is off")
    s_side = tuple(v for v in range(inst.n) if depth.get(v, 1) % 2)
    t_side = tuple(v for v in range(inst.n) if depth.get(v, 1) % 2 == 0)
    sub_alloc = efx_completion(sub, (s_side, t_side))
    return [{keep[e].id for e in bundle} for bundle in sub_alloc.bundles]


def _divergent_split(a: int, b: int, cfg: CutConfig) -> tuple[frozenset[int], frozenset[int]] | None:
    """A (bundle-for-a, bundle-for-b) labeling under which the endpoints weakly
    prefer opposite halves, at least one strictly; None when both rank the halves
    the same way.  Each endpoint gets the half it likes more than the other does.

    An endpoint's margin, its worth of c1 less its worth of c2, is read off its
    view: twice the preferred half's worth less the total, negated when that
    half is c2.  The margins are in each endpoint's own integer weights.  Past
    the first test they have opposite signs or a zero, so the comparisons read
    signs only, and the two scales cannot change the outcome."""
    margins = []
    for agent in (a, b):
        half, worth, total = _view(cfg, agent)
        margins.append(2 * worth - total if half is cfg.c1 else total - 2 * worth)
    da, db = margins
    if da * db > 0 or da == db:
        return None
    return (cfg.c1, cfg.c2) if da > db else (cfg.c2, cfg.c1)


def solve_multicycle(inst: Instance, trace: PipelineTrace | None = None) -> Allocation:
    """Complete EFX allocation on a single-cycle skeleton.

    Even cycles are bipartite and go through the three-stage solver.  For an odd
    cycle, either some adjacent pair ranks the halves of one of its cuts in
    opposite orders (then that pair is settled directly and the rest is an even
    path with both former endpoints on the T side), or every pair agrees
    everywhere, in which case two adjacent agents are lifted out, the remaining
    even path is solved, and the three boundary cuts are dealt according to six
    exhaustive value comparisons.
    """
    error = "skeleton is not a single cycle"
    if len(list(_components(inst, (FAMILY_CYCLE,), error))) != 1:
        raise StructureError(error)
    if inst.n == 3:
        raise StructureError("odd 3-cycle unsupported; use oracle")
    if inst.n % 2 == 0:
        return efx_completion(inst, trace=trace)

    # Case 1: hunt for a pair and a cut whose halves the endpoints rank oppositely.
    for a, b in inst.pairs():
        for cutter, other in ((a, b), (b, a)):
            split = _divergent_split(a, b, cut(inst, cutter, other))
            if split is not None:
                bundles = _solve_path_rest(inst, [{a, b}], a, b)
                bundles[a] |= split[0]
                bundles[b] |= split[1]
                return checked(inst, bundles, orientation=False, label="multi-cycle solver", trace=trace)

    # Case 2: all pairs agree on every cut.  Lift out two adjacent agents: j and
    # i, the next two along the cycle from agent 0 toward its lower neighbour.
    nbrs = inst.neighbours
    walk = [0, nbrs[0][0]]
    while len(walk) < 4:
        walk += [y for y in nbrs[walk[-1]] if y != walk[-2]]
    jq, j, i, ip = walk
    bundles = _solve_path_rest(inst, [{jq, j}, {j, i}, {i, ip}], ip, jq)

    # Case 1 found no divergent cut, so both endpoints of each of these pairs
    # rank its halves alike, or are both indifferent: the first half named is
    # one that both weakly prefer.
    c1, c2 = _halves(cut(inst, jq, j), jq)
    d1, d2 = _halves(cut(inst, i, j), j)
    e1, e2 = _halves(cut(inst, ip, i), i)

    def val(agent: int, *halves: frozenset[int]) -> int:
        # Each is a half of a cut of one of the agent's own pairs.
        weights = inst.weights[agent]
        return sum(weights[e] for half in halves for e in half)

    if val(j, c2, d2) >= max(val(j, c1), val(j, d1)):
        if val(i, d1, e2) >= val(i, e1):
            gifts = {jq: c1, j: c2 | d2, i: d1 | e2, ip: e1}
        else:
            gifts = {jq: c1, j: c2 | d2, i: e1, ip: d1 | e2}
    elif val(j, c1) >= max(val(j, c2, d2), val(j, d1)):
        if val(i, d1, e2) >= val(i, e1):
            gifts = {jq: c2 | d2, j: c1, i: d1 | e2, ip: e1}
        else:
            gifts = {jq: c2 | d2, j: c1, i: e1, ip: d1 | e2}
    else:
        if val(i, d2, e2) >= val(i, e1):
            gifts = {jq: c1, j: d1, i: d2 | e2, ip: c2 | e1}
        else:
            gifts = {jq: c1, j: d1, i: e1, ip: c2 | d2 | e2}
    for agent, bundle in gifts.items():
        bundles[agent] |= bundle
    return checked(inst, bundles, orientation=False, label="multi-cycle solver", trace=trace)
