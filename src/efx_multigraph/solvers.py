"""Structure-specific solvers: multi-stars, shallow multi-trees, multi-cycles.

All three run per connected component and assert their own output (complete, EFX,
and an orientation where promised) before returning.
"""
from __future__ import annotations

from fractions import Fraction

from .bipartite import complete_efx
from .cutting import cut, preferred_bundle
from .derived import Bipartition
from .fairness import bundle_value, check_efx, enviers_of, envies
from .model import (
    Allocation,
    Instance,
    StructureError,
    bfs_depths,
    connected_components,
    edge_set,
    is_complete,
    is_orientation,
    make_allocation,
    skeleton_adjacency,
)


def _assert_result(inst: Instance, alloc: Allocation, orientation: bool, label: str) -> None:
    if not is_complete(inst, alloc):
        raise StructureError(f"{label}: output is not complete")
    if orientation and not is_orientation(inst, alloc):
        raise StructureError(f"{label}: output is not an orientation")
    verdict = check_efx(inst, alloc)
    if not verdict.passed:
        raise StructureError(f"{label}: output is not EFX ({verdict.witnesses[0]})")


# ---------------------------------------------------------------------------
# multi-stars


def solve_multistar(inst: Instance) -> Allocation:
    """EFX orientation for star skeletons, any multiplicity.

    The hub cuts each leaf's shared edge set in two; the leaf keeps the half it
    prefers and the hub collects the rest.  Leaves end up with bundles they chose,
    and the hub's halves are cut-feasible for it, so nobody strongly envies.
    """
    adj = skeleton_adjacency(inst)
    cur: list[set[int]] = [set() for _ in range(inst.n)]
    for comp in connected_components(inst):
        size = len(comp)
        if size == 1:
            continue
        hubs = [v for v in comp if len(adj[v]) == size - 1]
        if not hubs:
            raise StructureError("skeleton component is not a star")
        hub = min(hubs)
        leaves = [v for v in comp if v != hub]
        if any(len(adj[v]) != 1 for v in leaves):
            raise StructureError("skeleton component is not a star")
        for leaf in sorted(leaves):
            cfg = cut(inst, hub, leaf)
            mine = preferred_bundle(inst, leaf, cfg)
            rest = cfg.c2 if mine == cfg.c1 else cfg.c1
            cur[leaf] |= mine
            cur[hub] |= rest
    out = make_allocation(inst.n, cur)
    _assert_result(inst, out, orientation=True, label="multi-star solver")
    return out


# ---------------------------------------------------------------------------
# multi-trees, diameter <= 4, multiplicity <= 2


def _best_edge(inst: Instance, agent: int, edge_ids) -> int:
    """Highest-valued edge for the agent, ties to the lowest edge id."""
    return min(edge_ids, key=lambda e: (-inst.edges[e].value_for(agent), e))


def solve_multitree_d4_q2(inst: Instance, snapshots: list[Allocation] | None = None) -> Allocation:
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
    an envied depth-1 agent does not envy the center.
    """
    adj = skeleton_adjacency(inst)
    pairs = inst.pairs()
    if any(len(edge_set(inst, a, b)) > 2 for a, b in pairs):
        raise StructureError("multiplicity above 2 is unsupported by the tree solver")
    cur: list[set[int]] = [set() for _ in range(inst.n)]

    def record() -> None:
        if snapshots is not None:
            snapshots.append(make_allocation(inst.n, cur))

    for comp in connected_components(inst):
        size = len(comp)
        comp_edges = {e.id for e in inst.edges if e.u in comp}
        skeleton_count = len({(min(a, b), max(a, b)) for a, b in pairs if a in comp})
        if skeleton_count != size - 1:
            raise StructureError("skeleton component is not a tree")
        if size == 1:
            continue
        dists = {v: bfs_depths(adj, v) for v in comp}
        ecc = {v: max(dists[v].values()) for v in comp}
        center = min(v for v in comp if ecc[v] == min(ecc.values()))
        if ecc[center] > 2:
            raise StructureError("tree diameter above 4 is unsupported")
        depth1 = sorted(adj[center])
        children = {t: sorted(set(adj[t]) - {center}) for t in depth1}

        center_edges = sorted(e for e in comp_edges
                              if center in inst.edges[e].endpoints())
        if center_edges:
            favorite = _best_edge(inst, center, center_edges)
            cur[center].add(favorite)
            for e in center_edges:
                if e != favorite:
                    u, v = inst.edges[e].endpoints()
                    cur[u if v == center else v].add(e)
        record()
        _assert_tree_invariants(inst, cur, center, depth1)

        for agent in depth1:
            kids = children[agent]
            if not kids:
                continue
            frozen = make_allocation(inst.n, cur)
            envied = bool(enviers_of(inst, frozen, agent))
            child_edges = [e for kid in kids for e in edge_set(inst, agent, kid)]
            favorite_child_edge = _best_edge(inst, agent, child_edges)
            shared = edge_set(inst, center, agent)
            if not envied:
                for kid in kids:
                    pe = edge_set(inst, agent, kid)
                    pick = _best_edge(inst, kid, pe)
                    cur[kid].add(pick)
                    cur[agent].update(pe - {pick})
            else:
                if not shared <= cur[agent]:
                    raise StructureError("envied depth-1 agent does not hold its center edges")
                if bundle_value(inst, agent, shared) >= inst.edges[favorite_child_edge].value_for(agent):
                    for kid in kids:
                        cur[kid].update(edge_set(inst, agent, kid))
                else:
                    center_envier = enviers_of(inst, frozen, center)
                    j0 = next(kid for kid in kids
                              if favorite_child_edge in edge_set(inst, agent, kid))
                    cur[agent] -= shared
                    cur[center] |= shared
                    cur[agent].add(favorite_child_edge)
                    cur[j0].update(edge_set(inst, agent, j0) - {favorite_child_edge})
                    for kid in kids:
                        if kid != j0:
                            cur[kid].update(edge_set(inst, agent, kid))
                    if center_envier:
                        if len(center_envier) != 1:
                            raise StructureError("center has more than one envier")
                        h = center_envier[0]
                        swap = edge_set(inst, center, h)
                        from_center = swap & cur[center]
                        from_h = swap & cur[h]
                        cur[center] -= from_center
                        cur[h] -= from_h
                        cur[center] |= from_h
                        cur[h] |= from_center
            record()
            _assert_tree_invariants(inst, cur, center, depth1)

    out = make_allocation(inst.n, cur)
    _assert_result(inst, out, orientation=True, label="multi-tree solver")
    return out


def _assert_tree_invariants(inst: Instance, cur: list[set[int]], center: int, depth1: list[int]) -> None:
    frozen = make_allocation(inst.n, cur)
    verdict = check_efx(inst, frozen)
    if not verdict.passed:
        raise StructureError(f"tree solver state is not EFX ({verdict.witnesses[0]})")
    for x in depth1:
        if enviers_of(inst, frozen, x):
            shared = edge_set(inst, center, x)
            placed = shared & frozen.assigned()
            if placed and not (placed <= frozen.bundles[x] or placed <= frozen.bundles[center]):
                raise StructureError(f"center edges of envied agent {x} are split")
            if envies(inst, frozen, x, center):
                raise StructureError(f"envied agent {x} envies the center")


# ---------------------------------------------------------------------------
# multi-cycles


def _sub_instance(inst: Instance, keep: list[int]) -> tuple[Instance, list[int]]:
    """Instance restricted to the given edge ids (same agents, edges reindexed)."""
    from .model import EdgeItem

    edges = tuple(
        EdgeItem(k, inst.edges[old].u, inst.edges[old].v, inst.edges[old].wu, inst.edges[old].wv)
        for k, old in enumerate(keep)
    )
    return Instance(inst.n, edges), keep


def _path_parts_with_ends_in_t(inst_sub: Instance, end_a: int, end_b: int) -> Bipartition:
    """Bipartition of a path skeleton placing both (even-distance) ends in T;
    isolated agents go to S."""
    depth = bfs_depths(skeleton_adjacency(inst_sub), end_a)
    if end_b not in depth or depth[end_b] % 2:
        raise StructureError("path ends do not share a side; the cycle parity is off")
    s_side = tuple(v for v in range(inst_sub.n) if depth.get(v, 1) % 2)
    t_side = tuple(v for v in range(inst_sub.n) if depth.get(v, 1) % 2 == 0)
    return (s_side, t_side)


def _cycle_order(inst: Instance) -> list[int]:
    adj = skeleton_adjacency(inst)
    start = 0
    order = [start, min(adj[start])]
    while len(order) < inst.n:
        nxt = [x for x in adj[order[-1]] if x != order[-2]]
        order.append(nxt[0])
    return order


def _divergent_split(inst: Instance, a: int, b: int, cfg) -> tuple[frozenset[int], frozenset[int]] | None:
    """A (bundle-for-a, bundle-for-b) labeling under which the endpoints weakly
    prefer opposite halves, at least one strictly; None when both rank the halves
    the same way."""
    da = bundle_value(inst, a, cfg.c1) - bundle_value(inst, a, cfg.c2)
    db = bundle_value(inst, b, cfg.c1) - bundle_value(inst, b, cfg.c2)
    if da >= 0 and db <= 0 and (da > 0 or db < 0):
        return cfg.c1, cfg.c2
    if da <= 0 and db >= 0 and (da < 0 or db > 0):
        return cfg.c2, cfg.c1
    return None


def _normalize(inst: Instance, cfg, primary: int, secondary: int) -> tuple[frozenset[int], frozenset[int]]:
    """Label the halves so index 1 is the half both named agents weakly prefer."""
    c1, c2 = cfg.c1, cfg.c2
    d_primary = bundle_value(inst, primary, c1) - bundle_value(inst, primary, c2)
    d_secondary = bundle_value(inst, secondary, c1) - bundle_value(inst, secondary, c2)
    if d_primary < 0 or (d_primary == 0 and d_secondary < 0):
        c1, c2 = c2, c1
    if bundle_value(inst, secondary, c1) < bundle_value(inst, secondary, c2):
        raise StructureError("pair endpoints disagree on the preferred half")
    return c1, c2


def solve_multicycle(inst: Instance) -> Allocation:
    """Complete EFX allocation on a single-cycle skeleton.

    Even cycles are bipartite and go through the three-stage solver.  For an odd
    cycle, either some adjacent pair ranks the halves of one of its cuts in
    opposite orders (then that pair is settled directly and the rest is an even
    path with both former endpoints on the T side), or every pair agrees
    everywhere, in which case two adjacent agents are lifted out, the remaining
    even path is solved, and the three boundary cuts are dealt according to six
    exhaustive value comparisons.
    """
    adj = skeleton_adjacency(inst)
    if len(connected_components(inst)) != 1 or inst.n < 3 \
            or any(len(adj[v]) != 2 for v in range(inst.n)) or len(inst.pairs()) != inst.n:
        raise StructureError("skeleton is not a single cycle")
    if inst.n == 3:
        raise StructureError("odd 3-cycle unsupported; use oracle")
    if inst.n % 2 == 0:
        return complete_efx(inst)[0]

    # Case 1: hunt for a pair and a cut whose halves the endpoints rank oppositely.
    for a, b in inst.pairs():
        for cutter in (a, b):
            cfg = cut(inst, cutter, b if cutter == a else a)
            split = _divergent_split(inst, a, b, cfg)
            if split is not None:
                keep = [e.id for e in inst.edges if {e.u, e.v} != {a, b}]
                sub, old_ids = _sub_instance(inst, keep)
                parts = _path_parts_with_ends_in_t(sub, a, b)
                sub_alloc, _ = complete_efx(sub, parts)
                cur = [set(old_ids[e] for e in bundle) for bundle in sub_alloc.bundles]
                cur[a] |= split[0]
                cur[b] |= split[1]
                out = make_allocation(inst.n, cur)
                _assert_result(inst, out, orientation=False, label="multi-cycle solver")
                return out

    # Case 2: all pairs agree on every cut.  Lift out two adjacent agents.
    order = _cycle_order(inst)
    jq, j, i, ip = order[0], order[1], order[2], order[3]
    keep = [e.id for e in inst.edges
            if {e.u, e.v} not in ({jq, j}, {j, i}, {i, ip})]
    sub, old_ids = _sub_instance(inst, keep)
    parts = _path_parts_with_ends_in_t(sub, ip, jq)
    sub_alloc, _ = complete_efx(sub, parts)
    cur = [set(old_ids[e] for e in bundle) for bundle in sub_alloc.bundles]

    c1, c2 = _normalize(inst, cut(inst, jq, j), jq, j)
    d1, d2 = _normalize(inst, cut(inst, i, j), j, i)
    e1, e2 = _normalize(inst, cut(inst, ip, i), i, ip)

    def val(agent: int, *bundles: frozenset[int]) -> Fraction:
        total = Fraction(0)
        for bundle in bundles:
            total += bundle_value(inst, agent, bundle)
        return total

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
        cur[agent] |= bundle
    out = make_allocation(inst.n, cur)
    _assert_result(inst, out, orientation=False, label="multi-cycle solver")
    return out
