"""Literal definitions and stage claims that only the tests use.

The package computes these through its integer, sparse valuation; the tests
keep the rational, dense forms here as the reference.
"""
from __future__ import annotations

from fractions import Fraction

from efx_multigraph import (
    Allocation,
    Instance,
    StructureError,
    bundle_value,
    edge_set,
    envied_set,
)
from efx_multigraph.bipartite import _first_violation, _leftovers
from efx_multigraph.derived import AllocationState, Bipartition


def value_matrix(inst: Instance, alloc: Allocation) -> list[list[Fraction]]:
    """``val[i][k] = v_i(X_k)`` for every agent pair, in one pass over the bundles:
    an edge adds only to the rows of its two endpoints."""
    zero = Fraction(0)
    val = [[zero] * inst.n for _ in range(inst.n)]
    for k, bundle in enumerate(alloc.bundles):
        for e in bundle:
            if not (0 <= e < inst.m):
                raise ValueError(f"invalid edge id {e}")
            edge = inst.edges[e]
            val[edge.u][k] += edge.wu
            val[edge.v][k] += edge.wv
    return val


def unallocated_incident(inst: Instance, alloc: Allocation, i: int) -> frozenset[int]:
    """U_i(X): unallocated edges incident to i."""
    return inst.incident(i) - alloc.assigned()


def envied_only_in_s(inst: Instance, alloc: Allocation, parts: Bipartition) -> bool:
    """Every envied agent lies on the S side."""
    return envied_set(inst, alloc) <= set(parts[0])


def claim_leftover_pairs(inst: Instance, alloc: Allocation, parts: Bipartition) -> bool:
    """After stage 2: every unallocated edge sits in a pair whose envied endpoint
    could still claim it while the non-envied endpoint holds the rest."""
    state = AllocationState(inst, parts, alloc)
    try:
        leftovers = _leftovers(state)
    except StructureError:
        return False
    for i, j, pair, free in leftovers:
        if state.available(i, j) != free:
            return False
        if not (edge_set(inst, *pair) - free) <= alloc.bundles[j]:
            return False
    return True


def claim_non_envied_bound(inst: Instance, alloc: Allocation) -> bool:
    """After stage 2: no non-envied agent values her unallocated incident edges
    above her own bundle."""
    envied = envied_set(inst, alloc)
    for i in range(inst.n):
        if i in envied:
            continue
        pending = unallocated_incident(inst, alloc, i)
        if bundle_value(inst, i, pending) > bundle_value(inst, i, alloc.bundles[i]):
            return False
    return True


def saturate_full_scan(state: AllocationState, events: list[dict], stage: str) -> None:
    """The stage-2 loop with no worklist: every turn rescans every agent from
    agent 0 for the lowest non-envied agent with an available set."""
    while True:
        envied = state.envied()
        hit = _first_violation(state, envied)
        if hit is None:
            return
        i, j, a_ij = hit
        cfg = state.pair_cut(i, j)
        if edge_set(state.inst, i, j) & state.bundles[j]:
            state.give(i, a_ij)
            case = 1
        elif j not in envied:
            state.give(i, a_ij)
            state.give(j, cfg.c2 if a_ij == cfg.c1 else cfg.c1)
            case = 2
        else:
            state.give(i, a_ij)
            case = 3
        events.append({"stage": stage, "case": case, "i": i, "j": j, "edges": sorted(a_ij)})


def longest_simple_path(adj, vertices) -> int:
    """Edges on the longest simple path starting in ``vertices``, by a DFS over
    every simple path; ``adj[x]`` lists the neighbours of agent x."""
    best = 0

    def extend(x: int, visited: set[int], length: int) -> None:
        nonlocal best
        best = max(best, length)
        for y in adj[x]:
            if y not in visited:
                visited.add(y)
                extend(y, visited, length + 1)
                visited.remove(y)

    for v in vertices:
        extend(v, {v}, 0)
    return best
