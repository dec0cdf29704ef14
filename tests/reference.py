"""Literal definitions and stage claims that only the tests use.

The package computes these through its integer, sparse valuation; the tests
keep the rational, dense forms here as the reference, the oracle's search
with its literal per-node envy tests (``ReferenceSearch``), the rational
grammar as a regular expression (``parse_rational_by_regex``), the instance
reader as a shape pass followed by ``build_instance`` with the constructor's
full check (``instance_from_json_by_composition``), a component's center
from a BFS run at every agent (``center_by_bfs``), and the pipeline state's
pair queries as scans of E(i,j) through the holder map (``available_by_scan``,
``p1_p2_by_scan``, ``p3_p4_by_scan`` and ``p5_by_scan``), and the stage-2 loop
from those scans, with no worklist or claims (``saturate_full_scan``), and a
pair's cut with a set per half and a second pass for the other end's worths
(``cut_by_two_passes``).
"""
from __future__ import annotations

import re
from fractions import Fraction

from efx_multigraph import (
    Allocation,
    EdgeItem,
    Instance,
    InstanceError,
    StructureError,
    bundle_value,
    edge_set,
    envied_set,
    is_orientation,
)
from efx_multigraph.bipartite import _leftovers
from efx_multigraph.cutting import CutConfig, preferred_bundle
from efx_multigraph.derived import AllocationState, Bipartition
from efx_multigraph.fairness import efx_verdict
from efx_multigraph.model import bfs_depths, check_agent_count, parse_ratio


# The rational grammar as a regular expression, as ``parse_rational`` read it
# before it parsed without one.  ASCII digits only: `\d` would also read other
# scripts' digits, as `int` does.
_RATIONAL_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def parse_rational_by_regex(raw: Fraction | int | str) -> Fraction:
    """``parse_rational`` by the regular expression: the same value, or an
    ``InstanceError`` with the same message."""
    if isinstance(raw, str):
        match = _RATIONAL_RE.fullmatch(raw.strip())
        if match:
            num, den = match.groups()
            try:
                return Fraction(int(num), int(den or 1))
            except ZeroDivisionError:
                raise InstanceError(f"not a rational: {raw!r} (zero denominator)") from None
            except ValueError:  # more digits than int() converts
                raise InstanceError("not a rational: too many digits") from None
    elif isinstance(raw, Fraction):
        return raw
    elif isinstance(raw, int) and not isinstance(raw, bool):
        return Fraction(raw)
    raise InstanceError(f"not a rational: {raw!r} (expected digits or digits/digits)")


def instance_from_json_by_composition(doc: object) -> Instance:
    """``instance_from_json`` as two passes: the document's shape over every
    edge, then every weight through ``parse_ratio`` and the instance through
    the constructor's full check, which ``build_instance`` skips in part.  The
    reader must give an equal instance, or an ``InstanceError`` with the same
    text."""
    if not isinstance(doc, dict):
        raise InstanceError("instance document must be a JSON object")
    if "n" not in doc or "edges" not in doc:
        raise InstanceError("instance document needs 'n' and 'edges'")
    raw_edges = doc["edges"]
    if not isinstance(raw_edges, list):
        raise InstanceError("'edges' must be a list")
    specs = []
    for k, rec in enumerate(raw_edges):
        if not isinstance(rec, dict):
            raise InstanceError(f"edge {k}: expected an object")
        try:
            specs.append((rec["u"], rec["v"], rec["wu"], rec["wv"]))
        except KeyError as exc:
            raise InstanceError(f"edge {k}: missing field {exc.args[0]!r}") from None
    edges = []
    for k, (u, v, wu, wv) in enumerate(specs):
        try:
            edges.append(EdgeItem(k, u, v, parse_ratio(wu), parse_ratio(wv)))
        except InstanceError as exc:
            raise InstanceError(f"edge {k}: {exc}") from None
    inst = Instance(doc["n"], tuple(edges))
    check_agent_count(inst.n)
    return inst


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
    """The stage-2 loop with no worklist and no claims: every turn scans E(i,j)
    for every agent i from agent 0 and every neighbour j, and takes the first
    non-envied agent with a non-empty A[i,j]."""
    while True:
        envied = state.envied()
        hit = _first_hit_by_scan(state, envied)
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


def _first_hit_by_scan(state: AllocationState, envied: set[int]) -> tuple[int, int, frozenset[int]] | None:
    """The lowest agent i outside ``envied`` with a non-empty A[i,j], its lowest
    such neighbour j and A[i,j], each A[i,j] scanned from E(i,j)."""
    inst = state.inst
    for i in range(inst.n):
        if i in envied:
            continue
        for j in inst.neighbours[i]:
            a_ij = available_by_scan(state, i, j)
            if a_ij:
                return i, j, a_ij
    return None


# ``AllocationState.available`` and flags P1 and P2 as they read before the
# state kept each pair's holders: every query scans E(i,j) through ``holder``.
def available_by_scan(state: AllocationState, i: int, j: int) -> frozenset[int]:
    """A[i,j](X): edges of E(i,j) still claimable by i."""
    pair_edges = state.inst._pair_edges.get((i, j) if i < j else (j, i))
    if pair_edges is None:
        return edge_set(state.inst, i, j)  # empty, or a ValueError for i == j
    held_j: set[int] = set()
    for e in pair_edges:
        h = state.holder.get(e)
        if h == j:
            held_j.add(e)
        elif h is not None:
            return frozenset()
    if held_j:
        return pair_edges - held_j
    return preferred_bundle(state.inst, i, state.pair_cut(i, j))


def p1_p2_by_scan(state: AllocationState) -> tuple[bool, bool]:
    """Flags P1 (an EFX orientation) and P2 (every pair placed as whole bundles
    of its T-side cut) from the frozen allocation."""
    inst = state.inst
    alloc = state.freeze()
    p1 = is_orientation(inst, alloc) and efx_verdict(inst, state.val, state.bundles).passed
    return p1, _cut_shaped_by_scan(state, alloc)


def _cut_shaped_by_scan(state: AllocationState, alloc: Allocation) -> bool:
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


# Flags P3 to P5 with no count, memo or value row of the state: A[i,j] from
# ``available_by_scan`` and every value a rational sum over the frozen bundles.
def p3_p4_by_scan(state: AllocationState) -> tuple[bool, bool]:
    """Flags P3 (nobody values an available bundle above their own bundle) and
    P4 (non-envied agents have nothing available)."""
    inst = state.inst
    val = value_matrix(inst, state.freeze())
    others = [[j for j in range(inst.n) if j != i] for i in range(inst.n)]
    p3 = all(bundle_value(inst, i, available_by_scan(state, i, j)) <= val[i][i]
             for i in range(inst.n) for j in others[i])
    envied = {i for i in range(inst.n) if any(val[k][i] > val[k][k] for k in others[i])}
    p4 = not any(available_by_scan(state, i, j)
                 for i in range(inst.n) if i not in envied for j in others[i])
    return p3, p4


def p5_by_scan(state: AllocationState) -> bool:
    """Flag P5 (every envier of an envied agent is in its safe set)."""
    inst = state.inst
    alloc = state.freeze()
    val = value_matrix(inst, alloc)
    enviers = [{k for k in range(inst.n) if val[k][i] > val[k][k]} for i in range(inst.n)]
    for i, who in enumerate(enviers):
        if not who:
            continue
        a_i = frozenset().union(*(available_by_scan(state, i, j) for j in range(inst.n) if j != i))
        bar = val[i][i] - bundle_value(inst, i, a_i)
        if any(enviers[k] or val[i][k] > bar for k in who):
            return False
    return True


def cut_by_two_passes(inst: Instance, cutter: int, other: int) -> CutConfig:
    """``cutting.cut`` as it was first written: a sort on a (-weight, id) key,
    a pass that fills a set per half with the cutter's running sums, and a
    second pass that sums the other end's worth of each half."""
    if cutter == other:
        raise ValueError(f"cut needs two distinct agents, got ({cutter}, {other})")
    weights = inst.weights[cutter]
    items = sorted(edge_set(inst, cutter, other), key=lambda e: (-weights[e], e))
    c1: set[int] = set()
    c2: set[int] = set()
    v1 = v2 = 0
    for e in items:
        w = weights[e]
        if v1 <= v2:
            c1.add(e)
            v1 += w
        else:
            c2.add(e)
            v2 += w
    h1, h2 = frozenset(c1), frozenset(c2)
    theirs = inst.weights[other]
    w1 = sum(theirs[e] for e in c1)
    w2 = sum(theirs[e] for e in c2)

    def view(x1: int, x2: int) -> tuple[frozenset[int], int, int]:
        return (h1, x1, x1 + x2) if x1 >= x2 else (h2, x2, x1 + x2)

    return CutConfig(cutter=cutter, c1=h1, c2=h2, other=other,
                     cutter_view=view(v1, v2), other_view=view(w1, w2))


def center_by_bfs(inst: Instance, comp: list[int]) -> tuple[int, int, int]:
    """(center, radius, diameter) of a component: the lowest agent of least
    eccentricity, that eccentricity, and the greatest one.  It runs a BFS from
    every agent of the component, O(size * edges)."""
    ecc = {v: max(bfs_depths(inst.neighbours, v).values()) for v in comp}
    radius = min(ecc.values())
    return min(v for v in comp if ecc[v] == radius), radius, max(ecc.values())


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


# The oracle's depth-first search as it stood before its per-node tests moved to
# per-bundle item counts: an envy test re-reads the bundle's least-valued item
# (a ``min`` over the viewer's weights) for every viewer and bundle.  Only the
# class name differs from that code.
class ReferenceSearch:
    """DFS state shared across the recursion; values are each agent's integer
    weights (``Instance.weights``), laid out as dense per-edge rows.

    Edges are placed in id order, so an agent's own value is final from its last
    incident edge on; the agents that close at each depth, and those already
    final, are listed once up front.

    A search may be confined to the subtree below a fixed ``prefix`` of
    assignments (one parallel task).  The nodes above the prefix's end are shared
    by several tasks; each is counted in ``explored`` only by the task whose
    prefix takes the first option from that node's depth on, so the task counts
    sum to the single search's count (without a count requested, over the tasks
    up to the first that finds a witness).
    """

    def __init__(self, inst: Instance, choices: list[tuple[int, ...]], prune: bool,
                 counting: bool, prefix: tuple[int, ...] = ()):
        n = inst.n
        self.options = [(k,) for k in prefix] + choices[len(prefix):]
        self.count_from = len(prefix)
        while self.count_from and prefix[self.count_from - 1] == choices[self.count_from - 1][0]:
            self.count_from -= 1
        self.prune = prune
        self.counting = counting

        last = [-1] * n
        for e in inst.edges:
            last[e.u] = last[e.v] = e.id
        # Agents no edge touches value every bundle at 0 and never envy: they get
        # no rows.  weight[x][e] is x's scaled value of item e (0 off x's edges).
        self.agents = [x for x in range(n) if last[x] >= 0]
        self.weight: list[list[int] | None] = [None] * n
        self.val: list[list[int] | None] = [None] * n
        for x in self.agents:
            self.weight[x] = [0] * inst.m
            for e, w in inst.weights[x].items():
                self.weight[x][e] = w
            self.val[x] = [0] * n
        self.steps = []
        for e in inst.edges:
            wu = self.weight[e.u][e.id]
            wv = self.weight[e.v][e.id]
            closing = tuple(x for x in (e.u, e.v) if last[x] == e.id)
            final = tuple(x for x in self.agents if last[x] < e.id)
            self.steps.append((e.u, e.v, wu, wv, closing, final))

        self.bundles: list[list[int]] = [[] for _ in range(n)]
        self.assignment: list[int] = []
        self.witness: list[int] | None = None
        self.count = 0
        self.explored = 0

    def _strongly_envies(self, x: int, k: int) -> bool:
        row = self.val[x]
        own = row[x]
        other = row[k]
        if other <= own:
            return False
        return own < other - min(map(self.weight[x].__getitem__, self.bundles[k]))

    def _envies_some_bundle(self, x: int) -> bool:
        row = self.val[x]
        own = row[x]
        least = self.weight[x].__getitem__
        bundles = self.bundles
        # A bundle worth more than ``own`` is non-empty and is not x's own.
        for k, other in enumerate(row):
            if other > own and own < other - min(map(least, bundles[k])):
                return True
        return False

    def run(self, depth: int) -> bool:
        """Explore below the current assignment; True means stop (witness found and
        no count requested)."""
        if depth >= self.count_from:
            self.explored += 1
        if depth == len(self.options):
            if not self.prune:
                for x in self.agents:
                    if self._envies_some_bundle(x):
                        return False
            if self.witness is None:
                self.witness = list(self.assignment)
                if not self.counting:
                    return True
            self.count += 1
            return False
        u, v, wu, wv, closing, final = self.steps[depth]
        val_u = self.val[u]
        val_v = self.val[v]
        for k in self.options[depth]:
            val_u[k] += wu
            val_v[k] += wv
            bundle = self.bundles[k]
            bundle.append(depth)
            self.assignment.append(k)

            dead = False
            if self.prune:
                for x in closing:
                    if self._envies_some_bundle(x):
                        dead = True
                        break
                if not dead:
                    for x in final:
                        if self._strongly_envies(x, k):
                            dead = True
                            break

            stop = False if dead else self.run(depth + 1)

            self.assignment.pop()
            bundle.pop()
            val_u[k] -= wu
            val_v[k] -= wv
            if stop:
                return True
        return False
