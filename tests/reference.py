"""Literal definitions and stage claims that only the tests use.

The package computes these through its integer, sparse valuation; the tests
keep the rational, dense forms here as the reference, the oracle's search
with its literal per-node envy tests (``ReferenceSearch``), and the rational
grammar as a regular expression (``parse_rational_by_regex``).
"""
from __future__ import annotations

import re
from fractions import Fraction

from efx_multigraph import (
    Allocation,
    Instance,
    InstanceError,
    StructureError,
    bundle_value,
    edge_set,
    envied_set,
)
from efx_multigraph.bipartite import _first_violation, _leftovers
from efx_multigraph.derived import AllocationState, Bipartition


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
        hit = _first_violation(state)
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
