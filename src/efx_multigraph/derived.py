"""State-dependent availability sets driving the bipartite pipeline.

For an ordered adjacent pair (i, j) and a partial allocation X, the available set
A[i,j](X) is what i could still claim from E(i,j):

  * nothing of E(i,j) allocated        -> i's preferred bundle of the pair's cut
                                          (the cut is always made by the T-side agent)
  * only j holds items of E(i,j)       -> the unallocated remainder E(i,j) \\ X_j
  * i already holds items, or a third
    agent holds items of E(i,j)        -> empty

From these: A_i = union over j, B_i = the list of A[i,j] over every other agent j
(empty ones included), and the safe set S_i = non-envied agents k that i would
still not envy after k absorbed all of A_i.
"""
from __future__ import annotations

from typing import Iterable

from .cutting import CutConfig, cut, preferred_bundle
from .fairness import envier_lists, value_rows
from .model import Allocation, Instance, edge_set

Bipartition = tuple[tuple[int, ...], tuple[int, ...]]


def t_side_of(pair: tuple[int, int], parts: Bipartition) -> int:
    """The T-side agent of an adjacent pair under the given bipartition."""
    return _t_end(pair, frozenset(parts[1]))


def _t_end(pair: tuple[int, int], t_side: frozenset[int]) -> int:
    a, b = pair
    if (a in t_side) == (b in t_side):
        raise ValueError(f"agents {a} and {b} lie on the same bipartition side")
    return a if a in t_side else b


class AllocationState:
    """A mutable allocation of one instance, with everything the pipeline asks of it.

    Besides the bundles and the holder map it keeps every agent's value row
    ``val[i][k] = scale_i * v_i(X_k)`` (sparse, as ``fairness.value_rows`` builds
    it: agent i and the holders of i's edges) and every agent's set of enviers,
    and updates all of them on each move, so no query re-scans the edges or
    re-sums values.  ``enviers`` is the one record of envy that queries read: k
    is envied exactly when ``enviers[k]`` is non-empty.  It memoizes, per ordered
    pair (i, j), i's preferred bundle of the pair's T-side cut, which depends on
    the instance alone.

    ``dirty`` holds every agent whose edges or envied status may have changed
    since the stage-2 loop last found it with nothing to claim; it starts with
    every agent.  Each move marks the mover and both endpoints of each moved
    edge, and each re-derived row marks the agents on it, which covers every
    agent whose available sets or envied status a move can change.
    """

    def __init__(self, inst: Instance, parts: Bipartition, alloc: Allocation | None = None):
        if alloc is None:
            alloc = Allocation((frozenset(),) * inst.n)
        self.inst = inst
        self.parts = parts
        self._t_side = frozenset(parts[1])
        self.holder = alloc.holder_map()
        self.neighbours = inst.neighbours
        self._preferred: dict[tuple[int, int], frozenset[int]] = {}
        self.val = value_rows(inst, alloc)
        self.bundles = [set(b) for b in alloc.bundles]
        self.enviers = [set(js) for js in envier_lists(self.val)]
        self.dirty = set(range(inst.n))

    def freeze(self) -> Allocation:
        return Allocation(tuple(frozenset(b) for b in self.bundles))

    def worth(self, i: int, edges: Iterable[int]) -> int:
        """``scale_i * v_i(edges)`` for edges incident to agent i."""
        return sum(map(self.inst.weights[i].__getitem__, edges))

    def pair_cut(self, i: int, j: int) -> CutConfig:
        """The cut of E(i,j), made by the pair's T-side agent."""
        cutter = _t_end((i, j), self._t_side)
        return cut(self.inst, cutter, j if cutter == i else i)

    # -- moves

    def give(self, agent: int, edges: Iterable[int]) -> None:
        self._move(agent, edges, 1)

    def take(self, agent: int, edges: Iterable[int]) -> None:
        self._move(agent, edges, -1)

    def swap(self, i: int, j: int) -> tuple[frozenset[int], frozenset[int]]:
        """Exchange what i and j hold of E(i,j); returns (held by i, held by j) before."""
        pair_edges = edge_set(self.inst, i, j)
        held_i, held_j = pair_edges & self.bundles[i], pair_edges & self.bundles[j]
        self.take(i, held_i)
        self.take(j, held_j)
        self.give(i, held_j)
        self.give(j, held_i)
        return held_i, held_j

    def _move(self, agent: int, edges: Iterable[int], sign: int) -> None:
        bundle = self.bundles[agent]
        weights = self.inst.weights
        touched: set[int] = set()
        for e in edges:
            edge = self.inst.edges[e]
            if sign > 0:
                bundle.add(e)
                self.holder[e] = agent
            else:
                bundle.remove(e)
                del self.holder[e]
            for x in (edge.u, edge.v):
                row = self.val[x]
                v = row.get(agent, 0) + sign * weights[x][e]
                # A row keeps its own agent's entry and only positive others.
                if v or x == agent:
                    row[agent] = v
                else:
                    del row[agent]
                touched.add(x)
        self.dirty |= touched
        self.dirty.add(agent)
        for x in touched:
            if x == agent:
                self._refresh_row(x)
            elif self.val[x].get(agent, 0) > self.val[x][x]:
                self.enviers[agent].add(x)
            else:
                self.enviers[agent].discard(x)

    def _refresh_row(self, i: int) -> None:
        """Re-derive whom agent i envies, after i's own value changed.  Agents
        off the row are worth 0 to i, and so are not envied by i."""
        row = self.val[i]
        own = row[i]
        self.dirty.update(row)
        for k, v in row.items():
            if v > own:
                self.enviers[k].add(i)
            else:
                self.enviers[k].discard(i)

    # -- queries

    def available(self, i: int, j: int) -> frozenset[int]:
        """A[i,j](X): edges of E(i,j) still claimable by i."""
        pair_edges = self.inst._pair_edges.get((i, j) if i < j else (j, i))
        if pair_edges is None:
            return edge_set(self.inst, i, j)  # empty, or a ValueError for i == j
        held_j: set[int] = set()
        for e in pair_edges:
            h = self.holder.get(e)
            if h == j:
                held_j.add(e)
            elif h is not None:
                return frozenset()
        if held_j:
            return pair_edges - held_j
        bundle = self._preferred.get((i, j))
        if bundle is None:
            bundle = self._preferred[(i, j)] = preferred_bundle(self.inst, i, self.pair_cut(i, j))
        return bundle

    def available_set(self, i: int) -> frozenset[int]:
        """A_i(X): the union of A[i,j](X) over i's neighbours."""
        out: set[int] = set()
        for j in self.neighbours[i]:
            out |= self.available(i, j)
        return frozenset(out)

    def envied(self) -> set[int]:
        return {k for k, who in enumerate(self.enviers) if who}

    def enviers_of(self, i: int) -> list[int]:
        return sorted(self.enviers[i])

    def safe_set(self, i: int, among: Iterable[int] | None = None) -> set[int]:
        """S_i(X), or its members among the given agents: those k that are not envied
        (``enviers[k]`` is empty) and whom i would not envy after k absorbed A_i(X)."""
        if not self.enviers[i]:
            raise ValueError(f"agent {i} is not envied; its safe set is undefined")
        # A_i holds only unallocated edges, so v_i(X_k | A_i) = val[i][k] + v_i(A_i).
        row = self.val[i]
        bar = row[i] - self.worth(i, self.available_set(i))
        among = range(self.inst.n) if among is None else among
        return {k for k in among if k != i and not self.enviers[k] and row.get(k, 0) <= bar}


def available(inst: Instance, alloc: Allocation, i: int, j: int, parts: Bipartition) -> frozenset[int]:
    """A[i,j](X): edges of E(i,j) still claimable by i."""
    return AllocationState(inst, parts, alloc).available(i, j)


def available_set(inst: Instance, alloc: Allocation, i: int, parts: Bipartition) -> frozenset[int]:
    """A_i(X): the union of A[i,j](X) over all other agents j."""
    return AllocationState(inst, parts, alloc).available_set(i)


def available_bundles(inst: Instance, alloc: Allocation, i: int, parts: Bipartition) -> list[frozenset[int]]:
    """B_i(X): A[i,j](X) for every other agent j in ascending order, empty ones
    included (n - 1 entries)."""
    state = AllocationState(inst, parts, alloc)
    return [state.available(i, j) for j in range(inst.n) if j != i]


def safe_set(inst: Instance, alloc: Allocation, i: int, parts: Bipartition) -> set[int]:
    """S_i(X) for an envied agent i: non-envied agents k with
    v_i(X_i) >= v_i(X_k union A_i(X))."""
    return AllocationState(inst, parts, alloc).safe_set(i)
