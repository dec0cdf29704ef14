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

``AllocationState`` is built only by moves, from the empty allocation.  It
keeps, per held pair, how many of its edges each agent holds, and from those
counts each agent's claims: the neighbours j for which A[i,j] is non-empty.
The three cases above are re-derived for a pair's two ends after each move
that touches it, so emptiness is read off the claims without a scan of E(i,j).
Most other questions need only what A[i,j] is worth to i (stage 1's picks,
flag P3, the safe sets' bar).  ``available_worth`` answers them from the
claims, the pair's holders, the value rows and the pair's cut, and
``available`` builds the set only for a bundle that is given.
``available_worth`` reads "only j holds part of E(i,j)" as i's worth of the
pair less ``val[i][j]``, which holds only while no agent holds an edge off its
own pair (``foreign == 0``); otherwise it sums the set.

What depends on the instance and the sides alone is a skeleton pair's cut,
made by its T-side end on the pair's first query and kept per state; it
carries each end's preferred half with its worth and each end's worth of the
whole pair.
"""
from __future__ import annotations

from heapq import heappush
from typing import Collection, Iterable

from .cutting import CutConfig, _view, cut
from .model import Allocation, Instance, InstanceError, StructureError, edge_set

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
    ``val[i][k] = scale_i * v_i(X_k)`` (sparse: agent i and the holders of i's
    edges) and every agent's set of enviers, and updates all of them on each
    move, so no query re-scans the edges or re-sums values.  ``enviers`` is the
    one record of envy that queries read: k is envied exactly when
    ``enviers[k]`` is non-empty.  ``pair_holders`` maps each sorted pair (a, b)
    of which some edge is held to {agent: how many edges of E(a,b) it holds};
    an untouched pair has no entry.  It answers the stage-2 case test, flag P2
    and the leftovers, and from it ``_reclaim`` re-derives ``claims[i]``, the
    neighbours j for which A[i,j] is non-empty, after each move.  ``available``
    and ``available_worth`` take emptiness from the claims.  ``foreign`` counts
    the held edges whose holder is not an endpoint of the edge; flag P1's
    orientation half is ``foreign == 0``.  ``_records`` keeps each sorted pair's
    cut, which serves both ends: made on the pair's first query, it carries both
    ends' views, so each is worked out once per state.  A state starts empty
    and reaches a given allocation by one ``give`` per non-empty bundle (an edge
    listed twice is refused as held), so only ``_move`` writes the records.

    ``dirty_heap`` is the stage-2 worklist, a min-heap of agents that starts
    with every agent and may hold one agent more than once.  Every agent off
    the worklist is envied or claims nothing, so the lowest agent on it that is
    not envied and claims something is the lowest such agent overall.  A move
    keeps this by marking an agent only when it may start to violate: when its
    claims go from empty to non-empty, or its enviers from non-empty to empty.
    """

    def __init__(self, inst: Instance, parts: Bipartition, alloc: Allocation | None = None):
        self.inst = inst
        self.parts = parts
        self._t_side = frozenset(parts[1])
        self._records: dict[tuple[int, int], CutConfig] = {}
        self.holder: dict[int, int] = {}
        self.bundles: list[set[int]] = [set() for _ in range(inst.n)]
        self.val: list[dict[int, int]] = [{i: 0} for i in range(inst.n)]
        self.enviers: list[set[int]] = [set() for _ in range(inst.n)]
        self.pair_holders: dict[tuple[int, int], dict[int, int]] = {}
        self.foreign = 0
        self.claims = [set(js) for js in inst.neighbours]
        self.dirty_heap = list(range(inst.n))
        if alloc is None:
            return
        bad = next((e for bundle in alloc.bundles for e in bundle if not 0 <= e < inst.m), None)
        if bad is not None:
            raise ValueError(f"invalid edge id {bad}")
        if len(alloc.bundles) != inst.n:
            raise InstanceError(f"allocation has {len(alloc.bundles)} bundles for {inst.n} agents")
        for agent, bundle in enumerate(alloc.bundles):
            if bundle:
                self.give(agent, bundle)

    def freeze(self) -> Allocation:
        return Allocation(tuple(frozenset(b) for b in self.bundles))

    def worth(self, i: int, edges: Iterable[int]) -> int:
        """``scale_i * v_i(edges)`` for edges incident to agent i."""
        return sum(map(self.inst.weights[i].__getitem__, edges))

    def pair_cut(self, i: int, j: int) -> CutConfig:
        """The cut of E(i,j), made by the pair's T-side agent; raises
        ``ValueError`` on a same-side pair."""
        pair = (i, j) if i < j else (j, i)
        cfg = self._records.get(pair)
        if cfg is None:
            cutter = _t_end(pair, self._t_side)
            cfg = self._records[pair] = cut(self.inst, cutter, i + j - cutter)
        return cfg

    # -- moves

    def give(self, agent: int, edges: Collection[int]) -> None:
        """Book unheld edges to the agent; moves nothing if one is already held."""
        if not self.holder.keys().isdisjoint(edges):
            e = min(self.holder.keys() & set(edges))
            raise StructureError(f"edge {e} is already held by agent {self.holder[e]}")
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
        all_edges = self.inst.edges
        weights = self.inst.weights
        holder = self.holder
        pair_holders = self.pair_holders
        touched: set[int] = set()
        pairs: set[tuple[int, int]] = set()
        for e in edges:
            _, u, v, _, _ = all_edges[e]
            pair = (u, v) if u < v else (v, u)
            pairs.add(pair)
            held = pair_holders.get(pair)
            if agent != u and agent != v:
                self.foreign += sign
            if sign > 0:
                bundle.add(e)
                holder[e] = agent
                if held is None:
                    held = pair_holders[pair] = {}
                held[agent] = held.get(agent, 0) + 1
            else:
                bundle.remove(e)
                del holder[e]
                # An agent holding nothing of the pair leaves its entry, and an
                # untouched pair leaves the map.
                if held[agent] > 1:
                    held[agent] -= 1
                elif len(held) > 1:
                    del held[agent]
                else:
                    del pair_holders[pair]
            for x in (u, v):
                row = self.val[x]
                v = row.get(agent, 0) + sign * weights[x][e]
                # A row keeps its own agent's entry and only positive others.
                if v or x == agent:
                    row[agent] = v
                else:
                    del row[agent]
                touched.add(x)
        for pair in pairs:
            self._reclaim(pair)
        enviers = self.enviers[agent]
        was_envied = bool(enviers)
        for x in touched:
            if x == agent:
                self._refresh_row(x)
            elif self.val[x].get(agent, 0) > self.val[x][x]:
                enviers.add(x)
            else:
                enviers.discard(x)
        if was_envied and not enviers:
            self._mark(agent)

    def _refresh_row(self, i: int) -> None:
        """Re-derive whom agent i envies, after i's own value changed, and mark
        each agent that i's change leaves envied by nobody.  Agents off the row
        are worth 0 to i, and so are not envied by i."""
        row = self.val[i]
        own = row[i]
        for k, v in row.items():
            who = self.enviers[k]
            if v > own:
                who.add(i)
            elif i in who:
                who.remove(i)
                if not who:
                    self._mark(k)

    def _reclaim(self, pair: tuple[int, int]) -> None:
        """Re-derive both ends' claims on the pair from its holders: an untouched
        pair is claimed by both ends, and a pair of which one end holds some
        but not all edges by the other end alone."""
        a, b = pair
        held = self.pair_holders.get(pair)
        if held is None:
            a_claims = b_claims = True
        elif len(held) == 1:
            (x, count), = held.items()
            partial = count < len(self.inst._pair_edges[pair])
            a_claims, b_claims = partial and x == b, partial and x == a
        else:
            a_claims = b_claims = False
        self._set_claim(a, b, a_claims)
        self._set_claim(b, a, b_claims)

    def _set_claim(self, i: int, j: int, on: bool) -> None:
        claims = self.claims[i]
        if not on:
            claims.discard(j)
        elif j not in claims:
            if not claims:
                self._mark(i)
            claims.add(j)

    def _mark(self, i: int) -> None:
        """Put agent i on the stage-2 worklist, again if it is on it already."""
        heappush(self.dirty_heap, i)

    # -- queries

    def available(self, i: int, j: int) -> frozenset[int]:
        """A[i,j](X): edges of E(i,j) still claimable by i."""
        if j not in self.claims[i]:
            if i == j:
                raise ValueError(f"available needs two distinct agents, got ({i}, {j})")
            return frozenset()
        # A claimed pair is untouched, or only j holds part of it.
        pair = (i, j) if i < j else (j, i)
        if pair in self.pair_holders:
            return self.inst._pair_edges[pair] - self.bundles[j]
        return _view(self.pair_cut(i, j), i)[0]

    def available_worth(self, i: int, j: int) -> int:
        """``worth(i, available(i, j))`` for two distinct agents, with no set
        built while ``foreign == 0``."""
        if j not in self.claims[i]:
            return 0
        pair = (i, j) if i < j else (j, i)
        if pair not in self.pair_holders:
            return _view(self.pair_cut(i, j), i)[1]
        if self.foreign:
            return self.worth(i, self.available(i, j))
        # No edge is held off its pair, so the edges at i that j holds are
        # E(i,j)'s, and val[i][j] is i's worth of exactly those.
        return _view(self.pair_cut(i, j), i)[2] - self.val[i].get(j, 0)

    def available_set(self, i: int) -> frozenset[int]:
        """A_i(X): the union of A[i,j](X) over i's neighbours."""
        out: set[int] = set()
        for j in self.claims[i]:
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
        # A_i holds only unallocated edges, so v_i(X_k | A_i) = val[i][k] + v_i(A_i),
        # and its parts A[i,j] lie in disjoint pairs, so their worths add up.
        row = self.val[i]
        bar = row[i] - sum(self.available_worth(i, j) for j in self.claims[i])
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
