"""The instance index, the integer valuation, the value rows and the incremental
allocation state, each against its literal rational definition, kept here as the
reference."""
from __future__ import annotations

import pickle
from fractions import Fraction
from math import lcm

from hypothesis import given, settings, strategies as st

from efx_multigraph import (
    Instance,
    achieved_alpha,
    available,
    available_bundles,
    available_set,
    build_instance,
    bundle_value,
    check_efx,
    cut,
    edge_set,
    envied_set,
    enviers_of,
    make_allocation,
    preferred_bundle,
    safe_set,
    two_coloring,
)
from efx_multigraph.derived import AllocationState
from efx_multigraph.fairness import efx_verdict, value_rows
from reference import value_matrix


ALPHAS = [Fraction(1), Fraction(1, 2), Fraction(2, 3)]


@st.composite
def instances(draw, bipartite=False, den_max=4):
    """Small multi-graphs with edges listed in either endpoint order."""
    n = draw(st.integers(min_value=2, max_value=6))
    sides = [draw(st.booleans()) for _ in range(n)] if bipartite else None
    pairs = [(a, b) for a in range(n) for b in range(n)
             if a != b and (sides is None or sides[a] != sides[b])]
    edges = []
    if pairs:
        for _ in range(draw(st.integers(min_value=0, max_value=10))):
            u, v = draw(st.sampled_from(pairs))
            wu = Fraction(draw(st.integers(1, 3 * den_max)), draw(st.integers(1, den_max)))
            wv = Fraction(draw(st.integers(1, 3 * den_max)), draw(st.integers(1, den_max)))
            edges.append((u, v, wu, wv))
    return build_instance(n, edges)


@st.composite
def allocated(draw, bipartite=False, den_max=4):
    """An instance and an allocation that leaves some edges out and may hand an
    edge to an agent that is not one of its endpoints."""
    inst = draw(instances(bipartite, den_max))
    bundles = [set() for _ in range(inst.n)]
    for e in inst.edges:
        holder = draw(st.sampled_from([None, e.u, e.v, None, e.u, e.v] + list(range(inst.n))))
        if holder is not None:
            bundles[holder].add(e.id)
    return inst, make_allocation(inst.n, bundles)


def scan_pair(inst: Instance, i: int, j: int) -> frozenset[int]:
    return frozenset(e.id for e in inst.edges if {e.u, e.v} == {i, j})


def literal_available(inst, alloc, i, j, parts) -> frozenset[int]:
    """A[i,j](X) by the three rules in derived.py's docstring."""
    pair_edges = scan_pair(inst, i, j)
    holders = {a for a, bundle in enumerate(alloc.bundles) if bundle & pair_edges}
    if not pair_edges:
        return frozenset()
    if not holders:
        cutter = i if i in parts[1] else j
        return preferred_bundle(inst, i, cut(inst, cutter, j if cutter == i else i))
    if holders == {j}:
        return pair_edges - alloc.bundles[j]
    return frozenset()


def scaled_rows(inst, val) -> list[dict[int, int]]:
    """The dense rational matrix as sparse integer rows: row i holds i itself and
    every k with ``val[i][k] > 0``, each entry times i's scale, which must give
    an integer."""
    rows = []
    for i, dense in enumerate(val):
        row = {}
        for k, v in enumerate(dense):
            if v or k == i:
                scaled = v * inst.scales[i]
                assert scaled.denominator == 1
                row[k] = int(scaled)
        rows.append(row)
    return rows


def literal_envied(inst, alloc) -> set[int]:
    return {j for i in range(inst.n) for j in range(inst.n)
            if i != j and bundle_value(inst, i, alloc.bundles[j]) > bundle_value(inst, i, alloc.bundles[i])}


@given(instances())
def test_index_matches_edge_scan(inst):
    for i in range(inst.n):
        assert inst.incident(i) == {e.id for e in inst.edges if i in (e.u, e.v)}
        assert inst.neighbours[i] == tuple(sorted({e.u + e.v - i for e in inst.edges if i in (e.u, e.v)}))
        for j in range(inst.n):
            if i != j:
                assert edge_set(inst, i, j) == scan_pair(inst, i, j)
    assert inst.pairs() == sorted({(min(e.u, e.v), max(e.u, e.v)) for e in inst.edges})


@given(instances())
def test_equal_instances_hash_equal_and_survive_pickle(inst):
    twin = Instance(inst.n, tuple(inst.edges))
    assert twin is not inst and twin == inst and hash(twin) == hash(inst)
    again = pickle.loads(pickle.dumps(inst))
    assert again == inst and hash(again) == hash(inst)
    for a, b in inst.pairs():
        assert edge_set(again, a, b) == edge_set(inst, a, b)


@given(allocated())
def test_value_matrix_and_envy_match_bundle_sums(case):
    inst, alloc = case
    val = value_matrix(inst, alloc)
    assert val == [[bundle_value(inst, i, alloc.bundles[k]) for k in range(inst.n)]
                   for i in range(inst.n)]
    assert value_rows(inst, alloc) == scaled_rows(inst, val)
    envied = literal_envied(inst, alloc)
    assert envied_set(inst, alloc) == envied
    for i in range(inst.n):
        assert enviers_of(inst, alloc, i) == [
            j for j in range(inst.n)
            if j != i and bundle_value(inst, j, alloc.bundles[i]) > bundle_value(inst, j, alloc.bundles[j])]


def literal_witnesses(inst, alloc, alpha) -> list[tuple]:
    expected = []
    for i in range(inst.n):
        own = bundle_value(inst, i, alloc.bundles[i])
        for j in range(inst.n):
            if i == j or not alloc.bundles[j]:
                continue
            other = bundle_value(inst, i, alloc.bundles[j])
            # the least-valued item, lowest id first, leaves the highest bar
            g = min(sorted(alloc.bundles[j]), key=lambda e: inst.edges[e].value_for(i))
            bar = alpha * (other - inst.edges[g].value_for(i))
            if own < bar:
                expected.append((i, j, g, own, bar))
    return expected


def literal_enviers(inst, alloc, i) -> list[int]:
    return [j for j in range(inst.n)
            if j != i and bundle_value(inst, j, alloc.bundles[i]) > bundle_value(inst, j, alloc.bundles[j])]


def literal_alpha(inst, alloc, agent) -> Fraction:
    """The largest alpha <= 1 with own >= alpha * v(X_j minus g) for every j and g."""
    own = bundle_value(inst, agent, alloc.bundles[agent])
    best = Fraction(1)
    for j in range(inst.n):
        for g in alloc.bundles[j] if j != agent else ():
            rest = bundle_value(inst, agent, alloc.bundles[j] - {g})
            if rest > own:
                best = min(best, own / rest)
    return best


def literal_cut(inst, cutter, other) -> tuple[frozenset[int], frozenset[int]]:
    """The cutter's greedy in rationals: heaviest item first (ties to the lowest
    id), each onto the lighter half (ties to c1)."""
    halves = (set(), set())
    sums = [Fraction(0), Fraction(0)]
    for e in sorted(scan_pair(inst, cutter, other), key=lambda e: (-inst.edges[e].value_for(cutter), e)):
        k = 0 if sums[0] <= sums[1] else 1
        halves[k].add(e)
        sums[k] += inst.edges[e].value_for(cutter)
    return frozenset(halves[0]), frozenset(halves[1])


@given(allocated(), st.sampled_from(ALPHAS))
def test_check_efx_matches_every_removal(case, alpha):
    inst, alloc = case
    assert [tuple(w) for w in check_efx(inst, alloc, alpha).witnesses] == literal_witnesses(inst, alloc, alpha)


@settings(max_examples=150)
@given(allocated(bipartite=True, den_max=10**6), st.data())
def test_integer_paths_match_rational_definitions(case, data):
    """Scales, weights, verifiers, cuts and state rows on denominators up to
    10^6, where each agent's scale differs from the next one's."""
    inst, alloc = case
    for i in range(inst.n):
        values = {e: inst.edges[e].value_for(i) for e in inst.incident(i)}
        assert inst.scales[i] == lcm(1, *(v.denominator for v in values.values()))
        assert inst.weights[i] == {e: v * inst.scales[i] for e, v in values.items()}
    for alpha in ALPHAS:
        assert [tuple(w) for w in check_efx(inst, alloc, alpha).witnesses] == literal_witnesses(inst, alloc, alpha)
    assert envied_set(inst, alloc) == literal_envied(inst, alloc)
    for i in range(inst.n):
        assert enviers_of(inst, alloc, i) == literal_enviers(inst, alloc, i)
        assert achieved_alpha(inst, alloc, i) == literal_alpha(inst, alloc, i)
    for a, b in inst.pairs():
        for cutter, other in ((a, b), (b, a)):
            cfg = cut(inst, cutter, other)
            assert (cfg.c1, cfg.c2) == literal_cut(inst, cutter, other)
    state = AllocationState(inst, two_coloring(inst), alloc)
    for _ in range(data.draw(st.integers(0, 4))):
        if not inst.edges:
            break
        e = data.draw(st.sampled_from(inst.edges)).id
        holder = state.holder.get(e)
        if holder is not None:
            state.take(holder, [e])
        else:
            state.give(data.draw(st.integers(0, inst.n - 1)), [e])
    now = state.freeze()
    assert state.val == scaled_rows(inst, value_matrix(inst, now))
    for i in range(inst.n):
        assert state.enviers_of(i) == literal_enviers(inst, now, i)


@settings(max_examples=60)
@given(allocated(bipartite=True))
def test_available_and_safe_sets_match_the_rules(case):
    inst, alloc = case
    parts = two_coloring(inst)
    envied = literal_envied(inst, alloc)
    for i in range(inst.n):
        per_pair = [literal_available(inst, alloc, i, j, parts) for j in range(inst.n) if j != i]
        for j in range(inst.n):
            if j != i:
                assert available(inst, alloc, i, j, parts) == literal_available(inst, alloc, i, j, parts)
        assert available_bundles(inst, alloc, i, parts) == per_pair
        union = frozenset().union(*per_pair)
        assert available_set(inst, alloc, i, parts) == union
        if i in envied:
            own = bundle_value(inst, i, alloc.bundles[i])
            assert safe_set(inst, alloc, i, parts) == {
                k for k in range(inst.n)
                if k != i and k not in envied and own >= bundle_value(inst, i, alloc.bundles[k] | union)}


@given(allocated(bipartite=True), st.data())
def test_state_moves_keep_matrix_and_envy_current(case, data):
    inst, alloc = case
    state = AllocationState(inst, two_coloring(inst), alloc)
    for _ in range(data.draw(st.integers(0, 6))):
        if not inst.edges:
            break
        e = data.draw(st.sampled_from(inst.edges)).id
        holder = state.holder.get(e)
        if holder is not None:
            state.take(holder, [e])
        else:
            state.give(data.draw(st.integers(0, inst.n - 1)), [e])
        now = state.freeze()
        assert state.holder == now.holder_map()
        assert state.val == scaled_rows(inst, value_matrix(inst, now))
        envied = literal_envied(inst, now)
        assert state.envied() == envied
        for i in range(inst.n):
            assert state.enviers_of(i) == enviers_of(inst, now, i)
            if i in envied:
                union = frozenset().union(*(literal_available(inst, now, i, j, state.parts)
                                            for j in range(inst.n) if j != i))
                own = bundle_value(inst, i, now.bundles[i])
                assert state.safe_set(i) == {
                    k for k in range(inst.n)
                    if k != i and k not in envied and own >= bundle_value(inst, i, now.bundles[k] | union)}
        for a in (Fraction(1), Fraction(1, 2)):
            assert efx_verdict(inst, state.val, state.bundles, a) == check_efx(inst, now, a)
