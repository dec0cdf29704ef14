"""Envy, strong envy, EFX verification and related structural checks.

Everything here is a pure function of (instance, allocation); comparisons are exact.
A bundle ``B`` seen through agent ``i``'s eyes is worth the sum of ``i``'s endpoint
values over the edges of ``B`` incident to ``i``.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .model import Allocation, Instance, is_orientation

ONE = Fraction(1)


class Witness(NamedTuple):
    envier: int
    envied: int
    removed_edge: int | None
    lhs: Fraction
    rhs: Fraction

    def to_json(self) -> dict:
        return {
            "envier": self.envier,
            "envied": self.envied,
            "removed_edge": self.removed_edge,
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
        }


@dataclass(frozen=True)
class Verdict:
    """Outcome of a fairness check: pass, or a list of exact violation witnesses."""

    passed: bool
    witnesses: tuple[Witness, ...] = ()
    alpha: Fraction = ONE

    def to_json(self) -> dict:
        return {
            "pass": self.passed,
            "alpha": str(self.alpha),
            "witnesses": [w.to_json() for w in self.witnesses],
        }


def bundle_value(inst: Instance, agent: int, bundle: Iterable[int]) -> Fraction:
    """Additive value of a set of edge ids for one agent (0 for non-incident edges)."""
    total = Fraction(0)
    for e in bundle:
        if not (0 <= e < inst.m):
            raise ValueError(f"invalid edge id {e}")
        total += inst.edges[e].value_for(agent)
    return total


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


def envies(inst: Instance, alloc: Allocation, i: int, j: int) -> bool:
    """Strict envy: i values j's bundle above her own."""
    return bundle_value(inst, i, alloc.bundles[j]) > bundle_value(inst, i, alloc.bundles[i])


def least_valued_item(inst: Instance, viewer: int, bundle: Iterable[int]) -> tuple[int, Fraction]:
    """The item of a non-empty bundle that the viewer values least, and its value;
    ties go to the lowest edge id.

    Removing this item leaves the viewer the most, so ``value - least`` is the
    EFX bar every strong-envy test compares against.
    """
    # A loop over the sorted ids, not a min over (value, id) pairs: comparing
    # pairs adds a Fraction equality test per item, and check_efx and
    # achieved_alpha call this once per envied pair.
    edges = inst.edges
    item = -1
    least = None
    for e in sorted(bundle):
        value = edges[e].value_for(viewer)
        if least is None or value < least:
            item, least = e, value
    return item, least


def strongly_envies(inst: Instance, alloc: Allocation, i: int, j: int) -> Witness | None:
    """Witness that i strongly envies j, or None.

    The witness removes the item of j's bundle that i values least, which maximizes
    the surviving value; ties broken by lowest edge id.
    """
    target = alloc.bundles[j]
    if not target:
        return None
    own = bundle_value(inst, i, alloc.bundles[i])
    other = bundle_value(inst, i, target)
    if other <= own:
        return None
    g, g_val = least_valued_item(inst, i, target)
    surviving = other - g_val
    if own < surviving:
        return Witness(i, j, g, own, surviving)
    return None


def enviers_of(inst: Instance, alloc: Allocation, i: int) -> list[int]:
    return _enviers(value_matrix(inst, alloc), i)


def _enviers(val: list[list[Fraction]], i: int) -> list[int]:
    return [j for j, row in enumerate(val) if j != i and row[i] > row[j]]


def envied_set(inst: Instance, alloc: Allocation) -> set[int]:
    """Agents whose bundle some other agent strictly envies."""
    val = value_matrix(inst, alloc)
    return {j for i, row in enumerate(val) for j, v in enumerate(row) if v > row[i]}


def check_efx(inst: Instance, alloc: Allocation, alpha: Fraction = ONE) -> Verdict:
    """Verify `v_i(X_i) >= alpha * v_i(X_j minus g)` for all i, j and g in X_j.

    Returns the max-violation witness per failing ordered pair, in ascending
    (envier, envied) order, so failures are reproducible.
    """
    if not (0 < alpha <= 1):
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    witnesses: list[Witness] = []
    val = value_matrix(inst, alloc)
    for i, row in enumerate(val):
        own = row[i]
        for j, other in enumerate(row):
            # The bar alpha * (other - g_val) never exceeds other: alpha <= 1 and
            # every item is worth >= 0.  So a pair with other <= own cannot fail.
            if other <= own:
                continue
            g, g_val = least_valued_item(inst, i, alloc.bundles[j])
            bar = alpha * (other - g_val)
            if own < bar:
                witnesses.append(Witness(i, j, g, own, bar))
    return Verdict(not witnesses, tuple(witnesses), alpha)


def achieved_alpha(inst: Instance, alloc: Allocation, agent: int) -> Fraction:
    """Largest alpha in (0, 1] this agent satisfies (1 when unconstrained)."""
    own = bundle_value(inst, agent, alloc.bundles[agent])
    best = ONE
    for j in range(inst.n):
        if j == agent or not alloc.bundles[j]:
            continue
        other = bundle_value(inst, agent, alloc.bundles[j])
        if other == 0:
            continue
        _, g_val = least_valued_item(inst, agent, alloc.bundles[j])
        surviving = other - g_val
        if surviving > own:
            best = min(best, own / surviving)
    return best


def is_efx_feasible(inst: Instance, agent: int, partition: Sequence[Iterable[int]], k: int) -> bool:
    """Is bundle ``partition[k]`` worth at least every rival bundle minus its best item?

    Literal evaluation of EFX-feasibility for one agent over a bundle partition.
    """
    bundles = [frozenset(b) for b in partition]
    seen: set[int] = set()
    for b in bundles:
        if b & seen:
            raise ValueError("partition bundles must be disjoint")
        seen |= b
    mine = bundle_value(inst, agent, bundles[k])
    for b in bundles:
        for g in b:
            if mine < bundle_value(inst, agent, b) - inst.edges[g].value_for(agent):
                return False
    return True


def check_envied_singleton(inst: Instance, alloc: Allocation) -> Verdict:
    """On a partial EFX orientation, every envied agent must have exactly one envier
    j, and her whole bundle must come from the edges she shares with j."""
    if not is_orientation(inst, alloc):
        raise ValueError("input is not an orientation")
    if not check_efx(inst, alloc).passed:
        raise ValueError("input orientation is not EFX")
    witnesses: list[Witness] = []
    val = value_matrix(inst, alloc)
    for i in range(inst.n):
        js = _enviers(val, i)
        if not js:
            continue
        own_i = val[i][i]
        if len(js) != 1:
            for j in js[1:]:
                witnesses.append(Witness(j, i, None, val[j][j], val[j][i]))
            continue
        j = js[0]
        stray = [e for e in sorted(alloc.bundles[i]) if {inst.edges[e].u, inst.edges[e].v} != {i, j}]
        for e in stray:
            witnesses.append(Witness(j, i, e, own_i, own_i))
    return Verdict(not witnesses, tuple(witnesses))
