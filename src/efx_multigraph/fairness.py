"""Envy, strong envy, EFX verification and related structural checks.

Everything here is a pure function of (instance, allocation); comparisons are exact.
A bundle ``B`` seen through agent ``i``'s eyes is worth the sum of ``i``'s endpoint
values over the edges of ``B`` incident to ``i``.

The verifiers compare each viewer's integer values (``Instance.weights``), and only
over the bundles that hold one of the viewer's edges: every other bundle is worth
0 to it.  A verdict keeps its witnesses as integer records; ``Verdict.witnesses``
turns them into rationals on first read, and ``Verdict.to_json`` writes them as
text without a ``Fraction``.  Alphas are reported as rationals; ``bundle_value``
and ``is_efx_feasible`` stay literal rational definitions.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Iterable, NamedTuple, Sequence

from .model import Allocation, Instance, _ratio_text, _records_text, is_orientation

ONE = Fraction(1)


class Witness(NamedTuple):
    envier: int
    envied: int
    removed_edge: int | None
    lhs: Fraction
    rhs: Fraction


# (envier, envied, removed_edge, lhs numerator, lhs denominator, rhs numerator,
# rhs denominator): one witness, its two values as unreduced integer ratios with
# positive denominators.
Record = tuple[int, int, int | None, int, int, int, int]


@dataclass(frozen=True, repr=False)
class Verdict:
    """Outcome of a fairness check: pass, or exact violation witnesses.

    ``records`` holds each witness as a ``Record`` of ints, the one stored form;
    equality and hashing read it.  ``witnesses`` is a read-only view that builds
    the ``Witness`` tuples, with ``Fraction`` values, once, on first read.
    ``to_json`` and ``_json_doc`` write the records through ``_record_texts``.
    """

    passed: bool
    records: tuple[Record, ...] = ()
    alpha: Fraction = ONE

    @cached_property
    def witnesses(self) -> tuple[Witness, ...]:
        out, last, lhs = [], None, ONE
        for envier, envied, g, lp, lq, rp, rq in self.records:
            if (lp, lq) != last:
                last, lhs = (lp, lq), Fraction(lp, lq)
            out.append(Witness(envier, envied, g, lhs, Fraction(rp, rq)))
        return tuple(out)

    def __repr__(self) -> str:
        return f"Verdict(passed={self.passed!r}, witnesses={self.witnesses!r}, alpha={self.alpha!r})"

    def to_json(self) -> dict:
        """The verdict's document, one dict per witness; the reference of ``_json_doc``."""
        witnesses = [{"envier": envier, "envied": envied, "removed_edge": g, "lhs": lhs, "rhs": rhs}
                     for envier, envied, g, lhs, rhs in _record_texts(self.records)]
        return {"pass": self.passed, "alpha": str(self.alpha), "witnesses": witnesses}

    def _json_doc(self) -> dict:
        """``to_json()`` with its witness array written ahead by ``_records_text``."""
        keys = ("envier", "envied", "removed_edge", "lhs", "rhs")
        return {"pass": self.passed, "alpha": str(self.alpha),
                "witnesses": _records_text(keys, _record_texts(self.records))}


def _record_texts(records: Iterable[Record]) -> Iterable[tuple[int, int, int | None, str, str]]:
    """Each record as ``(envier, envied, removed_edge, lhs, rhs)``, both values
    reduced and written as ``str`` writes their ``Fraction``s.  One envier's
    records share its lhs and sort together: each lhs is reduced once per run."""
    last, lhs = None, ""
    for envier, envied, g, lp, lq, rp, rq in records:
        if (lp, lq) != last:
            last, d = (lp, lq), gcd(lp, lq)
            lhs = _ratio_text((lp // d, lq // d))
        d = gcd(rp, rq)
        yield envier, envied, g, lhs, _ratio_text((rp // d, rq // d))


def bundle_value(inst: Instance, agent: int, bundle: Iterable[int]) -> Fraction:
    """Additive value of a set of edge ids for one agent (0 for non-incident edges)."""
    total = Fraction(0)
    for e in bundle:
        if not (0 <= e < inst.m):
            raise ValueError(f"invalid edge id {e}")
        total += inst.edges[e].value_for(agent)
    return total


def value_rows(inst: Instance, alloc: Allocation) -> list[dict[int, int]]:
    """``rows[i][k] = scale_i * v_i(X_k)``, in one pass over the bundles.

    Row i holds agent i itself and every agent whose bundle holds one of i's
    edges; every other bundle is worth 0 to i.
    """
    m = inst.m
    edges = inst.edges
    weights = inst.weights
    rows: list[dict[int, int]] = [{i: 0} for i in range(inst.n)]
    for k, bundle in enumerate(alloc.bundles):
        for e in bundle:
            if not (0 <= e < m):
                raise ValueError(f"invalid edge id {e}")
            _, u, v, _, _ = edges[e]
            row = rows[u]
            row[k] = row.get(k, 0) + weights[u][e]
            row = rows[v]
            row[k] = row.get(k, 0) + weights[v][e]
    return rows


def envier_lists(rows: list[dict[int, int]]) -> list[list[int]]:
    """Per agent k, the agents that strictly envy k's bundle, ascending."""
    out: list[list[int]] = [[] for _ in rows]
    for j, row in enumerate(rows):
        own = row[j]
        for k, v in row.items():
            if v > own:
                out[k].append(j)
    return out


def envies(inst: Instance, alloc: Allocation, i: int, j: int) -> bool:
    """Strict envy: i values j's bundle above her own."""
    return bundle_value(inst, i, alloc.bundles[j]) > bundle_value(inst, i, alloc.bundles[i])


def least_valued_item(weights: dict[int, int], ids: Iterable[int]) -> tuple[int, int]:
    """The item of a non-empty bundle, given as its ids in ascending order, that
    a viewer with these integer weights values least, and its weight; ties go to
    the lowest edge id.

    Removing this item leaves the viewer the most, so ``value - least`` is the
    EFX bar every strong-envy test compares against.  An item off the viewer's
    edges weighs 0, less than any of its own edges, so the first such id is the
    answer; otherwise it is the first id of least weight.
    """
    item = -1
    least = 0
    for e in ids:
        w = weights.get(e)
        if w is None:
            return e, 0
        if item < 0 or w < least:
            item, least = e, w
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
    g, g_weight = least_valued_item(inst.weights[i], sorted(target))
    surviving = other - Fraction(g_weight, inst.scales[i])
    if own < surviving:
        return Witness(i, j, g, own, surviving)
    return None


def enviers_of(inst: Instance, alloc: Allocation, i: int) -> list[int]:
    return envier_lists(value_rows(inst, alloc))[i]


def envied_set(inst: Instance, alloc: Allocation) -> set[int]:
    """Agents whose bundle some other agent strictly envies."""
    return {k for k, js in enumerate(envier_lists(value_rows(inst, alloc))) if js}


def check_efx(inst: Instance, alloc: Allocation, alpha: Fraction = ONE) -> Verdict:
    """Verify `v_i(X_i) >= alpha * v_i(X_j minus g)` for all i, j and g in X_j.

    Returns the max-violation witness per failing ordered pair, in ascending
    (envier, envied) order, so failures are reproducible.
    """
    return efx_verdict(inst, value_rows(inst, alloc), alloc.bundles, alpha)


def efx_verdict(inst: Instance, rows: Sequence[dict[int, int]], bundles: Sequence[Iterable[int]],
                alpha: Fraction = ONE) -> Verdict:
    """``check_efx`` of the allocation with these bundles, given its value rows
    (as ``value_rows`` builds them, or as an ``AllocationState`` keeps them)."""
    if not (0 < alpha <= 1):
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    num, den = alpha.numerator, alpha.denominator
    records: list[Record] = []
    ascending: list[list[int] | None] = [None] * len(bundles)  # each bundle sorted on first use
    for i, row in enumerate(rows):
        own = row[i]
        weights = inst.weights[i]
        for j, other in row.items():
            # The bar alpha * (other - g) never exceeds other: alpha <= 1 and
            # every item is worth >= 0.  So a pair with other <= own cannot fail.
            if other <= own:
                continue
            ids = ascending[j]
            if ids is None:
                ids = ascending[j] = sorted(bundles[j])
            g, g_weight = least_valued_item(weights, ids)
            bar = num * (other - g_weight)
            if own * den < bar:
                scale = inst.scales[i]
                records.append((i, j, g, own, scale, bar, den * scale))
    # Each (envier, envied) pair occurs once, so the sort never compares values.
    records.sort()
    return Verdict(not records, tuple(records), alpha)


def achieved_alpha(inst: Instance, alloc: Allocation, agent: int) -> Fraction:
    """Largest alpha in (0, 1] this agent satisfies (1 when unconstrained).

    It is own / surviving for the bundle whose value minus its least-valued item
    is largest, when that exceeds the agent's own value; the scale cancels.
    """
    # The holder map and its id bounds are cached on the allocation, so a call
    # per agent costs O(deg) past the first.
    holder = alloc._holder
    lo, hi = alloc._id_bounds
    if lo < 0 or hi >= inst.m:
        bad = next(e for b in alloc.bundles for e in b if not (0 <= e < inst.m))
        raise ValueError(f"invalid edge id {bad}")
    weights = inst.weights[agent]
    row: dict[int, int] = {}
    for e, w in weights.items():
        k = holder.get(e)
        if k is not None:
            row[k] = row.get(k, 0) + w
    own = row.pop(agent, 0)
    surviving = max((other - least_valued_item(weights, sorted(alloc.bundles[k]))[1]
                     for k, other in row.items()), default=0)
    return Fraction(own, surviving) if surviving > own else ONE


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
    rows = value_rows(inst, alloc)
    if not efx_verdict(inst, rows, alloc.bundles).passed:
        raise ValueError("input orientation is not EFX")
    records: list[Record] = []
    scales = inst.scales
    for i, js in enumerate(envier_lists(rows)):
        if not js:
            continue
        if len(js) != 1:
            for j in js[1:]:
                records.append((j, i, None, rows[j][j], scales[j], rows[j][i], scales[j]))
            continue
        j = js[0]
        own_i = (rows[i][i], scales[i])
        stray = [e for e in sorted(alloc.bundles[i]) if {inst.edges[e].u, inst.edges[e].v} != {i, j}]
        for e in stray:
            records.append((j, i, e, *own_i, *own_i))
    return Verdict(not records, tuple(records))
