"""Multi-graph fair-division instances: exact rational values, structure queries, JSON I/O.

Agents are vertices, items are edges; an item is worth something only to its two
endpoint agents.  All arithmetic is exact; nothing in this package touches
floating point.  An edge keeps each endpoint's value as a reduced
``(numerator, denominator)`` pair of ints, read straight from the document's
digits (``parse_ratio``) and written back from them; a ``fractions.Fraction`` is
built only where one is asked for (``EdgeItem.wu``, ``wv`` and ``value_for``).
Every comparison runs on each agent's integer valuation (``Instance.scales`` and
``Instance.weights``): the agent's values of its own edges, scaled by the LCM of
their denominators.  An edge is a named tuple (``EdgeItem``), and ``Instance``
validates every instance, read from a document or built in code.  Every JSON
document is read as UTF-8 whatever the locale (``_read_json``), and written by
one writer, ``json_text``, byte for byte as the stdlib writes it with a 2-space
indent.
"""
from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import gcd, lcm
from pathlib import Path
from typing import IO, Iterable, NamedTuple, Sequence

FAMILY_STAR = "multi-star"
FAMILY_CYCLE = "multi-cycle"
FAMILY_TREE = "multi-tree"
FAMILY_BIPARTITE = "bipartite"
FAMILY_GENERAL = "general"

# The most agents an instance document may declare, and the most `gen` writes.
# Every command does work linear in the agent count even with no edges (one
# bundle and one value row per agent).  Walking the skeleton is linear in
# `solve`, `orient` and `verify`, the tree solver's center included (two BFS
# runs); the tree solver's EFX check after each step visits every value row,
# O(n + m) per step.  `analyze` finds a tree's center the same way and a single
# cycle's at once; on any other cyclic component it grows every agent's ball one
# hop per round, O(diameter * skeleton pairs * size / 64) word operations.  Its
# worst case is a long cycle with one chord: diameter n / 2, about 3.4 s at 4001
# agents on a 2-core Xeon VM.
MAX_AGENTS = 10_000


class InstanceError(ValueError):
    """Malformed instance or allocation data."""


class StructureError(ValueError):
    """An operation was asked to run on a graph shape it does not support."""


class BudgetExceededError(RuntimeError):
    """The requested search space is larger than the allowed budget."""


def parse_ratio(raw: Fraction | int | str) -> tuple[int, int]:
    """Parse ``p`` or ``p/q`` into ``(numerator, denominator)``, in lowest terms
    with a positive denominator, as ``Fraction.as_integer_ratio`` gives it; a
    ``Fraction`` or an ``int`` gives its own ratio.

    The one rational grammar: instance weights are read by it, and the CLI's
    ``--alpha``, ``--eps`` and ``--delta`` through ``parse_rational``.  Text is
    ``-?[0-9]+(/[0-9]+)?`` after stripping whitespace, in ASCII digits only:
    ``int`` alone would also read other scripts' digits, ``+``, ``_`` and inner
    whitespace.
    """
    if isinstance(raw, str):
        text = raw.strip()
        num, slash, den = text.partition("/")
        # An ASCII string's only digits are 0-9, and ``isdigit`` is False on "".
        if text.isascii() and (num.isdigit() or num[:1] == "-" and num[1:].isdigit()) \
                and (den.isdigit() or not slash):
            try:
                p = int(num)
                if not slash:
                    return p, 1
                q = int(den)
            except ValueError:  # more digits than int() converts
                raise InstanceError("not a rational: too many digits") from None
            if not q:
                raise InstanceError(f"not a rational: {raw!r} (zero denominator)")
            g = gcd(p, q)
            return p // g, q // g
    elif isinstance(raw, (Fraction, int)) and not isinstance(raw, bool):
        return raw.as_integer_ratio()
    raise InstanceError(f"not a rational: {raw!r} (expected digits or digits/digits)")


def parse_rational(raw: Fraction | int | str) -> Fraction:
    """``parse_ratio`` as a ``Fraction``; a ``Fraction`` is returned as it is."""
    return raw if isinstance(raw, Fraction) else Fraction(*parse_ratio(raw))


def _ratio_text(ratio: tuple[int, int]) -> str:
    """``p`` or ``p/q``: the text ``str`` gives for the ``Fraction`` of a reduced pair."""
    p, q = ratio
    return f"{p}/{q}" if q != 1 else str(p)


class EdgeItem(NamedTuple):
    """One item, shared by its two endpoint agents.

    ``id`` is the item's position in the instance edge list.  ``ru``/``rv`` are the
    positive values the item has for ``u``/``v``, each a reduced ``(numerator,
    denominator)`` pair of ints; every other agent values it at 0.  ``wu``, ``wv``
    and ``value_for`` read those values as ``Fraction``s, built on each call.  A
    tuple, so its fields cannot be reassigned and it unpacks as
    ``id, u, v, ru, rv``.
    """

    id: int
    u: int
    v: int
    ru: tuple[int, int]
    rv: tuple[int, int]

    @property
    def wu(self) -> Fraction:
        return Fraction(*self.ru)

    @property
    def wv(self) -> Fraction:
        return Fraction(*self.rv)

    def value_for(self, agent: int) -> Fraction:
        if agent == self.u:
            return self.wu
        if agent == self.v:
            return self.wv
        return Fraction(0)

    def endpoints(self) -> tuple[int, int]:
        return (self.u, self.v)


@dataclass(frozen=True)
class Instance:
    """A multi-graph instance: ``n`` agents and an ordered list of edge items."""

    n: int
    edges: tuple[EdgeItem, ...]

    def __post_init__(self, reduced: bool = False) -> None:
        n = self.n
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise InstanceError(f"agent count must be a positive integer, got {n!r}")
        for k, (eid, u, v, ru, rv) in enumerate(self.edges):
            if eid != k:
                raise InstanceError(f"edge {k}: id {eid} does not match its position")
            # Two plain ints in range pass the agent-id rules below at once.
            if not (type(u) is int and type(v) is int and 0 <= u < n and 0 <= v < n):
                for a in (u, v):
                    if not isinstance(a, int) or isinstance(a, bool):
                        raise InstanceError(f"edge {k}: agent id {a!r} is not an integer")
                    if not (0 <= a < n):
                        raise InstanceError(f"edge {k}: agent id {a} out of range [0, {n})")
            if u == v:
                raise InstanceError(f"edge {k}: self-loop on agent {u}")
            try:
                (pu, qu), (pv, qv) = ru, rv
            except (TypeError, ValueError):
                raise InstanceError(f"edge {k}: weight is not an integer ratio") from None
            # Equal values must be equal tuples, so a ratio is kept in lowest
            # terms, its sign in the numerator: ``reduced`` pairs came so from ``parse_ratio``.
            if not (reduced or type(pu) is type(qu) is type(pv) is type(qv) is int and qu > 0
                    and qv > 0 and gcd(pu, qu) == 1 == gcd(pv, qv)):
                raise InstanceError(f"edge {k}: weight is not a reduced integer ratio")
            if pu <= 0 or pv <= 0:
                raise InstanceError(f"edge {k}: non-positive weight")

    # The index, the skeleton and the integer valuation are built on first use
    # and kept: the solvers query pairs, incidences, neighbours and values on
    # every loop turn, and every structure query and solver reads the
    # components.  Parsing builds none of them, and no Fraction: the
    # valuation reads the edges' integer ratios.

    @cached_property
    def _pair_edges(self) -> dict[tuple[int, int], frozenset[int]]:
        """Sorted adjacent pair (i < j) -> ids of the edges between them."""
        pair_edges: dict[tuple[int, int], list[int]] = {}
        for k, u, v, _, _ in self.edges:
            pair = (u, v) if u < v else (v, u)
            ids = pair_edges.get(pair)
            if ids is None:
                pair_edges[pair] = [k]
            else:
                ids.append(k)
        return {pair: frozenset(pair_edges[pair]) for pair in sorted(pair_edges)}

    @cached_property
    def neighbours(self) -> tuple[tuple[int, ...], ...]:
        """Per agent, its skeleton neighbours in ascending order."""
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        # The pairs come in ascending order, so every list grows in ascending order.
        for a, b in self._pair_edges:
            nbrs[a].append(b)
            nbrs[b].append(a)
        return tuple(map(tuple, nbrs))

    @cached_property
    def component_depths(self) -> tuple[dict[int, int], ...]:
        """BFS depths of each skeleton component from its lowest agent id, lowest
        first.  A component's agents are its keys, and the parity of the depths
        is its canonical 2-colouring."""
        seen: set[int] = set()
        out: list[dict[int, int]] = []
        for start in range(self.n):
            if start not in seen:
                depth = bfs_depths(self.neighbours, start)
                seen.update(depth)
                out.append(depth)
        return tuple(out)

    @cached_property
    def scales(self) -> tuple[int, ...]:
        """Per agent, the LCM of the denominators of its values of its own edges."""
        return self._valuation[0]

    @cached_property
    def weights(self) -> tuple[dict[int, int], ...]:
        """Per agent, ``{incident edge id: value * scale}``, exact integers, in
        ascending id order.

        Every EFX test compares values of one viewer only, so scaling a viewer's
        values by a positive integer changes no verdict; an agent values every
        edge missing from its map at 0.
        """
        return self._valuation[1]

    @cached_property
    def _valuation(self) -> tuple[tuple[int, ...], tuple[dict[int, int], ...]]:
        """``(scales, weights)``, from one pass over the edges."""
        ratios: list[dict[int, tuple[int, int]]] = [{} for _ in range(self.n)]
        for k, u, v, ru, rv in self.edges:
            ratios[u][k] = ru
            ratios[v][k] = rv
        scales = tuple([lcm(*[den for _, den in r.values()]) for r in ratios])
        return scales, tuple([{e: num * (scale // den) for e, (num, den) in r.items()}
                              for r, scale in zip(ratios, scales)])

    @property
    def m(self) -> int:
        return len(self.edges)

    def incident(self, agent: int) -> frozenset[int]:
        """The ids of the agent's edges: the keys of its integer valuation."""
        return frozenset(self.weights[agent]) if 0 <= agent < self.n else frozenset()

    def pairs(self) -> list[tuple[int, int]]:
        """Sorted list of adjacent agent pairs (i < j) sharing at least one edge."""
        return list(self._pair_edges)


def build_instance(n: int, edge_specs: Iterable[tuple[int, int, Fraction | int | str, Fraction | int | str]]) -> Instance:
    """Construct an Instance from (u, v, wu, wv) tuples, assigning ids by position.

    The weights go through ``parse_ratio``, once each, and the rest through
    ``Instance``, the one validator of instances, read from a document or built
    in code; its reduced-pair test is skipped, as ``parse_ratio`` has met it.
    """
    edges = []
    for k, (u, v, wu, wv) in enumerate(edge_specs):
        try:
            # tuple.__new__ skips the named tuple's Python-level __new__.
            edges.append(tuple.__new__(EdgeItem, (k, u, v, parse_ratio(wu), parse_ratio(wv))))
        except InstanceError as exc:
            raise InstanceError(f"edge {k}: {exc}") from None
    inst = object.__new__(Instance)
    inst.__dict__.update(n=n, edges=tuple(edges))
    inst.__post_init__(reduced=True)
    return inst


def edge_set(inst: Instance, i: int, j: int) -> frozenset[int]:
    """All edge ids between agents i and j (symmetric; empty if not adjacent)."""
    if i == j:
        raise ValueError(f"edge_set needs two distinct agents, got ({i}, {j})")
    return inst._pair_edges.get((min(i, j), max(i, j)), frozenset())


@dataclass(frozen=True)
class Allocation:
    """Disjoint per-agent bundles of edge ids; edges absent everywhere are unallocated."""

    bundles: tuple[frozenset[int], ...]

    def assigned(self) -> frozenset[int]:
        out: set[int] = set()
        for b in self.bundles:
            out |= b
        return frozenset(out)

    @cached_property
    def _holder(self) -> dict[int, int]:
        return {e: a for a, b in enumerate(self.bundles) for e in b}

    @cached_property
    def _id_bounds(self) -> tuple[int, int]:
        """(least, greatest) held edge id; (0, -1) when nothing is held."""
        holder = self._holder
        return (min(holder), max(holder)) if holder else (0, -1)


def make_allocation(n: int, bundles: Iterable[Iterable[int]]) -> Allocation:
    """Build an Allocation, padding missing trailing bundles with empty sets."""
    parts = [frozenset(b) for b in bundles]
    if len(parts) > n:
        raise InstanceError(f"allocation has {len(parts)} bundles for {n} agents")
    parts += [frozenset()] * (n - len(parts))
    return Allocation(tuple(parts))


def is_complete(inst: Instance, alloc: Allocation) -> bool:
    return len(alloc.assigned()) == inst.m


def is_orientation(inst: Instance, alloc: Allocation) -> bool:
    """True when every assigned edge sits at one of its two endpoints."""
    for a, bundle in enumerate(alloc.bundles):
        for e in bundle:
            if a != (edge := inst.edges[e]).u and a != edge.v:
                return False
    return True


# ---------------------------------------------------------------------------
# structure analysis


@dataclass(frozen=True)
class StructureReport:
    """Skeleton-level facts: multiplicity, distances, bipartition, family label.

    ``diameter`` is the standard shortest-path diameter of the skeleton;
    ``longest_path`` is the exact length of the longest simple path (they differ on
    cyclic skeletons).  On a disconnected skeleton, ``diameter``/``center`` refer to
    the largest component and ``connected`` is False.
    """

    n: int
    m: int
    q: int
    diameter: int
    longest_path: int | None
    center: int
    connected: bool
    bipartition: tuple[tuple[int, ...], tuple[int, ...]] | None
    family: str

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "q": self.q,
            "diameter": self.diameter,
            "longest_path": self.longest_path,
            "center": self.center,
            "connected": self.connected,
            "bipartition": None if self.bipartition is None else {
                "s": list(self.bipartition[0]),
                "t": list(self.bipartition[1]),
            },
            "family": self.family,
        }


def bfs_depths(nbrs: Sequence[Iterable[int]], source: int) -> dict[int, int]:
    """Skeleton distance from ``source`` to every agent of its component, given
    each agent's neighbours (``Instance.neighbours``).

    The one traversal of the skeleton: components are its key sets, and a
    2-colouring is the parity of its depths.
    """
    dist = {source: 0}
    queue = deque([source])
    while queue:
        x = queue.popleft()
        for y in nbrs[x]:
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


def _has_odd_cycle(nbrs: Sequence[Iterable[int]], depth: dict[int, int]) -> bool:
    """Some skeleton edge of the component joins two agents of equal depth parity."""
    for x, d in depth.items():
        for y in nbrs[x]:
            if depth[y] % 2 == d % 2:
                return True
    return False


def connected_components(inst: Instance) -> list[list[int]]:
    return [sorted(depth) for depth in inst.component_depths]


def two_coloring(inst: Instance) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Canonical bipartition of the skeleton, or None if an odd cycle exists.

    Per connected component the color class holding the component's lowest agent id
    goes to the S side, so agent 0 always lands in S.
    """
    if any(_has_odd_cycle(inst.neighbours, depth) for depth in inst.component_depths):
        return None
    return _depth_parity_sides(inst.component_depths)


def _depth_parity_sides(depths: Iterable[dict[int, int]]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``two_coloring`` of a skeleton with no odd cycle, from its components' depths."""
    s_side: list[int] = []
    t_side: list[int] = []
    for depth in depths:
        for v, d in depth.items():
            (t_side if d % 2 else s_side).append(v)
    return (tuple(sorted(s_side)), tuple(sorted(t_side)))


def _longest_simple_path(nbrs: Sequence[Iterable[int]], vertices: Sequence[int]) -> int:
    """Edges on the longest simple path starting in ``vertices``.  Layer k holds
    each (visited set as a bitmask, end agent) state of the k-edge paths once, so
    paths that differ only in their order of visits are extended once."""
    layer = {(1 << v, v) for v in vertices}
    length = 0
    while layer := {(seen | 1 << y, y) for seen, x in layer for y in nbrs[x] if not seen >> y & 1}:
        length += 1
    return length


def _component_family(inst: Instance, depth: dict[int, int]) -> str:
    """The most specific family label of the skeleton component with these
    depths (one of ``Instance.component_depths``)."""
    size = len(depth)
    degrees = [len(inst.neighbours[v]) for v in depth]
    skeleton_edges = sum(degrees) // 2
    if skeleton_edges == size - 1 and (size <= 2 or max(degrees) == size - 1):
        return FAMILY_STAR
    if size >= 3 and skeleton_edges == size and all(d == 2 for d in degrees):
        return FAMILY_CYCLE
    if skeleton_edges == size - 1:
        return FAMILY_TREE
    if _has_odd_cycle(inst.neighbours, depth):
        return FAMILY_GENERAL
    return FAMILY_BIPARTITE


def skeleton_family(inst: Instance, bipartite: bool) -> str:
    """The most specific family label of the skeleton, given whether it is
    bipartite."""
    return _covering_family([_component_family(inst, depth) for depth in inst.component_depths],
                            bipartite)


def _covering_family(families: list[str], bipartite: bool) -> str:
    """``skeleton_family`` from its components' labels: the one component's
    label, or the least specific label that covers every component."""
    if len(families) == 1:
        return families[0]
    kinds = set(families)
    if kinds <= {FAMILY_STAR}:
        return FAMILY_STAR
    if kinds <= {FAMILY_STAR, FAMILY_TREE}:
        return FAMILY_TREE
    return FAMILY_BIPARTITE if bipartite else FAMILY_GENERAL


def _ball_center(inst: Instance, comp: list[int]) -> tuple[int, int, int]:
    """``_component_center`` of a component given in ascending agent order, from
    every eccentricity in one bit-parallel pass (as in pruned landmark
    labelling, Akiba, Iwata and Yoshida, SIGMOD 2013).  Each agent's ball, the
    agents within r hops as an ``int`` bitmask over positions in ``comp``, grows
    one hop per round from the previous round's balls; an agent's eccentricity
    is the round at which its ball fills, and a full ball drops out.  That is
    O(diameter * pairs * size / 64) word operations."""
    pos = {v: k for k, v in enumerate(comp)}
    adj = [[pos[u] for u in inst.neighbours[v]] for v in comp]
    full = (1 << len(comp)) - 1
    balls = [1 << k for k in range(len(comp))]
    ecc = [0] * len(comp)
    growing = [k for k in range(len(comp)) if balls[k] != full]
    rounds = 0
    while growing:
        rounds += 1
        prev = balls.copy()
        still = []
        for k in growing:
            ball = prev[k]
            for u in adj[k]:
                ball |= prev[u]
            balls[k] = ball
            if ball == full:
                ecc[k] = rounds
            else:
                still.append(k)
        growing = still
    radius = min(ecc)
    return comp[ecc.index(radius)], radius, max(ecc)


def _tree_center(inst: Instance, depth: dict[int, int]) -> tuple[int, int, int]:
    """``_component_center`` of a tree component, from two BFS runs: the agent farthest
    from the lowest one ends a longest path, and a BFS from it finds the other
    end.  Every longest path of a tree has the same middle agents, those of
    least eccentricity; the center is the lower one."""
    back = bfs_depths(inst.neighbours, max(depth, key=depth.get))
    path = [max(back, key=back.get)]
    while back[path[-1]]:
        x = path[-1]
        path.append(next(y for y in inst.neighbours[x] if back[y] == back[x] - 1))
    diameter = len(path) - 1
    return min(path[diameter // 2], path[(diameter + 1) // 2]), (diameter + 1) // 2, diameter


def _component_center(inst: Instance, depth: dict[int, int], family: str) -> tuple[int, int, int]:
    """(center, radius, diameter) of the skeleton component with these depths
    and this label (``_component_family``): the lowest agent of least
    eccentricity, that eccentricity, and the greatest one.  A tree takes two BFS
    runs; on a single cycle of s agents every eccentricity is s // 2; any other
    component takes the bit-parallel pass."""
    if family in (FAMILY_STAR, FAMILY_TREE):
        return _tree_center(inst, depth)
    if family == FAMILY_CYCLE:
        return min(depth), len(depth) // 2, len(depth) // 2
    return _ball_center(inst, sorted(depth))


def analyze_structure(inst: Instance) -> StructureReport:
    """Compute q, distances, canonical bipartition and the most specific family label."""
    q = max(map(len, inst._pair_edges.values()), default=0)
    depths = inst.component_depths
    # Each component is labelled once.  The label picks the route to its center
    # and says whether it has an odd cycle: a general component has one, and a
    # single cycle has one when its length is odd.
    families = [_component_family(inst, depth) for depth in depths]
    main = max(range(len(depths)), key=lambda c: (len(depths[c]), -min(depths[c])))
    center, _, diameter = _component_center(inst, depths[main], families[main])
    longest = _longest_simple_path(inst.neighbours, range(inst.n)) if inst.n <= 12 else None
    bipartite = all(family != FAMILY_GENERAL and not (family == FAMILY_CYCLE and len(depth) % 2)
                    for family, depth in zip(families, depths))
    return StructureReport(
        n=inst.n,
        m=inst.m,
        q=q,
        diameter=diameter,
        longest_path=longest,
        center=center,
        connected=len(depths) == 1,
        bipartition=_depth_parity_sides(depths) if bipartite else None,
        family=_covering_family(families, bipartite),
    )


# ---------------------------------------------------------------------------
# JSON I/O


def instance_to_json(inst: Instance) -> dict:
    return {
        "n": inst.n,
        "edges": [
            {"u": e.u, "v": e.v, "wu": _ratio_text(e.ru), "wv": _ratio_text(e.rv)}
            for e in inst.edges
        ],
    }


def instance_to_text(inst: Instance) -> str:
    return json_text(instance_to_json(inst)) + "\n"


def check_agent_count(n: int) -> None:
    """Reject an agent count above ``MAX_AGENTS``, in the reader's words."""
    if n > MAX_AGENTS:
        raise InstanceError(f"'n' is {n}, above the limit of {MAX_AGENTS} agents")


def instance_from_json(doc: object) -> Instance:
    """The instance a decoded document describes.  This reader checks only the
    document's shape; ``build_instance`` checks the values it holds, so the
    first fault of shape, over every edge, comes before one of grammar or value."""
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
    inst = build_instance(doc["n"], specs)
    check_agent_count(inst.n)
    return inst


def _read_json(source: str | Path | IO[str] | IO[bytes]) -> object:
    """Decode the JSON document in a file or an open stream.  A file and a
    binary stream are read as UTF-8, whatever the locale; bytes that are not
    UTF-8 are an ``InstanceError``, as malformed JSON and a document nested too
    deep to decode are."""
    try:
        text = source.read() if hasattr(source, "read") else Path(source).read_text(encoding="utf-8")
        if isinstance(text, bytes):
            text = text.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InstanceError(f"invalid JSON: {exc}") from None
    try:
        return json.loads(text)
    # A JSONDecodeError, an integer with too many digits, or nesting deeper
    # than the decoder's recursion limit.
    except (ValueError, RecursionError) as exc:
        raise InstanceError(f"invalid JSON: {exc}") from None


class _Text:
    """Text written ahead for its place in a document, which ``json_text``
    copies as it stands; not a ``str``, so ``json.dumps`` refuses it."""
    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        self.text = text


_encode_str = json.encoder.encode_basestring_ascii
# The scalars a document holds, each with its C-level encoder.  Containers write
# their str and int items inline: those are the bulk of every document.
_JSON_SCALARS = {
    str: _encode_str,
    int: repr,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
    _Text: lambda value: value.text,
}
_INDENT = "  "


def json_text(doc: object) -> str:
    """The text of ``json.dumps(doc, indent=2)`` for a document of dicts with str
    keys, lists, tuples, str, int, bool and None; any other type raises ``TypeError``.
    A ``_Text``, such as ``_records_text`` writes, is copied as it stands.

    ``json.dumps`` runs its C encoder only without ``indent``; this writer joins
    each container's items with its depth's padding instead, and encodes each
    distinct key once per document.
    """
    return _json_value(doc, "\n", {})


def _json_value(value: object, pad: str, heads: dict[str, str]) -> str:
    """The text of a value; a container's closing bracket sits after ``pad``.
    ``heads`` maps each key met so far in the document to its ``"key": ``."""
    kind = type(value)
    inner = pad + _INDENT
    # Plain loops: on Python 3.11 a comprehension is a function call of its own,
    # which slows the many small containers of a document.
    if kind is dict:
        if not value:
            return "{}"
        items = []
        add = items.append
        for key, item in value.items():
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            head = heads.get(key)
            if head is None:
                head = heads[key] = _encode_str(key) + ": "
            item_kind = type(item)
            add(head + (_encode_str(item) if item_kind is str else repr(item) if item_kind is int
                        else _json_value(item, inner, heads)))
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        items = []
        add = items.append
        for item in value:
            item_kind = type(item)
            add(_encode_str(item) if item_kind is str else repr(item) if item_kind is int
                else _json_value(item, inner, heads))
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    scalar = _JSON_SCALARS.get(kind)
    if scalar is not None:
        return scalar(value)
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _records_text(keys: tuple[str, ...], rows: Iterable[tuple]) -> _Text | list:
    """What ``json_text`` writes under a top-level key for the list of records
    that map ``keys`` to each row's values: one template per record, all filled
    by one ``%``.  A column of one type is encoded in one ``map``; ints by
    ``%s`` itself, as ``repr``."""
    values = list(chain.from_iterable(rows))
    if not values:
        return []  # which json_text writes itself
    item, field = "\n" + 2 * _INDENT, "\n" + 3 * _INDENT
    width = len(keys)
    for i in range(width):
        column = values[i::width]
        kind = type(column[0]) if len(set(map(type, column))) == 1 else None
        if kind is not int:
            encode = _JSON_SCALARS.get(kind) or (lambda value: _json_value(value, field, {}))
            values[i::width] = map(encode, column)
    each = "{" + ",".join(field + _encode_str(k).replace("%", "%%") + ": %s" for k in keys) + item + "}"
    return _Text("[" + item + ("," + item).join([each] * (len(values) // width)) % tuple(values)
                 + "\n" + _INDENT + "]")


def load_instance(source: str | Path | IO[str] | IO[bytes]) -> Instance:
    """Load an instance from a path or an open stream."""
    return instance_from_json(_read_json(source))


def save_instance(inst: Instance, target: str | Path | IO[str]) -> None:
    text = instance_to_text(inst)
    if hasattr(target, "write"):
        target.write(text)
    else:
        Path(target).write_text(text)


def allocation_to_json(alloc: Allocation) -> dict:
    return {"bundles": [sorted(b) for b in alloc.bundles]}


def allocation_from_json(doc: object, inst: Instance) -> Allocation:
    if not isinstance(doc, dict) or "bundles" not in doc:
        raise InstanceError("allocation document needs 'bundles'")
    raw = doc["bundles"]
    if not isinstance(raw, list) or len(raw) != inst.n:
        raise InstanceError(f"'bundles' must be a list of exactly {inst.n} lists")
    seen: set[int] = set()
    for a, bundle in enumerate(raw):
        if not isinstance(bundle, list):
            raise InstanceError(f"bundle {a}: expected a list of edge ids, got {bundle!r}")
        for e in bundle:
            if type(e) is not int and (not isinstance(e, int) or isinstance(e, bool)):
                raise InstanceError(f"bundle {a}: edge id {e!r} is not an integer")
            if not (0 <= e < inst.m):
                raise InstanceError(f"bundle {a}: edge id {e!r} out of range [0, {inst.m})")
            if e in seen:
                raise InstanceError(f"bundle {a}: edge id {e} listed more than one time")
            seen.add(e)
    return Allocation(tuple(frozenset(b) for b in raw))


def load_allocation(source: str | Path | IO[str] | IO[bytes], inst: Instance) -> Allocation:
    return allocation_from_json(_read_json(source), inst)
