"""Instance generators: fixed benchmark families, the partition gadget, randoms.

The fixed families are symmetric instances parameterized by two small rationals
``eps`` and ``delta`` with 0 < delta < eps < 1; the defaults (1/100 and 1/10^6) are
certified by the exhaustive oracle in the test suite.  Edge order within each
family is canonical and documented by the constructors themselves.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .model import EdgeItem, Instance, InstanceError, build_instance, check_agent_count

DEFAULT_EPS = Fraction(1, 100)
DEFAULT_DELTA = Fraction(1, 10**6)

COUNTER_FAMILIES = ("c4-counter", "p4-q3", "p4-qn", "p3-block", "p6-counter")
ALL_FAMILIES = COUNTER_FAMILIES + ("np-gadget", "running-example", "random")


def _check_scales(eps: Fraction, delta: Fraction) -> None:
    if not (0 < delta < eps < 1):
        raise InstanceError(f"need 0 < delta < eps < 1, got eps={eps}, delta={delta}")


def _symmetric(n: int, pairs: list[tuple[int, int, Fraction]]) -> Instance:
    return build_instance(n, [(u, v, w, w) for u, v, w in pairs])


def _rigid_block(tip: int, middle: int, inner: int, eps: Fraction) -> list[tuple[int, int, Fraction]]:
    """The rigid three-agent path tip-middle-inner: the outer pair holds eps and
    10 + eps/2, the inner pair 10 and eps.  Outer pair first, each pair sorted."""
    outer = (min(tip, middle), max(tip, middle))
    inward = (min(middle, inner), max(middle, inner))
    ten = Fraction(10)
    return [(*outer, eps), (*outer, ten + eps / 2), (*inward, ten), (*inward, eps)]


def c4_counter(eps: Fraction = DEFAULT_EPS, delta: Fraction = DEFAULT_DELTA) -> Instance:
    """Four agents on a cycle; no EFX orientation exists.

    Pair values: (0,1) = {10+eps/2, eps}, (1,2) = {10, eps}, (0,3) = {10, eps},
    (2,3) = {delta, delta}.
    """
    _check_scales(eps, delta)
    ten = Fraction(10)
    return _symmetric(4, [
        (0, 1, ten + eps / 2),
        (0, 1, eps),
        (1, 2, ten),
        (1, 2, eps),
        (0, 3, ten),
        (0, 3, eps),
        (2, 3, delta),
        (2, 3, delta),
    ])


def p4_q3(eps: Fraction = DEFAULT_EPS, delta: Fraction = DEFAULT_DELTA) -> Instance:
    """Path on four agents with triple edges at both ends; no EFX orientation."""
    _check_scales(eps, delta)
    one = Fraction(1)
    return _symmetric(4, [
        (0, 1, one),
        (0, 1, one + eps),
        (0, 1, one + eps),
        (1, 2, Fraction(2) + 3 * eps / 2),
        (2, 3, one),
        (2, 3, one + eps),
        (2, 3, one + eps),
    ])


def p4_qn(q: int, eps: Fraction = DEFAULT_EPS, delta: Fraction = DEFAULT_DELTA) -> Instance:
    """Path on four agents with q >= 4 unit edges at both ends; no EFX orientation."""
    _check_scales(eps, delta)
    if q < 4:
        raise InstanceError(f"this family needs q >= 4, got {q}")
    one = Fraction(1)
    middle = Fraction(-(-q // 2)) + eps
    pairs = [(0, 1, one)] * q + [(1, 2, middle)] + [(2, 3, one)] * q
    return _symmetric(4, pairs)


def p3_block(eps: Fraction = DEFAULT_EPS, delta: Fraction = DEFAULT_DELTA) -> Instance:
    """Path on three agents with double edges; exactly two EFX orientations exist
    and the far endpoint (agent 2) is envied in both."""
    _check_scales(eps, delta)
    return _symmetric(3, _rigid_block(0, 1, 2, eps))


def p6_counter(eps: Fraction = DEFAULT_EPS, delta: Fraction = DEFAULT_DELTA) -> Instance:
    """Two three-agent blocks joined by one tiny edge; no EFX orientation even
    though every pair shares at most two edges."""
    _check_scales(eps, delta)
    return _symmetric(6, _rigid_block(0, 1, 2, eps) + [(2, 3, delta)] + _rigid_block(5, 4, 3, eps))


def np_gadget(pset: tuple[int, ...], eps: Fraction = DEFAULT_EPS,
              delta: Fraction = DEFAULT_DELTA) -> Instance:
    """Eight-agent tree whose EFX orientations encode balanced partitions.

    Two rigid three-agent blocks pin their inner endpoints (agents 2 and 5), the
    delta bridges are forced onto agents 3 and 4, and the parallel edges valued by
    ``pset`` between agents 3 and 4 must then split into two equal-sum halves.
    Zero entries of ``pset`` do not affect partitionability and are omitted from
    the edge list (edge values must be positive).
    """
    _check_scales(eps, delta)
    if len(pset) == 0:
        raise InstanceError("the partition multiset must be nonempty")
    if any(p < 0 for p in pset):
        raise InstanceError("partition values must be non-negative integers")
    pairs = _rigid_block(0, 1, 2, eps) + _rigid_block(7, 6, 5, eps)
    pairs += [(3, 4, Fraction(p)) for p in pset if p > 0]
    pairs += [(2, 3, delta), (4, 5, delta)]
    return _symmetric(8, pairs)


def reduce_partition(pset: tuple[int, ...], eps: Fraction = DEFAULT_EPS,
                     delta: Fraction = DEFAULT_DELTA) -> Instance:
    """Partition-problem reduction: the gadget admits an EFX orientation exactly
    when ``pset`` splits into two halves of equal sum (for small eps, delta)."""
    return np_gadget(tuple(pset), eps, delta)


def running_example() -> Instance:
    """Seven agents, bipartite, eighteen symmetric edges; the walkthrough instance
    used throughout the solver tests."""
    return _symmetric(7, [
        (0, 4, Fraction(10)),
        (1, 4, Fraction(10)),
        (1, 4, Fraction(9)),
        (2, 4, Fraction(8)),
        (0, 5, Fraction(6)),
        (0, 5, Fraction(5)),
        (1, 5, Fraction(6)),
        (1, 5, Fraction(6)),
        (2, 5, Fraction(7)),
        (0, 6, Fraction(6)),
        (0, 6, Fraction(5)),
        (1, 6, Fraction(6)),
        (1, 6, Fraction(6)),
        (2, 6, Fraction(7)),
        (3, 6, Fraction(3)),
        (3, 6, Fraction(4)),
        (3, 4, Fraction(6)),
        (3, 4, Fraction(3)),
    ])


def random_instance(n: int, m: int, q_max: int, shape: str, *, num_max: int = 1000,
                    den_max: int = 1000, symmetric: bool = False, seed: int = 0) -> Instance:
    """Seeded random instance over a requested skeleton shape.

    Shapes: "star" (hub 0), "tree" (depth <= 2 from agent 0, so diameter <= 4),
    "cycle" (0-1-...-0), "bipartite" (random split, random cross edges).  Values
    are uniform rationals with numerator in [1, num_max] and denominator in
    [1, den_max], kept as reduced integer ratios with no ``Fraction``; symmetric
    instances value each edge identically at both ends.
    """
    if n < 1 or m < 0 or q_max < 1:
        raise InstanceError("need n >= 1, m >= 0, q_max >= 1")
    if num_max < 1 or den_max < 1:
        raise InstanceError(f"need num_max >= 1 and den_max >= 1, got {num_max} and {den_max}")
    rng = random.Random(seed)

    def draw() -> tuple[int, int]:
        p, q = rng.randint(1, num_max), rng.randint(1, den_max)
        g = gcd(p, q)
        return p // g, q // g

    if shape == "star":
        skeleton = [(0, i) for i in range(1, n)]
    elif shape == "tree":
        skeleton = []
        depth1: list[int] = []
        for v in range(1, n):
            parent = rng.choice([0] + depth1) if depth1 else 0
            skeleton.append((min(parent, v), max(parent, v)))
            if parent == 0:
                depth1.append(v)
    elif shape == "cycle":
        if n < 3:
            raise InstanceError("a cycle needs at least three agents")
        skeleton = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    elif shape == "bipartite":
        if n == 1:
            skeleton = []
        else:
            split = rng.randint(1, n - 1)
            agents = list(range(n))
            rng.shuffle(agents)
            s_side, t_side = agents[:split], agents[split:]
            skeleton = sorted({(min(a, b), max(a, b)) for a in s_side for b in t_side})
    else:
        raise InstanceError(f"unknown shape {shape!r}")

    # Every shape but "bipartite" first puts one edge on each skeleton pair.
    base = 0 if shape == "bipartite" else 1
    if m < base * len(skeleton):
        raise InstanceError(f"shape {shape!r} on {n} agents needs at least {len(skeleton)} edges")
    if m > len(skeleton) * q_max:
        raise InstanceError(f"cannot place {m} edges, capacity is {len(skeleton) * q_max}")
    counts = dict.fromkeys(skeleton, base)
    chosen = list(skeleton) if base else []
    # The pairs with room left, in skeleton order; a pair leaves once it is full.
    open_pairs = [p for p in skeleton if counts[p] < q_max]
    for _ in range(m - len(chosen)):
        k = rng.randrange(len(open_pairs))
        pair = open_pairs[k]
        counts[pair] += 1
        chosen.append(pair)
        if counts[pair] == q_max:
            del open_pairs[k]

    edges = []
    for k, (u, v) in enumerate(chosen):
        ru = draw()
        edges.append(EdgeItem(k, u, v, ru, ru if symmetric else draw()))
    return Instance(n, tuple(edges))


@dataclass(frozen=True)
class FamilySpec:
    """Parameter record for ``generate``; unused fields are ignored per family."""

    family: str
    eps: Fraction = DEFAULT_EPS
    delta: Fraction = DEFAULT_DELTA
    q: int | None = None
    pset: tuple[int, ...] | None = None
    n: int | None = None
    m: int | None = None
    q_max: int | None = None
    shape: str | None = None
    num_max: int = 1000
    den_max: int = 1000
    symmetric: bool = False
    seed: int = 0


def generate(spec: FamilySpec) -> Instance:
    """Dispatch a FamilySpec to its family constructor."""
    family = spec.family
    if family == "c4-counter":
        return c4_counter(spec.eps, spec.delta)
    if family == "p4-q3":
        return p4_q3(spec.eps, spec.delta)
    if family == "p4-qn":
        if spec.q is None:
            raise InstanceError("family p4-qn needs q")
        return p4_qn(spec.q, spec.eps, spec.delta)
    if family == "p3-block":
        return p3_block(spec.eps, spec.delta)
    if family == "p6-counter":
        return p6_counter(spec.eps, spec.delta)
    if family == "np-gadget":
        if spec.pset is None:
            raise InstanceError("family np-gadget needs the partition multiset")
        return np_gadget(spec.pset, spec.eps, spec.delta)
    if family == "running-example":
        return running_example()
    if family == "random":
        if spec.n is None or spec.m is None or spec.q_max is None or spec.shape is None:
            raise InstanceError("family random needs n, m, q_max and shape")
        # random_instance draws any size, but a generated document must load.
        check_agent_count(spec.n)
        return random_instance(spec.n, spec.m, spec.q_max, spec.shape,
                               num_max=spec.num_max, den_max=spec.den_max,
                               symmetric=spec.symmetric, seed=spec.seed)
    raise InstanceError(f"unknown family {family!r}")
