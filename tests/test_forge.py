from __future__ import annotations

import hashlib
import json
from fractions import Fraction

import pytest

from efx_multigraph import (
    FamilySpec,
    InstanceError,
    analyze_structure,
    c4_counter,
    generate,
    np_gadget,
    p3_block,
    p4_q3,
    p4_qn,
    p6_counter,
    random_instance,
    reduce_partition,
    running_example,
)
from efx_multigraph.forge import DEFAULT_DELTA, DEFAULT_EPS
from efx_multigraph.model import edge_set, instance_to_json


def test_c4_values_and_shape():
    inst = c4_counter(Fraction(1, 100), Fraction(1, 10**6))
    assert inst.n == 4 and inst.m == 8
    values = [e.wu for e in inst.edges]
    assert values == [
        Fraction(10) + Fraction(1, 200),
        Fraction(1, 100),
        Fraction(10),
        Fraction(1, 100),
        Fraction(10),
        Fraction(1, 100),
        Fraction(1, 10**6),
        Fraction(1, 10**6),
    ]
    assert analyze_structure(inst).family == "multi-cycle"


def test_families_are_symmetric():
    for inst in (c4_counter(), p4_q3(), p4_qn(5), p3_block(), p6_counter(),
                 np_gadget((1, 2)), running_example()):
        for e in inst.edges:
            assert e.wu == e.wv


def test_p4_families_shape():
    inst = p4_q3()
    assert inst.n == 4 and inst.m == 7
    assert analyze_structure(inst).q == 3
    inst = p4_qn(5)
    assert inst.m == 11
    assert max(e.wu for e in inst.edges) == Fraction(3) + Fraction(1, 100)
    with pytest.raises(InstanceError):
        p4_qn(3)


def test_p6_shape():
    inst = p6_counter()
    assert inst.n == 6 and inst.m == 9
    rep = analyze_structure(inst)
    assert rep.family == "multi-tree"
    assert rep.q == 2
    assert rep.longest_path == 5


def test_np_gadget_shape():
    inst = np_gadget((1, 2, 3))
    assert inst.n == 8
    assert len(edge_set(inst, 3, 4)) == 3
    assert sorted(e.wu for e in inst.edges if {e.u, e.v} == {3, 4}) == [1, 2, 3]
    # delta bridges sit between agents 2-3 and 4-5
    assert len(edge_set(inst, 2, 3)) == 1
    assert len(edge_set(inst, 4, 5)) == 1
    assert analyze_structure(inst).family == "multi-tree"


def test_np_gadget_drops_zero_entries():
    inst = np_gadget((0, 0))
    assert len(edge_set(inst, 3, 4)) == 0
    with pytest.raises(InstanceError):
        np_gadget(())
    with pytest.raises(InstanceError):
        np_gadget((1, -2))
    assert reduce_partition((1, 2, 3)) == np_gadget((1, 2, 3))


def test_scale_validation():
    with pytest.raises(InstanceError):
        c4_counter(Fraction(1, 10**6), Fraction(1, 100))  # eps < delta
    with pytest.raises(InstanceError):
        c4_counter(Fraction(2), Fraction(1, 10))  # eps >= 1


def test_running_example_shape():
    inst = running_example()
    rep = analyze_structure(inst)
    assert (inst.n, inst.m, rep.q, rep.family) == (7, 18, 2, "bipartite")


def test_random_determinism_and_shapes():
    a = random_instance(6, 12, 3, "bipartite", seed=1)
    b = random_instance(6, 12, 3, "bipartite", seed=1)
    assert a == b
    assert a != random_instance(6, 12, 3, "bipartite", seed=2)
    assert analyze_structure(random_instance(5, 7, 2, "cycle", seed=3)).family == "multi-cycle"
    assert analyze_structure(random_instance(6, 9, 3, "star", seed=4)).family == "multi-star"
    tree = random_instance(8, 10, 2, "tree", seed=5)
    rep = analyze_structure(tree)
    assert rep.family in ("multi-tree", "multi-star")
    assert rep.longest_path <= 4


def test_random_respects_bounds():
    for seed in range(40):
        inst = random_instance(6, 14, 3, "bipartite", num_max=50, den_max=9, seed=seed)
        assert inst.m == 14
        assert analyze_structure(inst).q <= 3
        for e in inst.edges:
            assert 1 <= e.wu.numerator <= 50 * 9
            assert e.wu > 0 and e.wv > 0


def test_random_symmetric_flag():
    inst = random_instance(5, 8, 2, "bipartite", symmetric=True, seed=9)
    assert all(e.wu == e.wv for e in inst.edges)


# SHA-256 over the outputs of _random_grid(), recorded with the generator that
# rebuilt its list of open pairs for every edge it placed.
RANDOM_GRID_SHA256 = "e5b71fd176b27a90d82ede256b5bcdf074084f02dba98c2189b641edc3812d82"


def _random_grid():
    """Every shape at a few sizes, q_max 1 to 3, edge counts from none to a full
    skeleton and one past it, plain and symmetric weights."""
    for shape in ("star", "tree", "cycle", "bipartite"):
        for n in (3, 4, 7):
            if shape == "bipartite":
                pair_counts = {s * (n - s) for s in range(1, n)}
            else:
                pair_counts = {n if shape == "cycle" else n - 1}
            for q_max in (1, 2, 3):
                full = {k * q_max for k in pair_counts}
                for m in sorted({0, 1, n - 1, n} | full | {k + 1 for k in full}):
                    for seed in (0, 1, 2):
                        for symmetric in (False, True):
                            yield (n, m, q_max, shape, symmetric, seed)
    yield (40, 300, 4, "bipartite", False, 3)
    yield (128, 1000, 4, "bipartite", False, 3)


def test_random_instances_pinned():
    digest = hashlib.sha256()
    made = 0
    for n, m, q_max, shape, symmetric, seed in _random_grid():
        try:
            inst = random_instance(n, m, q_max, shape, num_max=9, den_max=7,
                                   symmetric=symmetric, seed=seed)
        except InstanceError as exc:
            digest.update(f"error: {exc}\n".encode())
            continue
        digest.update(json.dumps(instance_to_json(inst), sort_keys=True).encode() + b"\n")
        made += 1
    assert made > 500
    assert digest.hexdigest() == RANDOM_GRID_SHA256


def test_random_instance_builds_no_fraction(fractions_built):
    inst = random_instance(128, 1000, 4, "bipartite", seed=3)
    assert fractions_built == []
    assert inst.weights and inst.edges[0].ru == inst.edges[0].wu.as_integer_ratio()


def test_random_instance_rejects_sizes_below_the_minimum():
    for n, m, q_max in ((0, 1, 1), (-1, 1, 1), (3, -1, 2), (3, 4, 0)):
        with pytest.raises(InstanceError, match="^need n >= 1, m >= 0, q_max >= 1$"):
            random_instance(n, m, q_max, "bipartite", seed=0)


def test_random_infeasible_parameters():
    with pytest.raises(InstanceError):
        random_instance(3, 50, 1, "star", seed=0)
    with pytest.raises(InstanceError):
        random_instance(2, 1, 1, "cycle", seed=0)
    with pytest.raises(InstanceError):
        random_instance(4, 2, 2, "tree", seed=0)  # fewer edges than skeleton
    with pytest.raises(InstanceError):
        random_instance(4, 2, 2, "blob", seed=0)
    # Value bounds below 1 are rejected before any draw, on every shape.
    for num_max, den_max in ((0, 1000), (1000, 0), (-3, 5), (1, -1)):
        message = f"need num_max >= 1 and den_max >= 1, got {num_max} and {den_max}"
        for shape in ("star", "tree", "cycle", "bipartite"):
            with pytest.raises(InstanceError, match=message):
                random_instance(4, 6, 2, shape, num_max=num_max, den_max=den_max, seed=0)


# SHA-256 over _fixed_families(), recorded while each family spelled out its
# rigid three-agent blocks edge by edge.
FIXED_FAMILIES_SHA256 = "f0b6794ada3d4e8d03fcbd2da2a9f0c28829977d6d650bc86a62be7e2f246d9e"


def _fixed_families():
    scales = [(DEFAULT_EPS, DEFAULT_DELTA), (Fraction(1, 7), Fraction(1, 50))]
    for eps, delta in scales:
        yield c4_counter(eps, delta)
        yield p4_q3(eps, delta)
        for q in (4, 5, 6):
            yield p4_qn(q, eps, delta)
        yield p3_block(eps, delta)
        yield p6_counter(eps, delta)
        for pset in ((1, 2, 3), (3, 1, 1, 2, 2, 1), (0, 4, 2, 2)):
            yield np_gadget(pset, eps, delta)
    yield running_example()


def test_fixed_families_pinned():
    # The shape tests check values and pairs, not edge order; this pins both.
    docs = [instance_to_json(inst) for inst in _fixed_families()]
    digest = hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest()
    assert digest == FIXED_FAMILIES_SHA256


def test_generate_dispatch():
    assert generate(FamilySpec("c4-counter")) == c4_counter()
    assert generate(FamilySpec("p4-qn", q=4)) == p4_qn(4)
    assert generate(FamilySpec("np-gadget", pset=(1, 2))) == np_gadget((1, 2))
    spec = FamilySpec("random", n=5, m=6, q_max=2, shape="bipartite", seed=3)
    assert generate(spec) == random_instance(5, 6, 2, "bipartite", seed=3)
    eps, delta = Fraction(1, 50), Fraction(1, 7000)
    assert generate(FamilySpec("p4-q3", eps=eps, delta=delta)) == p4_q3(eps, delta)
    assert generate(FamilySpec("p3-block", eps=eps)) == p3_block(eps)
    assert generate(FamilySpec("p6-counter", delta=delta)) == p6_counter(delta=delta)
    assert generate(FamilySpec("running-example")) == running_example()
    spec = FamilySpec("random", n=4, m=5, q_max=2, shape="cycle", num_max=9, den_max=3,
                      symmetric=True, seed=1)
    assert generate(spec) == random_instance(4, 5, 2, "cycle", num_max=9, den_max=3,
                                             symmetric=True, seed=1)
    with pytest.raises(InstanceError, match="needs q"):
        generate(FamilySpec("p4-qn"))
    with pytest.raises(InstanceError, match="needs the partition multiset"):
        generate(FamilySpec("np-gadget"))
    full = {"n": 4, "m": 5, "q_max": 2, "shape": "tree"}
    for missing in full:
        fields = {k: v for k, v in full.items() if k != missing}
        with pytest.raises(InstanceError, match="needs n, m, q_max and shape"):
            generate(FamilySpec("random", **fields))
    with pytest.raises(InstanceError):
        generate(FamilySpec("mystery"))
