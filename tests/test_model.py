from __future__ import annotations

import hashlib
import io
import json
import math
import random
import sys
import time
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import example, given, settings, strategies as st

from efx_multigraph import (
    InstanceError,
    analyze_structure,
    build_instance,
    c4_counter,
    edge_set,
    instance_to_text,
    is_orientation,
    load_instance,
    make_allocation,
    parse_rational,
    random_instance,
    save_instance,
    solve_multicycle,
    solve_multistar,
    solve_multitree_d4_q2,
    two_coloring,
)
from efx_multigraph import model
from efx_multigraph.bipartite import half_efx_parts
from efx_multigraph.model import (
    FAMILY_CYCLE,
    _ball_center,
    _component_center,
    _component_family,
    _longest_simple_path,
    allocation_from_json,
    connected_components,
    instance_from_json,
    json_text,
    parse_ratio,
    skeleton_family,
)
from reference import (
    center_by_bfs,
    instance_from_json_by_composition,
    longest_simple_path,
    parse_rational_by_regex,
)


def test_parse_rational_forms():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("10") == Fraction(10)
    assert parse_rational(7) == Fraction(7)
    assert parse_rational("6/4") == Fraction(3, 2)
    assert parse_rational(Fraction(5, 3)) == Fraction(5, 3)
    for bad in ("1.5", "x", "1/0/2", True, "1e3", "1/0", "0.5", "1e-2", "+1/2",
                "\uff11\uff12", "\u0663/\u0664", None, 1.5):
        with pytest.raises(InstanceError):
            parse_rational(bad)


def test_over_long_digit_strings_are_instance_errors():
    # int() refuses strings of more than sys.get_int_max_str_digits() digits,
    # and json.loads refuses such integers, both with a bare ValueError.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        digits = "9" * 5000
        for text in (digits, f"1/{digits}"):
            with pytest.raises(InstanceError, match="too many digits"):
                parse_rational(text)
        for doc in (f'{{"n": 2, "edges": [{{"u": 0, "v": 1, "wu": "{digits}", "wv": "1"}}]}}',
                    f'{{"n": 2, "edges": [{{"u": 0, "v": 1, "wu": {digits}, "wv": "1"}}]}}',
                    f'{{"n": {digits}, "edges": []}}'):
            with pytest.raises(InstanceError):
                load_instance(io.StringIO(doc))
    finally:
        sys.set_int_max_str_digits(limit)


@given(st.integers(-10**30, 10**30), st.integers(1, 10**30), st.sampled_from(["", "0", "00"]))
def test_parse_rational_reads_both_parts_once(num, den, pad):
    text = f"{'-' if num < 0 else ''}{pad}{abs(num)}/{pad}{den}"
    assert parse_rational(text) == Fraction(num, den)
    assert parse_rational(f" {num} ") == Fraction(num)
    with pytest.raises(InstanceError, match="zero denominator"):
        parse_rational(f"{num}/{pad}0")


class _Text(str):
    """A str subclass: the grammar reads it as the text it holds."""


# Pieces of text the grammar must tell apart: ASCII digits, other scripts'
# digits (which int() reads), Unicode whitespace, signs, slashes, and digit
# strings around int()'s 4300-digit limit.
_RATIONAL_PIECES = (st.sampled_from(["0", "7", "42", "\u0661", "\uff12", "\u00b2", " ", "\t",
                                     "\n", "\u00a0", "\u2003", "-", "+", "/", "_", ".", "e"])
                    | st.integers(4295, 4305).map(lambda k: "9" * k))


@settings(max_examples=400, deadline=None)
@given(st.lists(_RATIONAL_PIECES, max_size=8).map("".join), st.booleans())
def test_parse_rational_matches_regex_reference(text, subclass):
    raw = _Text(text) if subclass else text
    outcomes = []
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        for parse in (parse_rational, parse_rational_by_regex, parse_ratio, _edge_weight):
            try:
                outcomes.append(parse(raw))
            except InstanceError as exc:
                outcomes.append(str(exc))
    finally:
        sys.set_int_max_str_digits(limit)
    rational, reference, ratio, weight = outcomes
    assert rational == reference
    assert type(rational) is type(reference)
    if isinstance(reference, Fraction):
        assert ratio == reference.as_integer_ratio()
        assert type(ratio[0]) is type(ratio[1]) is int
        if reference > 0:
            assert weight == reference and type(weight) is Fraction
        else:
            assert weight == "edge 0: non-positive weight"
    else:
        assert ratio == reference
        assert weight == f"edge 0: {reference}"


def _edge_weight(raw: str) -> Fraction:
    """``raw`` read by the JSON reader as the ``wu`` of a one-edge document."""
    doc = {"n": 2, "edges": [{"u": 0, "v": 1, "wu": raw, "wv": "1"}]}
    return instance_from_json(doc).edges[0].wu


def test_weights_stay_integer_ratios_until_a_fraction_is_asked_for(monkeypatch, fractions_built):
    text = instance_to_text(random_instance(128, 1000, 4, "bipartite", seed=3))
    fractions_built.clear()
    inst = load_instance(io.StringIO(text))
    inst.weights
    assert fractions_built == []
    monkeypatch.undo()

    for e in inst.edges[:50]:
        assert type(e.wu) is type(e.wv) is Fraction
        assert (e.wu.as_integer_ratio(), e.wv.as_integer_ratio()) == (e.ru, e.rv)
        assert (e.value_for(e.u), e.value_for(e.v)) == (e.wu, e.wv)
        assert type(e.value_for(e.u)) is Fraction
        other = next(a for a in range(inst.n) if a not in (e.u, e.v))
        assert e.value_for(other) == 0 and type(e.value_for(other)) is Fraction

    # One value, written four ways: equal instances, equal hashes, one text.
    same = [build_instance(2, [(0, 1, w, 3)]) for w in ("2/4", " 1/2 ", Fraction(1, 2), "1/2")]
    assert all(other == same[0] and hash(other) == hash(same[0]) for other in same)
    assert {instance_to_text(other) for other in same} == {instance_to_text(same[0])}
    assert same[0].edges[0][3:] == ((1, 2), (3, 1))
    assert '"wu": "1/2"' in instance_to_text(same[0]) and '"wv": "3"' in instance_to_text(same[0])

    # Instance, the one validator, names a weight that is not a reduced
    # (numerator, denominator) pair of ints as an InstanceError.
    good = (1, 2)
    for bad, message in [(Fraction(1, 2), "not an integer ratio"), (1, "not an integer ratio"),
                         ((1, 2, 3), "not an integer ratio"), ("12", "not a reduced integer ratio"),
                         ((2, 4), "not a reduced integer ratio"), ((1, 0), "not a reduced integer ratio"),
                         ((-1, -2), "not a reduced integer ratio"), ((True, 1), "not a reduced integer ratio"),
                         ((0, 1), "non-positive weight"), ((-1, 2), "non-positive weight")]:
        for ru, rv in ((bad, good), (good, bad)):
            with pytest.raises(InstanceError, match=message):
                model.Instance(2, (model.EdgeItem(0, 0, 1, ru, rv),))


def test_instance_round_trip_keeps_equality_hash_and_ids():
    inst = random_instance(128, 1000, 4, "bipartite", seed=3)
    again = load_instance(io.StringIO(instance_to_text(inst)))
    assert again == inst
    assert hash(again) == hash(inst)
    assert [e.id for e in again.edges] == list(range(again.m))
    assert again.scales == inst.scales and again.weights == inst.weights
    edge = again.edges[0]
    for field in ("id", "u", "v", "ru", "rv", "wu", "wv"):
        with pytest.raises(AttributeError):
            setattr(edge, field, 1)


def test_load_running_example_shape(walkthrough):
    assert walkthrough.n == 7
    assert walkthrough.m == 18


def test_load_single_agent():
    inst = load_instance(io.StringIO('{"n": 1, "edges": []}'))
    assert inst.n == 1
    assert inst.m == 0


@pytest.mark.parametrize(
    "doc, fragment",
    [
        ('{"n": 2, "edges": [{"u": 0, "v": 1, "wu": "0", "wv": "1"}]}', "edge 0"),
        ('{"n": 2, "edges": [{"u": 0, "v": 0, "wu": "1", "wv": "1"}]}', "self-loop"),
        ('{"n": 2, "edges": [{"u": 0, "v": 5, "wu": "1", "wv": "1"}]}', "out of range"),
        ('{"n": 2, "edges": [{"u": 0, "v": 1, "wu": "a", "wv": "1"}]}', "edge 0"),
        ('{"n": 2, "edges": [{"u": 0, "v": 1, "wv": "1"}]}', "missing"),
        ('{"n": 2, "edges": {"u": 0}}', "^'edges' must be a list$"),
        ('{"n": 2, "edges": [[0, 1, "1", "1"]]}', "^edge 0: expected an object$"),
        ('{"n": 0, "edges": []}', "positive"),
        ("[1, 2]", "object"),
        ("{", "invalid JSON"),
    ],
)
def test_load_errors(doc, fragment):
    with pytest.raises(InstanceError, match=fragment):
        load_instance(io.StringIO(doc))


def test_negative_weight_rejected():
    with pytest.raises(InstanceError, match="edge 1"):
        load_instance(io.StringIO(
            '{"n": 2, "edges": [{"u": 0, "v": 1, "wu": "1", "wv": "1"},'
            ' {"u": 0, "v": 1, "wu": "-2", "wv": "1"}]}'))


@pytest.mark.parametrize("n, spec, message", [
    (0, (0, 1, "2", "3"), "agent count must be a positive integer, got 0"),
    (True, (0, 1, "2", "3"), "agent count must be a positive integer, got True"),
    ("2", (0, 1, "2", "3"), "agent count must be a positive integer, got '2'"),
    (2, (True, 1, "2", "3"), "edge 1: agent id True is not an integer"),
    (2, (0, "1", "2", "3"), "edge 1: agent id '1' is not an integer"),
    (2, (0, 5, "2", "3"), "edge 1: agent id 5 out of range [0, 2)"),
    (2, (1, 1, "2", "3"), "edge 1: self-loop on agent 1"),
    (2, (0, 1, "0", "3"), "edge 1: non-positive weight"),
    (2, (0, 1, "2", "-3/4"), "edge 1: non-positive weight"),
    (2, (0, 1, "2", "3/x"), "edge 1: not a rational: '3/x' (expected digits or digits/digits)"),
], ids=["n-zero", "n-bool", "n-str", "agent-bool", "agent-str", "agent-range", "self-loop",
        "weight-zero", "weight-negative", "weight-word"])
def test_reader_and_constructor_report_each_fault_alike(n, spec, message):
    # The reader checks only the document's shape; every rule on the values is
    # the constructor's, so a fault reads the same however the instance arrives.
    specs = [(0, 1, "1", "1"), spec]
    doc = {"n": n, "edges": [dict(zip(("u", "v", "wu", "wv"), s)) for s in specs]}
    for build in (lambda: instance_from_json(doc), lambda: build_instance(n, specs)):
        with pytest.raises(InstanceError) as exc:
            build()
        assert str(exc.value) == message


# Document fields: valid values, and every fault of shape, grammar and value
# the reader must name in the same words and order as the constructor.
_GOOD_WEIGHTS = st.sampled_from(["1", "7", " 5/2 ", "2/4", 3]) | st.tuples(
    st.integers(1, 12), st.integers(1, 12)).map(lambda r: f"{r[0]}/{r[1]}")
_BAD_WEIGHTS = st.sampled_from(["0", "-0", "0/7", "-3/4", "3/x", "1/0", "", "+1", "1.5", "\uff11",
                                1.5, True, None, 0, -2, [1, 2]])
_BAD_AGENTS = st.sampled_from([-1, 4, 9, True, False, "1", 1.5, None])
_BAD_COUNTS = st.sampled_from([0, -2, True, "3", 2.0, None, model.MAX_AGENTS + 1])


@st.composite
def _instance_documents(draw):
    """A decoded instance document: clean, or with faults anywhere, often several."""
    faults = draw(st.sampled_from([0, 0, 1, 3, 8]))  # the chance in 16 that a field is faulty

    def pick(good, bad, rare=False):
        hit = draw(st.integers(0, 15)) < faults and not (rare and draw(st.integers(0, 15)) >= faults)
        return draw(bad) if hit else draw(good)

    n = pick(st.integers(2, 4), _BAD_COUNTS)
    top = n if type(n) is int and 2 <= n <= 4 else 4
    edges = []
    for _ in range(draw(st.integers(0, 6))):
        u = draw(st.integers(0, top - 1))
        rec = {"u": u, "v": (u + draw(st.integers(1, top - 1))) % top,
               "wu": pick(_GOOD_WEIGHTS, _BAD_WEIGHTS), "wv": pick(_GOOD_WEIGHTS, _BAD_WEIGHTS)}
        rec["u"] = pick(st.just(rec["u"]), _BAD_AGENTS | st.just(rec["v"]))  # a self-loop too
        rec["v"] = pick(st.just(rec["v"]), _BAD_AGENTS)
        if pick(st.just(False), st.booleans(), rare=True):
            del rec[draw(st.sampled_from(sorted(rec)))]
        edges.append(pick(st.just(rec), st.just(list(rec.values())), rare=True))
    doc = {"n": n, "edges": edges}
    if pick(st.just(False), st.booleans(), rare=True):
        shape = draw(st.sampled_from(["no-n", "no-edges", "edges-object", "list"]))
        doc = {"no-n": {"edges": edges}, "no-edges": {"n": n}, "edges-object": {"n": n, "edges": {}},
               "list": [n, edges]}[shape]
    return doc


def _read_or_fault(read, doc):
    try:
        return read(doc)
    except InstanceError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(_instance_documents())
@example({"n": 0, "edges": [{"u": 0, "v": 1, "wu": "1/0", "wv": "1"}]})  # grammar before the count
@example({"n": 2, "edges": [{"u": 1, "v": 1, "wu": "1", "wv": "1"},
                            {"u": 0, "v": 1, "wu": "x", "wv": "1"}]})  # grammar before a self-loop
@example({"n": 2, "edges": [{"u": 0, "v": 1, "wu": "x", "wv": "1"}, [0, 1, "1", "1"]]})  # shape first
@example({"n": 2, "edges": [{"u": 0, "v": 1, "wu": "x", "wv": "1"}, {"u": 0, "v": 1, "wu": "1"}]})
@example({"n": 2, "edges": [{"u": 0, "v": 1, "wu": "1", "wv": "-1"},
                            {"u": 0, "v": 1, "wu": "2/0", "wv": "1/0"}]})
@example({"n": model.MAX_AGENTS + 1, "edges": [{"u": 0, "v": 0, "wu": "1", "wv": "1"}]})
@example({"n": model.MAX_AGENTS + 1, "edges": [{"u": 0, "v": 1, "wu": "1", "wv": "1"}]})
def test_reader_matches_shape_pass_then_build_instance(doc):
    # build_instance reads each weight once, into its EdgeItem, and skips the
    # constructor's gcd; the reader must still give what the two passes give
    # with the full check.
    got = _read_or_fault(instance_from_json, doc)
    want = _read_or_fault(instance_from_json_by_composition, doc)
    if isinstance(want, str):
        assert got == want
        return
    assert type(got) is model.Instance and got.n == want.n and len(got.edges) == len(want.edges)
    for mine, theirs in zip(got.edges, want.edges):
        assert type(mine) is model.EdgeItem and mine == theirs
    assert got == want and hash(got) == hash(want)


def test_reader_reduces_each_weight_once(monkeypatch):
    # parse_ratio takes one gcd per p/q weight; build_instance, which the
    # reader calls, hands the pairs to Instance without taking it again, while
    # a hand-built Instance still checks every pair.
    calls = []

    def counting_gcd(a, b):
        calls.append((a, b))
        return math.gcd(a, b)

    inst = random_instance(64, 400, 4, "bipartite", seed=3)
    text = instance_to_text(inst)
    monkeypatch.setattr(model, "gcd", counting_gcd)
    again = load_instance(io.StringIO(text))
    assert again == inst
    assert len(calls) == sum(r[1] != 1 for e in inst.edges for r in (e.ru, e.rv)) > inst.m
    calls.clear()
    assert model.Instance(inst.n, inst.edges) == inst
    assert len(calls) == 2 * inst.m


@pytest.mark.parametrize("weight", ["0", "-0", "0/7", "-3/4"])
def test_reader_rejects_non_positive_weight(weight):
    # Every spelling of a zero or negative weight is refused with the
    # constructor's message, and only after the edge's shape checks.
    doc = {"n": 2, "edges": [{"u": 0, "v": 1, "wu": "1", "wv": "1"},
                             {"u": 0, "v": 1, "wu": "2", "wv": weight}]}
    with pytest.raises(InstanceError, match="^edge 1: non-positive weight$"):
        instance_from_json(doc)
    doc["edges"][1].update(u=1, v=1)
    with pytest.raises(InstanceError, match="^edge 1: self-loop on agent 1$"):
        instance_from_json(doc)


def test_constructor_rejects_an_edge_id_off_its_position():
    edge = model.EdgeItem(1, 0, 1, (1, 1), (1, 1))
    with pytest.raises(InstanceError, match="^edge 0: id 1 does not match its position$"):
        model.Instance(2, (edge,))
    with pytest.raises(InstanceError, match="^edge 1: id 0 does not match its position$"):
        model.Instance(2, (edge._replace(id=0), edge._replace(id=0)))


def test_save_instance_writes_to_an_open_text_stream():
    inst = random_instance(6, 12, 3, "bipartite", seed=2)
    stream = io.StringIO()
    assert save_instance(inst, stream) is None
    assert stream.getvalue() == instance_to_text(inst)
    stream.seek(0)
    assert load_instance(stream) == inst


@pytest.mark.parametrize("weight", [Fraction(0), Fraction(-1, 2)])
def test_constructor_rejects_non_positive_weight(weight):
    with pytest.raises(InstanceError, match="^edge 1: non-positive weight$"):
        build_instance(2, [(0, 1, 1, 1), (0, 1, weight, 1)])
    # The shape checks come first.
    with pytest.raises(InstanceError, match="self-loop"):
        build_instance(2, [(1, 1, weight, 1)])


@pytest.mark.parametrize("n, spec", [(3, (True, 2, 1, 1)), (3, (2, False, 1, 1)),
                                     (True, ()), (2, (0, True, 1, 1))])
def test_bool_agent_ids_and_count_rejected(n, spec):
    # bool is an int subclass: without the check True would pass for agent 1.
    with pytest.raises(InstanceError):
        build_instance(n, [spec] if spec else [])


def test_edge_set(walkthrough):
    # the two edges shared by agents 1 and 4 (the pair valued 10 and 9)
    assert edge_set(walkthrough, 1, 4) == {1, 2}
    assert edge_set(walkthrough, 4, 1) == {1, 2}
    assert edge_set(walkthrough, 0, 1) == frozenset()
    with pytest.raises(ValueError):
        edge_set(walkthrough, 2, 2)


def test_edge_multiset_totals(walkthrough):
    total = sum(len(edge_set(walkthrough, i, j))
                for i in range(walkthrough.n) for j in range(i + 1, walkthrough.n))
    assert total == walkthrough.m


def test_analyze_running_example(walkthrough):
    rep = analyze_structure(walkthrough)
    assert rep.q == 2
    assert rep.family == "bipartite"
    assert rep.bipartition == ((0, 1, 2, 3), (4, 5, 6))
    assert rep.connected


def test_analyze_single_edge():
    inst = build_instance(2, [(0, 1, 3, 5)])
    rep = analyze_structure(inst)
    assert rep.q == 1
    assert rep.diameter == 1
    assert rep.family == "multi-star"


def test_analyze_c4_counter():
    rep = analyze_structure(c4_counter())
    assert rep.family == "multi-cycle"
    assert rep.q == 2
    assert rep.diameter == 2
    assert rep.longest_path == 3
    assert rep.bipartition is not None  # even cycle


@st.composite
def simple_skeletons(draw):
    """Unit-valued instances on up to eight agents, one edge per chosen pair."""
    n = draw(st.integers(min_value=1, max_value=8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return build_instance(n, [(u, v, 1, 1) for u, v in chosen])


@given(simple_skeletons())
@settings(deadline=None)  # the reference DFS is exponential; the program's speed has its own test
def test_longest_path_matches_dfs(inst):
    expected = longest_simple_path(inst.neighbours, range(inst.n))
    assert _longest_simple_path(inst.neighbours, range(inst.n)) == expected
    assert analyze_structure(inst).longest_path == expected


def test_analyze_complete_skeleton_in_time():
    # K_12 has about 10^9 simple paths, but only 12 * 2^11 (visited set, end) states.
    k12 = build_instance(12, [(u, v, 1, 1) for u in range(12) for v in range(u + 1, 12)])
    start = time.perf_counter()
    rep = analyze_structure(k12)
    assert time.perf_counter() - start < 2
    assert rep.longest_path == 11


def test_analyze_tree_computes_no_eccentricities(monkeypatch):
    def forbidden(*args):
        raise AssertionError("analyze computed every eccentricity of a tree")

    monkeypatch.setattr("efx_multigraph.model._ball_center", forbidden)
    path = build_instance(4000, [(i, i + 1, 1 + i % 3, 2) for i in range(3999)])
    rep = analyze_structure(path)
    assert (rep.center, rep.diameter) == (1999, 3999)


@st.composite
def multigraphs(draw):
    """A skeleton on 1-20 agents, each drawn pair repeated as 1-3 parallel edges:
    a random graph, a union of random graphs on interleaved blocks of agents, or
    one cycle through agents in a random order (the rest isolated)."""
    n = draw(st.integers(min_value=1, max_value=20))
    shape = draw(st.sampled_from(["general", "disconnected", "cycle"]))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if shape == "disconnected":
        block = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        pairs = [(u, v) for u, v in pairs if block[u] == block[v]]
    if shape == "cycle" and n >= 3:
        order = draw(st.permutations(range(n)))[:draw(st.integers(min_value=3, max_value=n))]
        chosen = [(order[k - 1], order[k]) for k in range(len(order))]
    else:
        chosen = draw(st.lists(st.sampled_from(pairs), max_size=3 * n)) if pairs else []
    copies = draw(st.lists(st.integers(1, 3), min_size=len(chosen), max_size=len(chosen)))
    return build_instance(n, [(u, v, 1, 1) for (u, v), c in zip(chosen, copies) for _ in range(c)])


# K4: every agent has eccentricity 1, so the center is the lowest of four ties.
K4 = build_instance(4, [(u, v, 1, 1) for u in range(4) for v in range(u + 1, 4)])
# A triangle 0-1-2 with the tail 2-3-4-5 and an isolated agent 6: one hop per
# round, agent 5 fills its ball only in round 4.
TAILED_TRIANGLE = build_instance(7, [(0, 1, 1, 1), (1, 2, 1, 1), (0, 2, 1, 1), (0, 2, 2, 1),
                                     (2, 3, 1, 1), (3, 4, 1, 1), (4, 5, 1, 1)])


@given(multigraphs())
@example(K4)
@example(TAILED_TRIANGLE)
@settings(deadline=None)
def test_component_center_matches_a_bfs_from_every_agent(inst):
    for depth in inst.component_depths:
        expected = center_by_bfs(inst, sorted(depth))
        assert _component_center(inst, depth, _component_family(inst, depth)) == expected
        assert _ball_center(inst, sorted(depth)) == expected


def test_single_cycle_center_is_its_lowest_agent():
    rng = random.Random(4)
    for size in range(3, 21):
        order = rng.sample(range(size), size)
        cycle = build_instance(size, [(order[k - 1], order[k], 1, 1) for k in range(size)])
        depth = cycle.component_depths[0]
        expected = (0, size // 2, size // 2)
        assert _component_center(cycle, depth, FAMILY_CYCLE) == center_by_bfs(cycle, sorted(depth)) \
            == expected


@given(multigraphs())
@example(TAILED_TRIANGLE)
@example(build_instance(8, [(k, (k + 1) % 5, 1, 1) for k in range(5)] + [(5, 6, 1, 1), (6, 7, 1, 2)]))
@settings(deadline=None)
def test_analyze_labels_each_component_once(inst):
    # The labels decide the bipartition and the family as the whole-skeleton
    # queries do, with one label and at most one odd-cycle scan per component.
    labelled, scanned = [], []
    label, scan = model._component_family, model._has_odd_cycle
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model, "_component_family", lambda *a: labelled.append(1) or label(*a))
        patch.setattr(model, "_has_odd_cycle", lambda *a: scanned.append(1) or scan(*a))
        rep = analyze_structure(inst)
    components = len(inst.component_depths)
    assert len(labelled) == components and len(scanned) <= components
    assert rep.bipartition == two_coloring(inst)
    assert rep.family == skeleton_family(inst, rep.bipartition is not None)


def test_analyze_families():
    path4 = build_instance(4, [(0, 1, 1, 1), (1, 2, 1, 1), (2, 3, 1, 1)])
    assert analyze_structure(path4).family == "multi-tree"
    triangle = build_instance(3, [(0, 1, 1, 1), (1, 2, 1, 1), (0, 2, 1, 1)])
    assert analyze_structure(triangle).family == "multi-cycle"
    assert analyze_structure(triangle).bipartition is None
    k4_minus = build_instance(4, [(0, 1, 1, 1), (1, 2, 1, 1), (0, 2, 1, 1), (2, 3, 1, 1)])
    assert analyze_structure(k4_minus).family == "general"


def test_analyze_disconnected():
    inst = build_instance(5, [(0, 1, 1, 1), (2, 3, 1, 1), (3, 4, 2, 2), (2, 4, 1, 1)])
    rep = analyze_structure(inst)
    assert not rep.connected
    assert rep.family == "general"  # a triangle component breaks bipartiteness
    two_stars = build_instance(5, [(0, 1, 1, 1), (2, 3, 1, 1), (2, 4, 1, 1)])
    assert analyze_structure(two_stars).family == "multi-star"


def test_bipartition_two_colors(walkthrough):
    s_side, t_side = two_coloring(walkthrough)
    s_set, t_set = set(s_side), set(t_side)
    for e in walkthrough.edges:
        assert (e.u in s_set) != (e.v in s_set)
    assert s_set | t_set == set(range(walkthrough.n))
    assert not s_set & t_set
    assert 0 in s_set


def test_round_trip_canonical(walkthrough):
    text = instance_to_text(walkthrough)
    again = load_instance(io.StringIO(text))
    assert again == walkthrough
    assert instance_to_text(again) == text


def test_non_lowest_terms_normalized():
    inst = instance_from_json({"n": 2, "edges": [{"u": 0, "v": 1, "wu": "4/6", "wv": 2}]})
    assert inst.edges[0].wu == Fraction(2, 3)


def test_allocation_json_validation(walkthrough):
    alloc = allocation_from_json({"bundles": [[0], [], [], [], [], [], []]}, walkthrough)
    assert alloc.bundles[0] == {0}
    with pytest.raises(InstanceError, match="exactly 7"):
        allocation_from_json({"bundles": [[0]]}, walkthrough)
    for bundles in ([[0], [0]], [[0, 0], [1, 2]]):
        with pytest.raises(InstanceError, match="more than one"):
            allocation_from_json({"bundles": bundles + [[]] * 5}, walkthrough)
    with pytest.raises(InstanceError, match="out of range"):
        allocation_from_json({"bundles": [[99], [], [], [], [], [], []]}, walkthrough)


def test_make_allocation_rejects_more_bundles_than_agents():
    assert make_allocation(3, [{0}]).bundles == ({0}, frozenset(), frozenset())
    with pytest.raises(InstanceError, match="^allocation has 3 bundles for 2 agents$"):
        make_allocation(2, [{0}, {1}, set()])


def test_orientation_flag(walkthrough):
    orient = make_allocation(7, [{0}, {1}])
    assert is_orientation(walkthrough, orient)
    wasteful = make_allocation(7, [{8}])  # edge (2,5) given to agent 0
    assert not is_orientation(walkthrough, wasteful)


@st.composite
def instances(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    m = draw(st.integers(min_value=0, max_value=10))
    edges = []
    for _ in range(m):
        u = draw(st.integers(min_value=0, max_value=n - 2))
        v = draw(st.integers(min_value=u + 1, max_value=n - 1))
        wu = Fraction(draw(st.integers(min_value=1, max_value=40)),
                      draw(st.integers(min_value=1, max_value=8)))
        wv = Fraction(draw(st.integers(min_value=1, max_value=40)),
                      draw(st.integers(min_value=1, max_value=8)))
        edges.append((u, v, wu, wv))
    return build_instance(n, edges)


@given(instances())
def test_round_trip_property(inst):
    text = instance_to_text(inst)
    assert load_instance(io.StringIO(text)) == inst
    assert json.loads(text)["n"] == inst.n


@st.composite
def skeletons(draw):
    """Unit-valued instances on up to six agents: any simple or multi skeleton,
    disconnected ones and odd cycles included."""
    n = draw(st.integers(min_value=1, max_value=6))
    ends = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    specs = draw(st.lists(ends, max_size=9)) if n > 1 else []
    return build_instance(n, [(u, v, 1, 1) for u, v in specs])


def _closure(inst, agent):
    """Literal component: grow {agent} by adjacency until nothing is added."""
    comp = {agent}
    while True:
        grown = comp | {e.v for e in inst.edges if e.u in comp} | {e.u for e in inst.edges if e.v in comp}
        if grown == comp:
            return comp
        comp = grown


def _has_odd_cycle(inst):
    """Literal search: some odd-length sequence of distinct agents closes a cycle."""
    adjacent = {(e.u, e.v) for e in inst.edges} | {(e.v, e.u) for e in inst.edges}
    return any(all((cyc[i], cyc[(i + 1) % k]) in adjacent for i in range(k))
               for k in range(3, inst.n + 1, 2) for cyc in permutations(range(inst.n), k))


@given(skeletons())
def test_components_and_two_coloring_match_definitions(inst):
    comps = connected_components(inst)
    assert sorted(v for comp in comps for v in comp) == list(range(inst.n))
    assert [comp[0] for comp in comps] == sorted(comp[0] for comp in comps)
    for comp in comps:
        assert comp == sorted(_closure(inst, comp[0]))

    parts = two_coloring(inst)
    assert (parts is None) == _has_odd_cycle(inst)
    assert analyze_structure(inst).bipartition == parts
    if parts is None:
        return
    s_set, t_set = set(parts[0]), set(parts[1])
    assert s_set | t_set == set(range(inst.n)) and not s_set & t_set
    for e in inst.edges:
        assert (e.u in s_set) != (e.v in s_set)
    assert 0 in s_set
    assert all(comp[0] in s_set for comp in comps)


# SHA-256 over _skeleton_outcomes(), recorded while every caller built its own
# skeleton adjacency and ran its own component BFS.
SKELETON_PIN_SHA256 = "fc2045f22329e7786edf4884a66c5184f49eb79438769498f89ed6ab101a2807"


def _multigraph(rng, n, m):
    """m edges on random pairs of n agents, either endpoint first; small values
    make ties."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    specs = []
    for _ in range(m if pairs else 0):
        u, v = rng.choice(pairs)
        if rng.random() < 0.5:
            u, v = v, u
        specs.append((u, v, Fraction(rng.randint(1, 9), rng.randint(1, 3)),
                      Fraction(rng.randint(1, 9), rng.randint(1, 3))))
    return build_instance(n, specs)


def _disjoint_union(rng, a, b):
    """a and b side by side, their agents shuffled together."""
    label = list(range(a.n + b.n))
    rng.shuffle(label)
    edges = [(e.u, e.v, e.wu, e.wv) for e in a.edges]
    edges += [(e.u + a.n, e.v + a.n, e.wu, e.wv) for e in b.edges]
    return build_instance(a.n + b.n, [(label[u], label[v], wu, wv) for u, v, wu, wv in edges])


def _skeleton_batch():
    """Seeded stars, trees, cycles, bipartite and general multigraphs; every
    third one joined with a second, so many are disconnected."""
    for k in range(400):
        rng = random.Random(k)
        shape = ("star", "tree", "cycle", "bipartite", "general")[k % 5]
        n = rng.randint(3 if shape == "cycle" else 1, 14 if k % 7 == 0 else 9)
        if shape == "general":
            inst = _multigraph(rng, n, rng.randint(0, 2 * n))
        else:
            # Every split of n agents has at least n - 1 cross pairs.
            pairs = n if shape == "cycle" else n - 1
            least = 0 if shape == "bipartite" else pairs
            inst = random_instance(n, rng.randint(least, 2 * pairs), 2, shape,
                                   num_max=9, den_max=3, symmetric=k % 2 == 0, seed=k)
        if k % 3 == 0:
            inst = _disjoint_union(rng, inst, _multigraph(rng, rng.randint(1, 5), rng.randint(0, 6)))
        yield inst
    # A path too long for the tree solver, then a triangle: a solver reports the
    # first component it cannot take.
    yield build_instance(9, [(k, k + 1, 1, 1) for k in range(5)] + [(6, 7, 1, 1), (7, 8, 1, 1), (6, 8, 1, 1)])


def _outcome(fn, inst):
    try:
        out = fn(inst)
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"
    return [sorted(b) for b in out.bundles] if hasattr(out, "bundles") else out


def _skeleton_outcomes():
    for inst in _skeleton_batch():
        yield [analyze_structure(inst).to_json(), two_coloring(inst), connected_components(inst),
               _outcome(half_efx_parts, inst), _outcome(solve_multistar, inst),
               _outcome(solve_multitree_d4_q2, inst), _outcome(solve_multicycle, inst)]


def test_skeleton_queries_and_solvers_pinned():
    outcomes = list(_skeleton_outcomes())
    # The batch reaches every family label, disconnected skeletons and a
    # solved instance for each solver.
    assert {o[0]["family"] for o in outcomes} == {
        "multi-star", "multi-tree", "multi-cycle", "bipartite", "general"}
    assert sum(not o[0]["connected"] for o in outcomes) > 100
    assert all(any(isinstance(o[k], list) for o in outcomes) for k in (4, 5, 6))
    digest = hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()
    assert digest == SKELETON_PIN_SHA256


# Every type `json_text` writes: strings with quotes, backslashes, control and
# non-ASCII characters (a lone surrogate too), and ints far beyond 64 bits.
_DOC_STRINGS = st.text(max_size=6) | st.sampled_from(
    ["", '"', "\\", "\\\"", "\x00\x08\x1f\x7f", "\n\r\t", "é€😀", " \ud800", "/"])
_DOC_SCALARS = (st.none() | st.booleans() | st.integers(-2**70, 2**70)
                | st.integers(-10**300, 10**300) | _DOC_STRINGS)
_DOCUMENTS = st.recursive(
    _DOC_SCALARS,
    lambda kids: (st.lists(kids, max_size=4) | st.lists(kids, max_size=4).map(tuple)
                  | st.dictionaries(_DOC_STRINGS, kids, max_size=4)),
    max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(_DOCUMENTS)
def test_json_text_matches_indented_dumps(doc):
    assert json_text(doc) == json.dumps(doc, indent=2)


@st.composite
def _record_lists(draw):
    """Distinct keys, some holding ``%``, and rows of as many values; a column
    holds ints only, strings only, or any document value."""
    keys = draw(st.lists(_DOC_STRINGS | st.sampled_from(["%", "%s", "%%d"]), min_size=1,
                         max_size=5, unique=True))
    kinds = [draw(st.sampled_from([st.integers(-2**70, 2**70), _DOC_STRINGS, _DOCUMENTS]))
             for _ in keys]
    rows = draw(st.lists(st.tuples(*kinds), max_size=5))
    return tuple(keys), rows


@settings(max_examples=300, deadline=None)
@given(_record_lists(), _DOC_STRINGS)
@example((("envier", "removed_edge", "rhs"), [(0, None, "1/2"), (1, 3, "2")]), "witnesses")
def test_records_text_matches_indented_dumps(records, name):
    # A list of flat records written ahead under a top-level key reads as
    # json.dumps writes the list of dicts; json.dumps itself refuses it.
    keys, rows = records
    doc = {"pass": False, name: model._records_text(keys, iter(rows))}
    reference = {"pass": False, name: [dict(zip(keys, row)) for row in rows]}
    assert json_text(doc) == json.dumps(reference, indent=2)
    if rows:
        with pytest.raises(TypeError):
            json.dumps(doc)


def test_json_text_empty_containers_and_rejected_types():
    doc = {"a": [], "b": {}, "c": [[], {}, ([], {"d": ()})], "": [{"e": {}}]}
    assert json_text(doc) == json.dumps(doc, indent=2)
    for bad in (1.5, Fraction(1, 2), {1, 2}, {1: "one"}, {"k": [0, 0.5]}, [{"k": {(1,)}}],
                {"k": {"x": 1, 2: "y"}}):
        with pytest.raises(TypeError):
            json_text(bad)
