from __future__ import annotations

import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from efx_multigraph import (
    Verdict,
    Witness,
    achieved_alpha,
    bundle_value,
    build_instance,
    check_efx,
    check_envied_singleton,
    envied_set,
    envies,
    is_efx_feasible,
    is_orientation,
    make_allocation,
    random_instance,
    strongly_envies,
)
from efx_multigraph import fairness
from efx_multigraph.fairness import efx_verdict, least_valued_item, value_rows
from efx_multigraph.model import json_text
from reference import json_doc_by_columns


def test_bundle_value_examples(walkthrough):
    # agent 4 on the 9-edge it shares with agent 1 plus the 3-edge it shares with agent 3
    assert bundle_value(walkthrough, 4, {2, 17}) == 12
    assert bundle_value(walkthrough, 3, frozenset()) == 0
    # agent 0 values the (1,4) edges at zero
    assert bundle_value(walkthrough, 0, {1, 2}) == 0
    with pytest.raises(ValueError):
        bundle_value(walkthrough, 0, {99})


def test_envy_examples(walkthrough, stage1_alloc):
    # stage-1 state: agent 4 envies 0 (9 < 10) but not strongly (singleton bundle)
    assert envies(walkthrough, stage1_alloc, 4, 0)
    assert strongly_envies(walkthrough, stage1_alloc, 4, 0) is None
    # nobody envies an empty bundle
    empty = make_allocation(7, [])
    assert not envies(walkthrough, empty, 0, 1)


def test_strongly_envies_needs_a_nonempty_envied_bundle():
    inst = build_instance(2, [(0, 1, 1, 1), (0, 1, 2, 2)])
    # Agent 0 holds nothing and agent 1 both edges: only agent 0 can envy.
    alloc = make_allocation(2, [set(), {0, 1}])
    assert strongly_envies(inst, alloc, 0, 1) is not None
    assert strongly_envies(inst, alloc, 1, 0) is None  # empty target
    # Agent 0 values its own 2-edge above agent 1's 1-edge: no envy.
    assert strongly_envies(inst, make_allocation(2, [{1}, {0}]), 0, 1) is None


def test_strong_envy_witness_ties():
    inst = build_instance(2, [(0, 1, 1, 1), (0, 1, 1, 1)])
    alloc = make_allocation(2, [set(), {0, 1}])
    w = strongly_envies(inst, alloc, 0, 1)
    assert w is not None
    assert w.removed_edge == 0  # tie on value, lowest edge id
    assert w.lhs == 0 and w.rhs == 1


def test_check_efx_examples(walkthrough):
    hoard = make_allocation(7, [set(range(18))])
    verdict = check_efx(walkthrough, hoard)
    assert not verdict.passed
    assert verdict.witnesses[0].envier != 0
    singles = make_allocation(7, [{0}, {1}, {3}, {16}, {2}, {8}, {13}])
    assert check_efx(walkthrough, singles).passed


def test_check_efx_alpha_validation(walkthrough):
    alloc = make_allocation(7, [])
    with pytest.raises(ValueError):
        check_efx(walkthrough, alloc, Fraction(0))
    with pytest.raises(ValueError):
        check_efx(walkthrough, alloc, Fraction(3, 2))


def test_alpha_monotonicity():
    inst = build_instance(2, [(0, 1, 4, 4), (0, 1, 3, 3), (0, 1, 3, 3)])
    alloc = make_allocation(2, [{0}, {1, 2}])
    # agent 0: own 4, rival minus worst = 3 -> EFX at 1
    assert check_efx(inst, alloc, Fraction(1)).passed
    assert check_efx(inst, alloc, Fraction(1, 2)).passed
    skew = make_allocation(2, [{1}, {0, 2}])
    # agent 0: own 3 vs (4+3)-3 = 4 -> fails at 1, passes at 3/4
    assert not check_efx(inst, skew, Fraction(1)).passed
    assert check_efx(inst, skew, Fraction(3, 4)).passed
    assert achieved_alpha(inst, skew, 0) == Fraction(3, 4)
    assert achieved_alpha(inst, skew, 1) == 1


def test_achieved_alpha_rejects_invalid_edge_ids():
    inst = build_instance(2, [(0, 1, 1, 1), (0, 1, 2, 2)])
    for bad in (-1, 2, 9):
        alloc = make_allocation(2, [{0}, {1, bad}])
        # The id bounds are cached after the first call; later calls still raise.
        for agent in (0, 1, 0):
            with pytest.raises(ValueError, match=f"invalid edge id {bad}$"):
                achieved_alpha(inst, alloc, agent)
    assert achieved_alpha(inst, make_allocation(2, []), 0) == 1


def test_is_efx_feasible_examples():
    inst = build_instance(2, [(0, 1, 10, 10), (0, 1, 9, 9)])
    assert is_efx_feasible(inst, 1, [{0}, {1}], 0)
    assert is_efx_feasible(inst, 1, [{0}, {1}], 1)
    assert not is_efx_feasible(inst, 1, [{0, 1}, set()], 1)
    assert is_efx_feasible(inst, 1, [{0, 1}], 0)
    with pytest.raises(ValueError):
        is_efx_feasible(inst, 0, [{0}, {0}], 0)


def test_envied_set_examples(walkthrough, stage1_alloc):
    assert envied_set(walkthrough, stage1_alloc) == {0, 1}
    assert envied_set(walkthrough, make_allocation(7, [])) == set()


def test_envied_set_documented_stage2_state(walkthrough, stage2_doc_alloc):
    # In the documented stage-2 snapshot agent 4 holds the 9-edge and the 3-edge
    # (value 12), so it no longer envies agents 0 or 1: the snapshot's own values
    # leave nobody envied, which is why that snapshot is not a stage-2 fixpoint.
    assert envied_set(walkthrough, stage2_doc_alloc) == set()


def test_documented_walkthrough_allocations_verify(walkthrough):
    # The walkthrough's published end states are valid even though the solver's
    # own stage-2 fixpoint differs: the pre-completion state is an EFX
    # orientation and the completed allocation is EFX at alpha = 1.
    from conftest import FINAL_DOCUMENTED, STAGE3_DOCUMENTED

    stage3 = make_allocation(7, STAGE3_DOCUMENTED)
    assert check_efx(walkthrough, stage3).passed
    final = make_allocation(7, FINAL_DOCUMENTED)
    assert check_efx(walkthrough, final).passed
    # the leftover absorber sits exactly at its safe-set bound: 10 >= 5 + 5
    assert bundle_value(walkthrough, 0, final.bundles[4]) == 10
    assert bundle_value(walkthrough, 0, final.bundles[0]) == 10


def test_envied_singleton_check(walkthrough, stage1_alloc):
    verdict = check_envied_singleton(walkthrough, stage1_alloc)
    assert verdict.passed
    from efx_multigraph import enviers_of

    assert enviers_of(walkthrough, stage1_alloc, 0) == [4]
    assert enviers_of(walkthrough, stage1_alloc, 1) == [4]
    with pytest.raises(ValueError):
        check_envied_singleton(walkthrough, make_allocation(7, [{8}]))  # not an orientation


def test_envied_singleton_rejects_non_efx():
    inst = build_instance(2, [(0, 1, 1, 1), (0, 1, 1, 1), (0, 1, 1, 1)])
    bad = make_allocation(2, [{0, 1, 2}, set()])
    with pytest.raises(ValueError, match="not EFX"):
        check_envied_singleton(inst, bad)


def test_singletons_always_pass():
    inst = build_instance(3, [(0, 1, 5, 7), (1, 2, 2, 9), (0, 2, 4, 1)])
    alloc = make_allocation(3, [{0}, {1}, {2}])
    assert check_efx(inst, alloc).passed


def _check_efx_all_pairs(inst, alloc, alpha=Fraction(1)):
    """Independent reference: the literal definition over every ordered pair."""
    for i in range(inst.n):
        own = bundle_value(inst, i, alloc.bundles[i])
        for j in range(inst.n):
            if i == j:
                continue
            for g in alloc.bundles[j]:
                rest = bundle_value(inst, i, alloc.bundles[j] - {g})
                if own < alpha * rest:
                    return False
    return True


def _witnesses_by_definition(inst, alloc, alpha):
    """Reference witnesses: per failing ordered pair (i, j), in ascending order, j's
    item that i values least (ties to the lowest id), i's own value and alpha times
    the rest of j's bundle, all from ``bundle_value``."""
    out = []
    for i in range(inst.n):
        own = bundle_value(inst, i, alloc.bundles[i])
        for j in range(inst.n):
            if i == j or not alloc.bundles[j]:
                continue
            g = min(alloc.bundles[j], key=lambda e: (inst.edges[e].value_for(i), e))
            rest = alpha * bundle_value(inst, i, alloc.bundles[j] - {g})
            if own < rest:
                out.append(Witness(i, j, g, own, rest))
    return out


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.booleans())
def test_orientation_fast_path_matches_definition(seed, orient_only):
    import random

    from hypothesis import assume

    rng = random.Random(seed)
    n = rng.randint(2, 6)
    m = rng.randint(1, 10)
    try:
        inst = random_instance(n, m, 4, "bipartite", num_max=12, den_max=3, seed=seed)
    except Exception:
        assume(False)
        return
    bundles = [set() for _ in range(n)]
    for e in inst.edges:
        if orient_only:
            bundles[rng.choice([e.u, e.v])].add(e.id)
        elif rng.random() < 0.8:
            bundles[rng.randrange(n)].add(e.id)
    alloc = make_allocation(n, bundles)
    for alpha in (Fraction(1), Fraction(1, 2)):
        verdict = check_efx(inst, alloc, alpha)
        assert verdict.passed == _check_efx_all_pairs(inst, alloc, alpha)
        assert list(verdict.witnesses) == _witnesses_by_definition(inst, alloc, alpha)


@given(st.lists(st.integers(1, 3), min_size=13, max_size=13),
       st.sets(st.integers(0, 12)), st.sets(st.integers(13, 20)))
def test_least_valued_item_matches_min(values, on_edges, off_edges):
    # Ids 0-12 are the viewer's edges, with many tied weights; ids 13-20 are
    # off its edges and weigh 0.
    weights = dict(enumerate(values))
    bundle = on_edges | off_edges
    if not bundle:
        return
    g = min(bundle, key=lambda e: (weights.get(e, 0), e))
    assert least_valued_item(weights, sorted(bundle)) == (g, weights.get(g, 0))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.booleans())
def test_tie_breaks_match_definition(seed, orient_only):
    # Small integer weights tie often, so the least-valued item of a bundle is
    # often one of several; every verifier must pick the lowest id.
    import random

    from hypothesis import assume

    rng = random.Random(seed)
    n = rng.randint(2, 6)
    m = rng.randint(1, 12)
    try:
        inst = random_instance(n, m, 4, "bipartite", num_max=3, den_max=1, seed=seed)
    except Exception:
        assume(False)
        return
    bundles = [set() for _ in range(n)]
    for e in inst.edges:
        if orient_only:
            bundles[rng.choice([e.u, e.v])].add(e.id)
        elif rng.random() < 0.8:
            bundles[rng.randrange(n)].add(e.id)
    alloc = make_allocation(n, bundles)
    for alpha in (Fraction(1), Fraction(1, 2)):
        assert list(check_efx(inst, alloc, alpha).witnesses) == _witnesses_by_definition(inst, alloc, alpha)
    by_pair = {(w.envier, w.envied): w for w in _witnesses_by_definition(inst, alloc, Fraction(1))}
    for i in range(n):
        for j in range(n):
            if i != j:
                assert strongly_envies(inst, alloc, i, j) == by_pair.get((i, j))
        ratios = [w.lhs / w.rhs for (envier, _), w in by_pair.items() if envier == i]
        assert achieved_alpha(inst, alloc, i) == min(ratios, default=Fraction(1))


ALPHAS = (Fraction(1), Fraction(1, 2), Fraction(2, 3), Fraction(5, 7))


def _document_from_witnesses(verdict):
    """``to_json`` as it reads through ``.witnesses`` and ``str(Fraction)``."""
    return {"pass": verdict.passed, "alpha": str(verdict.alpha),
            "witnesses": [{"envier": w.envier, "envied": w.envied, "removed_edge": w.removed_edge,
                           "lhs": str(w.lhs), "rhs": str(w.rhs)} for w in verdict.witnesses]}


def test_verdict_text_reduces_each_value():
    # Agent 0 (scale 2) holds nothing of its own and envies agent 1's three
    # halves; agent 2 holds its 1-edge and envies agent 0's two 3-edges.
    inst = build_instance(3, [(0, 1, "1/2", 1)] * 3 + [(1, 2, 3, 3)] * 2 + [(1, 2, 1, 1)])
    alloc = make_allocation(3, [{3, 4}, {0, 1, 2}, {5}])
    rhs = {Fraction(1): ("1", "3"), Fraction(1, 2): ("1/2", "3/2"),
           Fraction(2, 3): ("2/3", "2"), Fraction(5, 7): ("5/7", "15/7")}
    for alpha, (rhs0, rhs2) in rhs.items():
        verdict = check_efx(inst, alloc, alpha)
        assert verdict.records == ((0, 1, 0, 0, 2, 2 * alpha.numerator, 2 * alpha.denominator),
                                   (2, 0, 3, 1, 1, 3 * alpha.numerator, alpha.denominator))
        assert verdict.to_json()["witnesses"] == [
            {"envier": 0, "envied": 1, "removed_edge": 0, "lhs": "0", "rhs": rhs0},
            {"envier": 2, "envied": 0, "removed_edge": 3, "lhs": "1", "rhs": rhs2}]
        assert verdict.to_json() == _document_from_witnesses(verdict)
        _assert_text_path_matches(verdict)
        assert verdict.witnesses is verdict.witnesses
        assert repr(verdict) == (f"Verdict(passed=False, witnesses={verdict.witnesses!r}, "
                                 f"alpha={alpha!r})")


def _assert_text_path_matches(verdict, orientation=None):
    """``json_text`` of ``_json_doc()``, whose witness array is written ahead,
    equals the text of ``to_json()`` and of ``json.dumps(..., indent=2)``; with
    ``orientation``, both documents get ``is_orientation`` as ``verify`` adds it."""
    fast, slow = verdict._json_doc(), verdict.to_json()
    if orientation is not None:
        for doc in (fast, slow):
            doc["is_orientation"] = orientation
            doc["pass"] = doc["pass"] and orientation
    assert json_text(fast) == json_text(slow) == json.dumps(slow, indent=2)


@st.composite
def _small_allocations(draw):
    """An instance of small weights, ties and whole numbers likely, and an
    allocation that may leave edges unheld and agents empty-handed."""
    n = draw(st.integers(2, 5))
    ratio = st.tuples(st.integers(1, 4), st.integers(1, 3)).map(lambda r: f"{r[0]}/{r[1]}")
    specs = []
    for _ in range(draw(st.integers(1, 10))):
        u = draw(st.integers(0, n - 1))
        v = (u + draw(st.integers(1, n - 1))) % n
        specs.append((u, v, draw(ratio), draw(ratio)))
    inst = build_instance(n, specs)
    holders = draw(st.lists(st.integers(-1, n - 1), min_size=inst.m, max_size=inst.m))
    alloc = make_allocation(n, [{e for e, h in enumerate(holders) if h == k} for k in range(n)])
    ends = draw(st.lists(st.booleans(), min_size=inst.m, max_size=inst.m))
    oriented = [set() for _ in range(n)]
    for e, first in zip(inst.edges, ends):
        oriented[e.u if first else e.v].add(e.id)
    return inst, alloc, make_allocation(n, oriented)


@settings(max_examples=150, deadline=None)
@given(_small_allocations(), st.sampled_from(ALPHAS))
def test_verdict_text_matches_its_witnesses(drawn, alpha):
    inst, alloc, orientation = drawn
    verdict = check_efx(inst, alloc, alpha)
    assert verdict.to_json() == _document_from_witnesses(verdict)
    assert list(verdict.witnesses) == _witnesses_by_definition(inst, alloc, alpha)
    # Rows in another key order give the same records, sorted.
    rows = [dict(reversed(row.items())) for row in value_rows(inst, alloc)]
    assert efx_verdict(inst, rows, alloc.bundles, alpha) == verdict
    try:
        singleton = check_envied_singleton(inst, orientation)
    except ValueError:  # not an EFX orientation
        return
    assert singleton.to_json() == _document_from_witnesses(singleton)
    _assert_text_path_matches(singleton)


@settings(max_examples=150, deadline=None)
@given(_small_allocations(), st.sampled_from(ALPHAS[:3]))
def test_witness_text_matches_to_json(drawn, alpha):
    # verify writes its witness array through one template per witness; the
    # text must be that of the to_json() document, for passing and failing
    # verdicts, with and without --orientation's key.
    inst, alloc, orientation = drawn
    for held in (alloc, orientation):
        verdict = check_efx(inst, held, alpha)
        for flag in (None, is_orientation(inst, held)):
            _assert_text_path_matches(verdict, flag)


_record = st.tuples(st.integers(0, 4), st.integers(0, 4), st.none() | st.integers(0, 9),
                    st.integers(0, 12), st.integers(1, 6), st.integers(1, 12), st.integers(1, 6))


@given(st.lists(_record, max_size=8))
@example([(0, 1, None, 2, 4, 6, 2), (0, 3, 5, 2, 4, 7, 1)])
def test_records_text_matches_witnesses(records):
    # check_envied_singleton's records name no removed edge when an agent has
    # two enviers; an EFX orientation never has one, so draw such records here.
    verdict = Verdict(not records, tuple(records))
    assert verdict.to_json() == _document_from_witnesses(verdict)
    for flag in (None, False, True):
        _assert_text_path_matches(verdict, flag)
    assert [(w.lhs, w.rhs) for w in verdict.witnesses] == [
        (Fraction(lp, lq), Fraction(rp, rq)) for _, _, _, lp, lq, rp, rq in records]


# A witness's values as verdicts hold them: an lhs drawn from a few, so that
# runs of equal lhs occur, and denominators up to the 64 digits of the anchor's
# common scales; a removed edge may be None, as check_envied_singleton writes.
_LONG = st.integers(10**63, 10**64 - 1)
_lhs = st.sampled_from([(0, 1), (3, 6), (5, 10**63), (7, 2)]) | st.tuples(
    st.integers(0, 12), st.integers(1, 6) | _LONG)
_long_records = st.builds(lambda ends, g, lhs, rhs: (*ends, g, *lhs, *rhs),
                          st.tuples(st.integers(0, 4), st.integers(0, 4)),
                          st.none() | st.integers(0, 999), _lhs,
                          st.tuples(st.integers(0, 10**65), st.integers(1, 6) | _LONG))


@settings(max_examples=200, deadline=None)
@given(st.lists(_long_records, max_size=12), st.sampled_from(ALPHAS[:3]))
@example([], Fraction(1))
@example([(0, 1, None, 5, 10**63, 10**64 - 1, 10**63), (0, 2, 4, 5, 10**63, 6, 3)], Fraction(2, 3))
def test_witness_template_matches_column_writer(records, alpha):
    # verify's witness array, one fixed template per witness, reads as the
    # generic writer of flat records wrote it and as json.dumps writes to_json().
    verdict = Verdict(not records, tuple(records), alpha)
    want = json.dumps(verdict.to_json(), indent=2)
    assert json_text(verdict._json_doc()) == json_text(json_doc_by_columns(verdict)) == want
    for flag in (None, False, True):
        _assert_text_path_matches(verdict, flag)


def test_witness_text_reduces_each_lhs_once_per_run(monkeypatch):
    # Writing the 128/1000 anchor's witness array takes one gcd per run of
    # equal lhs and one per record, however long the denominators.
    inst = random_instance(128, 1000, 4, "bipartite", seed=3)
    rng = random.Random(3)
    bundles = [set() for _ in range(inst.n)]
    for e in inst.edges:
        bundles[rng.randrange(inst.n)].add(e.id)
    verdict = check_efx(inst, make_allocation(inst.n, bundles))
    records = verdict.records
    runs = 1 + sum(a[3:5] != b[3:5] for a, b in zip(records, records[1:]))
    calls = []

    def counting_gcd(a, b):
        calls.append((a, b))
        return math.gcd(a, b)

    monkeypatch.setattr(fairness, "gcd", counting_gcd)
    json_text(verdict._json_doc())
    assert (runs, len(records)) == (128, 1805)
    assert len(calls) == runs + len(records)
