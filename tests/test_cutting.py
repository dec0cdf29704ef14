from __future__ import annotations

import gc
import importlib
import io
import pickle
import pkgutil
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import efx_multigraph
from efx_multigraph import (
    Instance,
    build_instance,
    cut,
    half_efx_orientation,
    instance_to_text,
    is_efx_feasible,
    load_instance,
    preferred_bundle,
    random_instance,
    solve_multicycle,
    solve_multistar,
    two_coloring,
)
from efx_multigraph.bipartite import efx_completion
from efx_multigraph.cli import main
from efx_multigraph.cutting import CutConfig
from efx_multigraph.derived import AllocationState
from reference import cut_by_two_passes


def _pair_instance(values):
    return build_instance(2, [(0, 1, w, w) for w in values])


def test_cut_two_items():
    inst = _pair_instance([Fraction(10), Fraction(9)])
    cfg = cut(inst, 1, 0)
    assert cfg.c1 == {0} and cfg.c2 == {1}


def test_cut_empty_pair():
    inst = build_instance(3, [(0, 1, 1, 1)])
    cfg = cut(inst, 2, 0)
    assert cfg.c1 == frozenset() and cfg.c2 == frozenset()


def test_cut_balances_6543():
    inst = _pair_instance([Fraction(6), Fraction(5), Fraction(4), Fraction(3)])
    cfg = cut(inst, 0, 1)
    assert cfg.c1 == {0, 3}  # 6 then 3
    assert cfg.c2 == {1, 2}  # 5 then 4


def test_cut_tie_breaking_by_edge_id():
    inst = _pair_instance([Fraction(2), Fraction(2), Fraction(2)])
    cfg = cut(inst, 0, 1)
    assert cfg.c1 == {0, 2}
    assert cfg.c2 == {1}


def test_cut_determinism():
    values = [Fraction(7, 3), Fraction(7, 3), Fraction(1, 2), Fraction(5)]
    inst = _pair_instance(values)
    first = cut(inst, 1, 0)
    # ``cut`` keeps nothing: a repeated call, and a call on an equal twin, make
    # an equal cut.
    assert cut(inst, 1, 0) == first
    twin = _pair_instance(values)
    assert twin == inst and cut(twin, 1, 0) == first
    # A cut is a tuple with no instance dict.  It still pickles, as the
    # oracle's worker processes need, and its copy's views name the copy's own
    # halves: both ends prefer c2 (31 of 61 sixths).
    assert not hasattr(first, "__dict__")
    copy = pickle.loads(pickle.dumps(first))
    assert copy == first
    assert copy.cutter_view == copy.other_view == (copy.c2, 31, 61)
    assert copy.cutter_view[0] is copy.c2 is copy.other_view[0]
    with pytest.raises(ValueError):
        cut(inst, 0, 0)


def test_cut_rejects_same_agent():
    inst = _pair_instance([Fraction(1)])
    with pytest.raises(ValueError):
        cut(inst, 0, 0)


def test_reparsed_twin_gives_identical_cli_output(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(instance_to_text(random_instance(16, 60, 4, "bipartite", seed=3)))
    outs = []
    # Each run reads the file anew, so the second round solves an equal twin.
    for _ in range(2):
        for argv in (["solve", str(path)], ["orient", str(path), "--method", "half-efx"]):
            assert main(argv) == 0
            outs.append(capsys.readouterr().out)
    assert outs[0] and outs[1] and outs[:2] == outs[2:]


def test_reparsed_twin_shares_no_cut_state(monkeypatch):
    inst = random_instance(32, 150, 4, "bipartite", seed=3)
    expected = (efx_completion(inst), half_efx_orientation(inst))
    twin = load_instance(io.StringIO(instance_to_text(inst)))
    compared = []
    equal = Instance.__eq__
    monkeypatch.setattr(Instance, "__eq__", lambda a, b: compared.append((a, b)) or equal(a, b))
    assert (efx_completion(twin), half_efx_orientation(twin)) == expected
    assert compared == []


def test_a_solved_instance_is_freed_once_dropped():
    inst = random_instance(12, 36, 4, "bipartite", seed=7)
    result = (efx_completion(inst), half_efx_orientation(inst))
    assert result
    ref = weakref.ref(inst)
    del inst, result
    gc.collect()
    assert ref() is None


def test_no_module_keeps_a_cache():
    """Every module-level name is free of ``cache_clear``: a call's cached state
    lives on its own instance, so each run starts as a fresh process would."""
    for info in pkgutil.iter_modules(efx_multigraph.__path__):
        if info.name != "__main__":
            module = importlib.import_module(f"efx_multigraph.{info.name}")
            assert [name for name, attr in vars(module).items()
                    if callable(getattr(attr, "cache_clear", None))] == []


def test_preferred_bundle_tie_goes_to_c1():
    inst = _pair_instance([Fraction(4), Fraction(4)])
    cfg = cut(inst, 1, 0)
    assert preferred_bundle(inst, 0, cfg) == cfg.c1


def test_preferred_bundle_of_an_agent_off_the_pair_is_c1():
    # Cut by 0: c1 = {1} (2 against 1).  Agent 1 prefers c2 (5 against 1);
    # agent 2 values both halves at 0, so it takes c1.
    inst = build_instance(3, [(0, 1, 1, 5), (0, 1, 2, 1), (1, 2, 1, 1)])
    cfg = cut(inst, 0, 1)
    assert (cfg.c1, cfg.c2) == ({1}, {0})
    assert preferred_bundle(inst, 1, cfg) == cfg.c2
    assert preferred_bundle(inst, 2, cfg) == cfg.c1


# Everything an ``Instance`` may keep: its fields and its index, built on first use.
INDEX_KEYS = {"n", "edges", "_pair_edges", "neighbours", "component_depths", "_valuation",
              "scales", "weights"}


def test_an_instance_keeps_only_its_index():
    """No solver leaves per-solve state, such as a cut, on the instance it solved."""
    runs = [(efx_completion, random_instance(32, 150, 4, "bipartite", seed=3)),
            (half_efx_orientation, random_instance(16, 60, 4, "bipartite", seed=5)),
            (solve_multistar, random_instance(9, 20, 3, "star", seed=1))]
    runs += [(solve_multicycle, random_instance(n, 2 * n, 3, "cycle", num_max=9, den_max=3, seed=s))
             for n in (5, 6, 7) for s in range(3)]
    for solve, inst in runs:
        assert solve(inst)
        assert set(vars(inst)) <= INDEX_KEYS, solve.__name__


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=1, max_value=60),
                          st.integers(min_value=1, max_value=9)),
                min_size=0, max_size=12))
def test_cut_halves_are_feasible_and_balanced(raw):
    values = [Fraction(a, b) for a, b in raw]
    if not values:
        inst = build_instance(2, [])
    else:
        inst = _pair_instance(values)
    cfg = cut(inst, 0, 1)
    assert cfg.c1 | cfg.c2 == frozenset(range(len(values)))
    assert not cfg.c1 & cfg.c2
    assert is_efx_feasible(inst, 0, [cfg.c1, cfg.c2], 0)
    assert is_efx_feasible(inst, 0, [cfg.c1, cfg.c2], 1)
    if values:
        v1 = sum((inst.edges[e].wu for e in cfg.c1), Fraction(0))
        v2 = sum((inst.edges[e].wu for e in cfg.c2), Fraction(0))
        assert abs(v1 - v2) <= max(values)


def _assert_cut_matches_reference(inst, cutter, other):
    got, ref = cut(inst, cutter, other), cut_by_two_passes(inst, cutter, other)
    assert got == ref, (cutter, other)
    assert (got.cutter, got.other) == (cutter, other)
    # Each view names one of its own cut's halves, the same one as the reference's.
    for mine, theirs in ((got.cutter_view, ref.cutter_view), (got.other_view, ref.other_view)):
        assert mine[0] is (got.c1 if theirs[0] is ref.c1 else got.c2), (cutter, other)


# Small weights, so that ties, within an end and across the halves, are common.
_WEIGHTS = st.sampled_from([Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2), Fraction(3, 2)])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_WEIGHTS, _WEIGHTS), min_size=0, max_size=9),
       st.lists(st.tuples(_WEIGHTS, _WEIGHTS), min_size=0, max_size=2))
def test_cut_matches_the_two_pass_reference(pair, side):
    # Agents 0 and 1 share `pair` (none, one or several edges); agents 1 and 2
    # share `side`; agents 0 and 2 share nothing, so their cut has empty halves.
    inst = build_instance(3, [(0, 1, a, b) for a, b in pair] + [(1, 2, a, b) for a, b in side])
    for cutter in range(3):
        for other in range(3):
            if cutter != other:
                _assert_cut_matches_reference(inst, cutter, other)


def test_cut_matches_the_reference_on_every_pair_of_seeded_draws():
    insts = [random_instance(8, 20, 4, "bipartite", symmetric=s % 2 == 0,
                             den_max=(1, 8, 1000)[s % 3], seed=s) for s in range(6)]
    insts += [random_instance(16, 60, 4, "bipartite", seed=3),
              random_instance(32, 40, 2, "bipartite", num_max=3, den_max=1, seed=4)]
    for inst in insts:
        for a, b in inst._pair_edges:
            _assert_cut_matches_reference(inst, a, b)
            _assert_cut_matches_reference(inst, b, a)


def test_one_edge_pairs_build_no_set():
    # A sparse draw: most pairs have one edge.  Their cuts keep the index's own
    # id set as c1 and share one empty frozenset as c2, whichever end cuts.
    inst = random_instance(32, 40, 4, "bipartite", seed=4)
    single = [pair for pair, ids in inst._pair_edges.items() if len(ids) == 1]
    assert len(single) > len(inst._pair_edges) // 2
    empty = cut(inst, *single[0]).c2
    assert empty == frozenset()
    s_side, t_side = two_coloring(inst)
    for parts in ((s_side, t_side), (t_side, s_side)):
        state = AllocationState(inst, parts)
        for a, b in single:
            cfg = state.pair_cut(a, b)
            assert cfg.c1 is inst._pair_edges[(a, b)]
            assert cfg.c2 is empty
            assert cfg.cutter_view[0] is cfg.other_view[0] is cfg.c1


def test_a_cut_is_an_immutable_tuple_built_from_keywords():
    inst = _pair_instance([Fraction(3), Fraction(2), Fraction(2)])
    cfg = cut(inst, 0, 1)
    for field in CutConfig._fields:
        with pytest.raises(AttributeError):
            setattr(cfg, field, None)
    built = CutConfig(cutter=0, c1=cfg.c1, c2=cfg.c2, other=1,
                      cutter_view=cfg.cutter_view, other_view=cfg.other_view)
    assert built == cfg and type(built) is CutConfig
    assert CutConfig._fields == ("cutter", "c1", "c2", "other", "cutter_view", "other_view")
