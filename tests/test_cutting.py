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
)
from efx_multigraph.bipartite import efx_completion
from efx_multigraph.cli import main


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
    assert cut(inst, 1, 0) is first
    # A slotted cut still pickles, alone and inside its instance, as the
    # oracle's worker processes need.
    assert not hasattr(first, "__dict__")
    assert pickle.loads(pickle.dumps(first)) == first
    assert pickle.loads(pickle.dumps(inst))._cuts == {(1, 0): first}
    # An equal instance makes its own cut: equal, never shared.
    twin = _pair_instance(values)
    assert twin == inst and cut(twin, 1, 0) == first and cut(twin, 1, 0) is not first
    fresh = _pair_instance(values)
    with pytest.raises(ValueError):
        cut(fresh, 0, 0)
    assert fresh._cuts == {}


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
    kept = dict(inst._cuts)
    assert kept
    twin = load_instance(io.StringIO(instance_to_text(inst)))
    compared = []
    equal = Instance.__eq__
    monkeypatch.setattr(Instance, "__eq__", lambda a, b: compared.append((a, b)) or equal(a, b))
    assert (efx_completion(twin), half_efx_orientation(twin)) == expected
    assert compared == []
    assert inst._cuts.keys() == kept.keys()
    assert all(inst._cuts[k] is cfg for k, cfg in kept.items())
    assert twin._cuts == kept
    assert not any(twin._cuts[k] is cfg for k, cfg in kept.items())


def test_a_solved_instance_is_freed_once_dropped():
    inst = random_instance(12, 36, 4, "bipartite", seed=7)
    result = (efx_completion(inst), half_efx_orientation(inst))
    assert inst._cuts and result
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
