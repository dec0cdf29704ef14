from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from efx_multigraph import (
    achieved_alpha,
    build_instance,
    cli,
    complete_efx,
    half_efx_orientation,
    oracle,
    p4_qn,
    random_instance,
    running_example,
    save_instance,
    solve_multicycle,
    solve_multistar,
    solve_multitree_d4_q2,
)
from efx_multigraph.bipartite import efx_completion
from efx_multigraph.cli import main
from efx_multigraph.model import MAX_AGENTS, allocation_to_json, instance_to_text


def run_cli(capsys, argv, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_gen_pipe_decide(capsys, monkeypatch):
    code, doc = run_cli(capsys, ["gen", "--family", "c4-counter"])
    assert code == 0
    code, verdict = run_cli(capsys, ["decide", "--target", "orientation"],
                            stdin_text=json.dumps(doc), monkeypatch=monkeypatch)
    assert code == 0
    assert verdict["exists"] is False
    assert verdict["state_space"] == 256


def test_solve_then_verify_roundtrip(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    save_instance(running_example(), inst_path)
    code, alloc_doc = run_cli(capsys, ["solve", str(inst_path), "--method", "bipartite"])
    assert code == 0
    alloc_path = tmp_path / "alloc.json"
    alloc_path.write_text(json.dumps(alloc_doc))
    code, verdict = run_cli(capsys, ["verify", str(inst_path), str(alloc_path)])
    assert code == 0
    assert verdict["pass"] is True


def test_solve_trace_embeds_snapshots(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    save_instance(running_example(), inst_path)
    code, doc = run_cli(capsys, ["solve", str(inst_path), "--trace"])
    assert code == 0
    assert set(doc["trace"]["snapshots"]) == {"greedy", "saturate", "safe", "final"}
    assert doc["trace"]["flags"]["safe"]["p5"] is True


def test_solve_trace_for_every_method(tmp_path, capsys):
    tree = random_instance(7, 10, 2, "tree", seed=3)
    even = random_instance(6, 10, 3, "cycle", seed=2)
    triangle = random_instance(3, 5, 2, "cycle", seed=1)
    cases = [(random_instance(5, 7, 2, "star", seed=0), "star"), (tree, "tree4"),
             (random_instance(5, 9, 3, "cycle", seed=2), "cycle"), (even, "cycle"),
             (triangle, "cycle"), (triangle, "auto"), (running_example(), "auto")]
    traces = []
    for k, (inst, method) in enumerate(cases):
        path = tmp_path / f"inst{k}.json"
        save_instance(inst, path)
        _, untraced = run_cli(capsys, ["solve", str(path), "--method", method])
        code, doc = run_cli(capsys, ["solve", str(path), "--method", method, "--trace"])
        assert code == 0, (k, method)
        assert set(doc) == {"bundles", "trace"}
        assert doc["bundles"] == untraced["bundles"]
        assert set(doc["trace"]) == {"snapshots", "flags", "events"}
        assert doc["trace"]["snapshots"]["final"] == doc["bundles"]
        traces.append(doc["trace"])
    star, tree_trace, odd, even_trace, *fallbacks, pipeline = traces
    for trace in (star, odd, *fallbacks):
        assert trace == {"snapshots": {"final": trace["snapshots"]["final"]}, "flags": {}, "events": []}
    steps = [name.split()[0] for name in tree_trace["snapshots"]]
    assert steps[0] == "center" and set(steps[1:-1]) == {"attach"} and steps[-1] == "final"
    assert even_trace == json.loads(json.dumps(complete_efx(even)[1].to_json()))
    assert pipeline == json.loads(json.dumps(complete_efx(running_example())[1].to_json()))


def test_verify_failure_exit_code(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    save_instance(build_instance(2, [(0, 1, 2, 2), (0, 1, 1, 1)]), inst_path)
    alloc_path = tmp_path / "alloc.json"
    alloc_path.write_text('{"bundles": [[0, 1], []]}')
    code, verdict = run_cli(capsys, ["verify", str(inst_path), str(alloc_path)])
    assert code == 2
    assert verdict["pass"] is False
    assert verdict["witnesses"][0]["envier"] == 1


def test_verify_orientation_flag(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    save_instance(build_instance(3, [(0, 1, 2, 2)]), inst_path)
    alloc_path = tmp_path / "alloc.json"
    alloc_path.write_text('{"bundles": [[], [], [0]]}')  # wasteful but EFX
    code, verdict = run_cli(capsys, ["verify", str(inst_path), str(alloc_path)])
    assert code == 0
    code, verdict = run_cli(capsys, ["verify", str(inst_path), str(alloc_path), "--orientation"])
    assert code == 2
    assert verdict["is_orientation"] is False


def test_verify_custom_alpha(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    save_instance(build_instance(2, [(0, 1, 4, 4), (0, 1, 3, 3), (0, 1, 3, 3)]), inst_path)
    alloc_path = tmp_path / "alloc.json"
    alloc_path.write_text('{"bundles": [[1], [0, 2]]}')
    code, _ = run_cli(capsys, ["verify", str(inst_path), str(alloc_path)])
    assert code == 2
    code, verdict = run_cli(capsys, ["verify", str(inst_path), str(alloc_path), "--alpha", "3/4"])
    assert code == 0
    assert verdict["alpha"] == "3/4"
    # --alpha takes the p or p/q form of instance weights, in ASCII digits.
    for alpha in ("0.5", "\u0661/\u0662"):
        _error_exit(capsys, ["verify", str(inst_path), str(alloc_path), "--alpha", alpha])


def test_decide_budget_exit(capsys, monkeypatch):
    inst = build_instance(2, [(0, 1, 1, 1)] * 6)
    code, _ = run_cli(capsys, ["decide", "--target", "orientation", "--budget", "10"],
                      stdin_text=instance_to_text(inst), monkeypatch=monkeypatch)
    assert code == 3


def test_decide_budget_env_override(capsys, monkeypatch):
    monkeypatch.setenv("EFX_ORACLE_BUDGET", "10")
    inst = build_instance(2, [(0, 1, 1, 1)] * 6)
    code, _ = run_cli(capsys, ["decide", "--target", "orientation"],
                      stdin_text=instance_to_text(inst), monkeypatch=monkeypatch)
    assert code == 3


def test_budget_env_must_be_an_integer(capsys, monkeypatch):
    monkeypatch.setenv("EFX_ORACLE_BUDGET", "abc")
    inst = build_instance(2, [(0, 1, 1, 1)])
    monkeypatch.setattr("sys.stdin", io.StringIO(instance_to_text(inst)))
    assert main(["decide", "--target", "orientation"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: EFX_ORACLE_BUDGET must be an integer, got 'abc'\n"


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_budget_below_one_is_a_usage_error(tmp_path, capsys, monkeypatch, budget):
    triangle = tmp_path / "triangle.json"
    save_instance(random_instance(3, 4, 2, "cycle", seed=1), triangle)
    for argv in (["solve", str(triangle)], ["decide", str(triangle), "--target", "allocation"]):
        for extra, env, name in ((["--budget", budget], None, "--budget"),
                                 ([], budget, "EFX_ORACLE_BUDGET")):
            if env is None:
                monkeypatch.delenv("EFX_ORACLE_BUDGET", raising=False)
            else:
                monkeypatch.setenv("EFX_ORACLE_BUDGET", env)
            assert main(argv + extra) == 1, (argv, name)
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {name} must be at least 1, got {budget}\n"


def test_budget_env_is_read_only_where_the_oracle_runs(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("EFX_ORACLE_BUDGET", "abc")
    star = tmp_path / "star.json"
    save_instance(random_instance(5, 7, 2, "star", seed=0), star)
    for method in ("bipartite", "star", "tree4"):
        code, doc = run_cli(capsys, ["solve", str(star), "--method", method])
        assert code == 0 and doc is not None, method
    triangle = tmp_path / "triangle.json"
    save_instance(random_instance(3, 4, 2, "cycle", seed=1), triangle)
    for argv in (["solve", str(triangle)], ["decide", str(triangle), "--target", "allocation"]):
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: EFX_ORACLE_BUDGET must be an integer, got 'abc'\n"


# SHA-256 over the exit code, stdout and stderr of the default solve of each
# instance below, recorded when that route still built a full structure report.
AUTO_ROUTE_SHA256 = "6e9c31214a982ceba47bd7b73a1804133e45488aa33bdb6c49ce74c06c4ea84c"


def test_auto_route_computes_no_diameter(tmp_path, capsys, monkeypatch):
    def forbidden(*args):
        raise AssertionError("solve --method auto computed a diameter or a longest path")

    monkeypatch.setattr("efx_multigraph.model._center", forbidden)
    monkeypatch.setattr("efx_multigraph.model._longest_simple_path", forbidden)
    cases = [
        (running_example(), 0),                                 # bipartite
        (random_instance(5, 9, 3, "cycle", seed=2), 0),         # odd cycle
        (random_instance(3, 5, 2, "cycle", seed=1), 0),         # triangle: the oracle
        (build_instance(4, [(0, 1, 1, 1), (1, 2, 1, 1), (0, 2, 1, 1), (2, 3, 1, 1)]), 4),
    ]
    digest = hashlib.sha256()
    for k, (inst, expected) in enumerate(cases):
        path = tmp_path / f"inst{k}.json"
        save_instance(inst, path)
        code = main(["solve", str(path)])
        captured = capsys.readouterr()
        assert code == expected, k
        digest.update(json.dumps([code, captured.out, captured.err]).encode())
    assert digest.hexdigest() == AUTO_ROUTE_SHA256


def test_solve_matches_the_pipeline(tmp_path, capsys):
    # Untraced solves must give complete_efx's bundles, and a traced solve its
    # whole trace, under both methods that run the pipeline.
    for seed in range(50):
        n = 3 + seed % 6
        inst = random_instance(n, n + 1 + seed % 4, 4, "bipartite", den_max=9, seed=seed)
        path = tmp_path / f"inst{seed}.json"
        save_instance(inst, path)
        alloc, trace = complete_efx(inst)
        bundles = [sorted(b) for b in alloc.bundles]
        expected_trace = json.loads(json.dumps(trace.to_json()))
        for method in ("bipartite", "auto"):
            code, doc = run_cli(capsys, ["solve", str(path), "--method", method])
            assert code == 0
            assert doc == {"bundles": bundles}
            code, doc = run_cli(capsys, ["solve", str(path), "--method", method, "--trace"])
            assert code == 0
            assert doc["bundles"] == bundles
            assert doc["trace"] == expected_trace


def test_decide_count_requires_orientation(capsys, monkeypatch):
    inst = build_instance(2, [(0, 1, 1, 1)])
    code, _ = run_cli(capsys, ["decide", "--target", "allocation", "--count"],
                      stdin_text=instance_to_text(inst), monkeypatch=monkeypatch)
    assert code == 1


def test_method_structure_mismatch_exit(capsys, monkeypatch):
    path = build_instance(4, [(0, 1, 1, 1), (1, 2, 1, 1), (2, 3, 1, 1)])
    code, _ = run_cli(capsys, ["solve", "--method", "star"],
                      stdin_text=instance_to_text(path), monkeypatch=monkeypatch)
    assert code == 4


def test_auto_rejects_general_graphs(capsys, monkeypatch):
    general = build_instance(4, [(0, 1, 1, 1), (1, 2, 1, 1), (0, 2, 1, 1), (2, 3, 1, 1)])
    code, _ = run_cli(capsys, ["solve"],
                      stdin_text=instance_to_text(general), monkeypatch=monkeypatch)
    assert code == 4


def test_auto_routes_odd_cycle(capsys, monkeypatch):
    pairs = []
    for i in range(5):
        j = (i + 1) % 5
        pairs += [(min(i, j), max(i, j), 2, 2), (min(i, j), max(i, j), 1, 1)]
    inst = build_instance(5, pairs)
    code, doc = run_cli(capsys, ["solve"], stdin_text=instance_to_text(inst),
                        monkeypatch=monkeypatch)
    assert code == 0
    assert sum(len(b) for b in doc["bundles"]) == inst.m


def test_cycle_method_on_a_path_exits_structure(capsys, monkeypatch):
    # Three agents but two pairs: not a triangle, so no exhaustive fallback.
    path = build_instance(3, [(0, 1, 1, 2), (1, 2, 3, 1), (1, 2, 1, 1)])
    monkeypatch.setattr("sys.stdin", io.StringIO(instance_to_text(path)))
    assert main(["solve", "--method", "cycle"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: skeleton is not a single cycle\n"


_STAR = random_instance(5, 7, 2, "star", seed=0)
_TREE = random_instance(7, 10, 2, "tree", seed=3)
_ODD_CYCLE = random_instance(5, 9, 3, "cycle", seed=2)


@pytest.mark.parametrize("command, method, solver, inst", [
    ("solve", "bipartite", efx_completion, running_example()),
    ("solve", "star", solve_multistar, _STAR),
    ("solve", "tree4", solve_multitree_d4_q2, _TREE),
    ("solve", "cycle", solve_multicycle, _ODD_CYCLE),
    ("orient", "star", solve_multistar, _STAR),
    ("orient", "tree4", solve_multitree_d4_q2, _TREE),
    ("orient", "half-efx", half_efx_orientation, running_example()),
])
def test_every_method_gives_its_solvers_document(tmp_path, capsys, command, method, solver, inst):
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    code, doc = run_cli(capsys, [command, str(path), "--method", method])
    assert code == 0
    alloc = solver(inst)
    expected = allocation_to_json(alloc)
    if command == "orient":
        expected["alpha_per_agent"] = [str(achieved_alpha(inst, alloc, a)) for a in range(inst.n)]
    assert doc == json.loads(json.dumps(expected))


def test_auto_triangle_falls_back_to_oracle(capsys, monkeypatch):
    triangle = build_instance(3, [(0, 1, 2, 2), (1, 2, 3, 3), (0, 2, 4, 4)])
    code, doc = run_cli(capsys, ["solve"], stdin_text=instance_to_text(triangle),
                        monkeypatch=monkeypatch)
    assert code == 0
    assert sum(len(b) for b in doc["bundles"]) == 3


def test_parse_error_exit(capsys, monkeypatch):
    code, _ = run_cli(capsys, ["analyze"], stdin_text="{nope", monkeypatch=monkeypatch)
    assert code == 1


def test_orient_reports_alphas(capsys, monkeypatch):
    code, doc = run_cli(capsys, ["orient", "--method", "half-efx"],
                        stdin_text=instance_to_text(running_example()),
                        monkeypatch=monkeypatch)
    assert code == 0
    assert len(doc["alpha_per_agent"]) == 7
    assert all(Fraction(a) >= Fraction(1, 2) for a in doc["alpha_per_agent"])


def test_orient_star(capsys, monkeypatch):
    inst = build_instance(3, [(0, 1, 4, 4), (0, 1, 2, 2), (0, 2, 5, 5)])
    code, doc = run_cli(capsys, ["orient", "--method", "star"],
                        stdin_text=instance_to_text(inst), monkeypatch=monkeypatch)
    assert code == 0
    assert doc["alpha_per_agent"] == ["1", "1", "1"]


def test_analyze_report(capsys, monkeypatch):
    code, doc = run_cli(capsys, ["analyze"], stdin_text=instance_to_text(running_example()),
                        monkeypatch=monkeypatch)
    assert code == 0
    assert doc["family"] == "bipartite"
    assert doc["bipartition"] == {"s": [0, 1, 2, 3], "t": [4, 5, 6]}


def test_reduce_partition_command(capsys):
    code, doc = run_cli(capsys, ["reduce-partition", "--set", "1,2,3"])
    assert code == 0
    assert doc["n"] == 8
    p_values = [e["wu"] for e in doc["edges"] if {e["u"], e["v"]} == {3, 4}]
    assert sorted(p_values) == ["1", "2", "3"]


@pytest.mark.parametrize("options", [[], ["--eps", "1/50"], ["--delta", "1/7000"],
                                     ["--eps", "1/3", "--delta", "2/9"], ["--delta", "1/7"]])
def test_reduce_partition_is_gen_np_gadget(capsys, options):
    results = []
    for argv in (["reduce-partition"], ["gen", "--family", "np-gadget"]):
        code = main(argv + ["--set", "3,1,1,2,2,1"] + options)
        captured = capsys.readouterr()
        results.append((code, captured.out, captured.err))
    assert results[0] == results[1]
    assert results[0][0] == (1 if options == ["--delta", "1/7"] else 0)  # delta above eps


def test_gen_random_roundtrip(capsys, monkeypatch):
    code, doc = run_cli(capsys, ["gen", "--family", "random", "--n", "5", "--m", "8",
                                 "--q-max", "2", "--shape", "bipartite", "--seed", "11"])
    assert code == 0
    code, rep = run_cli(capsys, ["analyze"], stdin_text=json.dumps(doc),
                        monkeypatch=monkeypatch)
    assert code == 0
    assert rep["q"] <= 2


def test_gen_emits_only_loadable_agent_counts(capsys, monkeypatch):
    argv = ["gen", "--family", "random", "--q-max", "1", "--shape", "tree"]
    _error_exit(capsys, argv + ["--n", str(MAX_AGENTS + 1), "--m", str(MAX_AGENTS)])
    code, doc = run_cli(capsys, argv + ["--n", str(MAX_AGENTS), "--m", str(MAX_AGENTS - 1)])
    assert code == 0
    code, rep = run_cli(capsys, ["analyze"], stdin_text=json.dumps(doc), monkeypatch=monkeypatch)
    assert code == 0 and rep["n"] == MAX_AGENTS


def test_gen_bad_family_usage(capsys):
    assert main(["gen", "--family", "nonsense"]) == 1


@pytest.mark.parametrize("argv", [
    ["gen", "--family", "c4-counter", "--eps", "1/0"],
    ["gen", "--family", "c4-counter", "--eps", "0.01"],
    ["gen", "--family", "np-gadget", "--set", "1,x"],
    ["reduce-partition", "--set", "1,2", "--delta", "abc"],
])
def test_gen_bad_option_value_usage(capsys, argv):
    # Option values are parsed as the command line is: a bad one is a usage error.
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert sum("error:" in line for line in captured.err.splitlines()) == 1
    # The message states the value's problem, not the name of a Python function.
    assert "parse_rational" not in captured.err and "_parse_set" not in captured.err


def _error_exit(capsys, argv) -> None:
    """The failure half of the CLI contract: exit 1, empty stdout, one error line."""
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error:")


@pytest.mark.parametrize("edge", [
    {"u": 0, "v": 1, "wu": "1/0", "wv": "2"},
    {"u": True, "v": 0, "wu": "1", "wv": "2"},
])
def test_analyze_rejects_malformed_edge(tmp_path, capsys, edge):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"n": 2, "edges": [edge]}))
    _error_exit(capsys, ["analyze", str(path)])


def test_analyze_rejects_too_many_agents(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"n": MAX_AGENTS + 1, "edges": []}))
    _error_exit(capsys, ["analyze", str(path)])
    path.write_text(json.dumps({"n": MAX_AGENTS, "edges": []}))
    assert main(["analyze", str(path)]) == 0


def test_empty_instance_at_the_agent_limit(tmp_path, capsys):
    # With no edges every command below is linear in the agent count: `solve`,
    # `orient` and `verify` walk the skeleton in linear time (the tree solver's
    # center too, though its EFX re-check after each step is O(n * m) at worst),
    # and `analyze`, which computes every eccentricity of a component
    # (O(n * m)), meets only one-agent components.  Each ran under 0.5 s on a
    # 2-core Xeon VM.
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps({"n": MAX_AGENTS, "edges": []}))
    alloc_path = tmp_path / "alloc.json"
    alloc_path.write_text(json.dumps({"bundles": [[]] * MAX_AGENTS}))
    inst = str(inst_path)
    for argv in (["analyze", inst], ["solve", inst], ["orient", inst, "--method", "half-efx"],
                 ["verify", inst, str(alloc_path)]):
        start = time.perf_counter()
        code, doc = run_cli(capsys, argv)
        assert code == 0 and doc is not None, argv
        assert time.perf_counter() - start < 10.0, argv


@pytest.mark.parametrize("bundles", [[[[1]], [0, 2]], [None, [0, 1, 2]], [{}, []]])
def test_verify_rejects_malformed_bundle(tmp_path, capsys, bundles):
    inst_path = tmp_path / "inst.json"
    save_instance(build_instance(2, [(0, 1, 1, 2), (0, 1, 3, 1), (0, 1, 2, 2)]), inst_path)
    alloc_path = tmp_path / "alloc.json"
    alloc_path.write_text(json.dumps({"bundles": bundles}))
    _error_exit(capsys, ["verify", str(inst_path), str(alloc_path)])


def _record_jobs(monkeypatch) -> list[int]:
    """Replace both oracle entry points with stubs that record ``jobs``; no pool starts."""
    seen: list[int] = []

    def fake(inst, budget, jobs, count=False):
        seen.append(jobs)
        return oracle.OracleResult("orientation", False, None, None, 1, 1)

    monkeypatch.setattr(oracle, "decide_efx_orientation", fake)
    monkeypatch.setattr(oracle, "decide_efx_allocation", fake)
    return seen


def test_decide_rejects_jobs_below_one(tmp_path, capsys, monkeypatch):
    seen = _record_jobs(monkeypatch)
    path = tmp_path / "inst.json"
    save_instance(running_example(), path)
    for jobs in ("0", "-3"):
        _error_exit(capsys, ["decide", str(path), "--target", "orientation", "--jobs", jobs])
    assert seen == []


def test_decide_clamps_jobs_to_cores(tmp_path, capsys, monkeypatch):
    seen = _record_jobs(monkeypatch)
    monkeypatch.setattr("os.cpu_count", lambda: 4)
    path = tmp_path / "inst.json"
    save_instance(running_example(), path)
    for target, jobs in (("orientation", "1000"), ("allocation", "1000"), ("orientation", "3")):
        assert main(["decide", str(path), "--target", target, "--jobs", jobs]) == 0
    assert seen == [4, 4, 3]


# Any JSON document, with the keys and values the readers look for made likely.
# Integers stay small: the readers accept up to MAX_AGENTS agents, and the work
# after parsing grows with the count.
_leaves = st.one_of(st.none(), st.booleans(), st.integers(-2, 5),
                    st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from(["1", "2/3", "0", "-1", "1/0", "1.5", "x", ""]))
_documents = st.recursive(_leaves, lambda inner: st.one_of(
    st.lists(inner, max_size=4),
    st.dictionaries(st.sampled_from(["n", "edges", "bundles", "u", "v", "wu", "wv", "k"]),
                    inner, max_size=5)), max_leaves=16)
_agent = st.one_of(st.integers(-1, 4), _leaves)
_weight = st.one_of(st.sampled_from(["1", "3", "1/2", "5/3", "0", "-2"]), st.integers(-1, 6), _leaves)


@st.composite
def _valid_instance_docs(draw):
    n = draw(st.integers(2, 4))
    ends = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
    weight = st.sampled_from(["1", "2", "3", "1/2", "5/3", "7"])
    return {"n": n, "edges": [{"u": u, "v": v, "wu": draw(weight), "wv": draw(weight)}
                              for u, v in draw(st.lists(ends, max_size=7))]}


@st.composite
def _valid_allocation_docs(draw):
    bundles = [[] for _ in range(draw(st.integers(2, 4)))]
    for e in range(draw(st.integers(0, 6))):
        holder = draw(st.integers(-1, len(bundles) - 1))
        if holder >= 0:
            bundles[holder].append(e)
    return {"bundles": bundles}


_instance_docs = st.one_of(_documents, _valid_instance_docs(), st.fixed_dictionaries({
    "n": st.one_of(st.integers(1, 4), _leaves),
    "edges": st.lists(st.fixed_dictionaries({"u": _agent, "v": _agent, "wu": _weight, "wv": _weight}),
                      max_size=5)}))
_allocation_docs = st.one_of(_documents, _valid_allocation_docs(), st.fixed_dictionaries({
    "bundles": st.lists(st.one_of(st.lists(st.one_of(st.integers(-1, 5), _leaves), max_size=3), _leaves),
                        max_size=4)}))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    save_instance(build_instance(2, [(0, 1, 1, 2), (0, 1, 3, 1), (0, 1, 2, 2)]), path / "known.json")
    return path


def _contract(argv) -> None:
    """Exit code 0-4 and no exception; one JSON document on stdout for 0 and 2,
    else an empty stdout and an error line on stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in range(5)
    if code in (0, 2):
        json.loads(out.getvalue())
    else:
        assert out.getvalue() == ""
        assert err.getvalue().splitlines()[-1].startswith("error:")


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_instance_docs, _allocation_docs)
def test_cli_contract_holds_for_any_document(fuzz_dir, instance_doc, allocation_doc):
    inst_path, alloc_path = fuzz_dir / "inst.json", fuzz_dir / "alloc.json"
    inst_path.write_text(json.dumps(instance_doc))
    alloc_path.write_text(json.dumps(allocation_doc))
    known = str(fuzz_dir / "known.json")
    for argv in (["analyze", str(inst_path)],
                 ["solve", str(inst_path), "--budget", "5000"],
                 ["decide", str(inst_path), "--target", "orientation", "--budget", "5000"],
                 ["decide", str(inst_path), "--target", "allocation", "--budget", "5000"],
                 ["verify", str(inst_path), str(alloc_path)],
                 ["verify", known, str(alloc_path)]):
        _contract(argv)


def _captured(call, argv):
    """``call(argv)``'s result, or its SystemExit as ("exit", code), with its output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = call(argv)
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


def _same_as_full_parser(argv) -> None:
    """``main`` reads argv as the parser of every command does: the same Namespace
    reaches the handler, or the same exit code, stdout and stderr."""
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        # Every handler records its Namespace, so nothing runs past the parse.
        for name, (help_text, add_arguments, _) in cli.COMMANDS.items():
            mp.setitem(cli.COMMANDS, name, (help_text, add_arguments, seen.append))
        full, full_out, full_err = _captured(lambda a: cli.build_parser().parse_args(a), argv)
        code, out, err = _captured(main, argv)
    assert (out, err) == (full_out, full_err), argv
    if isinstance(full, tuple):
        assert seen == [], argv
        assert code == (cli.EXIT_OK if full[1] in (0, None) else cli.EXIT_USAGE), argv
    else:
        assert seen == [full], argv


def _vocabulary() -> tuple[list[str], list[str]]:
    """Every option string and every choice of every command."""
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options, values = set(), set()
    for parser in sub.choices.values():
        for action in parser._actions:
            options.update(action.option_strings)
            values.update(str(choice) for choice in action.choices or ())
    return sorted(options), sorted(values)


_OPTIONS, _CHOICES = _vocabulary()
_JUNK = ["bogus", "--bogus", "-x", "--met", "--method=star", "--jobs=2", "-hx", "--he", "inst.json", ""]
_VALUES = _CHOICES + ["1", "0", "-3", "1/2", "1/0", "1,2", "1,x", "abc"]
_first = st.sampled_from([*cli.COMMANDS, "-h", "--help", "--", "-", *_JUNK])
_token = st.one_of(st.sampled_from([*cli.COMMANDS, *_OPTIONS, "-h", "--help", "--", "-"]),
                   st.sampled_from(_VALUES), st.sampled_from(_JUNK))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.just([]), st.builds(lambda first, rest: [first, *rest], _first,
                                        st.lists(_token, max_size=6))))
def test_main_parses_every_argv_as_the_full_parser(argv):
    _same_as_full_parser(argv)


@pytest.mark.parametrize("argv", [[], ["-h"], ["bogus"], ["analyze", "a", "b"], ["solve", "-h"]])
def test_main_parses_pinned_argvs_as_the_full_parser(argv):
    _same_as_full_parser(argv)


@pytest.mark.parametrize("argv, message", [
    # The top level reports unrecognized arguments, so its usage line must not
    # shrink to the one command whose parser was built.
    (["analyze", "a", "b"], "unrecognized arguments: b"),
    (["bogus"], "argument command: invalid choice: 'bogus' (choose from "
                + ", ".join(repr(name) for name in cli.COMMANDS) + ")"),
    ([], "the following arguments are required: command"),
])
def test_top_level_usage_errors(capsys, argv, message):
    assert main(argv) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage: efx-multigraph [-h]")
    assert "{" + ",".join(cli.COMMANDS) + "}" in err
    assert err.splitlines()[-1] == "efx-multigraph: error: " + message


def test_main_builds_only_the_invoked_commands_parser(tmp_path, capsys, monkeypatch):
    added = []
    add_parser = argparse._SubParsersAction.add_parser

    def spy(self, name, **kwargs):
        added.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
    path = tmp_path / "inst.json"
    save_instance(running_example(), path)
    assert main(["analyze", str(path)]) == 0
    assert added == ["analyze"]
    for argv in (["-h"], ["bogus"]):
        added.clear()
        main(argv)
        assert added == list(cli.COMMANDS), argv
    capsys.readouterr()


def test_full_parser_reads_every_command():
    # build_parser() with no argument stays the parser of every command.
    minimal = {"solve": [], "orient": ["--method", "star"], "verify": ["i.json", "a.json"],
               "decide": ["--target", "orientation"], "gen": ["--family", "c4-counter"],
               "reduce-partition": ["--set", "1,2"], "analyze": []}
    assert set(minimal) == set(cli.COMMANDS)
    parser = cli.build_parser()
    for name, rest in minimal.items():
        args = parser.parse_args([name, *rest])
        assert args.command == name
        assert args.func is cli.COMMANDS[name][2]


# SHA-256 over the exit code and stdout of every command below, recorded before
# the documents were written by `model.json_text`, when `cli._emit` still called
# `json.dumps(doc, indent=2)`.
STDOUT_SHA256 = "dd596cf9c0c2fcbd70ffd1ce8cb98a199585d7574b6b03ec5f6105f73f13de6b"


def test_cli_stdout_pinned(tmp_path, capsys):
    import random

    ladder = random_instance(64, 400, 4, "bipartite", seed=3)
    rng = random.Random(3)
    bundles = [[] for _ in range(ladder.n)]
    for e in range(ladder.m):
        bundles[rng.randrange(ladder.n)].append(e)
    files = {
        "ladder": ladder,
        "tree": random_instance(7, 10, 2, "tree", seed=3),
        "walkthrough": running_example(),
        "p4q4": p4_qn(4),
        "triangle": random_instance(3, 5, 2, "cycle", seed=1),
    }
    paths = {}
    for name, inst in files.items():
        paths[name] = str(tmp_path / f"{name}.json")
        save_instance(inst, paths[name])
    alloc = tmp_path / "alloc.json"
    alloc.write_text(json.dumps({"bundles": bundles}))
    commands = [
        *(["verify", paths["ladder"], str(alloc), "--alpha", alpha, *flag]
          for alpha in ("1", "1/2") for flag in ([], ["--orientation"])),
        ["analyze", paths["ladder"]],
        ["analyze", paths["tree"]],
        ["solve", paths["walkthrough"], "--method", "bipartite", "--trace"],
        ["solve", paths["tree"], "--method", "tree4", "--trace"],
        ["orient", paths["ladder"], "--method", "half-efx"],
        ["decide", paths["p4q4"], "--target", "orientation", "--count"],
        ["decide", paths["triangle"], "--target", "allocation"],
        ["gen", "--family", "random", "--n", "12", "--m", "30", "--q-max", "3",
         "--shape", "bipartite", "--seed", "5"],
        ["reduce-partition", "--set", "3,1,1,2,2,1"],
    ]
    digest = hashlib.sha256()
    codes = []
    for argv in commands:
        code = main(argv)
        codes.append(code)
        digest.update(json.dumps([code, capsys.readouterr().out]).encode())
    assert codes == [2, 2, 2, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0]
    assert digest.hexdigest() == STDOUT_SHA256


# SHA-256 of `verify` stdout on the 128-agent, 1000-edge instance of the
# benchmark's largest op, recorded before the reader, the verdict and the
# writer were reworked for speed: the complete allocation that random.Random(3)
# deals to random agents, at alpha 1 and with `--alpha 1/2 --orientation`, and
# the orientation it deals to random endpoints, with `--alpha 1/2 --orientation`.
ANCHOR_VERIFY_SHA256 = {
    ("complete", "1", False): "b0af97ae24d0e763265fcf622083e9d9b8f3a012e5fa25e4bc153a972d99acc6",
    ("complete", "1/2", True): "68757201d28277817000ced0a0b39db5dbee006137b320fd1bc9598d3e3e4a4a",
    ("oriented", "1/2", True): "38f77651af60ed069f65d1114ef031630fc8ef9e467c59f339d1ef380da606f0",
}


def test_anchor_verify_stdout_pinned(tmp_path, capsys):
    import random

    inst = random_instance(128, 1000, 4, "bipartite", seed=3)
    inst_path = tmp_path / "inst.json"
    save_instance(inst, inst_path)
    deals = {"complete": lambda rng, e: rng.randrange(inst.n),
             "oriented": lambda rng, e: rng.choice((e.u, e.v))}
    for name, deal in deals.items():
        rng = random.Random(3)
        bundles = [[] for _ in range(inst.n)]
        for e in inst.edges:
            bundles[deal(rng, e)].append(e.id)
        (tmp_path / f"{name}.json").write_text(json.dumps({"bundles": bundles}))
    for (name, alpha, orientation), want in ANCHOR_VERIFY_SHA256.items():
        argv = ["verify", str(inst_path), str(tmp_path / f"{name}.json"), "--alpha", alpha]
        assert main(argv + ["--orientation"] * orientation) == 2
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == want, argv


def _run_in_c_locale(argv, stdin: bytes | None = None) -> subprocess.CompletedProcess:
    """The CLI in a fresh process whose locale encoding is ASCII."""
    src = Path(cli.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONUTF8="0", PYTHONCOERCECLOCALE="0", LC_ALL="C")
    return subprocess.run([sys.executable, "-m", "efx_multigraph", *argv], input=stdin,
                          capture_output=True, env=env, timeout=60)


def test_documents_are_read_as_utf8_whatever_the_locale(tmp_path):
    edge = '{"u": 0, "v": 1, "wu": "1", "wv": "2"}'
    docs = {
        "note": f'{{"n": 2, "edges": [{edge}], "note": "caf\u00e9"}}'.encode(),
        "arabic": '{"n": 2, "edges": [{"u": 0, "v": 1, "wu": "\u0663/\u0664", "wv": "2"}]}'.encode(),
        "latin1": f'{{"n": 2, "edges": [{edge}], "note": "caf\u00e9"}}'.encode("latin-1"),
        "bundles": '{"bundles": [[0], []], "note": "caf\u00e9"}'.encode(),
        "bad-bundles": '{"bundles": [[0], []], "note": "caf\u00e9"}'.encode("latin-1"),
    }
    paths = {}
    for name, data in docs.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_bytes(data)
    grammar = "error: edge 0: not a rational: '\\u0663/\\u0664' (expected digits or digits/digits)"
    undecodable = "error: invalid JSON: 'utf-8' codec can't decode byte 0xe9 in position "
    cases = [  # (argv, file read from stdin or None, exit code, stderr start)
        (["analyze", "{note}"], None, 0, ""),
        (["analyze"], "note", 0, ""),
        (["analyze", "{arabic}"], None, 1, grammar),
        (["analyze"], "arabic", 1, grammar),
        (["analyze", "{latin1}"], None, 1, undecodable),
        (["analyze"], "latin1", 1, undecodable),
        (["verify", "{note}", "{bundles}"], None, 0, ""),
        (["verify", "{note}", "-"], "bundles", 0, ""),
        (["verify", "{note}", "{bad-bundles}"], None, 1, undecodable),
        (["verify", "{note}", "-"], "bad-bundles", 1, undecodable),
    ]
    for argv, stdin, code, err in cases:
        argv = [a.format(**{k: str(v) for k, v in paths.items()}) for a in argv]
        result = _run_in_c_locale(argv, docs[stdin] if stdin else b"")
        assert result.returncode == code, (argv, stdin, result.stderr)
        assert result.stderr.decode().startswith(err), (argv, stdin, result.stderr)
        assert (result.stderr == b"") == (code == 0)
        if code == 0:
            json.loads(result.stdout)


def test_undecodable_file_is_an_instance_error(tmp_path):
    from efx_multigraph import InstanceError, load_instance

    path = tmp_path / "inst.json"
    path.write_bytes(b'{"n": 1, "edges": [], "note": "\xff"}')
    with pytest.raises(InstanceError, match="^invalid JSON: 'utf-8' codec can't decode byte 0xff"):
        load_instance(path)
    with pytest.raises(InstanceError, match="^invalid JSON: 'utf-8' codec can't decode byte 0xff"):
        load_instance(io.BytesIO(path.read_bytes()))
