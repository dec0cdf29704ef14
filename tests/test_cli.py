from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import random
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
from efx_multigraph.fairness import Verdict, check_efx
from efx_multigraph.model import (
    MAX_AGENTS,
    allocation_to_json,
    instance_to_text,
    is_orientation,
    load_allocation,
)


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

    monkeypatch.setattr("efx_multigraph.model._ball_center", forbidden)
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


@pytest.mark.parametrize("option, value", [("--num-max", "0"), ("--den-max", "0"),
                                           ("--num-max", "-4")])
def test_gen_value_bounds_below_one_are_usage_errors(capsys, option, value):
    argv = ["gen", "--family", "random", "--n", "4", "--m", "6", "--q-max", "2", "--shape", "tree",
            option, value]
    assert main(argv) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: need num_max >= 1 and den_max >= 1, got ")
    assert len(captured.err.splitlines()) == 1


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
    # and `analyze`, whose pass over a cyclic component costs
    # O(diameter * skeleton pairs * size / 64) word operations, meets only
    # one-agent components.  Each ran under 0.5 s on a 2-core Xeon VM.
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


def test_analyze_and_verify_a_sparse_draw_of_4096_agents(tmp_path, capsys):
    # 32,000 edges, each from the first half of the agents to the second, drawn
    # edge by edge: `forge`'s bipartite shape lists every pair of sides first.
    # `analyze` finds every eccentricity of the one bipartite component in one
    # bit-parallel pass (6 rounds); `verify` checks an allocation that gives
    # each edge to one end in turn.  They ran in about 0.7 s and 0.5 s on a
    # 2-core Xeon VM, where a BFS from every agent took `analyze` over 40 s.
    # `solve` and `orient` run the three-stage pipeline, whose stage-2 loop
    # reads each hit off the agents' claims and a heap of the agents that may
    # have started to violate; they ran in about 1.4 s and 1.7 s there.
    rng = random.Random(1)
    half = 2048
    specs = [(rng.randrange(half), half + rng.randrange(half),
              f"{rng.randint(1, 1000)}/{rng.randint(1, 1000)}",
              f"{rng.randint(1, 1000)}/{rng.randint(1, 1000)}") for _ in range(32_000)]
    bundles = [[] for _ in range(2 * half)]
    for k, (u, v, _, _) in enumerate(specs):
        bundles[v if k % 2 else u].append(k)
    inst_path = tmp_path / "inst.json"
    save_instance(build_instance(2 * half, specs), inst_path)
    alloc_path = tmp_path / "alloc.json"
    alloc_path.write_text(json.dumps({"bundles": bundles}))
    start = time.perf_counter()
    code, doc = run_cli(capsys, ["analyze", str(inst_path)])
    assert time.perf_counter() - start < 10.0
    assert code == 0 and (doc["family"], doc["diameter"]) == ("bipartite", 6)
    start = time.perf_counter()
    code, doc = run_cli(capsys, ["verify", str(inst_path), str(alloc_path)])
    assert time.perf_counter() - start < 10.0
    assert code in (0, 2) and doc is not None
    # Both outputs are pinned by SHA-256, so a change aimed at time or memory
    # at this scale is checked for byte-identical output here too.
    for argv, want in (
        (["solve", str(inst_path), "--method", "bipartite"],
         "13b701a72a57e677df9b1064e9e4ef2a7ee73ea839f9199bfde26489548e2731"),
        (["orient", str(inst_path), "--method", "half-efx"],
         "ff44e73aff0ededf998fdf27629dedb132a1e375235ca9b2b59a5abd6553f71a"),
    ):
        start = time.perf_counter()
        code = main(argv)
        out = capsys.readouterr().out
        assert time.perf_counter() - start < 10.0, argv
        assert code == 0 and len(json.loads(out)["bundles"]) == 2 * half, argv
        assert hashlib.sha256(out.encode()).hexdigest() == want, argv


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


def test_decide_with_one_job_reads_no_core_count(tmp_path, capsys, monkeypatch):
    seen = _record_jobs(monkeypatch)
    reads: list[int] = []
    monkeypatch.setattr("os.cpu_count", lambda: reads.append(1) or 4)
    path = tmp_path / "inst.json"
    save_instance(running_example(), path)
    for argv in ([], ["--jobs", "1"], ["--jobs", "2"]):
        assert main(["decide", str(path), "--target", "orientation", *argv]) == 0
    assert seen == [1, 1, 2]
    assert len(reads) == 1


# Run in a fresh process: the test session has already imported every module.
_LOADED = """
import contextlib, io, json, sys
from efx_multigraph.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = main(json.loads(sys.argv[1]))
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "efx_multigraph")]))
"""


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    inst, alloc = tmp_path / "inst.json", tmp_path / "alloc.json"
    save_instance(p4_qn(4), inst)
    alloc.write_text(json.dumps({"bundles": [[] for _ in range(4)]}))
    pipeline = {"bipartite", "cutting", "derived", "fairness"}
    cases = [  # argv, exit code, modules loaded past the package, cli and model
        (["analyze", inst], 0, set()),
        (["verify", inst, alloc], 0, {"fairness"}),
        (["decide", inst, "--target", "orientation"], 0, {"fairness", "oracle"}),
        (["solve", inst, "--method", "bipartite"], 0, pipeline),
        (["orient", inst, "--method", "star"], 4, pipeline | {"solvers"}),
        (["gen", "--family", "c4-counter"], 0, {"forge"}),
        # The argparse parser (help and usage errors) declares gen's options, so it
        # loads forge.
        (["--help"], 0, {"forge"}),
        (["analyze", inst, "--bogus"], cli.EXIT_USAGE, {"forge"}),
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parent.parent))
    for argv, code, extra in cases:
        result = subprocess.run([sys.executable, "-c", _LOADED, json.dumps(list(map(str, argv)))],
                                capture_output=True, env=env, text=True, timeout=60, check=True)
        loaded = {"efx_multigraph", "efx_multigraph.cli", "efx_multigraph.model",
                  *(f"efx_multigraph.{m}" for m in extra)}
        assert json.loads(result.stdout) == [code, sorted(loaded)], argv


def test_repeated_commands_import_nothing_and_cache_no_solver(tmp_path, capsys, monkeypatch):
    """Each op finds its solver's module in ``sys.modules`` (only a first use imports)
    and reads the solver from the module, so a replaced one takes effect."""
    bip, cycle = tmp_path / "bip.json", tmp_path / "cycle.json"
    save_instance(p4_qn(4), bip)
    save_instance(random_instance(5, 8, 2, "cycle", seed=1), cycle)
    argvs = [["solve", str(bip)], ["solve", str(cycle)], ["orient", str(bip), "--method", "half-efx"],
             ["decide", str(bip), "--target", "orientation"]]
    for argv in argvs:
        assert main(argv) == 0
    calls = []
    real = importlib.import_module
    monkeypatch.setattr(importlib, "import_module", lambda *a, **kw: calls.append(a) or real(*a, **kw))
    for argv in argvs:
        assert main(argv) == 0
    assert calls == []
    solved = []
    monkeypatch.setattr("efx_multigraph.bipartite.efx_completion",
                        lambda inst, trace: solved.append(inst.n) or efx_completion(inst, trace=trace))
    assert main(argvs[0]) == 0
    assert solved == [4]


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


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["bogus"], ["analyze", "a", "b"], ["solve", "-h"],
    # What the plain reader declines: argparse reads these as it always did.
    ["solve", "--method", "star", "--method", "tree4"],
    ["decide", "--target", "orientation", "--count", "--count"],
    ["decide", "--target", "orientation", "--budget", "-5"],
    ["verify", "i.json", "a.json", "--alpha=1/2"],
    ["solve", "--meth", "star"],
    ["analyze", "--", "x.json"],
    ["solve", "x.json", "--budget"],
    ["verify", "i.json"],
    ["analyze", "-"], ["analyze", ""],
    ["gen", "--family", "random", "--n", " 7"],
    ["reduce-partition", "--set", ""],
])
def test_main_parses_pinned_argvs_as_the_full_parser(argv):
    _same_as_full_parser(argv)


def test_plain_reader_matches_the_full_parser_on_every_short_argv():
    # Per command: its own option strings and choices, plus some values, in
    # every argv of up to three tokens after the command name.
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    accepted = dict.fromkeys(cli.COMMANDS, 0)
    for name, command_parser in sub.choices.items():
        words = {"1", "-3", "1/2", "", "-", "--", "x.json"}
        for action in command_parser._actions:
            words.update(action.option_strings)
            words.update(str(choice) for choice in action.choices or ())
        words = sorted(words)
        argvs = [[name]] + [[name, a] for a in words] + [[name, a, b] for a in words for b in words]
        argvs += [[name, a, b, c] for a in words for b in words for c in words]
        for argv in argvs:
            plain = cli._read_plain(argv)
            if plain is not None:
                accepted[name] += 1
                assert plain == parser.parse_args(argv), argv
    assert min(accepted.values()) > 0 and sum(accepted.values()) > 300, accepted


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


def test_main_builds_a_parser_only_for_help_and_usage_errors(monkeypatch):
    built, added = [], []
    init, add_parser = argparse.ArgumentParser.__init__, argparse._SubParsersAction.add_parser

    def spy_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def spy_add(self, name, **kwargs):
        added.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy_init)
    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy_add)
    seen = []
    for name, (help_text, add_arguments, _) in cli.COMMANDS.items():
        monkeypatch.setitem(cli.COMMANDS, name, (help_text, add_arguments, seen.append))
    plain = {"solve": ["i.json", "--method", "star", "--trace"],
             "orient": ["--method", "star", "i.json"],
             "verify": ["i.json", "a.json", "--alpha", "1/2", "--orientation"],
             "decide": ["-", "--target", "orientation", "--count", "--jobs", "1"],
             "gen": ["--family", "random", "--n", "4", "--m", "6", "--seed", "3"],
             "reduce-partition": ["--set", "1,2"], "analyze": []}
    assert set(plain) == set(cli.COMMANDS)
    for name, rest in plain.items():
        main([name, *rest])
        assert seen.pop().command == name and built == [], name
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for argv in (["-h"], ["bogus"], ["solve", "x", "--method", "greedy"]):
            added.clear()
            assert main(argv) in (cli.EXIT_OK, cli.EXIT_USAGE)
            assert added == list(cli.COMMANDS) and built, argv
    assert seen == []


def test_full_parser_reads_every_command():
    # build_parser() is the parser of every command.
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


def test_verify_builds_no_fraction_past_alpha(tmp_path, capsys, fractions_built):
    # The anchor's complete allocation fails at every alpha here, with 1805
    # witnesses at alpha 1; the verdict and its document are written from
    # integer records, so the only Fraction is the parsed --alpha.
    inst = random_instance(128, 1000, 4, "bipartite", seed=3)
    inst_path, alloc_path = tmp_path / "inst.json", tmp_path / "complete.json"
    save_instance(inst, inst_path)
    rng = random.Random(3)
    bundles = [[] for _ in range(inst.n)]
    for e in inst.edges:
        bundles[rng.randrange(inst.n)].append(e.id)
    alloc_path.write_text(json.dumps({"bundles": bundles}))
    for alpha in ("1", "1/2", "2/3"):
        fractions_built.clear()
        assert main(["verify", str(inst_path), str(alloc_path), "--alpha", alpha]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["witnesses"]) > 1000
        assert len(fractions_built) <= 1, (alpha, len(fractions_built))


def test_verify_writes_witnesses_without_to_json(tmp_path, capsys, monkeypatch):
    # verify writes its witness array from the verdict's records; it builds no
    # dict per witness (to_json) and no Witness (.witnesses).  Its text must be
    # that of the to_json() document, as json.dumps writes it.
    inst = random_instance(16, 60, 4, "bipartite", seed=3)
    inst_path = tmp_path / "inst.json"
    save_instance(inst, inst_path)
    rng = random.Random(3)
    deals = {"complete": [rng.randrange(inst.n) for _ in inst.edges],
             "oriented": [rng.choice((e.u, e.v)) for e in inst.edges],
             "one-agent": [0] * inst.m, "nothing": [-1] * inst.m}
    for name, holders in deals.items():
        bundles = [[e for e, h in enumerate(holders) if h == a] for a in range(inst.n)]
        (tmp_path / f"{name}.json").write_text(json.dumps({"bundles": bundles}))
    outputs = {}
    read = []
    monkeypatch.setattr(Verdict, "to_json", lambda self: read.append("to_json"))
    monkeypatch.setattr(Verdict, "witnesses", property(lambda self: read.append("witnesses")))
    for name in deals:
        for alpha in ("1", "1/2", "2/3"):
            for flag in ([], ["--orientation"]):
                argv = ["verify", str(inst_path), str(tmp_path / f"{name}.json"), "--alpha", alpha, *flag]
                code = main(argv)
                outputs[tuple(argv)] = code, capsys.readouterr().out
    assert read == []
    monkeypatch.undo()
    passed = set()
    for (_, _, alloc_path, _, alpha, *flag), (code, out) in outputs.items():
        alloc = load_allocation(alloc_path, inst)
        doc = check_efx(inst, alloc, Fraction(alpha)).to_json()
        if flag:
            doc["is_orientation"] = is_orientation(inst, alloc)
            doc["pass"] = doc["pass"] and doc["is_orientation"]
        assert out == json.dumps(doc, indent=2) + "\n"
        assert code == (0 if doc["pass"] else 2)
        passed.add(doc["pass"])
    assert passed == {True, False}


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


def test_a_document_nested_too_deep_to_decode_is_an_error_line(tmp_path, capsys, monkeypatch):
    # `json.loads` raises RecursionError from about 1000 levels of nesting on;
    # the reader makes it an "invalid JSON" error, for either document, read
    # from a file or from stdin, in process or through `python -m`.
    from efx_multigraph import InstanceError, load_instance

    deep = "[" * 100_000 + "]" * 100_000
    deep_path = tmp_path / "deep.json"
    deep_path.write_text(deep)
    inst_path = tmp_path / "inst.json"
    save_instance(running_example(), inst_path)
    inst, deep_file = str(inst_path), str(deep_path)
    with pytest.raises(InstanceError, match="^invalid JSON: maximum recursion depth exceeded"):
        load_instance(io.StringIO(deep))
    with pytest.raises(InstanceError, match="^invalid JSON: maximum recursion depth exceeded"):
        load_allocation(deep_path, running_example())
    cases = [(["analyze", deep_file], None), (["verify", inst, deep_file], None),
             (["analyze", "-"], deep), (["verify", inst, "-"], deep)]
    for argv, stdin in cases:
        if stdin is not None:
            monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        _error_exit(capsys, argv)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parent.parent))
    for argv, stdin in cases:
        result = subprocess.run([sys.executable, "-m", "efx_multigraph", *argv],
                                input=(stdin or "").encode(), capture_output=True, env=env, timeout=60)
        assert (result.returncode, result.stdout) == (1, b""), argv
        err = result.stderr.decode()
        assert err.startswith("error: invalid JSON: maximum recursion depth exceeded"), (argv, err)
        assert len(err.splitlines()) == 1, argv
