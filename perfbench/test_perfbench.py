"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

cli = run.import_cli()

import checks  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def workdir():
    path = run.WORK / "selftest"
    shutil.rmtree(path, ignore_errors=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _snapshot(name: str, seed: int, workdir: Path) -> list:
    """Op ids and argument lists, with file contents in place of the paths."""
    wl = workloads.build(name, seed, workdir)
    out = []
    for op in wl.ops:
        argv = [Path(a).read_text() if Path(a).is_file() else a.replace(str(workdir), "<dir>")
                for a in op.argv]
        out.append((op.id, argv, op.known))
    return out


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_workload(name, workdir):
    first = _snapshot(name, 7, workdir / "a")
    assert first == _snapshot(name, 7, workdir / "b")
    assert first != _snapshot(name, 8, workdir / "c")


def test_checker_flags_corrupted_allocation_and_wrong_exit(workdir):
    wl = workloads.build("bipartite-ladder", 1, workdir)
    op = next(op for op in wl.ops if op.id.startswith("solve-bipartite/8x20"))
    res = run.run_op(cli, run.find_caches(), op.argv)
    assert res.code == 0 and run.judge(op, res) == []

    doc = json.loads(res.out)
    moved = next(g for b in doc["bundles"] for g in b)
    corrupt = [[g for g in b if g != moved] for b in doc["bundles"]]
    assert op.check(0, json.dumps({"bundles": corrupt}), "")  # an edge goes missing
    corrupt[0].append(moved)
    corrupt[1].append(moved)
    assert op.check(0, json.dumps({"bundles": corrupt}), "")  # an edge is held twice
    assert op.check(1, res.out, "")  # exit 1 with output on stdout
    assert op.check(2, res.out, "")  # a solve that exits 2


def test_checker_recomputes_efx_witnesses():
    inst = checks.Inst({"n": 2, "edges": [{"u": 0, "v": 1, "wu": "3", "wv": "1"},
                                          {"u": 0, "v": 1, "wu": "2", "wv": "1"}]})
    assert checks.efx_witnesses(inst, [[], [0, 1]], 1) == [
        {"envier": 0, "envied": 1, "removed_edge": 1, "lhs": "0", "rhs": "3"}]
    assert checks.efx_witnesses(inst, [[0], [1]], 1) == []
    assert checks.splits_evenly((3, 1, 1, 2, 2, 1)) and not checks.splits_evenly((3, 1, 1, 2, 2, 2))


def test_cache_clearing_finds_cut():
    from efx_multigraph import cutting

    assert cutting.cut in run.find_caches()


def test_one_run_prints_every_metric(monkeypatch, capsys):
    """One untraced and one traced run of cli-mixed print exactly the metrics of BENCHMARK.json."""
    assert run.main(["--workload", "cli-mixed", "--seed", "3", "--seconds", "0", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] * (217 + run.ANCHOR_SAMPLES - 1) == result["attempted"] * 5
    assert {(k, v["unit"]) for k, v in result["metrics"].items()} == \
        {(m["name"], m["unit"]) for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())

    # Same metric names from a cheaper scaling ladder.  Set-up imports the
    # benchmark's modules anew, so the ladder is patched after it.
    setup = run.setup

    def setup_then_patch(*args):
        out = setup(*args)
        import tracing as fresh
        monkeypatch.setattr(fresh, "SCALE_LADDER", ((8, 20), (16, 30), (32, 40), (64, 70)))
        return out

    monkeypatch.setattr(run, "setup", setup_then_patch)
    assert run.main(["--workload", "cli-mixed", "--seed", "3", "--trace", "1"]) == 0
    traced = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert traced["correct"]
    assert {(k, v["unit"]) for k, v in traced["metrics"].items()} == \
        {(m["name"], m["unit"]) for m in SPEC["per_layer"]}


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli-mixed", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""
