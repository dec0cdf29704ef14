"""The traced run: per-layer spans and counts, taken from the benchmark's own code.

Each op is replayed as the public calls the CLI makes (argument parsing, file
reads, ``load_instance``, ``analyze_structure``, the solvers, ``check_efx``,
``decide_*``, ``json.dumps``), each wrapped in a span ``(name, start, end, op,
core)``.  Core spans are the op itself; the other spans are extra calls made
only here to split a composite call into layers: the three pipeline stages and
the derived sets on their snapshots, a cold cut of every pair, and unpruned
oracle searches on small instances.  The package itself is not instrumented.

Fixed probes follow the replay: the ROADMAP scaling ladder, the oracle with two
jobs, and cold ``python -m efx_multigraph`` start-ups.
"""
from __future__ import annotations

import io
import json
import os
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr
from fractions import Fraction
from pathlib import Path

from efx_multigraph import bipartite, cutting, forge, oracle, solvers
from efx_multigraph.derived import available_set, safe_set, t_side_of
from efx_multigraph.fairness import achieved_alpha, check_efx, envied_set
from efx_multigraph.model import (
    FAMILY_BIPARTITE,
    FAMILY_CYCLE,
    FAMILY_STAR,
    FAMILY_TREE,
    InstanceError,
    StructureError,
    allocation_from_json,
    allocation_to_json,
    analyze_structure,
    instance_to_text,
    is_orientation,
    load_instance,
)

import run

# Oracle calls at or below this many states are repeated without pruning.
SMALL_STATES = 4096
SCALE_LADDER = ((8, 20), (16, 60), (32, 150), (64, 400))
IMPORT_PROBES = 5
# Errors the CLI turns into exit codes 1, 3 and 4.
HANDLED = (oracle.BudgetExceededError, InstanceError, OSError, ValueError)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int, bool]] = []
        self.op = -1
        self.core = True
        self.counts: dict[str, float] = {}

    def span(self, name: str, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((name, start, time.perf_counter(), self.op, self.core))

    def add(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value


class Replay:
    """The CLI's command functions, re-spelled as traced public calls."""

    def __init__(self, cli, caches: list, tr: Tracer):
        self.cli = cli
        self.caches = caches
        self.tr = tr
        # Extra calls queued by the op, run after its span closes.
        self.extra: list = []

    def clear(self) -> None:
        for cache in self.caches:
            cache.cache_clear()

    def op(self, argv: list[str]) -> None:
        """The op's core calls inside one ``op`` span, then the queued extras."""
        tr = self.tr
        tr.core = True
        self.clear()
        with redirect_stderr(io.StringIO()):  # argparse reports usage errors here
            tr.span("op", self.core, argv)
        tr.core = False
        while self.extra:
            self.extra.pop(0)()
        tr.core = True

    def core(self, argv: list[str]) -> None:
        try:
            args = self.tr.span("cli.argparse", self.cli.build_parser().parse_args, argv)
            getattr(self, "do_" + args.command)(args)
        except SystemExit:
            self.tr.add("cli.usage_errors")
        except HANDLED:
            self.tr.add("cli.handled_errors")
        except Exception:  # the CLI lets these escape too; model.crashes counts those from parsing
            self.tr.add("cli.escaped_exceptions")

    def instance(self, path: str):
        text = self.tr.span("cli.read", Path(path).read_text)
        return self.parse(load_instance, io.StringIO(text))

    def parse(self, fn, *args):
        try:
            return self.tr.span("model.parse", fn, *args)
        except InstanceError:
            self.tr.add("model.rejects")
            raise
        except Exception:
            self.tr.add("model.crashes")
            raise

    def emit(self, to_doc) -> None:
        self.tr.span("cli.emit", lambda: json.dumps(to_doc(), indent=2))

    def oracle(self, fn, inst, **kwargs):
        result = self.tr.span("oracle.decide", fn, inst, budget=oracle.DEFAULT_BUDGET, jobs=1, **kwargs)
        self.tr.add("oracle.nodes", result.explored)
        self.tr.add("oracle.states", result.state_space)
        if result.state_space <= SMALL_STATES:
            def unpruned():
                again = self.tr.span("oracle.unpruned", fn, inst, prune=False, **kwargs)
                self.tr.add("oracle.small_pruned", result.explored)
                self.tr.add("oracle.small_unpruned", again.explored)
            self.extra.append(unpruned)
        return result

    def do_analyze(self, args) -> None:
        inst = self.instance(args.instance)
        report = self.tr.span("model.analyze", analyze_structure, inst)
        self.emit(report.to_json)

    def do_solve(self, args) -> None:
        inst = self.instance(args.instance)
        method = args.method
        if method == "auto":
            report = self.tr.span("model.analyze", analyze_structure, inst)
            if report.family in (FAMILY_STAR, FAMILY_TREE, FAMILY_BIPARTITE) or \
                    (report.family == FAMILY_CYCLE and report.bipartition is not None):
                method = "bipartite"
            elif report.family == FAMILY_CYCLE:
                method = "cycle"
            else:
                raise StructureError("general skeleton")
        if method == "bipartite":
            alloc = self.pipeline(inst)
        elif method == "cycle":
            alloc = self.cycle(inst)
        else:
            alloc = self.tr.span(f"solvers.{method}", SOLVERS[method], inst)
        self.emit(lambda: allocation_to_json(alloc))

    def cycle(self, inst):
        try:
            return self.tr.span("solvers.cycle", solvers.solve_multicycle, inst)
        except StructureError as exc:
            if "3-cycle" not in str(exc):
                raise
        self.tr.add("solvers.triangle_fallbacks")
        return self.oracle(oracle.decide_efx_allocation, inst).witness

    def pipeline(self, inst):
        tr = self.tr
        alloc, trace = tr.span("bipartite.complete", bipartite.complete_efx, inst)
        info = getattr(cutting.cut, "cache_info", None)
        if info is not None:
            tr.add("cutting.cut_calls", info().hits + info().misses)
            tr.add("cutting.cut_computed", info().misses)
        for event in trace.events:
            stage = event["stage"]
            if stage == "greedy":
                tr.add("bipartite.events_greedy")
            elif "case" in event:
                tr.add(f"bipartite.case{event['case']}")
            elif stage == "safe-set":
                tr.add("bipartite.swaps")
            elif stage == "completion":
                tr.add("bipartite.handoffs")
        self.extra.append(lambda: self.stages(inst))
        return alloc

    def stages(self, inst) -> None:
        """The three stages one by one, then the derived sets on each snapshot
        and a cold cut of every adjacent pair."""
        tr = self.tr
        self.clear()
        parts = tr.span("bipartite.greedy", bipartite.resolve_bipartition, inst, None)
        snaps = [tr.span("bipartite.greedy", bipartite.greedy_orientation, inst, parts, [])]
        snaps.append(tr.span("bipartite.saturate", bipartite.saturate_non_envied, inst, snaps[0], parts, []))
        snaps.append(tr.span("bipartite.safe", bipartite.enforce_safe_sets, inst, snaps[1], parts, []))
        for snap in snaps:
            envied = tr.span("fairness.envied_set", envied_set, inst, snap)
            tr.span("derived.available_set", lambda: [available_set(inst, snap, i, parts) for i in range(inst.n)])
            tr.span("derived.safe_set", lambda: [safe_set(inst, snap, i, parts) for i in sorted(envied)])
        self.clear()
        tr.span("cutting.cut", _cut_every_pair, inst, parts)

    def do_orient(self, args) -> None:
        inst = self.instance(args.instance)
        if args.method == "half-efx":
            alloc = self.tr.span("bipartite.half", bipartite.half_efx_orientation, inst)
        else:
            alloc = self.tr.span(f"solvers.{args.method}", SOLVERS[args.method], inst)
        alphas = self.tr.span("fairness.achieved_alpha",
                              lambda: [str(achieved_alpha(inst, alloc, a)) for a in range(inst.n)])
        self.emit(lambda: allocation_to_json(alloc) | {"alpha_per_agent": alphas})

    def do_verify(self, args) -> None:
        inst = self.instance(args.instance)
        text = self.tr.span("cli.read", Path(args.allocation).read_text)
        doc = self.tr.span("cli.json", _json_or_reject, text)
        alloc = self.parse(allocation_from_json, doc, inst)
        alpha = self.tr.span("cli.alpha", _fraction_or_reject, args.alpha)
        verdict = self.tr.span("fairness.check_efx", check_efx, inst, alloc, alpha)
        self.tr.add("fairness.witnesses", len(verdict.witnesses))
        if args.orientation:
            self.tr.span("model.is_orientation", is_orientation, inst, alloc)
        self.emit(verdict.to_json)

    def do_decide(self, args) -> None:
        inst = self.instance(args.instance)
        if args.target == "orientation":
            result = self.oracle(oracle.decide_efx_orientation, inst, count=args.count)
        else:
            result = self.oracle(oracle.decide_efx_allocation, inst)
        self.emit(result.to_json)


SOLVERS = {"star": solvers.solve_multistar, "tree4": solvers.solve_multitree_d4_q2}


def _cut_every_pair(inst, parts) -> None:
    for a, b in inst.pairs():
        cutter = t_side_of((a, b), parts)
        cutting.cut(inst, cutter, b if cutter == a else a)


def _json_or_reject(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceError(str(exc)) from None


def _fraction_or_reject(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InstanceError(str(exc)) from None


def scale_probe(caches: list) -> dict:
    out = {}
    for n, m in SCALE_LADDER:
        inst = forge.random_instance(n, m, 4, "bipartite", seed=3)
        for cache in caches:
            cache.cache_clear()
        start = time.perf_counter()
        bipartite.complete_efx(inst)
        out[f"bipartite.scale_n{n}_s"] = (time.perf_counter() - start, "s")
    return out


def jobs2_probe() -> tuple[float, list[str]]:
    """``p4_qn(8)`` counted with two workers (never more than the machine's cores)."""
    jobs = min(2, os.cpu_count() or 1)
    start = time.perf_counter()
    result = oracle.decide_efx_orientation(forge.p4_qn(8), count=True, jobs=jobs)
    seconds = time.perf_counter() - start
    return seconds, [] if result.exists is False and result.count == 0 else ["p4_qn(8) with 2 jobs found an orientation"]


def import_probe(workdir: Path) -> float:
    """Median wall time of a cold ``python -m efx_multigraph analyze`` on a tiny instance."""
    path = workdir / "tiny.json"
    path.write_text(instance_to_text(forge.p4_q3()))
    env = dict(os.environ, PYTHONPATH=str(run.ROOT / "src"))
    times = []
    for _ in range(IMPORT_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-m", "efx_multigraph", "analyze", str(path)], env=env,
                       cwd=run.ROOT, check=True, stdout=subprocess.DEVNULL, timeout=60)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def metrics_from(tr: Tracer, n_ops: int) -> dict:
    total: dict[str, float] = {}
    per_op: list[dict[str, float]] = [{} for _ in range(n_ops)]
    op_span = [0.0] * n_ops
    for name, start, end, op, core in tr.spans:
        total[name] = total.get(name, 0.0) + end - start
        if name == "op":
            op_span[op] += end - start
        elif core:
            per_op[op][name] = per_op[op].get(name, 0.0) + end - start
    stages = ("bipartite.greedy", "bipartite.saturate", "bipartite.safe")
    finish = total.get("bipartite.complete", 0.0) - sum(total.get(name, 0.0) for name in stages)
    overhead = [op_span[k] - sum(v for name, v in per_op[k].items() if not name.startswith("cli."))
                for k in range(n_ops)]
    c = tr.counts.get
    ms = lambda name: (total.get(name, 0.0) * 1e3, "ms")
    s = lambda name: (total.get(name, 0.0), "s")
    count = lambda name: (c(name, 0), "count")
    calls = c("cutting.cut_calls", 0)
    return {
        "model.parse_ms": ms("model.parse"),
        "model.analyze_ms": ms("model.analyze"),
        "model.rejects": count("model.rejects"),
        "model.crashes": count("model.crashes"),
        "cutting.cut_calls": count("cutting.cut_calls"),
        "cutting.cut_computed": count("cutting.cut_computed"),
        "cutting.cut_hit_ratio": (_ratio(calls - c("cutting.cut_computed", 0), calls), "1"),
        "cutting.cut_ms": ms("cutting.cut"),
        "derived.available_set_ms": ms("derived.available_set"),
        "derived.safe_set_ms": ms("derived.safe_set"),
        "fairness.envied_set_ms": ms("fairness.envied_set"),
        "fairness.check_efx_ms": ms("fairness.check_efx"),
        "fairness.witnesses": count("fairness.witnesses"),
        "fairness.achieved_alpha_ms": ms("fairness.achieved_alpha"),
        "bipartite.greedy_s": s("bipartite.greedy"),
        "bipartite.saturate_s": s("bipartite.saturate"),
        "bipartite.safe_s": s("bipartite.safe"),
        "bipartite.finish_s": (finish, "s"),
        "bipartite.half_s": s("bipartite.half"),
        "bipartite.events_greedy": count("bipartite.events_greedy"),
        "bipartite.case1": count("bipartite.case1"),
        "bipartite.case2": count("bipartite.case2"),
        "bipartite.case3": count("bipartite.case3"),
        "bipartite.swaps": count("bipartite.swaps"),
        "bipartite.handoffs": count("bipartite.handoffs"),
        "solvers.star_ms": ms("solvers.star"),
        "solvers.tree4_ms": ms("solvers.tree4"),
        "solvers.cycle_ms": ms("solvers.cycle"),
        "solvers.triangle_fallbacks": count("solvers.triangle_fallbacks"),
        "oracle.nodes": count("oracle.nodes"),
        "oracle.nodes_per_s": (_ratio(c("oracle.nodes", 0), total.get("oracle.decide", 0.0)), "1/s"),
        "oracle.explored_ratio": (_ratio(c("oracle.nodes", 0), c("oracle.states", 0)), "1"),
        "oracle.prune_ratio": (_ratio(c("oracle.small_pruned", 0), c("oracle.small_unpruned", 0)), "1"),
        "cli.overhead_ms": (statistics.median(overhead) * 1e3, "ms"),
        "trace.op_spans_s": (sum(op_span), "s"),
    }


def traced_run(cli, caches: list, wl, seed: int, workdir: Path):
    _, results, _ = run.run_batch(cli, caches, wl.ops)
    untraced_s = sum(res.seconds for res in results)
    problems, failed = run.check_first_batch(wl, wl.ops, results, seed)

    tr = Tracer()
    replay = Replay(cli, caches, tr)
    for k, op in enumerate(wl.ops):
        tr.op = k
        replay.op(op.argv)
    metrics = metrics_from(tr, len(wl.ops))
    traced_s = metrics.pop("trace.op_spans_s")[0]
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "1")
    metrics["fail_ratio"] = (failed / len(wl.ops), "1")

    metrics |= scale_probe(caches)
    jobs2_s, more = jobs2_probe()
    problems += more
    metrics["oracle.jobs2_s"] = (jobs2_s, "s")
    metrics["cli.import_ms"] = (import_probe(workdir) * 1e3, "ms")
    details = {"untraced_batch_s": untraced_s, "traced_batch_s": traced_s,
               "counts": tr.counts,
               "spans": [[name, start, end, wl.ops[op].id, core]
                         for name, start, end, op, core in tr.spans]}
    return metrics, problems, failed, len(wl.ops), details
