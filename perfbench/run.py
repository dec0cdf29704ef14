"""Benchmark runner for the efx-multigraph CLI.

    python3 perfbench/run.py --workload bipartite-ladder --seed 1 --seconds 15 --trace 0

Run from anywhere inside a source checkout; the package is imported from the
checkout's ``src/`` and nowhere else.  One process, one caller, no threads: every
op goes through ``efx_multigraph.cli.main(argv)`` after the previous one returned
(a closed loop), with stdout and stderr captured and every output checked.

With ``--trace 0`` the fixed op list runs repeatedly until ``--seconds`` have
passed and the end-to-end metrics are printed.  With ``--trace 1`` one untraced
pass is followed by a traced replay and the probes in ``tracing.py``, and the
per-layer metrics are printed.  The last stdout line is the JSON result; a
human-readable summary goes to stderr, and the details (the tail percentile and
its sample count, per-op latencies, failures, spans) go to
``.bench_build/perfbench/`` in the checkout.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "perfbench"
DIGESTS = HERE / "digests.json"
# Stdout digests recorded for this seed must not change.
DEFAULT_SEED = 0
# Set-up repeats until both of these are reached; short set-ups repeat more.
SETUP_REPEATS = 7
SETUP_SECONDS = 1.5
# A run makes at least this many passes of the op list.
MIN_PASSES = 5
# Neighbours on a shared host slow a small VM's CPU, often to half speed, in
# bursts from milliseconds to minutes, and even the best speed the host allows
# drifts from minute to minute; CPU time slows as much as wall time.  So a fixed
# computation that uses none of the package (``speed_ref``) is timed right before
# every op and every set-up repeat, and reported times are scaled to the speed at
# which it takes REF_NOMINAL_S: each op time and each set-up repeat is divided by
# the reference time just before it.  An op's latency is the median of its
# scaled times over the run's passes.  The details file keeps unscaled times.
REF_NOMINAL_S = 0.00055
# The anchor op, the workload's longest, runs this many times in each pass, at
# spread-out points, so that its median has more samples.
ANCHOR_SAMPLES = 3
# op_tail_ms is the highest percentile with at least this many samples above it.
TAIL_SAMPLES = 10


def speed_ref() -> float:
    """Wall time of a fixed exact-fraction sum: REF_NOMINAL_S at the nominal speed."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 300):
        total += Fraction(1, i % 97 + 1)
    return time.perf_counter() - start


def import_cli():
    """Import ``efx_multigraph.cli`` from this checkout's ``src/``, or exit non-zero."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    try:
        import efx_multigraph.cli as cli
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import efx_multigraph from {src}: {exc}")
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"perfbench: efx_multigraph was imported from {cli.__file__}, not {src}")
    return cli


def find_caches() -> list:
    """Every attribute of the package's modules that has ``cache_clear``."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "efx_multigraph" or name.startswith("efx_multigraph."):
            for attr in list(vars(module).values()):
                if callable(getattr(attr, "cache_clear", None)):
                    found[id(attr)] = attr
    return list(found.values())


class Result:
    __slots__ = ("code", "out", "err", "seconds")

    def __init__(self, code, out: str, err: str, seconds: float):
        self.code = code
        self.out = out
        self.err = err
        self.seconds = seconds

    def digest(self) -> str:
        return hashlib.sha256(self.out.encode()).hexdigest()


def run_op(cli, caches: list, argv: list[str]) -> Result:
    """One op in the state of a fresh CLI process.  An exception that escapes
    ``cli.main`` is returned as its type name in place of an exit code."""
    for cache in caches:
        cache.cache_clear()
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # the contract says this must not happen; record it
            code = type(exc).__name__
        seconds = time.perf_counter() - start
    return Result(code, out.getvalue(), err.getvalue(), seconds)


def judge(op, res: Result) -> list[str]:
    if not isinstance(res.code, int):
        return [f"{res.code} escaped cli.main"]
    try:
        return op.check(res.code, res.out, res.err)
    except (ValueError, TypeError, KeyError, AttributeError) as exc:
        return [f"output could not be checked: {type(exc).__name__}: {exc}"]


def run_batch(cli, caches: list, ops: list) -> tuple[float, list[Result], list[float]]:
    """One pass over the op list: its wall time, each op's result, and the
    reference time taken right before each op."""
    gc.collect()
    start = time.perf_counter()
    results, refs = [], []
    for op in ops:
        refs.append(speed_ref())
        results.append(run_op(cli, caches, op.argv))
    return time.perf_counter() - start, results, refs


# Set-up imports these anew on every repeat, as a fresh CLI process would.
FRESH_MODULES = ("efx_multigraph", "workloads", "checks", "tracing")


def setup(name: str, seed: int, workdir: Path):
    """Import, input generation and file writes, and one warm-up op, repeated
    (the package and the benchmark's modules are imported anew each time).  Set-up
    time is the median repeat, each scaled by the reference time just before it."""
    os.environ.pop("EFX_ORACLE_BUDGET", None)
    repeats = []
    begin = time.perf_counter()
    while len(repeats) < SETUP_REPEATS or time.perf_counter() - begin < SETUP_SECONDS:
        for module in [m for m in sys.modules if m.split(".")[0] in FRESH_MODULES]:
            del sys.modules[module]
        gc.collect()  # frees the dropped modules, so peak memory does not grow with the repeats
        shutil.rmtree(workdir, ignore_errors=True)
        ref = speed_ref()
        start = time.perf_counter()
        cli = import_cli()
        import workloads
        caches = find_caches()
        wl = workloads.build(name, seed, workdir)
        warm = run_op(cli, caches, wl.warmup.argv)
        repeats.append((time.perf_counter() - start) * REF_NOMINAL_S / ref)
    problems = [f"warm-up {wl.warmup.id}: {p}" for p in judge(wl.warmup, warm)]
    return cli, caches, wl, statistics.median(repeats), problems


def check_first_batch(wl, ops: list, results: list[Result], seed: int) -> tuple[list[str], int]:
    """Problems that make the run incorrect, and the number of failing ops
    (known contract violations included)."""
    problems = []
    failed = 0
    for op, res in zip(ops, results):
        found = judge(op, res)
        if found:
            failed += 1
            if op.known is None:
                problems += [f"{op.id}: {p}" for p in found]
    if seed == DEFAULT_SEED:
        recorded = json.loads(DIGESTS.read_text()).get(wl.name, {})
        for op, res in zip(ops, results):
            if op.known is None and recorded.get(op.id) != res.digest():
                problems.append(f"{op.id}: stdout differs from the recorded digest")
    return problems, failed


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_SAMPLES samples above it: (value, percentile)."""
    ordered = sorted(values)
    k = max(len(ordered) - TAIL_SAMPLES - 1, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def measure(cli, caches, wl, seed: int, seconds: float):
    ids = [op.id for op in wl.ops]
    plan = list(range(len(ids)))  # op indices in the order of a pass
    for k in range(1, ANCHOR_SAMPLES):
        plan.insert(k * len(plan) // ANCHOR_SAMPLES, ids.index(wl.largest))
    ops = [wl.ops[i] for i in plan]
    start = time.perf_counter()
    batch_times, latencies, refs = [], [[] for _ in ids], [[] for _ in ids]
    first = None
    failed = 0
    while True:
        batch_s, results, batch_refs = run_batch(cli, caches, ops)
        batch_times.append(batch_s)
        for i, res, r in zip(plan, results, batch_refs):
            latencies[i].append(res.seconds)
            refs[i].append(r)
        digests = [(res.code, res.digest()) for res in results]
        if first is None:
            first = digests
            problems, failed_once = check_first_batch(wl, ops, results, seed)
        elif digests != first:
            problems.append("outputs changed between batches")
        failed += failed_once
        if len(batch_times) >= MIN_PASSES and time.perf_counter() - start >= seconds:
            break
    per_op = [statistics.median(s / r for s, r in zip(lat, ref)) * REF_NOMINAL_S
              for lat, ref in zip(latencies, refs)]
    tail_s, tail_pct = tail(per_op)
    metrics = {
        "batch_s": (sum(per_op), "s"),
        "op_p50_ms": (statistics.median(per_op) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "largest_op_s": (per_op[ids.index(wl.largest)], "s"),
    }
    details = {"passes_s": batch_times, "tail_percentile": tail_pct, "tail_samples": len(per_op),
               "best_ref_s": min(map(min, refs)), "per_op_s": dict(zip(ids, per_op)),
               "per_op_best_unscaled_s": {i: min(lat) for i, lat in zip(ids, latencies)},
               "samples_s": {i: [lat, ref] for i, lat, ref in zip(ids, latencies, refs)}}
    return metrics, problems, failed, len(ops) * len(batch_times), details


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def record_digests(cli, caches, wl) -> None:
    _, results, _ = run_batch(cli, caches, wl.ops)
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    table[wl.name] = {op.id: res.digest() for op, res in zip(wl.ops, results) if op.known is None}
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["bipartite-ladder", "oracle-families", "cli-mixed"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help=f"rewrite the stdout digests of seed {DEFAULT_SEED} and exit")
    args = parser.parse_args(argv)
    if args.record_digests and args.seed != DEFAULT_SEED:
        parser.error(f"digests are recorded for seed {DEFAULT_SEED} only")

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        cli, caches, wl, setup_s, problems = setup(args.workload, args.seed, workdir)
        if args.record_digests:
            record_digests(cli, caches, wl)
            return 0
        if args.trace:
            import tracing
            metrics, more, failed, attempted, details = tracing.traced_run(cli, caches, wl, args.seed, workdir)
        else:
            metrics, more, failed, attempted, details = measure(cli, caches, wl, args.seed, args.seconds)
            metrics["setup_s"] = (setup_s, "s")
            metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    problems += more
    details |= {"workload": wl.name, "seed": args.seed, "trace": args.trace, "ops": len(wl.ops),
                "failed": failed, "attempted": attempted, "problems": problems,
                "known_violations": {op.id: op.known for op in wl.ops if op.known}}
    WORK.mkdir(parents=True, exist_ok=True)
    detail_path = WORK / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    detail_path.write_text(json.dumps(details, indent=1) + "\n")
    for p in problems[:20]:
        print(f"perfbench: {p}", file=sys.stderr)
    print(f"perfbench: {wl.name} seed {args.seed}: {attempted} ops attempted, {failed} failed "
          f"({len(details['known_violations'])} known violations per pass); details in {detail_path}",
          file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
