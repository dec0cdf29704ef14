"""Command-line front end over the JSON instance/allocation formats.

Exactly one JSON document goes to stdout; human-readable notes go to stderr.
Exit codes: 0 ok, 1 usage/parse errors, 2 verification failure, 3 oracle budget
exceeded, 4 method/structure mismatch.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from fractions import Fraction

from . import bipartite, forge, oracle, solvers
from .fairness import achieved_alpha, check_efx
from .model import (
    FAMILY_CYCLE,
    Allocation,
    Instance,
    InstanceError,
    StructureError,
    allocation_to_json,
    analyze_structure,
    instance_to_json,
    is_orientation,
    load_allocation,
    load_instance,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY_FAIL = 2
EXIT_BUDGET = 3
EXIT_STRUCTURE = 4


def _read_instance(arg: str) -> Instance:
    return load_instance(sys.stdin if arg == "-" else arg)


def _read_allocation(arg: str, inst: Instance) -> Allocation:
    return load_allocation(sys.stdin if arg == "-" else arg, inst)


def _emit(doc: dict) -> None:
    print(json.dumps(doc, indent=2))


def _oracle_budget(args) -> int:
    if args.budget is not None:
        return args.budget
    env = os.environ.get("EFX_ORACLE_BUDGET")
    return int(env) if env else oracle.DEFAULT_BUDGET


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InstanceError(f"not a rational: {text!r} ({exc})") from None


def _parse_set(text: str) -> tuple[int, ...]:
    """A comma-separated partition multiset."""
    return tuple(int(part) for part in text.split(",") if part != "")


def _solve(inst: Instance, method: str, budget: int) -> tuple[Allocation, bipartite.PipelineTrace | None]:
    if method == "bipartite":
        return bipartite.complete_efx(inst)
    if method == "star":
        return solvers.solve_multistar(inst), None
    if method == "tree4":
        return solvers.solve_multitree_d4_q2(inst), None
    if method == "cycle":
        return _solve_cycle(inst, budget), None
    report = analyze_structure(inst)
    if report.bipartition is not None:
        return bipartite.complete_efx(inst)
    if report.family == FAMILY_CYCLE:
        return _solve_cycle(inst, budget), None
    raise StructureError(
        "no constructive method covers this instance: its skeleton is neither "
        "bipartite nor a single cycle, and EFX existence on general multi-graphs "
        "is an open question")


def _solve_cycle(inst: Instance, budget: int) -> Allocation:
    try:
        return solvers.solve_multicycle(inst)
    except StructureError as exc:
        if "3-cycle" not in str(exc):
            raise
        print("triangle skeleton: falling back to the exhaustive search", file=sys.stderr)
        result = oracle.decide_efx_allocation(inst, budget=budget)
        if not result.exists or result.witness is None:
            raise StructureError("exhaustive search found no complete EFX allocation") from None
        return result.witness


def _cmd_solve(args) -> int:
    inst = _read_instance(args.instance)
    alloc, trace = _solve(inst, args.method, _oracle_budget(args))
    doc = allocation_to_json(alloc)
    if args.trace:
        doc["trace"] = trace.to_json() if trace is not None else {"snapshots": {"final": allocation_to_json(alloc)["bundles"]}, "events": []}
    _emit(doc)
    return EXIT_OK


def _cmd_orient(args) -> int:
    inst = _read_instance(args.instance)
    if args.method == "star":
        alloc = solvers.solve_multistar(inst)
    elif args.method == "tree4":
        alloc = solvers.solve_multitree_d4_q2(inst)
    else:
        alloc = bipartite.half_efx_orientation(inst)
    doc = allocation_to_json(alloc)
    doc["alpha_per_agent"] = [str(achieved_alpha(inst, alloc, a)) for a in range(inst.n)]
    _emit(doc)
    return EXIT_OK


def _cmd_verify(args) -> int:
    inst = _read_instance(args.instance)
    alloc = _read_allocation(args.allocation, inst)
    alpha = _parse_fraction(args.alpha)
    verdict = check_efx(inst, alloc, alpha)
    doc = verdict.to_json()
    if args.orientation:
        doc["is_orientation"] = is_orientation(inst, alloc)
        if not doc["is_orientation"]:
            doc["pass"] = False
    _emit(doc)
    return EXIT_OK if doc["pass"] else EXIT_VERIFY_FAIL


def _cmd_decide(args) -> int:
    if args.jobs < 1:
        raise InstanceError(f"--jobs must be at least 1, got {args.jobs}")
    # More workers than cores only adds processes and memory.
    jobs = min(args.jobs, os.cpu_count() or 1)
    inst = _read_instance(args.instance)
    budget = _oracle_budget(args)
    if args.target == "orientation":
        result = oracle.decide_efx_orientation(inst, budget=budget, count=args.count,
                                               jobs=jobs)
    else:
        if args.count:
            raise InstanceError("--count is only available for --target orientation")
        result = oracle.decide_efx_allocation(inst, budget=budget, jobs=jobs)
    _emit(result.to_json())
    return EXIT_OK


def _cmd_gen(args) -> int:
    fields = dataclasses.fields(forge.FamilySpec)
    spec = forge.FamilySpec(**{f.name: getattr(args, f.name) for f in fields})
    _emit(instance_to_json(forge.generate(spec)))
    return EXIT_OK


def _cmd_reduce_partition(args) -> int:
    inst = forge.reduce_partition(args.pset, args.eps, args.delta)
    _emit(instance_to_json(inst))
    return EXIT_OK


def _cmd_analyze(args) -> int:
    inst = _read_instance(args.instance)
    _emit(analyze_structure(inst).to_json())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="efx-multigraph",
                                     description="EFX solvers, verifier and oracle "
                                                 "for multi-graph fair division")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="compute a complete EFX allocation")
    p.add_argument("instance", nargs="?", default="-")
    p.add_argument("--method", choices=["auto", "bipartite", "star", "tree4", "cycle"],
                   default="auto")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("orient", help="compute an EFX / half-EFX orientation")
    p.add_argument("instance", nargs="?", default="-")
    p.add_argument("--method", choices=["star", "tree4", "half-efx"], required=True)
    p.set_defaults(func=_cmd_orient)

    p = sub.add_parser("verify", help="check an allocation for alpha-EFX")
    p.add_argument("instance")
    p.add_argument("allocation")
    p.add_argument("--alpha", default="1")
    p.add_argument("--orientation", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("decide", help="exhaustive existence search")
    p.add_argument("instance", nargs="?", default="-")
    p.add_argument("--target", choices=["orientation", "allocation"], required=True)
    p.add_argument("--count", action="store_true")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_decide)

    # gen's options are FamilySpec's fields, under the same names (dest).
    p = sub.add_parser("gen", help="generate a benchmark instance")
    p.add_argument("--family", choices=list(forge.ALL_FAMILIES), required=True)
    p.add_argument("--eps", type=_parse_fraction, default=forge.DEFAULT_EPS)
    p.add_argument("--delta", type=_parse_fraction, default=forge.DEFAULT_DELTA)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--set", dest="pset", metavar="SET", type=_parse_set, default=None,
                   help="comma-separated partition multiset")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--q-max", dest="q_max", type=int, default=None)
    p.add_argument("--shape", choices=["star", "tree", "cycle", "bipartite"], default=None)
    p.add_argument("--num-max", dest="num_max", type=int, default=1000)
    p.add_argument("--den-max", dest="den_max", type=int, default=1000)
    p.add_argument("--symmetric", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("reduce-partition", help="emit the partition gadget instance")
    p.add_argument("--set", dest="pset", metavar="SET", type=_parse_set, required=True,
                   help="comma-separated partition multiset")
    p.add_argument("--eps", type=_parse_fraction, default=forge.DEFAULT_EPS)
    p.add_argument("--delta", type=_parse_fraction, default=forge.DEFAULT_DELTA)
    p.set_defaults(func=_cmd_reduce_partition)

    p = sub.add_parser("analyze", help="report the instance structure")
    p.add_argument("instance", nargs="?", default="-")
    p.set_defaults(func=_cmd_analyze)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except oracle.BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except StructureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STRUCTURE
    except (InstanceError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    sys.exit(main())
