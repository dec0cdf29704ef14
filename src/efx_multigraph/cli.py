"""Command-line front end over the JSON instance/allocation formats.

Exactly one JSON document goes to stdout; human-readable notes go to stderr.
Exit codes: 0 ok, 1 usage/parse errors, 2 verification failure, 3 oracle budget
exceeded, 4 method/structure mismatch.

Each command declares its arguments once, in ``COMMANDS``.  ``main`` reads a plain
argv (see ``_read_plain``) straight from that declaration; the argparse parser of
every command, built from the same declarations, reads the rest and writes help
and usage errors.

This module imports only ``model`` at the top.  Each command imports the modules
it runs when it runs (``_module``): ``verify`` and ``orient`` import ``fairness``,
``decide`` the oracle, ``gen`` and ``reduce-partition`` ``forge`` (in their
argument declarations too, so building the full parser loads it), and ``solve``
and ``orient`` the solver module their method names.  A method is a
``"module.function"`` name.
"""
from __future__ import annotations

import argparse
import dataclasses
import importlib
import os
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from .model import (
    FAMILY_CYCLE,
    Allocation,
    BudgetExceededError,
    Instance,
    InstanceError,
    StructureError,
    allocation_to_json,
    analyze_structure,
    instance_to_json,
    is_orientation,
    json_text,
    load_allocation,
    load_instance,
    parse_rational,
    skeleton_family,
    two_coloring,
)

if TYPE_CHECKING:
    from .bipartite import PipelineTrace

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY_FAIL = 2
EXIT_BUDGET = 3
EXIT_STRUCTURE = 4


def _source(arg: str):
    """A path, or for "-" standard input: its bytes when it has them, so that the
    reader decodes them as UTF-8 whatever the locale."""
    return getattr(sys.stdin, "buffer", sys.stdin) if arg == "-" else arg


def _read_instance(arg: str) -> Instance:
    return load_instance(_source(arg))


def _read_allocation(arg: str, inst: Instance) -> Allocation:
    return load_allocation(_source(arg), inst)


def _emit(doc: dict) -> None:
    print(json_text(doc))


def _module(name: str):
    """This package's module ``name``: read from ``sys.modules``, and imported only
    the first time.  Callers read its attributes on every call, so a replaced one
    takes effect."""
    module = f"{__package__}.{name}"
    return sys.modules.get(module) or importlib.import_module(module)


def _oracle_budget(args) -> int | None:
    """The state budget of an oracle run, at least 1, or None for the oracle's default;
    read only where the oracle runs, so a malformed ``EFX_ORACLE_BUDGET`` fails no
    command that never searches."""
    source, budget = "--budget", args.budget
    if budget is None:
        source, env = "EFX_ORACLE_BUDGET", os.environ.get("EFX_ORACLE_BUDGET")
        if not env:
            return None
        try:
            budget = int(env)
        except ValueError:
            raise InstanceError(f"{source} must be an integer, got {env!r}") from None
    if budget < 1:
        raise InstanceError(f"{source} must be at least 1, got {budget}")
    return budget


def _rational_option(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except InstanceError as exc:  # argparse would name this function instead
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_set(text: str) -> tuple[int, ...]:
    """A comma-separated partition multiset."""
    try:
        return tuple(int(part) for part in text.split(",") if part != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of integers: {text!r}") from None


# --method name -> the solver's "module.function" name in this package; each solver
# takes the instance and a keyword ``trace``.
SOLVE_METHODS = {"bipartite": "bipartite.efx_completion", "star": "solvers.solve_multistar",
                 "tree4": "solvers.solve_multitree_d4_q2", "cycle": "solvers.solve_multicycle"}
ORIENT_METHODS = {"star": "solvers.solve_multistar", "tree4": "solvers.solve_multitree_d4_q2",
                  "half-efx": "bipartite.half_efx_orientation"}


def _function(method: str):
    """The function a ``"module.function"`` name names."""
    module, _, name = method.partition(".")
    return getattr(_module(module), name)


def _auto_method(inst: Instance) -> str:
    """``--method auto``: the pipeline on a bipartite skeleton, else the cycle solver on a
    single cycle.  Both tests are linear; a structure report adds the largest component's
    eccentricities, O(diameter * skeleton pairs * size / 64) word operations."""
    if two_coloring(inst) is not None:
        return SOLVE_METHODS["bipartite"]
    if skeleton_family(inst, bipartite=False) == FAMILY_CYCLE:
        return SOLVE_METHODS["cycle"]
    raise StructureError(
        "no constructive method covers this instance: its skeleton is neither "
        "bipartite nor a single cycle, and EFX existence on general multi-graphs "
        "is an open question")


def _solve(inst: Instance, args, trace: PipelineTrace | None) -> Allocation:
    """The allocation by ``args.method``; a given trace records the solver's run."""
    method = SOLVE_METHODS.get(args.method) or _auto_method(inst)  # only "auto" is no key
    if method == SOLVE_METHODS["cycle"] and inst.n == 3 and len(inst.pairs()) == 3:
        # The cycle solver has no rule for a triangle; search exhaustively.
        budget = _oracle_budget(args)
        print("triangle skeleton: falling back to the exhaustive search", file=sys.stderr)
        result = _module("oracle").decide_efx_allocation(inst, budget=budget)
        if not result.exists or result.witness is None:
            raise StructureError("exhaustive search found no complete EFX allocation")
        return _module("bipartite").checked(inst, result.witness.bundles, orientation=False,
                                            label="exhaustive search", trace=trace)
    return _function(method)(inst, trace=trace)


def _cmd_solve(args) -> int:
    inst = _read_instance(args.instance)
    trace = _module("bipartite").PipelineTrace() if args.trace else None
    doc = allocation_to_json(_solve(inst, args, trace))
    if trace is not None:
        doc["trace"] = trace.to_json()
    _emit(doc)
    return EXIT_OK


def _cmd_orient(args) -> int:
    inst = _read_instance(args.instance)
    alloc = _function(ORIENT_METHODS[args.method])(inst)
    doc = allocation_to_json(alloc)
    achieved_alpha = _module("fairness").achieved_alpha
    doc["alpha_per_agent"] = [str(achieved_alpha(inst, alloc, a)) for a in range(inst.n)]
    _emit(doc)
    return EXIT_OK


def _cmd_verify(args) -> int:
    inst = _read_instance(args.instance)
    alloc = _read_allocation(args.allocation, inst)
    alpha = parse_rational(args.alpha)
    verdict = _module("fairness").check_efx(inst, alloc, alpha)
    doc = verdict._json_doc()
    if args.orientation:
        doc["is_orientation"] = is_orientation(inst, alloc)
        if not doc["is_orientation"]:
            doc["pass"] = False
    _emit(doc)
    return EXIT_OK if doc["pass"] else EXIT_VERIFY_FAIL


def _cmd_decide(args) -> int:
    if args.jobs < 1:
        raise InstanceError(f"--jobs must be at least 1, got {args.jobs}")
    # More workers than cores only adds processes and memory.  One job needs no
    # core count.
    jobs = args.jobs if args.jobs == 1 else min(args.jobs, os.cpu_count() or 1)
    oracle = _module("oracle")
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
    forge = _module("forge")
    fields = dataclasses.fields(forge.FamilySpec)
    spec = forge.FamilySpec(**{f.name: getattr(args, f.name, f.default) for f in fields})
    _emit(instance_to_json(forge.generate(spec)))
    return EXIT_OK


def _cmd_analyze(args) -> int:
    inst = _read_instance(args.instance)
    _emit(analyze_structure(inst).to_json())
    return EXIT_OK


def _solve_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("instance", nargs="?", default="-")
    p.add_argument("--method", choices=["auto", *SOLVE_METHODS], default="auto")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--budget", type=int, default=None)


def _orient_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("instance", nargs="?", default="-")
    p.add_argument("--method", choices=list(ORIENT_METHODS), required=True)


def _verify_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("instance")
    p.add_argument("allocation")
    p.add_argument("--alpha", default="1")
    p.add_argument("--orientation", action="store_true")


def _decide_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("instance", nargs="?", default="-")
    p.add_argument("--target", choices=["orientation", "allocation"], required=True)
    p.add_argument("--count", action="store_true")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1)


def _gen_arguments(p: argparse.ArgumentParser) -> None:
    # gen's options are FamilySpec's fields, under the same names (dest).
    forge = _module("forge")
    p.add_argument("--family", choices=list(forge.ALL_FAMILIES), required=True)
    p.add_argument("--eps", type=_rational_option, default=forge.DEFAULT_EPS)
    p.add_argument("--delta", type=_rational_option, default=forge.DEFAULT_DELTA)
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


def _reduce_partition_arguments(p: argparse.ArgumentParser) -> None:
    # gen with the family fixed: the same handler writes the same document.
    forge = _module("forge")
    p.set_defaults(family="np-gadget")
    p.add_argument("--set", dest="pset", metavar="SET", type=_parse_set, required=True,
                   help="comma-separated partition multiset")
    p.add_argument("--eps", type=_rational_option, default=forge.DEFAULT_EPS)
    p.add_argument("--delta", type=_rational_option, default=forge.DEFAULT_DELTA)


def _analyze_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("instance", nargs="?", default="-")


# Command name -> (help, argument adder, handler), in the order of the usage line.
COMMANDS = {
    "solve": ("compute a complete EFX allocation", _solve_arguments, _cmd_solve),
    "orient": ("compute an EFX / half-EFX orientation", _orient_arguments, _cmd_orient),
    "verify": ("check an allocation for alpha-EFX", _verify_arguments, _cmd_verify),
    "decide": ("exhaustive existence search", _decide_arguments, _cmd_decide),
    "gen": ("generate a benchmark instance", _gen_arguments, _cmd_gen),
    "reduce-partition": ("emit the partition gadget instance", _reduce_partition_arguments,
                         _cmd_gen),
    "analyze": ("report the instance structure", _analyze_arguments, _cmd_analyze),
}


def _declare(p, name: str) -> None:
    """Command ``name``'s arguments and handler, on an argparse parser or a ``_Declared``."""
    _, add_arguments, handler = COMMANDS[name]
    add_arguments(p)
    p.set_defaults(func=handler)


def build_parser() -> argparse.ArgumentParser:
    """The parser of every command."""
    parser = argparse.ArgumentParser(prog="efx-multigraph",
                                     description="EFX solvers, verifier and oracle "
                                                 "for multi-graph fair division")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in COMMANDS.items():
        _declare(sub.add_parser(name, help=help_text), name)
    return parser


class _Declared:
    """A command's arguments as ``_declare`` gives them, keyed by option string."""

    def __init__(self) -> None:
        self.options, self.positionals, self.defaults = {}, [], {}

    def add_argument(self, name: str, **kw) -> None:
        if name.startswith("-"):
            kw.setdefault("dest", name.lstrip("-").replace("-", "_"))
            kw.setdefault("default", False if kw.get("action") == "store_true" else None)
            self.options[name] = kw
        else:
            self.positionals.append({"dest": name, **kw})

    def set_defaults(self, **kw) -> None:
        self.defaults.update(kw)


def _value(kw: dict, text: str):
    """``text`` by the declared type and choices; raises where argparse would report."""
    value = kw["type"](text) if kw.get("type") else text
    if kw.get("choices") is not None and value not in kw["choices"]:
        raise ValueError(value)
    return value


def _read_plain(argv: list[str]) -> argparse.Namespace | None:
    """The full parser's Namespace for a plain argv, else None.  Plain means the command,
    then exact long options, each with a separate value that does not start with "-",
    ``store_true`` flags, each at most once, and positionals ("-" is one)."""
    if not argv or argv[0] not in COMMANDS:
        return None
    decl = _Declared()
    _declare(decl, argv[0])
    tokens, positionals, values = iter(argv[1:]), iter(decl.positionals), {}
    try:
        for token in tokens:
            if token.startswith("-") and token != "-":
                kw = decl.options.get(token)
                if kw is None or kw["dest"] in values:
                    return None
                if kw.get("action") == "store_true":
                    values[kw["dest"]] = True
                    continue
                token = next(tokens, "-")
                if token.startswith("-"):
                    return None
            elif (kw := next(positionals, None)) is None:
                return None
            values[kw["dest"]] = _value(kw, token)
        if any(kw.get("nargs") != "?" for kw in positionals) or any(
                kw.get("required") and kw["dest"] not in values for kw in decl.options.values()):
            return None
        for kw in [*decl.positionals, *decl.options.values()]:
            default = kw.get("default")
            values.setdefault(kw["dest"], _value(kw, default) if isinstance(default, str) else default)
    except (ValueError, TypeError, argparse.ArgumentTypeError):
        return None
    return argparse.Namespace(command=argv[0], **{**decl.defaults, **values})


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read_plain(argv)
    if args is None:  # argparse writes the help and the usage errors
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except BudgetExceededError as exc:
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
