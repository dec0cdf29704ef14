"""The benchmark's three workloads: seeded inputs, CLI argument lists, checks.

``build(name, seed, workdir)`` draws every input from ``random.Random`` seeded
with the workload name and the seed, writes the JSON documents under
``workdir`` and returns the fixed op list.  Each workload also has one anchor
op on a fixed input (the same on every seed); it is the workload's most
expensive op, and ``largest_op_s`` reports its latency.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable

from efx_multigraph import forge
from efx_multigraph.model import InstanceError, build_instance, instance_to_json

import checks
from checks import Inst

HALF = Fraction(1, 2)
# Instances at or below this many states are also counted by brute force.
BRUTE_FORCE_STATES = 1024


@dataclass
class Op:
    id: str
    argv: list[str]
    check: Callable[[int, str, str], list[str]]
    known: str | None = None


@dataclass
class Workload:
    name: str
    ops: list[Op]
    warmup: Op
    largest: str


class _Files:
    def __init__(self, workdir: Path):
        self.dir = workdir
        self.count = 0

    def write(self, content: object) -> str:
        self.count += 1
        path = self.dir / f"doc{self.count:04d}.json"
        path.write_text(content if isinstance(content, str) else json.dumps(content))
        return str(path)


def _expect_ok(judge: Callable[[str], list[str]], code: int, out: str, err: str) -> list[str]:
    problems = checks.contract(code, out, err)
    if problems:
        return problems
    if code != 0:
        return [f"exit {code}, expected 0"]
    return judge(out)


def _expect_exit(want: int, code: int, out: str, err: str) -> list[str]:
    problems = checks.contract(code, out, err)
    return problems or ([] if code == want else [f"exit {code}, expected {want}"])


def _random(rng: random.Random, n: int, m: int, q_max: int, shape: str, **kw):
    """``forge.random_instance`` with a drawn seed; redraws when a lopsided random
    bipartition leaves too few pairs for m edges."""
    for _ in range(100):
        try:
            return forge.random_instance(n, m, q_max, shape, seed=rng.randrange(2**31), **kw)
        except InstanceError:
            continue
    raise InstanceError(f"no {shape} instance with n={n}, m={m}, q_max={q_max}")


def _pipeline_ops(files: _Files, label: str, inst) -> list[Op]:
    doc = instance_to_json(inst)
    path = files.write(doc)
    ref = Inst(doc)
    return [
        Op(f"solve-bipartite/{label}", ["solve", path, "--method", "bipartite"],
           partial(_expect_ok, partial(checks.check_allocation_output, ref, orientation=False, min_alpha=None))),
        Op(f"orient-half-efx/{label}", ["orient", path, "--method", "half-efx"],
           partial(_expect_ok, partial(checks.check_allocation_output, ref, orientation=True, min_alpha=HALF))),
    ]


# (n, m, instances, ops per instance): symmetric and asymmetric valuations
# alternate, den_max cycles.  Sorted by latency, the ops form three groups (8/20
# orients, 8/20 solves, 12/36 solves) below the anchor; the median op falls
# inside the second group and the tail op inside the third, so neither jumps
# between groups from seed to seed.
LADDER = ((8, 20, 30, 2), (12, 36, 24, 1))
DEN_MAX = (1, 8, 1000)


def bipartite_ladder(rng: random.Random, files: _Files) -> Workload:
    ops: list[Op] = []
    for n, m, count, per_instance in LADDER:
        for k in range(count):
            inst = _random(rng, n, m, 4, "bipartite", symmetric=k % 2 == 0, den_max=DEN_MAX[k % 3])
            ops += _pipeline_ops(files, f"{n}x{m}#{k}", inst)[:per_instance]
    # The ROADMAP ladder rung, identical on every seed.
    ops += _pipeline_ops(files, "16x60#anchor", forge.random_instance(16, 60, 4, "bipartite", seed=3))[:1]
    warmup = _pipeline_ops(files, "warmup", _random(rng, 8, 20, 4, "bipartite"))[0]
    return Workload("bipartite-ladder", ops, warmup, "solve-bipartite/16x60#anchor")


def _decide_op(files: _Files, label: str, inst, target: str, counting: bool,
               exists: bool | None = None) -> Op:
    doc = instance_to_json(inst)
    path = files.write(doc)
    ref = Inst(doc)
    space = 2 ** ref.m if target == "orientation" else ref.n ** ref.m
    argv = ["decide", path, "--target", target, "--jobs", "1"] + (["--count"] if counting else [])
    judge = partial(checks.check_decide_output, ref, target=target, counting=counting,
                    exists=exists, small=space <= BRUTE_FORCE_STATES)
    return Op(f"decide-{target}{'-count' if counting else ''}/{label}", argv, partial(_expect_ok, judge))


GADGETS = ((3, 1, 1, 2, 2, 1), (3, 1, 1, 2, 2, 2))
# Seeded np_gadget multisets of this many parts take near-equal time to count,
# and form the group the tail op falls in.
SEEDED_GADGET_PARTS = 5


def oracle_families(rng: random.Random, files: _Files) -> Workload:
    # Sorted by latency, the seeded ops form groups of one kind and size: small
    # allocation searches, 4/8 orientation counts (the median op falls inside
    # them) and five-part gadgets (the tail op falls inside them), so the median
    # and the tail op do not jump between groups from seed to seed.
    ops: list[Op] = []
    gadgets = list(GADGETS) + [tuple(rng.randint(1, 6) for _ in range(SEEDED_GADGET_PARTS)) for _ in range(12)]
    for pset in gadgets:
        ops.append(_decide_op(files, "np_gadget" + "".join(map(str, pset)), forge.np_gadget(pset),
                              "orientation", True, exists=checks.splits_evenly(pset)))
    families = [(f"p4_qn{q}", forge.p4_qn(q)) for q in range(4, 8)]
    families += [("c4_counter", forge.c4_counter()), ("p4_q3", forge.p4_q3()), ("p6_counter", forge.p6_counter())]
    for label, inst in families:
        ops.append(_decide_op(files, label, inst, "orientation", True, exists=False))
    for k in range(24):
        inst = _random(rng, 4, 8, 4, "bipartite", symmetric=k % 2 == 0)
        ops.append(_decide_op(files, f"bipartite#{k}", inst, "orientation", True))
    ops.append(_decide_op(files, "running_example", forge.running_example(), "orientation", False))
    ops.append(_decide_op(files, "c4_counter", forge.c4_counter(), "allocation", False))
    for k in range(10):
        ops.append(_decide_op(files, f"bipartite#{k}",
                              _random(rng, 3, 5, 3, "bipartite"), "allocation", False))
        ops.append(_decide_op(files, f"triangle#{k}",
                              _random(rng, 3, 5, 3, "cycle"), "allocation", False))
    warmup = _decide_op(files, "warmup", forge.p4_q3(), "orientation", True, exists=False)
    return Workload("oracle-families", ops, warmup, "decide-orientation/running_example")


# --- cli-mixed -------------------------------------------------------------

FAMILY = {"star": "multi-star", "cycle": "multi-cycle"}


def _allocation(rng: random.Random, inst, orientation: bool) -> list[list[int]]:
    bundles: list[list[int]] = [[] for _ in range(inst.n)]
    for e in inst.edges:
        bundles[rng.choice((e.u, e.v)) if orientation else rng.randrange(inst.n)].append(e.id)
    return bundles


def _verify_op(files: _Files, label: str, inst_path: str, ref: Inst, bundles: list[list[int]],
               alpha: Fraction, orientation_flag: bool) -> Op:
    alloc_path = files.write({"bundles": bundles})
    argv = ["verify", inst_path, alloc_path, "--alpha", str(alpha)] + (["--orientation"] if orientation_flag else [])
    judge = partial(checks.check_verify_output, ref, bundles, alpha, orientation_flag)

    def check(code: int, out: str, err: str) -> list[str]:
        problems = checks.contract(code, out, err)
        if problems or code not in (0, 2):
            return problems or [f"exit {code}, expected 0 or 2"]
        return judge(code, out)

    return Op(f"verify/{label}", argv, check)


def _malformed(files: _Files, small_path: str) -> list[Op]:
    edge = {"u": 0, "v": 1, "wu": "1", "wv": "2"}
    instances = {
        "not-json": "{",
        "empty-file": "",
        "array": [],
        "no-n": {"edges": []},
        "no-edges": {"n": 2},
        "n-zero": {"n": 0, "edges": []},
        "n-negative": {"n": -1, "edges": []},
        "n-string": {"n": "2", "edges": [edge]},
        "n-bool": {"n": True, "edges": []},
        "edges-object": {"n": 2, "edges": {}},
        "edge-not-object": {"n": 2, "edges": [1]},
        "edge-no-wv": {"n": 2, "edges": [{"u": 0, "v": 1, "wu": "1"}]},
        "weight-word": {"n": 2, "edges": [edge | {"wu": "abc"}]},
        "weight-zero": {"n": 2, "edges": [edge | {"wu": "0"}]},
        "weight-negative": {"n": 2, "edges": [edge | {"wv": "-1/2"}]},
        "weight-float": {"n": 2, "edges": [edge | {"wu": 1.5}]},
        "self-loop": {"n": 2, "edges": [edge | {"v": 0}]},
        "agent-range": {"n": 2, "edges": [edge | {"v": 5}]},
    }
    known_instances = {
        "weight-1/0": ({"n": 2, "edges": [edge | {"wu": "1/0"}]}, "ZeroDivisionError escapes"),
        "u-true": ({"n": 2, "edges": [edge | {"u": True, "v": 0}]}, "accepted, echoes true"),
    }
    # Against the small instance's three edges between agents 0 and 1.
    allocations = {
        "alloc-not-json": "[",
        "alloc-no-bundles": {},
        "alloc-short": {"bundles": [[0, 1, 2]]},
        "alloc-range": {"bundles": [[0, 1, 7], []]},
        "alloc-twice": {"bundles": [[0, 1], [1, 2]]},
        "alloc-string-id": {"bundles": [["0"], [1, 2]]},
    }
    known_allocations = {
        "bundle-nested": ({"bundles": [[[1]], [0, 2]]}, "TypeError escapes"),
        "bundle-null": ({"bundles": [None, [0, 1, 2]]}, "TypeError escapes"),
        "bundle-object": ({"bundles": [{}, []]}, "accepted as an empty bundle"),
    }
    ops = []
    for label, doc in instances.items():
        ops.append(Op(f"malformed/{label}", ["analyze", files.write(doc)], partial(_expect_exit, 1)))
    for label, (doc, why) in known_instances.items():
        ops.append(Op(f"malformed/{label}", ["analyze", files.write(doc)], partial(_expect_exit, 1), why))
    for label, doc in allocations.items():
        ops.append(Op(f"malformed/{label}", ["verify", small_path, files.write(doc)], partial(_expect_exit, 1)))
    for label, (doc, why) in known_allocations.items():
        ops.append(Op(f"malformed/{label}", ["verify", small_path, files.write(doc)], partial(_expect_exit, 1), why))
    good_alloc = files.write({"bundles": [[0], [1, 2]]})
    for label, argv in (("alpha-word", ["verify", small_path, good_alloc, "--alpha", "abc"]),
                        ("alpha-above-one", ["verify", small_path, good_alloc, "--alpha", "2"]),
                        ("missing-file", ["analyze", str(files.dir / "absent.json")]),
                        ("bad-method", ["solve", small_path, "--method", "greedy"])):
        ops.append(Op(f"malformed/{label}", argv, partial(_expect_exit, 1)))
    return ops


def cli_mixed(rng: random.Random, files: _Files) -> Workload:
    ops: list[Op] = []

    def add_instance(label: str, inst, family: str | None) -> tuple[str, Inst]:
        doc = instance_to_json(inst)
        path = files.write(doc)
        ref = Inst(doc)
        ops.append(Op(f"analyze/{label}", ["analyze", path],
                      partial(_expect_ok, partial(checks.check_analyze_output, ref, family=family))))
        return path, ref

    def solve(label: str, path: str, ref: Inst, method: str) -> None:
        ops.append(Op(f"solve-{method}/{label}", ["solve", path, "--method", method],
                      partial(_expect_ok, partial(checks.check_allocation_output, ref, orientation=False, min_alpha=None))))

    def orient(label: str, path: str, ref: Inst, method: str) -> None:
        ops.append(Op(f"orient-{method}/{label}", ["orient", path, "--method", method],
                      partial(_expect_ok, partial(checks.check_allocation_output, ref, orientation=True, min_alpha=Fraction(1)))))

    for shape, q_max, methods in (("star", 3, ("star", "auto")), ("tree", 2, ("tree4", "auto"))):
        for k in range(12):
            n = rng.randint(4, 10)
            inst = _random(rng, n, rng.randint(n - 1, q_max * (n - 1)), q_max, shape, symmetric=k % 2 == 0)
            label = f"{shape}#{k}"
            path, ref = add_instance(label, inst, FAMILY.get(shape))
            for method in methods if k % 2 == 0 else methods[:1]:
                solve(label, path, ref, method)
            orient(label, path, ref, methods[0])
            ops.append(_verify_op(files, label, path, ref, _allocation(rng, inst, True),
                                  rng.choice((Fraction(1), HALF)), True))
    for kind, sizes in (("even", (4, 6, 8)), ("odd", (5, 7)), ("triangle", (3,))):
        for k in range(4):
            n = rng.choice(sizes)
            inst = _random(rng, n, rng.randint(n, n + 3), 3, "cycle", symmetric=k % 2 == 0)
            label = f"cycle-{kind}#{k}"
            path, ref = add_instance(label, inst, "multi-cycle")
            solve(label, path, ref, "cycle")
            solve(label, path, ref, "auto")
    for label, inst in (("running_example", forge.running_example()), ("c4_counter", forge.c4_counter()),
                        ("p6_counter", forge.p6_counter()), ("np_gadget", forge.np_gadget((3, 1, 1, 2, 2, 1)))):
        add_instance(label, inst, None)
    for k in range(6):
        n = rng.randint(4, 12)
        add_instance(f"bipartite#{k}", _random(rng, n, rng.randint(n, 3 * n), 4, "bipartite"), None)

    # The 64/400 verifies of complete allocations and the 128/1000 verifies of
    # orientations form one group of ops of about 60 ms, below only the anchor;
    # the tail op (the eleventh slowest) falls inside that group.
    for k in range(6):
        label = f"64x400#{k}"
        inst = _random(rng, 64, 400, 4, "bipartite", symmetric=k % 2 == 1)
        path, ref = add_instance(label, inst, None)
        complete = _allocation(rng, inst, False)
        ops.append(_verify_op(files, f"{label}-alpha1", path, ref, complete, Fraction(1), False))
        ops.append(_verify_op(files, f"{label}-alpha1/2", path, ref, complete, HALF, False))
        ops.append(_verify_op(files, f"{label}-orientation", path, ref, _allocation(rng, inst, True),
                              rng.choice((Fraction(1), HALF)), True))
    anchor = forge.random_instance(128, 1000, 4, "bipartite", seed=3)
    path, ref = add_instance("128x1000#anchor", anchor, None)
    ops.append(_verify_op(files, "128x1000#anchor-alpha1", path, ref,
                          _allocation(random.Random(3), anchor, False), Fraction(1), False))
    oriented = _allocation(rng, anchor, True)
    ops.append(_verify_op(files, "128x1000#anchor-orientation", path, ref, oriented, Fraction(1), True))
    ops.append(_verify_op(files, "128x1000#anchor-orientation-alpha1/2", path, ref, oriented, HALF, True))

    # A triangle whose 3^16 allocations exceed the default oracle budget, and a
    # general skeleton (odd cycle with a pendant) that no constructive method covers.
    triangle = _random(rng, 3, 16, 8, "cycle")
    ops.append(Op("budget/triangle-3^16", ["solve", files.write(instance_to_json(triangle)), "--method", "cycle"],
                  partial(_expect_exit, 3)))
    general = build_instance(4, [(0, 1, 1, 1), (1, 2, 2, 1), (0, 2, 1, 3), (2, 3, 5, 2)])
    ops.append(Op("structure/general", ["solve", files.write(instance_to_json(general)), "--method", "auto"],
                  partial(_expect_exit, 4)))

    small_path = files.write({"n": 2, "edges": [{"u": 0, "v": 1, "wu": "1", "wv": "2"}] * 3})
    ops += _malformed(files, small_path)
    rng.shuffle(ops)
    warm = instance_to_json(forge.p4_q3())
    warmup = Op("analyze/warmup", ["analyze", files.write(warm)],
                partial(_expect_ok, partial(checks.check_analyze_output, Inst(warm), family=None)))
    return Workload("cli-mixed", ops, warmup, "verify/128x1000#anchor-alpha1")


WORKLOADS = {"bipartite-ladder": bipartite_ladder, "oracle-families": oracle_families, "cli-mixed": cli_mixed}


def build(name: str, seed: int, workdir: Path) -> Workload:
    workdir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](random.Random(f"{name}/{seed}"), _Files(workdir))
