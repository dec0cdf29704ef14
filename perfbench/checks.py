"""Independent output checks for the benchmark.

Nothing here imports the package under test: instances are read from the JSON
documents the benchmark wrote, and EFX, alpha-EFX, orientation and partition
questions are answered with plain exact arithmetic.  Every check returns a list
of problems; an empty list means the output is correct.
"""
from __future__ import annotations

import json
from fractions import Fraction
from itertools import product


class Inst:
    """The parts of an instance document the checks need."""

    def __init__(self, doc: dict):
        self.n = doc["n"]
        self.edges = [(e["u"], e["v"], Fraction(e["wu"]), Fraction(e["wv"])) for e in doc["edges"]]
        self.m = len(self.edges)
        self.incident: list[list[int]] = [[] for _ in range(self.n)]
        for g, (u, v, _, _) in enumerate(self.edges):
            self.incident[u].append(g)
            self.incident[v].append(g)

    def value(self, agent: int, g: int) -> Fraction:
        u, v, wu, wv = self.edges[g]
        return wu if agent == u else wv if agent == v else Fraction(0)


def contract(code: int, out: str, err: str) -> list[str]:
    """Exit 0 or 2: exactly one JSON document on stdout.  Otherwise: empty stdout
    and exactly one ``error:`` line on stderr."""
    if code not in range(5):
        return [f"exit code {code} outside 0-4"]
    if code in (0, 2):
        try:
            json.loads(out)
        except ValueError:
            return ["stdout is not exactly one JSON document"]
        return []
    problems = []
    if out:
        problems.append(f"exit {code} with non-empty stdout")
    if sum("error:" in line for line in err.splitlines()) != 1:
        problems.append(f"exit {code} without exactly one error line on stderr")
    return problems


def bundles_problems(inst: Inst, bundles: object, complete: bool) -> list[str]:
    if not isinstance(bundles, list) or len(bundles) != inst.n:
        return ["bundles is not a list of n lists"]
    seen: set[int] = set()
    for b in bundles:
        if not isinstance(b, list):
            return ["a bundle is not a list"]
        for g in b:
            if type(g) is not int or not 0 <= g < inst.m:
                return [f"bad edge id {g!r}"]
            if g in seen:
                return [f"edge {g} allocated twice"]
            seen.add(g)
    if complete and len(seen) != inst.m:
        return [f"{inst.m - len(seen)} edges unallocated"]
    return []


def is_orientation(inst: Inst, bundles: list[list[int]]) -> bool:
    return all(a in inst.edges[g][:2] for a, b in enumerate(bundles) for g in b)


def value_matrix(inst: Inst, bundles: list[list[int]]) -> list[dict[int, Fraction]]:
    """val[i][k]: agent i's value of bundle k, for bundles i values above 0."""
    holder = {g: k for k, b in enumerate(bundles) for g in b}
    val: list[dict[int, Fraction]] = [{} for _ in range(inst.n)]
    for i in range(inst.n):
        row = val[i]
        for g in inst.incident[i]:
            k = holder.get(g)
            if k is not None:
                row[k] = row.get(k, Fraction(0)) + inst.value(i, g)
    return val


def efx_witnesses(inst: Inst, bundles: list[list[int]], alpha: Fraction) -> list[dict]:
    """Per failing ordered pair (i, j), ascending: the removal of the item of X_j
    that i values least (lowest id on ties) and the two sides of
    ``v_i(X_i) >= alpha * v_i(X_j - g)``."""
    val = value_matrix(inst, bundles)
    out = []
    for i in range(inst.n):
        own = val[i].get(i, Fraction(0))
        for j in sorted(val[i]):
            other = val[i][j]
            if j == i or other == 0:
                continue
            g_val, g = min((inst.value(i, g), g) for g in bundles[j])
            rhs = alpha * (other - g_val)
            if own < rhs:
                out.append({"envier": i, "envied": j, "removed_edge": g,
                            "lhs": str(own), "rhs": str(rhs)})
    return out


def achieved_alpha(inst: Inst, bundles: list[list[int]]) -> list[Fraction]:
    val = value_matrix(inst, bundles)
    out = []
    for i in range(inst.n):
        own = val[i].get(i, Fraction(0))
        best = Fraction(1)
        for j, other in val[i].items():
            if j == i:
                continue
            surviving = other - min(inst.value(i, g) for g in bundles[j])
            if surviving > own:
                best = min(best, own / surviving)
        out.append(best)
    return out


def splits_evenly(pset: tuple[int, ...]) -> bool:
    """Does the multiset split into two halves of equal sum?"""
    total = sum(pset)
    if total % 2:
        return False
    reach = 1
    for p in pset:
        reach |= reach << p
    return bool(reach >> (total // 2) & 1)


def brute_force(inst: Inst, target: str) -> tuple[int, list[list[int]] | None]:
    """Number of EFX assignments and the lexicographically first one (edge 0
    varies slowest; endpoints u before v, or agents ascending)."""
    if target == "orientation":
        choices = [(u, v) for u, v, _, _ in inst.edges]
    else:
        choices = [tuple(range(inst.n))] * inst.m
    count = 0
    first = None
    for assignment in product(*choices):
        bundles: list[list[int]] = [[] for _ in range(inst.n)]
        for g, k in enumerate(assignment):
            bundles[k].append(g)
        if not efx_witnesses(inst, bundles, Fraction(1)):
            count += 1
            if first is None:
                first = bundles
    return count, first


def _loads(out: str) -> dict:
    doc = json.loads(out)
    if not isinstance(doc, dict):
        raise ValueError("output is not a JSON object")
    return doc


def check_allocation_output(inst: Inst, out: str, orientation: bool, min_alpha: Fraction | None) -> list[str]:
    """``solve`` (complete EFX) and ``orient`` (complete orientation whose
    reported per-agent alphas are exact and at least ``min_alpha``)."""
    doc = _loads(out)
    bundles = doc.get("bundles")
    problems = bundles_problems(inst, bundles, complete=True)
    if problems:
        return problems
    if orientation and not is_orientation(inst, bundles):
        return ["result is not an orientation"]
    if min_alpha is None:
        if efx_witnesses(inst, bundles, Fraction(1)):
            return ["result is not EFX"]
        return []
    alphas = achieved_alpha(inst, bundles)
    if doc.get("alpha_per_agent") != [str(a) for a in alphas]:
        return ["alpha_per_agent differs from the exact per-agent alpha"]
    if min(alphas, default=Fraction(1)) < min_alpha:
        return [f"some agent is below alpha {min_alpha}"]
    return []


def check_verify_output(inst: Inst, bundles: list[list[int]], alpha: Fraction,
                        orientation_flag: bool, code: int, out: str) -> list[str]:
    doc = _loads(out)
    want = efx_witnesses(inst, bundles, alpha)
    passed = not want
    if orientation_flag:
        is_or = is_orientation(inst, bundles)
        if doc.get("is_orientation") is not is_or:
            return ["wrong is_orientation"]
        passed = passed and is_or
    problems = []
    if doc.get("pass") is not passed:
        problems.append("wrong pass verdict")
    if doc.get("alpha") != str(alpha):
        problems.append("wrong alpha echo")
    if doc.get("witnesses") != want:
        problems.append("witness list differs")
    if code != (0 if passed else 2):
        problems.append(f"exit {code} does not match the verdict")
    return problems


def check_decide_output(inst: Inst, out: str, target: str, counting: bool,
                        exists: bool | None, small: bool) -> list[str]:
    """Witness validity, state-space size, and (when known) the existence answer;
    on small instances also the exact count and the canonical first witness."""
    doc = _loads(out)
    space = 2 ** inst.m if target == "orientation" else inst.n ** inst.m
    problems = []
    if doc.get("target") != target or doc.get("state_space") != space:
        problems.append("wrong target or state space")
    witness = doc.get("witness")
    if doc.get("exists") is not (witness is not None):
        problems.append("exists does not match the witness")
    if exists is not None and doc.get("exists") is not exists:
        problems.append(f"exists should be {exists}")
    if witness is not None:
        problems += bundles_problems(inst, witness, complete=True)
        if not problems and target == "orientation" and not is_orientation(inst, witness):
            problems.append("witness is not an orientation")
        if not problems and efx_witnesses(inst, witness, Fraction(1)):
            problems.append("witness is not EFX")
    count = doc.get("count")
    if counting != (count is not None) or (counting and (count > 0) != (witness is not None)):
        problems.append("count does not match the request or the witness")
    if small and not problems:
        want_count, want_first = brute_force(inst, target)
        if witness != want_first or (counting and count != want_count):
            problems.append("count or first witness differs from brute force")
    return problems


def _two_coloring(inst: Inst) -> dict[int, int] | None:
    color: dict[int, int] = {}
    adj = skeleton(inst)
    for root in range(inst.n):
        if root in color:
            continue
        color[root] = 0
        stack = [root]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in color:
                    color[y] = 1 - color[x]
                    stack.append(y)
                elif color[y] == color[x]:
                    return None
    return color


def skeleton(inst: Inst) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(inst.n)]
    for u, v, _, _ in inst.edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def check_analyze_output(inst: Inst, out: str, family: str | None) -> list[str]:
    doc = _loads(out)
    pairs: dict[tuple[int, int], int] = {}
    for u, v, _, _ in inst.edges:
        key = (min(u, v), max(u, v))
        pairs[key] = pairs.get(key, 0) + 1
    problems = []
    if (doc.get("n"), doc.get("m"), doc.get("q")) != (inst.n, inst.m, max(pairs.values(), default=0)):
        problems.append("wrong n, m or q")
    if family is not None and doc.get("family") != family:
        problems.append(f"family should be {family}")
    coloring = _two_coloring(inst)
    parts = doc.get("bipartition")
    if (parts is None) != (coloring is None):
        problems.append("bipartition presence is wrong")
    elif parts is not None:
        s, t = parts.get("s"), parts.get("t")
        agents = list(s) + list(t) if isinstance(s, list) and isinstance(t, list) else []
        if any(type(a) is not int for a in agents) or sorted(agents) != list(range(inst.n)):
            problems.append("bipartition does not split the agents")
        else:
            side = {a: 0 for a in s} | {a: 1 for a in t}
            if any(side[u] == side[v] for u, v, _, _ in inst.edges):
                problems.append("bipartition has an edge inside one side")
    return problems
