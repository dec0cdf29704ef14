"""Exhaustive ground truth: existence (and counts) of EFX orientations/allocations.

The search walks assignment vectors in lexicographic edge order, so the first
witness found is canonical regardless of pruning or worker count.  Pruning cuts a
branch only when some agent whose own value is already final strongly envies a
bundle that can only keep growing, which cannot be repaired by later assignments.

The search runs on each agent's exact integer values (``Instance.weights``); the
witness is re-verified by ``check_efx``, which reports it in exact rationals.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .fairness import check_efx
from .model import Allocation, Instance, make_allocation

DEFAULT_BUDGET = 10_000_000


class BudgetExceededError(RuntimeError):
    """The requested search space is larger than the allowed budget."""


@dataclass(frozen=True)
class OracleResult:
    target: str
    exists: bool
    witness: Allocation | None
    count: int | None
    state_space: int
    explored: int

    def to_json(self) -> dict:
        return {
            "target": self.target,
            "exists": self.exists,
            "witness": None if self.witness is None else [sorted(b) for b in self.witness.bundles],
            "count": self.count,
            "state_space": self.state_space,
            "explored": self.explored,
        }


class _Search:
    """DFS state shared across the recursion; values are each agent's integer
    weights (``Instance.weights``), laid out as dense per-edge rows.

    Edges are placed in id order, so an agent's own value is final from its last
    incident edge on; the agents that close at each depth, and those already
    final, are listed once up front.

    A search may be confined to the subtree below a fixed ``prefix`` of
    assignments (one parallel task).  The nodes above the prefix's end are shared
    by several tasks; each is counted in ``explored`` only by the task whose
    prefix takes the first option from that node's depth on, so the task counts
    sum to the single search's count (without a count requested, over the tasks
    up to the first that finds a witness).
    """

    def __init__(self, inst: Instance, choices: list[tuple[int, ...]], prune: bool,
                 counting: bool, prefix: tuple[int, ...] = ()):
        n = inst.n
        self.options = [(k,) for k in prefix] + choices[len(prefix):]
        self.count_from = len(prefix)
        while self.count_from and prefix[self.count_from - 1] == choices[self.count_from - 1][0]:
            self.count_from -= 1
        self.prune = prune
        self.counting = counting

        last = [-1] * n
        for e in inst.edges:
            last[e.u] = last[e.v] = e.id
        # Agents no edge touches value every bundle at 0 and never envy: they get
        # no rows.  weight[x][e] is x's scaled value of item e (0 off x's edges).
        self.agents = [x for x in range(n) if last[x] >= 0]
        self.weight: list[list[int] | None] = [None] * n
        self.val: list[list[int] | None] = [None] * n
        for x in self.agents:
            self.weight[x] = [0] * inst.m
            for e, w in inst.weights[x].items():
                self.weight[x][e] = w
            self.val[x] = [0] * n
        self.steps = []
        for e in inst.edges:
            wu = self.weight[e.u][e.id]
            wv = self.weight[e.v][e.id]
            closing = tuple(x for x in (e.u, e.v) if last[x] == e.id)
            final = tuple(x for x in self.agents if last[x] < e.id)
            self.steps.append((e.u, e.v, wu, wv, closing, final))

        self.bundles: list[list[int]] = [[] for _ in range(n)]
        self.assignment: list[int] = []
        self.witness: list[int] | None = None
        self.count = 0
        self.explored = 0

    def _strongly_envies(self, x: int, k: int) -> bool:
        row = self.val[x]
        own = row[x]
        other = row[k]
        if other <= own:
            return False
        return own < other - min(map(self.weight[x].__getitem__, self.bundles[k]))

    def _envies_some_bundle(self, x: int) -> bool:
        row = self.val[x]
        own = row[x]
        least = self.weight[x].__getitem__
        bundles = self.bundles
        # A bundle worth more than ``own`` is non-empty and is not x's own.
        for k, other in enumerate(row):
            if other > own and own < other - min(map(least, bundles[k])):
                return True
        return False

    def run(self, depth: int) -> bool:
        """Explore below the current assignment; True means stop (witness found and
        no count requested)."""
        if depth >= self.count_from:
            self.explored += 1
        if depth == len(self.options):
            if not self.prune:
                for x in self.agents:
                    if self._envies_some_bundle(x):
                        return False
            if self.witness is None:
                self.witness = list(self.assignment)
                if not self.counting:
                    return True
            self.count += 1
            return False
        u, v, wu, wv, closing, final = self.steps[depth]
        val_u = self.val[u]
        val_v = self.val[v]
        for k in self.options[depth]:
            val_u[k] += wu
            val_v[k] += wv
            bundle = self.bundles[k]
            bundle.append(depth)
            self.assignment.append(k)

            dead = False
            if self.prune:
                for x in closing:
                    if self._envies_some_bundle(x):
                        dead = True
                        break
                if not dead:
                    for x in final:
                        if self._strongly_envies(x, k):
                            dead = True
                            break

            stop = False if dead else self.run(depth + 1)

            self.assignment.pop()
            bundle.pop()
            val_u[k] -= wu
            val_v[k] -= wv
            if stop:
                return True
        return False


def _run_task(args: tuple[Instance, list[tuple[int, ...]], tuple[int, ...], bool, bool]) -> tuple[list[int] | None, int, int]:
    inst, choices, prefix, prune, counting = args
    search = _Search(inst, choices, prune, counting, prefix)
    search.run(0)
    return search.witness, search.count, search.explored


def _decide(inst: Instance, choices: list[tuple[int, ...]], target: str, budget: int,
            counting: bool, prune: bool, jobs: int) -> OracleResult:
    state_space = 1
    for options in choices:
        state_space *= len(options)
    if state_space > budget:
        raise BudgetExceededError(
            f"{target} search needs {state_space} states, budget is {budget}")

    # Split the tree at the shallowest depth with at least one subtree per job;
    # with one job the only task is the whole tree.
    depth = 0
    width = 1
    while width < jobs and depth < len(choices):
        width *= len(choices[depth])
        depth += 1
    tasks = [(inst, choices, prefix, prune, counting)
             for prefix in product(*choices[:depth])]
    witness = None
    count = 0
    explored = 0
    for task_witness, task_count, task_explored in _map_tasks(tasks, jobs, counting):
        if witness is None and task_witness is not None:
            witness = task_witness
        count += task_count
        explored += task_explored

    alloc = None
    if witness is not None:
        alloc = make_allocation(inst.n, ([e for e, k in enumerate(witness) if k == a]
                                         for a in range(inst.n)))
        verdict = check_efx(inst, alloc)
        if not verdict.passed:
            raise AssertionError(f"oracle produced a non-EFX witness: {verdict.witnesses[0]}")
    return OracleResult(
        target=target,
        exists=witness is not None,
        witness=alloc,
        count=count if counting else None,
        state_space=state_space,
        explored=explored,
    )


def _map_tasks(tasks: list, jobs: int, counting: bool) -> list:
    """Task results in prefix order.  Without a count, none is needed after the
    first task that finds a witness: the single search stops in that task too, so
    the tasks up to it explore exactly the single search's nodes."""
    if len(tasks) == 1:
        return [_run_task(tasks[0])]
    try:
        from multiprocessing import Pool

        with Pool(processes=jobs) as pool:
            return _until_witness(pool.imap(_run_task, tasks), counting)
    except (ImportError, OSError, PermissionError):
        return _until_witness(map(_run_task, tasks), counting)


def _until_witness(results, counting: bool) -> list:
    out = []
    for result in results:
        out.append(result)
        if result[0] is not None and not counting:
            break
    return out


def decide_efx_orientation(inst: Instance, budget: int | None = None, count: bool = False,
                           prune: bool = True, jobs: int = 1) -> OracleResult:
    """Search all 2^m complete orientations; returns the lexicographically first
    EFX witness (edge 0 varies slowest, endpoint u before v) and, on request, the
    exact number of EFX orientations."""
    budget = DEFAULT_BUDGET if budget is None else budget
    choices = [(e.u, e.v) for e in inst.edges]
    return _decide(inst, choices, "orientation", budget, count, prune, jobs)


def decide_efx_allocation(inst: Instance, budget: int | None = None,
                          prune: bool = True, jobs: int = 1) -> OracleResult:
    """Search all n^m complete allocations (wasteful ones included); returns the
    lexicographically first EFX witness."""
    budget = DEFAULT_BUDGET if budget is None else budget
    agents = tuple(range(inst.n))
    choices = [agents for _ in inst.edges]
    return _decide(inst, choices, "allocation", budget, False, prune, jobs)
