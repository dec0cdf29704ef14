"""Exhaustive ground truth: existence (and counts) of EFX orientations/allocations.

The search walks assignment vectors in lexicographic edge order, so the first
witness found is canonical regardless of pruning or worker count.  Pruning cuts a
branch only when some agent whose own value is already final strongly envies a
bundle that can only keep growing, which cannot be repaired by later assignments.

Each placement of an edge is tested before it is booked, on small integer
counters, with two exact rules (see ``_Search``); one that fails either touches
no counter.  An agent that was final before the edge is not one of its
endpoints, so the placement leaves its row as it was; it values the edge at 0,
so it strongly envies the receiving bundle exactly when it envies it already:
one integer compare.  An agent whose last edge is being placed is tested on its
row as the placement would leave it, the edge's value added to its own bundle
or to the receiving one.  It scans only the bundles its edges can reach, and one
holding an item it values at 0 (fewer of its own items than the bundle's size)
is strongly envied as soon as it is envied.

Edges with one ``(u, v, wu, wv)`` are interchangeable, and multi-graphs repeat
them often.  Two nodes at one depth that gave each option equally many edges of
each such class hold equal values, item counts and bundle weights for every
agent, so their pruned subtrees match node for node.  The one recursion,
``_Search.run``, therefore passes each child these counts, packed in one
``int``, and keeps a table of the node and leaf counts below each node reached
by a repeated edge; at every other node with the same counts it adds them up
without searching again.  A search stores at most ``_TABLE_ENTRIES`` (65,536)
of them and then only looks up, so its memory is bounded and a subtree it could
not store is searched again.  A stored subtree that holds a leaf has already set
the witness (or stopped a first-witness search), so every result, ``explored``
included, is the one the search without the table gives.

The search runs on each agent's exact integer values (``Instance.weights``); the
witness is re-verified by ``check_efx``, which reports it in exact rationals.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .fairness import check_efx
from .model import Allocation, BudgetExceededError, Instance, make_allocation

DEFAULT_BUDGET = 10_000_000
# The subtree entries one search may store; past it, the tables only answer lookups.
_TABLE_ENTRIES = 1 << 16


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
    weights (``Instance.weights``), laid out as dense per-edge rows, and
    ``held[x][k]`` counts x's incident edges in bundle k.

    Edges are placed in id order, so an agent's own value is final from its last
    incident edge on.  Every weight is positive, so bundle k holds an item worth
    0 to x exactly when ``held[x][k] < len(bundles[k])``.  Two rules test each
    placement of an edge in bundle k before it is booked, on the rows it would
    leave; only a placement that passes both changes ``val``, ``held`` and
    ``bundles``:

    - A final agent x is not an endpoint of the edge, so the placement leaves
      x's row as it was, and the edge is worth 0 to x: removing it leaves k's
      value to x unchanged.  So x would strongly envy k iff ``val[x][k] >
      val[x][x]`` already.  Only the final agents that can hold an item in k
      are tested; in an orientation these are k's final neighbours.
    - A closing agent x, whose own value becomes final with this edge, is
      tested against its rivals: the agents other than x that appear in the
      options of x's edges.  No other bundle can ever hold x's items, so x
      values it at 0.  A rival bundle worth more than x's own that holds an
      item worth 0 to x is strongly envied at once; otherwise its least-valued
      item is taken.  The edge is x's own item, worth ``w`` to x.  If k is x,
      x's own value is read as ``val[x][x] + w``.  If k is a rival, bundle k's
      value to x is read as ``val[x][k] + w`` and its least-valued item as the
      lesser of ``w`` and the bundle's least before; ``held[x][k] <
      len(bundles[k])`` reads the same before and after, as both sides grow by
      one.

    Each agent's rivals, the final agents to test per step and option, and
    each closing agent's rows, edge value and other rivals per option, are
    listed once when the search is set up.

    A search may be confined to the subtree below a fixed ``prefix`` of
    assignments (one parallel task).  The nodes above the prefix's end are shared
    by several tasks; each is counted in ``explored`` only by the task whose
    prefix takes the first option from that node's depth on, so the task counts
    sum to the single search's count (without a count requested, over the tasks
    up to the first that finds a witness).

    Edges fall into classes by ``(u, v, wu, wv)``.  The ``signature`` that
    ``run`` passes each child is one ``int`` with a bit field per (class,
    option) slot that counts the placed edges in that slot; every edge counts,
    one with no twin too.  Equal signatures mean the same depth and, class by
    class, the same number of edges in each bundle, so equal ``val``, ``held``
    and bundle weights.  A probe step is a step of a pruned search whose edge is
    not the first of its class, which lies past the prefix and is not the last
    step.  It carries a table, and every other step ``None``.  The table maps a
    child's signature to the ``explored`` and ``count`` of that child's
    subtree: a hit adds them, and a miss searches the subtree and stores them
    while the search holds fewer than ``_TABLE_ENTRIES`` entries.  Each
    placement carries its signature increment, which is 0 at every step past
    the last probe step (at every step, in a search without one): nothing reads
    the signature there, so such a step neither adds it nor looks for a table.
    """

    def __init__(self, inst: Instance, choices: list[tuple[int, ...]], prune: bool,
                 counting: bool, prefix: tuple[int, ...] = ()):
        n = inst.n
        options = [(k,) for k in prefix] + choices[len(prefix):]
        self.count_from = len(prefix)
        while self.count_from and prefix[self.count_from - 1] == choices[self.count_from - 1][0]:
            self.count_from -= 1
        self.prune = prune
        self.counting = counting

        last = [-1] * n
        for d, u, v, _, _ in inst.edges:
            last[u] = last[v] = d
        # Edges with one (u, v, wu, wv) form a class, named by its lowest id:
        # first[d] names edge d's class.
        classes: dict[tuple, int] = {}
        first = [classes.setdefault(edge[1:], edge.id) for edge in inst.edges]
        # A child of the last step is a leaf: looking it up saves no more than
        # the test it skips.
        probes = {d for d in range(len(prefix), inst.m - 1) if first[d] < d} if prune else set()
        last_probe = max(probes, default=-1)
        width = max(map(first.count, classes.values()), default=0).bit_length()
        field: dict[tuple[int, int], int] = {}
        # Agents no edge touches value every bundle at 0 and never envy: they get
        # no rows.  weight[x][e] is x's scaled value of item e (0 off x's edges).
        self.agents = [x for x in range(n) if last[x] >= 0]
        weight: list[list[int] | None] = [None] * n
        val: list[list[int] | None] = [None] * n
        held: list[list[int] | None] = [None] * n
        # x's rivals: the bundles other than x's own that x's items can go to.
        rivals: list[set[int] | tuple[int, ...]] = [()] * n
        for x in self.agents:
            row = weight[x] = [0] * inst.m
            for e, w in inst.weights[x].items():
                row[e] = w
            val[x] = [0] * n
            held[x] = [0] * n
            rivals[x] = set()
        # final[k]: (agent, value row) of each final agent that has k as a rival.
        final: list[tuple[tuple[int, list[int]], ...]] = [()] * n
        self.steps = []
        for (d, u, v, _, _), opts in zip(inst.edges, options):
            rivals[u].update(opts)
            rivals[v].update(opts)
            # The agents whose edges are all placed with this one: their rivals
            # are known, and they are final below.  Without pruning none is tested.
            closing = [x for x in (u, v) if last[x] == d] if prune else []
            for x in closing:
                rivals[x].discard(x)
                rivals[x] = tuple(rivals[x])
            # Per option k: k's final agents, each closing agent's test (its
            # rows, its value of this edge and its rivals other than k) and the
            # signature increment.
            placements = tuple(
                (k, final[k],
                 tuple((x, val[x], held[x], weight[x].__getitem__, weight[x][d],
                        tuple(r for r in rivals[x] if r != k)) for x in closing),
                 1 << width * field.setdefault((first[d], k), len(field)) if d <= last_probe else 0)
                for k in opts)
            self.steps.append((val[u], val[v], held[u], held[v], weight[u][d], weight[v][d],
                               placements, {} if d in probes else None))
            for x in closing:
                pair = ((x, val[x]),)
                for k in rivals[x]:
                    final[k] += pair
        self.weight, self.val, self.held = weight, val, held

        self.bundles: list[list[int]] = [[] for _ in range(n)]
        self.witness: list[int] | None = None
        self.count = 0
        self.explored = 0
        # Entries the tables may still take.
        self.room = _TABLE_ENTRIES

    def _envies_some_bundle(self, x: int) -> bool:
        """The literal test, over every bundle: the leaf check without pruning."""
        row = self.val[x]
        own = row[x]
        least = self.weight[x].__getitem__
        bundles = self.bundles
        # A bundle worth more than ``own`` is non-empty and is not x's own.
        for k, other in enumerate(row):
            if other > own and own < other - min(map(least, bundles[k])):
                return True
        return False

    def _assignment(self) -> list[int]:
        vector = [0] * len(self.steps)
        for k, bundle in enumerate(self.bundles):
            for e in bundle:
                vector[e] = k
        return vector

    def run(self, depth: int, signature: int = 0) -> bool:
        """Explore below the current assignment, whose signature is given where a
        table below reads it; True means stop (witness found and no count
        requested)."""
        if depth >= self.count_from:
            self.explored += 1
        if depth == len(self.steps):
            if not self.prune:
                for x in self.agents:
                    if self._envies_some_bundle(x):
                        return False
            if self.witness is None:
                self.witness = self._assignment()
                if not self.counting:
                    return True
            self.count += 1
            return False
        val_u, val_v, held_u, held_v, wu, wv, placements, table = self.steps[depth]
        bundles = self.bundles
        for k, final, closers, inc in placements:
            if inc:
                child = signature + inc
                if table is not None:
                    stored = table.get(child)
                    if stored is not None:
                        self.explored += stored[0]
                        self.count += stored[1]
                        continue
            dead = False
            for x, row in final:
                if row[k] > row[x]:
                    dead = True
                    break
            else:
                for x, row, held, least, w, others in closers:
                    own = row[x]
                    if k == x:
                        own += w
                    for r in others:
                        other = row[r]
                        if other > own:
                            bundle = bundles[r]
                            if held[r] < len(bundle) or own < other - min(map(least, bundle)):
                                dead = True
                                break
                    else:
                        if k != x:
                            other = row[k] + w
                            bundle = bundles[k]
                            # An empty bundle k would hold this item alone,
                            # which x does not strongly envy.
                            if other > own and bundle and (
                                    held[k] < len(bundle)
                                    or own < other - min(w, min(map(least, bundle)))):
                                dead = True
                    if dead:
                        break
            if dead:
                continue

            val_u[k] += wu
            val_v[k] += wv
            held_u[k] += 1
            held_v[k] += 1
            bundle = bundles[k]
            bundle.append(depth)
            if not inc:
                stop = self.run(depth + 1)
            elif table is None:
                stop = self.run(depth + 1, child)
            else:
                explored, count = self.explored, self.count
                stop = self.run(depth + 1, child)
                # A search that stopped never reads the table again.
                if self.room:
                    self.room -= 1
                    table[child] = (self.explored - explored, self.count - count)
            bundle.pop()
            val_u[k] -= wu
            val_v[k] -= wv
            held_u[k] -= 1
            held_v[k] -= 1
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
