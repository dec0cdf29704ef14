"""Two-bundle cuts of a shared edge set, both halves EFX-feasible for the cutter.

The cutter's greedy: walk the pair's items in descending cutter-value (ties by
lowest edge id) and drop each onto the currently lighter bundle (ties toward c1).
The running lighter-bundle invariant makes both halves EFX-feasible for the cutter.
Values are the cutter's integer weights (``Instance.weights``).  A cut also
carries both ends' views of it, so no caller re-sums a half.  ``cut`` keeps
nothing: the pipeline's ``AllocationState`` keeps the cuts it reads.

A cut is a tuple, made with one sort and one pass over the pair.  A one-edge
pair, the bulk of a sparse instance, builds no set (see ``CutConfig``).
"""
from __future__ import annotations

from typing import NamedTuple

from .model import Instance

# An agent's view of a cut: the half it weakly prefers (exact ties go to c1),
# that half's worth to it, and its worth of both halves, in its integer weights.
_View = tuple[frozenset[int], int, int]

# The c2 of every one-edge pair's cut, and the id set of a pair with no edges.
_NO_EDGES: frozenset[int] = frozenset()


class CutConfig(NamedTuple):
    """An ordered pair of bundles partitioning E(cutter, other), with both
    ends' views of it.

    c1 is the bundle that received the first (most valuable) item.  A tuple,
    so its fields cannot be reassigned; ``cut`` builds it with
    ``tuple.__new__``.  A one-edge pair's c1 is the pair's id set in the
    instance index (``Instance._pair_edges``), and its c2 an empty frozenset
    that every such cut shares.
    """

    cutter: int
    c1: frozenset[int]
    c2: frozenset[int]
    other: int
    cutter_view: _View
    other_view: _View


def cut(inst: Instance, cutter: int, other: int) -> CutConfig:
    """The deterministic balanced split of E(cutter, other)."""
    if cutter == other:
        raise ValueError(f"cut needs two distinct agents, got ({cutter}, {other})")
    ids = inst._pair_edges.get((cutter, other) if cutter < other else (other, cutter), _NO_EDGES)
    all_weights = inst.weights
    weights = all_weights[cutter]
    # Every edge of the pair is the other end's too, so its weights hold them all.
    theirs = all_weights[other]
    if len(ids) == 1:
        (e,) = ids
        v, w = weights[e], theirs[e]
        # tuple.__new__ skips the named tuple's Python-level __new__.
        return tuple.__new__(CutConfig, (cutter, ids, _NO_EDGES, other, (ids, v, v), (ids, w, w)))
    c1: list[int] = []
    c2: list[int] = []
    v1 = v2 = w1 = w2 = 0
    items = sorted(ids)
    # A reversed sort stays stable: descending weight, ties in ascending id.
    items.sort(key=weights.__getitem__, reverse=True)
    for e in items:
        if v1 <= v2:
            c1.append(e)
            v1 += weights[e]
            w1 += theirs[e]
        else:
            c2.append(e)
            v2 += weights[e]
            w2 += theirs[e]
    h1, h2 = frozenset(c1), frozenset(c2)
    return tuple.__new__(CutConfig, (cutter, h1, h2, other,
                                     (h1, v1, v1 + v2) if v1 >= v2 else (h2, v2, v1 + v2),
                                     (h1, w1, w1 + w2) if w1 >= w2 else (h2, w2, w1 + w2)))


def _view(cfg: CutConfig, agent: int) -> _View:
    """The agent's view of the cut; an agent that is not an end values both
    halves at 0, so it takes c1."""
    if agent == cfg.cutter:
        return cfg.cutter_view
    if agent == cfg.other:
        return cfg.other_view
    return (cfg.c1, 0, 0)


def preferred_bundle(inst: Instance, agent: int, cfg: CutConfig) -> frozenset[int]:
    """The cut bundle this agent weakly prefers; exact ties go to c1."""
    return _view(cfg, agent)[0]
