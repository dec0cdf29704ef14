"""Two-bundle cuts of a shared edge set, both halves EFX-feasible for the cutter.

The cutter's greedy: walk the pair's items in descending cutter-value (ties by
lowest edge id) and drop each onto the currently lighter bundle (ties toward c1).
The running lighter-bundle invariant makes both halves EFX-feasible for the cutter.
Values are the cutter's integer weights (``Instance.weights``).  A cut also
carries both ends' views of it, so no caller re-sums a half.  ``cut`` keeps
nothing: the pipeline's ``AllocationState`` keeps the cuts it reads.
"""
from __future__ import annotations

from dataclasses import dataclass

from .model import Instance, edge_set

# An agent's view of a cut: the half it weakly prefers (exact ties go to c1),
# that half's worth to it, and its worth of both halves, in its integer weights.
_View = tuple[frozenset[int], int, int]


@dataclass(frozen=True, slots=True)
class CutConfig:
    """An ordered pair of bundles partitioning E(cutter, other), with both
    ends' views of it.

    c1 is the bundle that received the first (most valuable) item.
    """

    cutter: int
    c1: frozenset[int]
    c2: frozenset[int]
    other: int
    cutter_view: _View
    other_view: _View


def _view_of(c1: frozenset[int], c2: frozenset[int], w1: int, w2: int) -> _View:
    return (c1, w1, w1 + w2) if w1 >= w2 else (c2, w2, w1 + w2)


def cut(inst: Instance, cutter: int, other: int) -> CutConfig:
    """The deterministic balanced split of E(cutter, other)."""
    if cutter == other:
        raise ValueError(f"cut needs two distinct agents, got ({cutter}, {other})")
    weights = inst.weights[cutter]
    items = sorted(edge_set(inst, cutter, other), key=lambda e: (-weights[e], e))
    c1: set[int] = set()
    c2: set[int] = set()
    v1 = v2 = 0
    for e in items:
        w = weights[e]
        if v1 <= v2:
            c1.add(e)
            v1 += w
        else:
            c2.add(e)
            v2 += w
    h1, h2 = frozenset(c1), frozenset(c2)
    # Every edge of the pair is the other end's too, so its weights hold them all.
    theirs = inst.weights[other]
    w1 = w2 = 0
    for e in c1:
        w1 += theirs[e]
    for e in c2:
        w2 += theirs[e]
    return CutConfig(cutter, h1, h2, other, _view_of(h1, h2, v1, v2), _view_of(h1, h2, w1, w2))


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
