"""Two-bundle cuts of a shared edge set, both halves EFX-feasible for the cutter.

The cutter's greedy: walk the pair's items in descending cutter-value (ties by
lowest edge id) and drop each onto the currently lighter bundle (ties toward c1).
The running lighter-bundle invariant makes both halves EFX-feasible for the cutter.
Values are the cutter's integer weights (``Instance.weights``).  Each instance
keeps its own cuts (``Instance._cuts``); no module holds on to an instance.
"""
from __future__ import annotations

from dataclasses import dataclass

from .model import Instance, edge_set


@dataclass(frozen=True, slots=True)
class CutConfig:
    """An ordered pair of bundles partitioning E(cutter, other), the edges the
    cutter shares with the other agent given to ``cut``.

    c1 is the bundle that received the first (most valuable) item.
    """

    cutter: int
    c1: frozenset[int]
    c2: frozenset[int]


def cut(inst: Instance, cutter: int, other: int) -> CutConfig:
    """The deterministic balanced split of E(cutter, other), made once per instance."""
    cfg = inst._cuts.get((cutter, other))
    if cfg is not None:
        return cfg
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
    cfg = inst._cuts[cutter, other] = CutConfig(cutter, frozenset(c1), frozenset(c2))
    return cfg


def _half_worths(inst: Instance, agent: int, cfg: CutConfig) -> tuple[int, int]:
    """The agent's worth of c1 and of c2, in its integer weights."""
    get = inst.weights[agent].get
    # Plain loops: halves hold a few edges, and a generator costs more to start.
    w1 = w2 = 0
    for e in cfg.c1:
        w1 += get(e, 0)
    for e in cfg.c2:
        w2 += get(e, 0)
    return w1, w2


def _margin(inst: Instance, agent: int, cfg: CutConfig) -> int:
    """The agent's value of c1 minus its value of c2: the sign says which half
    it prefers, 0 that it is indifferent."""
    w1, w2 = _half_worths(inst, agent, cfg)
    return w1 - w2


def _preference(inst: Instance, agent: int, cfg: CutConfig) -> tuple[frozenset[int], int, int]:
    """The cut half this agent weakly prefers (exact ties go to c1), its worth
    to the agent, and the agent's worth of both halves together."""
    w1, w2 = _half_worths(inst, agent, cfg)
    return (cfg.c1, w1, w1 + w2) if w1 >= w2 else (cfg.c2, w2, w1 + w2)


def preferred_bundle(inst: Instance, agent: int, cfg: CutConfig) -> frozenset[int]:
    """The cut bundle this agent weakly prefers; exact ties go to c1."""
    return _preference(inst, agent, cfg)[0]
