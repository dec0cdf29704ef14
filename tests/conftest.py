from __future__ import annotations

from fractions import Fraction

import pytest

from efx_multigraph import make_allocation, running_example

# Edge ids of the seven-agent walkthrough instance, for reference in fixtures:
#  0:(0,4,10)  1:(1,4,10)  2:(1,4,9)   3:(2,4,8)
#  4:(0,5,6)   5:(0,5,5)   6:(1,5,6)   7:(1,5,6)   8:(2,5,7)
#  9:(0,6,6)  10:(0,6,5)  11:(1,6,6)  12:(1,6,6)  13:(2,6,7)
# 14:(3,6,3)  15:(3,6,4)  16:(3,4,6)  17:(3,4,3)

# Cuts of the untouched pairs, made by the T-side agent (S = {0,1,2,3},
# T = {4,5,6}); the cutter drops items, heaviest first, onto the lighter half:
#  (1,4) {1}|{2}   (3,4) {16}|{17}   (0,5) {4}|{5}   (1,5) {6}|{7}
#  (0,6) {9}|{10}  (1,6) {11}|{12}   (3,6) {15}|{14}
# Single-edge pairs (0,4), (2,4), (2,5), (2,6) cut into {e}|{}.

# Stage-1 output (also the published walkthrough's first snapshot).  S side
# first, each agent takes its best available bundle: 0, 1, 2 and 3 take their
# heaviest edge to agent 4 (10, 10, 8 and 6 beat their best elsewhere: 6, 6, 7
# and 4); 4 takes the remainder {2} of pair (1,4) (value 9); 5 and 6 take
# agent 2's 7-edges {8} and {13} over the 6-bundles of agents 0 and 1.  Agent 4
# (own value 9) envies the 10-edges of agents 0 and 1: the envied set is {0, 1}.
STAGE1_BUNDLES = [{0}, {1}, {3}, {16}, {2}, {8}, {13}]

# The published walkthrough's remaining snapshots.  They are not wrong output
# of the solver: they are a hand-drawn walkthrough whose stage-2 state fails P4
# (non-envied agents have empty available sets), the stage-2 exit condition.
# In it agent 4 holds {2, 17}, worth 9 + 3 = 12 to it, above the 10 it gives
# the bundles of agents 0 and 1, so nobody is envied; yet agents 0 and 1 still
# have the available sets {5, 10} and {7, 12}.  The stage-3 and final states
# below only follow if the stage-1 envy relation is kept frozen.
STAGE2_DOCUMENTED = [{0}, {1}, {3}, {15, 16}, {2, 17}, {4, 6, 8}, {9, 11, 13, 14}]
STAGE3_DOCUMENTED = [{0}, {2, 7, 12}, {3}, {15, 16}, {1, 17}, {4, 6, 8}, {9, 11, 13, 14}]
FINAL_DOCUMENTED = [{0}, {2, 7, 12}, {3}, {15, 16}, {1, 5, 10, 17}, {4, 6, 8}, {9, 11, 13, 14}]

# The stage-2 fixpoint, derived from the stage rules (lowest non-envied agent,
# then lowest co-agent, first):
#  - envied {0, 1}: agent 2 has nothing left; agent 3 finds (3,6) untouched and
#    agent 6 non-envied, so case 2 gives 3 {15} and 6 {14};
#  - envied {0, 1}: agent 3 now holds part of both its pairs; agent 4 finds 3
#    holding {16} of (3,4), so case 1 gives 4 the remainder {17}; agent 4 now
#    has 9 + 3 = 12 > 10 and the envied set becomes empty;
#  - envied {}: agent 0 splits the untouched (0,5) and (0,6) by case 2, taking
#    {4} and {9} (6 > 5 each) and leaving {5} to 5 and {10} to 6; agent 1 then
#    splits (1,5) and (1,6), taking c1 on the 6 = 6 ties, {6} and {11}, and
#    leaving {7} to 5 and {12} to 6.  No step makes anybody envied.
# Every edge is then held, so every available set is empty and the loop halts.
# Own values are 22, 22, 8, 10, 12, 18, 21 and nobody envies anybody.
STAGE2_ACTUAL = [{0, 4, 9}, {1, 6, 11}, {3}, {15, 16}, {2, 17}, {5, 7, 8}, {10, 12, 13, 14}]

# Stage 3 swaps only for an envied agent, and none is envied: no swap.
STAGE3_ACTUAL = STAGE2_ACTUAL
# The allocation is complete, so completion has no leftover pair to give away.
FINAL_ACTUAL = STAGE3_ACTUAL

# The full event log of complete_efx(running_example()): the 7 greedy picks
# and the 6 saturate steps derived above, then no safe-set or completion event.
WALKTHROUGH_EVENTS = [
    {"stage": "greedy", "agent": 0, "from": 4, "edges": [0]},
    {"stage": "greedy", "agent": 1, "from": 4, "edges": [1]},
    {"stage": "greedy", "agent": 2, "from": 4, "edges": [3]},
    {"stage": "greedy", "agent": 3, "from": 4, "edges": [16]},
    {"stage": "greedy", "agent": 4, "from": 1, "edges": [2]},
    {"stage": "greedy", "agent": 5, "from": 2, "edges": [8]},
    {"stage": "greedy", "agent": 6, "from": 2, "edges": [13]},
    {"stage": "saturate", "case": 2, "i": 3, "j": 6, "edges": [15]},
    {"stage": "saturate", "case": 1, "i": 4, "j": 3, "edges": [17]},
    {"stage": "saturate", "case": 2, "i": 0, "j": 5, "edges": [4]},
    {"stage": "saturate", "case": 2, "i": 0, "j": 6, "edges": [9]},
    {"stage": "saturate", "case": 2, "i": 1, "j": 5, "edges": [6]},
    {"stage": "saturate", "case": 2, "i": 1, "j": 6, "edges": [11]},
]


@pytest.fixture(scope="session")
def walkthrough():
    return running_example()


@pytest.fixture(scope="session")
def stage1_alloc(walkthrough):
    return make_allocation(walkthrough.n, STAGE1_BUNDLES)


@pytest.fixture(scope="session")
def stage2_doc_alloc(walkthrough):
    return make_allocation(walkthrough.n, STAGE2_DOCUMENTED)


@pytest.fixture(scope="session")
def stage3_doc_alloc(walkthrough):
    return make_allocation(walkthrough.n, STAGE3_DOCUMENTED)


@pytest.fixture
def fractions_built(monkeypatch):
    """The arguments of every ``Fraction`` built from here on in the test."""
    built = []
    make = Fraction.__new__

    def spy(cls, *args, **kwargs):
        built.append(args)
        return make(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(spy))
    return built
