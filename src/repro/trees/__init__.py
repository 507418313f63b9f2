"""Bidirected-tree algorithms: exact computation, Greedy-Boost, DP-Boost.

``dp_boost``/``compute_tree_state``/``reachability_weight`` run the
vectorized level-batched numpy kernels; the pinned loop oracles they
replaced live beside the tests (``tests/oracles/trees.py``) and produce
bit-identical results, which the parity tests assert.
"""

from .bidirected import BidirectedTree, TreePlan
from .dp import DPBoostResult, dp_boost, reachability_weight
from .exact import TreeComputation, compute_tree_state, delta, sigma
from .greedy import GreedyBoostResult, greedy_boost

__all__ = [
    "BidirectedTree",
    "TreePlan",
    "TreeComputation",
    "compute_tree_state",
    "sigma",
    "delta",
    "greedy_boost",
    "GreedyBoostResult",
    "dp_boost",
    "DPBoostResult",
    "reachability_weight",
]
