"""Model variants and exact oracles for the influence boosting model.

Two pieces of Section III the main simulator does not cover:

* **Outgoing-boost variant** — the paper notes (after Definition 1) that
  the study "can also be adapted to the case where boosted users are more
  influential": a newly-activated *boosted* user ``u`` influences each
  neighbour ``v`` with ``p'_uv`` instead of ``p_uv``.
  :func:`simulate_spread_outgoing` and :func:`exact_sigma_outgoing`
  implement that variant.  Simulation runs on the engine's pluggable
  diffusion-model layer (``model="ic_out"``, same frontier traversal and
  lane kernels as the main model); the pre-engine per-node loop survives
  beside the tests as ``oracles.engine.reference_simulate_spread_outgoing``,
  the seeded oracle the engine path is pinned to bit-for-bit.

* **Brute-force k-boosting oracle** — NP-hardness permits exhaustive search
  only on tiny instances; :func:`optimal_boost_set` enumerates every boost
  set of size ≤ k against the exact spread of either boost semantics
  (``model="ic"`` or ``"ic_out"``), providing ground truth for algorithm
  tests.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import AbstractSet, List, Sequence, Tuple

import numpy as np

from ..engine import SamplingEngine
from ..graphs.digraph import DiGraph
from .simulator import exact_sigma

__all__ = [
    "simulate_spread_outgoing",
    "estimate_boost_outgoing",
    "exact_sigma_outgoing",
    "exact_boost_outgoing",
    "optimal_boost_set",
]


def simulate_spread_outgoing(
    graph: DiGraph,
    seeds: AbstractSet[int] | Sequence[int],
    boost: AbstractSet[int] | Sequence[int],
    rng: np.random.Generator,
) -> set[int]:
    """One cascade where boosted nodes are more *influential* (not more
    receptive): edges leaving a boosted node use ``p'``.

    Runs on the engine's ``ic_out`` model — draw-for-draw the stream the
    retained pure-Python oracle consumes, so seeded runs agree
    bit-for-bit.
    """
    return SamplingEngine.for_graph(graph).simulate(
        seeds, boost, rng, model="ic_out"
    )


def estimate_boost_outgoing(
    graph: DiGraph,
    seeds: AbstractSet[int] | Sequence[int],
    boost: AbstractSet[int] | Sequence[int],
    rng: np.random.Generator,
    runs: int = 1000,
) -> float:
    """Monte Carlo ``Δ_S(B)`` under the outgoing-boost variant.

    Common random numbers come free: each run's hashed world is evaluated
    under both ``B`` and ``∅`` on the engine's cascade lane kernels.
    """
    return SamplingEngine.for_graph(graph).estimate_boost(
        seeds, boost, rng, runs=runs, model="ic_out"
    )


def exact_sigma_outgoing(
    graph: DiGraph,
    seeds: AbstractSet[int] | Sequence[int],
    boost: AbstractSet[int] | Sequence[int],
) -> float:
    """Exact spread under the outgoing-boost variant (tiny graphs only).

    Each edge's effective probability depends on whether its *tail* is
    boosted, which is again static, so world enumeration applies unchanged.
    """
    if graph.m > 20:
        raise ValueError("exact enumeration is limited to graphs with <= 20 edges")
    boost_set = set(boost)
    seed_list = list(seeds)
    src, dst, p, pp = graph.edge_arrays()
    effective = np.array(
        [pp[i] if int(src[i]) in boost_set else p[i] for i in range(graph.m)]
    )
    expected = 0.0
    for outcome in product((0, 1), repeat=graph.m):
        prob = 1.0
        for i, live in enumerate(outcome):
            prob *= effective[i] if live else (1.0 - effective[i])
        if prob == 0.0:
            continue
        adjacency: dict[int, list[int]] = {}
        for i, live in enumerate(outcome):
            if live:
                adjacency.setdefault(int(src[i]), []).append(int(dst[i]))
        reached = set(seed_list)
        stack = list(seed_list)
        while stack:
            u = stack.pop()
            for v in adjacency.get(u, ()):
                if v not in reached:
                    reached.add(v)
                    stack.append(v)
        expected += prob * len(reached)
    return expected


def exact_boost_outgoing(
    graph: DiGraph,
    seeds: AbstractSet[int] | Sequence[int],
    boost: AbstractSet[int] | Sequence[int],
) -> float:
    """Exact ``Δ_S(B)`` under the outgoing-boost variant."""
    return exact_sigma_outgoing(graph, seeds, boost) - exact_sigma_outgoing(
        graph, seeds, set()
    )


def optimal_boost_set(
    graph: DiGraph,
    seeds: AbstractSet[int],
    k: int,
    candidates: Sequence[int] | None = None,
    model: str = "ic",
) -> Tuple[List[int], float]:
    """Exhaustive optimum of the k-boosting problem (test oracle).

    Enumerates all boost sets of size ≤ k over the candidates (non-seeds by
    default) and evaluates each with the exact spread of the requested
    boost semantics (:func:`exact_sigma` for ``"ic"``,
    :func:`exact_sigma_outgoing` for ``"ic_out"``) — exponential in both
    ``m`` and ``k``; keep instances tiny.
    """
    if model in ("ic", "ic_in", "incoming", None):
        sigma = exact_sigma
    elif model in ("ic_out", "outgoing", "ic_outgoing"):
        sigma = exact_sigma_outgoing
    else:
        raise ValueError(
            f"no exact oracle for model {model!r}; expected 'ic' or 'ic_out'"
        )
    seed_set = set(seeds)
    pool = (
        [v for v in range(graph.n) if v not in seed_set]
        if candidates is None
        else [v for v in candidates if v not in seed_set]
    )
    base = sigma(graph, seed_set, set())
    best_value = 0.0
    best_set: Tuple[int, ...] = ()
    for size in range(1, min(k, len(pool)) + 1):
        for boost in combinations(pool, size):
            value = sigma(graph, seed_set, set(boost)) - base
            if value > best_value + 1e-12:
                best_value = value
                best_set = boost
    return list(best_set), best_value
