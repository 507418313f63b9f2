"""Linear Threshold diffusion with boosting (paper's future-work direction).

Section IX of the paper names "similar problems under other influence
diffusion models, for example the well-known Linear Threshold (LT) model"
as future work.  This module provides that extension so downstream users
can experiment with it:

* classical LT: node ``v`` activates when the summed weights of its active
  in-neighbours exceed a uniform threshold ``θ_v ~ U[0, 1]``; edge weights
  ``b_uv`` must satisfy ``Σ_u b_uv ≤ 1``;
* **boosted LT**: a boosted node counts its incoming weights at the
  boosted value ``pp`` (clipped so the sum stays ≤ 1), modelling increased
  receptiveness — the LT analogue of ``p → p'``.

We reuse the graph's base probabilities as LT weights after per-node
normalization (:func:`normalize_lt_weights`), and reuse ``p'/p`` as the
boost per edge.

Everything here is a thin veneer over the engine's pluggable
diffusion-model layer (:mod:`repro.engine.models`, ``model="lt"``):
cascades run on the shared frontier CSR traversal, Monte-Carlo
estimation on the hashed-world cascade lane kernels of
:mod:`repro.engine.lanes`.  The pre-engine per-node loop survives beside the tests as
``oracles.engine.reference_simulate_lt_spread`` (and its world-seeded
twin), the seeded oracles the engine kernels are pinned to.
"""

from __future__ import annotations

from typing import AbstractSet, Sequence

import numpy as np

from ..engine import SamplingEngine, resolve_model
from ..graphs.digraph import DiGraph

__all__ = ["normalize_lt_weights", "simulate_lt_spread", "estimate_lt_boost"]


def normalize_lt_weights(graph: DiGraph) -> DiGraph:
    """Rescale incoming probabilities so each node's in-weights sum to ≤ 1.

    Nodes whose incoming mass already sums below 1 are left untouched;
    heavier nodes are scaled down proportionally.  Boosted probabilities are
    scaled by the same factor, preserving each edge's boost ratio.

    This is exactly the graph view the LT model's
    :meth:`~repro.engine.models.DiffusionModel.prepare_graph` builds (and
    sessions cache per model); idempotent, so normalizing twice is safe.
    """
    return resolve_model("lt").prepare_graph(graph)


def simulate_lt_spread(
    graph: DiGraph,
    seeds: AbstractSet[int] | Sequence[int],
    boost: AbstractSet[int] | Sequence[int],
    rng: np.random.Generator,
) -> set[int]:
    """One boosted-LT cascade; returns the activated set.

    A boosted node ``v`` counts each incoming weight at its boosted value
    ``pp`` instead of ``p`` (with the per-node total clipped at 1), so it
    crosses its threshold sooner — more easily influenced, never
    self-starting, mirroring Definition 1's spirit.

    The cascade runs on the engine's LT model: the only random draw is
    the threshold vector, after which each level accumulates incoming
    weight for whole frontiers with ``np.add.at``.
    """
    return SamplingEngine.for_graph(graph).simulate(
        seeds, boost, rng, model="lt"
    )


def estimate_lt_boost(
    graph: DiGraph,
    seeds: AbstractSet[int] | Sequence[int],
    boost: AbstractSet[int] | Sequence[int],
    rng: np.random.Generator,
    runs: int = 1000,
) -> float:
    """Monte Carlo estimate of the LT boost of influence.

    Runs on the engine's hashed-world cascade lanes with common worlds
    per run (the same ``θ`` vector for the boosted and unboosted
    cascade), the LT analogue of common random numbers — the pairing is
    free because a lane seed fixes the whole threshold vector.
    """
    return SamplingEngine.for_graph(graph).estimate_boost(
        seeds, boost, rng, runs=runs, model="lt"
    )
