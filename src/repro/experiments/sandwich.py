"""Sandwich-approximation ratio experiments (Figures 7, 9 and 12).

The approximation factor of PRR-Boost depends on ``μ(B*) / Δ_S(B*)``.  With
``B*`` unknown (NP-hard), the paper probes the ratio on perturbed solutions:
take the PRR-Boost solution ``B_sa``, replace a random number of its nodes
with other non-seed nodes, and plot ``μ̂(B)/Δ̂(B)`` against ``Δ̂(B)`` for
the sets whose boost stays large.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Set, Union

import numpy as np

from ..core.estimator import estimate_delta, estimate_mu
from ..core.prr import PRRArena, PRRGraph

__all__ = ["RatioPoint", "perturbed_sets", "sandwich_ratio_experiment"]


@dataclass
class RatioPoint:
    """One probed boost set: its estimated boost and ``μ/Δ`` ratio."""

    boost: float
    ratio: float
    replaced: int


def perturbed_sets(
    base_set: Sequence[int],
    candidates: Sequence[int],
    count: int,
    rng: np.random.Generator,
) -> List[Set[int]]:
    """Generate ``count`` perturbations of ``base_set``.

    Each perturbation replaces a uniformly random number of members with
    uniformly random other candidates (the paper generates 300 such sets).
    """
    base = list(base_set)
    pool = [c for c in candidates if c not in set(base)]
    results: List[Set[int]] = []
    for _ in range(count):
        if not base:
            break
        num_replace = int(rng.integers(0, len(base) + 1))
        keep_idx = rng.permutation(len(base))[num_replace:]
        kept = {base[i] for i in keep_idx}
        if pool and num_replace:
            extras = rng.choice(len(pool), size=min(num_replace, len(pool)), replace=False)
            kept.update(pool[i] for i in extras)
        results.append(kept)
    return results


def sandwich_ratio_experiment(
    prr_graphs: Union[PRRArena, Sequence[PRRGraph]],
    n: int,
    base_set: Sequence[int],
    candidates: Sequence[int],
    rng: np.random.Generator,
    count: int = 100,
    min_boost_fraction: float = 0.5,
) -> List[RatioPoint]:
    """Probe ``μ̂(B)/Δ̂(B)`` on perturbations of ``base_set``.

    Sets whose boost falls below ``min_boost_fraction`` of the base set's
    boost are dropped, matching the paper's plotting rule (it only shows the
    ratio where the boost of influence is large).
    """
    if not isinstance(prr_graphs, PRRArena):
        # Convert once; every estimate below then reuses the same arena.
        prr_graphs = PRRArena.from_graphs(n, prr_graphs)
    base_boost = estimate_delta(prr_graphs, n, set(base_set))
    points: List[RatioPoint] = []
    for perturbed in perturbed_sets(base_set, candidates, count, rng):
        delta_hat = estimate_delta(prr_graphs, n, perturbed)
        if delta_hat < min_boost_fraction * base_boost or delta_hat <= 0:
            continue
        mu_hat = estimate_mu(prr_graphs, n, perturbed)
        points.append(
            RatioPoint(
                boost=delta_hat,
                ratio=mu_hat / delta_hat,
                replaced=len(set(base_set) - perturbed),
            )
        )
    return points
