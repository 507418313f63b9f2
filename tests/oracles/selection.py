"""Seeded loop oracles for the selection layer (pinned, do not optimize).

The pre-arena object path that :mod:`repro.core.estimator`,
:mod:`repro.im.greedy` and :class:`repro.engine.coverage.CoverageIndex`
replaced, kept verbatim so the vectorized kernels can be checked against
it value for value:

* :func:`legacy_greedy_max_coverage` — the dict/heap lazy greedy over
  lists of node sets,
* :func:`legacy_estimate_delta` / :func:`legacy_estimate_mu` /
  :func:`legacy_greedy_delta_selection` / :func:`legacy_collection_stats`
  — the per-graph ``Δ̂``/``μ̂``/stats loops over
  :class:`~repro.core.prr.PRRGraph` objects,
* :func:`legacy_imm_sampling` — the IMM sampling phase over a Python
  sample list, re-running the heap greedy at every doubling round,
* :func:`legacy_prr_boost` / :func:`legacy_prr_boost_lb` /
  :func:`legacy_imm` — the three algorithms composed from the above.

The composed oracles drive the shipped samplers
(:class:`~repro.core.boost.PRRSampler`,
:class:`~repro.core.boost.CriticalSetSampler`,
:class:`~repro.im.rr.RRSampler`) through ``sample_batch``, which consumes
the RNG exactly like the ``sample_into`` form the shipped algorithms use,
so an oracle run and a shipped run on the same seed see the same samples
and must return the same answer.
"""

from __future__ import annotations

import heapq
import math
import time
from typing import AbstractSet, FrozenSet, Iterable, List, Sequence, Set, Tuple

import numpy as np

from repro.core.boost import BoostResult, CriticalSetSampler, PRRSampler
from repro.core.estimator import CollectionStats
from repro.core.prr import PRRGraph
from repro.im.imm import IMMResult, log_binomial
from repro.im.rr import RRSampler

__all__ = [
    "legacy_greedy_max_coverage",
    "legacy_estimate_delta",
    "legacy_estimate_mu",
    "legacy_greedy_delta_selection",
    "legacy_collection_stats",
    "legacy_imm_sampling",
    "legacy_prr_boost",
    "legacy_prr_boost_lb",
    "legacy_imm",
]


# ----------------------------------------------------------------------
# Greedy max-coverage
# ----------------------------------------------------------------------
def legacy_greedy_max_coverage(
    sets: Sequence[Iterable[int]],
    k: int,
    candidates: Set[int] | None = None,
) -> Tuple[List[int], int]:
    """The pre-index dict/heap greedy.

    Lazy-greedy with a max-heap of stale upper bounds; valid because
    coverage gain is submodular (gains only shrink).
    """
    if k <= 0:
        return [], 0
    # Inverted index: node -> list of set ids containing it.
    inverted: dict[int, list[int]] = {}
    for set_id, node_set in enumerate(sets):
        for node in node_set:
            if candidates is None or node in candidates:
                inverted.setdefault(node, []).append(set_id)

    gain = {node: len(ids) for node, ids in inverted.items()}
    covered = [False] * len(sets)
    chosen: List[int] = []
    total_covered = 0

    heap = [(-g, node) for node, g in gain.items()]
    heapq.heapify(heap)
    while heap and len(chosen) < k:
        neg_gain, node = heapq.heappop(heap)
        fresh = sum(1 for sid in inverted[node] if not covered[sid])
        if fresh != -neg_gain:
            if fresh > 0:
                heapq.heappush(heap, (-fresh, node))
            continue
        if fresh == 0:
            break
        chosen.append(node)
        total_covered += fresh
        for sid in inverted[node]:
            covered[sid] = True
    return chosen, total_covered


# ----------------------------------------------------------------------
# Per-graph estimators and Δ̂ greedy
# ----------------------------------------------------------------------
def legacy_estimate_delta(
    prr_graphs: Sequence[PRRGraph], n: int, boost: AbstractSet[int]
) -> float:
    """Per-graph ``Δ̂`` loop."""
    if not prr_graphs:
        return 0.0
    covered = sum(1 for g in prr_graphs if g.f(boost))
    return n * covered / len(prr_graphs)


def legacy_estimate_mu(
    prr_graphs: Sequence[PRRGraph], n: int, boost: AbstractSet[int]
) -> float:
    """Per-graph ``μ̂`` loop."""
    if not prr_graphs:
        return 0.0
    covered = sum(1 for g in prr_graphs if g.f_lower(boost))
    return n * covered / len(prr_graphs)


def legacy_greedy_delta_selection(
    prr_graphs: Sequence[PRRGraph],
    n: int,
    k: int,
    candidates: Set[int] | None = None,
) -> Tuple[List[int], float]:
    """Per-graph greedy ``Δ̂`` selection.

    Each round recomputes, for every still-inactive boostable PRR-graph, the
    set ``A_R(B)`` of single nodes whose addition would activate the root
    (two linear traversals per graph), tallies the counts into a dense
    array, and takes the argmax.
    """
    if k <= 0 or not prr_graphs:
        return [], 0.0
    boost: set[int] = set()
    active = [False] * len(prr_graphs)
    activated_count = 0
    allowed = np.ones(n, dtype=bool)
    if candidates is not None:
        allowed[:] = False
        allowed[list(candidates)] = True
    # Cache each graph's current activation options.
    options: List[FrozenSet[int]] = [None] * len(prr_graphs)  # type: ignore[list-item]

    for _round in range(k):
        counts = np.zeros(n, dtype=np.int64)
        for idx, g in enumerate(prr_graphs):
            if active[idx] or not g.is_boostable:
                continue
            acts = g.activating_nodes(boost)
            options[idx] = acts
            if acts:
                counts[list(acts)] += 1
        counts[~allowed] = 0
        if not counts.any():
            # Supermodular stall: boost the node unlocking the most
            # frontier edges so multi-step chains become completable.
            for idx, g in enumerate(prr_graphs):
                if active[idx] or not g.is_boostable:
                    continue
                frontier = g.frontier_nodes(boost)
                if frontier:
                    counts[list(frontier)] += 1
            counts[~allowed] = 0
            options = [None] * len(prr_graphs)  # type: ignore[list-item]
        if not counts.any():
            break
        # argmax breaks ties toward the smallest node id.
        best = int(np.argmax(counts))
        boost.add(best)
        for idx, g in enumerate(prr_graphs):
            if active[idx] or not g.is_boostable:
                continue
            if options[idx] is not None and best in options[idx]:
                active[idx] = True
                activated_count += 1
    estimate = n * activated_count / len(prr_graphs)
    return sorted(boost), estimate


def legacy_collection_stats(prr_graphs: Iterable[PRRGraph]) -> CollectionStats:
    """Per-graph accumulation of the Table 2/3 collection statistics."""
    stats = CollectionStats()
    for g in prr_graphs:
        stats.total += 1
        if g.status == "activated":
            stats.activated += 1
        elif g.status == "hopeless":
            stats.hopeless += 1
        else:
            stats.boostable += 1
            stats.uncompressed_edges += g.uncompressed_edges
            stats.compressed_edges += g.num_edges
            stats.critical_nodes += len(g.critical)
            stats.stored_bytes += g.estimated_bytes
    return stats


# ----------------------------------------------------------------------
# IMM sampling phase over a Python sample list
# ----------------------------------------------------------------------
def _extend_samples(
    samples: List[FrozenSet[int]], sampler, rng: np.random.Generator, target: int
) -> None:
    """Grow ``samples`` to ``target`` entries, batched when supported."""
    need = target - len(samples)
    if need <= 0:
        return
    batch = getattr(sampler, "sample_batch", None)
    if batch is not None:
        samples.extend(batch(rng, need))
        return
    while len(samples) < target:
        samples.append(sampler.sample(rng))


def legacy_imm_sampling(
    sampler,
    k: int,
    epsilon: float,
    ell: float,
    rng: np.random.Generator,
    candidates: Set[int] | None = None,
    max_samples: int = 2_000_000,
) -> List[FrozenSet[int]]:
    """IMM sampling phase with the heap greedy at every doubling round.

    Same martingale bounds and sample targets as
    :func:`repro.im.imm.imm_sampling`; samplers need ``n`` and either
    ``sample_batch(rng, count)`` or ``sample(rng)``.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    n = sampler.n
    log_n = math.log(max(n, 2))
    log_nk = log_binomial(n, k)

    samples: List[FrozenSet[int]] = []
    lower_bound = 1.0

    eps_prime = math.sqrt(2.0) * epsilon
    lambda_prime = (
        (2.0 + 2.0 / 3.0 * eps_prime)
        * (log_nk + ell * log_n + math.log(max(math.log2(max(n, 2)), 1.0)))
        * n
        / (eps_prime**2)
    )

    max_rounds = max(int(math.log2(max(n, 2))), 1)
    for i in range(1, max_rounds):
        x = n / (2.0**i)
        theta_i = min(int(math.ceil(lambda_prime / x)), max_samples)
        _extend_samples(samples, sampler, rng, theta_i)
        _chosen, covered = legacy_greedy_max_coverage(samples, k, candidates)
        estimate = n * covered / len(samples)
        if estimate >= (1.0 + eps_prime) * x:
            lower_bound = estimate / (1.0 + eps_prime)
            break
        if len(samples) >= max_samples:
            lower_bound = max(estimate, 1.0)
            break
    else:
        lower_bound = max(lower_bound, 1.0)

    alpha = math.sqrt(ell * log_n + math.log(2.0))
    beta = math.sqrt((1.0 - 1.0 / math.e) * (log_nk + ell * log_n + math.log(2.0)))
    lambda_star = 2.0 * n * ((1.0 - 1.0 / math.e) * alpha + beta) ** 2 / (epsilon**2)
    theta = min(int(math.ceil(lambda_star / max(lower_bound, 1e-12))), max_samples)
    _extend_samples(samples, sampler, rng, theta)
    return samples


# ----------------------------------------------------------------------
# Composed algorithms
# ----------------------------------------------------------------------
def _setup(graph, seeds, k: int, ell: float):
    seed_set = set(int(s) for s in seeds)
    candidates = {v for v in range(graph.n) if v not in seed_set}
    k = min(k, max(len(candidates), 1))
    ell_prime = ell * (1.0 + np.log(3.0) / np.log(max(graph.n, 2)))
    return seed_set, candidates, k, ell_prime


def legacy_prr_boost(
    graph,
    seeds,
    k: int,
    rng: np.random.Generator,
    epsilon: float = 0.5,
    ell: float = 1.0,
    max_samples: int = 200_000,
    workers: int | None = None,
) -> BoostResult:
    """PRR-Boost (Algorithm 2) on the object path: Python sample lists,
    heap greedy for ``B_μ``, per-graph loops for ``B_Δ`` and the final
    sandwich comparison."""
    start = time.perf_counter()
    seed_set, candidates, k, ell_prime = _setup(graph, seeds, k, ell)
    sampler = PRRSampler(graph, seed_set, k, workers=workers)
    critical_sets = legacy_imm_sampling(
        sampler, k, epsilon, ell_prime, rng, candidates=candidates,
        max_samples=max_samples,
    )
    prr_graphs = list(sampler.arena)
    mu_set, mu_covered = legacy_greedy_max_coverage(critical_sets, k, candidates)
    mu_estimate = graph.n * mu_covered / len(critical_sets)
    delta_set, delta_estimate = legacy_greedy_delta_selection(
        prr_graphs, graph.n, k, candidates
    )
    mu_delta = legacy_estimate_delta(prr_graphs, graph.n, set(mu_set))
    if mu_delta >= delta_estimate:
        chosen, value = mu_set, mu_delta
    else:
        chosen, value = delta_set, delta_estimate
    return BoostResult(
        boost_set=sorted(chosen),
        estimated_boost=value,
        mu_set=sorted(mu_set),
        mu_estimate=mu_estimate,
        delta_set=sorted(delta_set),
        delta_estimate=delta_estimate,
        num_samples=len(prr_graphs),
        stats=legacy_collection_stats(prr_graphs),
        elapsed_seconds=time.perf_counter() - start,
    )


def legacy_prr_boost_lb(
    graph,
    seeds,
    k: int,
    rng: np.random.Generator,
    epsilon: float = 0.5,
    ell: float = 1.0,
    max_samples: int = 200_000,
    workers: int | None = None,
) -> BoostResult:
    """PRR-Boost-LB on the object path (critical sets + heap greedy)."""
    start = time.perf_counter()
    seed_set, candidates, k, ell_prime = _setup(graph, seeds, k, ell)
    sampler = CriticalSetSampler(graph, seed_set, workers=workers)
    critical_sets = legacy_imm_sampling(
        sampler, k, epsilon, ell_prime, rng, candidates=candidates,
        max_samples=max_samples,
    )
    mu_set, mu_covered = legacy_greedy_max_coverage(critical_sets, k, candidates)
    mu_estimate = graph.n * mu_covered / len(critical_sets)
    return BoostResult(
        boost_set=sorted(mu_set),
        estimated_boost=mu_estimate,
        mu_set=sorted(mu_set),
        mu_estimate=mu_estimate,
        num_samples=len(critical_sets),
        elapsed_seconds=time.perf_counter() - start,
    )


def legacy_imm(
    graph,
    k: int,
    rng: np.random.Generator,
    epsilon: float = 0.5,
    ell: float = 1.0,
    max_samples: int = 2_000_000,
    workers: int | None = None,
) -> IMMResult:
    """IMM seed selection on the object path (RR-set list + heap greedy)."""
    sampler = RRSampler(graph, workers=workers)
    samples = legacy_imm_sampling(
        sampler, k, epsilon, ell, rng, max_samples=max_samples
    )
    chosen, covered = legacy_greedy_max_coverage(samples, k)
    return IMMResult(
        chosen=chosen,
        samples=samples,
        coverage=covered,
        estimate=graph.n * covered / len(samples),
        theta=len(samples),
    )
