"""The paper's core contribution: PRR-graphs and the boosting algorithms."""

from .boost import BoostResult, CriticalSetSampler, PRRSampler, prr_boost, prr_boost_lb
from .mc_greedy import mc_greedy_boost
from .parallel import (
    RuntimeHealth,
    parallel_critical_sets,
    parallel_prr_collection,
    parallel_rr_csr,
    reap_shm_segments,
    runtime_health,
    shutdown_runtime,
)
from .estimator import (
    CollectionStats,
    collection_stats,
    estimate_delta,
    estimate_mu,
    greedy_delta_selection,
)
from .params import SandwichParams, derive_params
from .prr import (
    ACTIVATED,
    BOOSTABLE,
    HOPELESS,
    EdgeState,
    PRRArena,
    PRRGraph,
    sample_critical_batch,
    sample_critical_set,
    sample_prr_arena,
    sample_prr_batch,
    sample_prr_graph,
    sample_prr_lanes,
)

__all__ = [
    "PRRGraph",
    "PRRArena",
    "EdgeState",
    "sample_prr_graph",
    "sample_prr_batch",
    "sample_prr_arena",
    "sample_critical_set",
    "sample_critical_batch",
    "ACTIVATED",
    "HOPELESS",
    "BOOSTABLE",
    "estimate_delta",
    "estimate_mu",
    "greedy_delta_selection",
    "CollectionStats",
    "collection_stats",
    "prr_boost",
    "prr_boost_lb",
    "BoostResult",
    "PRRSampler",
    "CriticalSetSampler",
    "SandwichParams",
    "derive_params",
    "mc_greedy_boost",
    "sample_prr_lanes",
    "parallel_prr_collection",
    "parallel_critical_sets",
    "parallel_rr_csr",
    "shutdown_runtime",
    "RuntimeHealth",
    "runtime_health",
    "reap_shm_segments",
]
