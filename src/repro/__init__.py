"""repro — reproduction of "Boosting Information Spread: An Algorithmic Approach".

Lin, Chen & Lui (ICDE 2017).  The package provides:

* :mod:`repro.api` — the session-based query API: a warm
  :class:`Session` facade over the engine, the shared-memory parallel
  runtime and every algorithm, driven by typed queries,
* :mod:`repro.graphs` — compact directed influence graphs and generators,
* :mod:`repro.engine` — the unified vectorized sampling + selection
  substrate (lane kernels, coverage index),
* :mod:`repro.diffusion` — the influence boosting model and Monte Carlo
  simulation,
* :mod:`repro.im` — the IMM/SSA influence-maximization substrate (RR-sets),
* :mod:`repro.core` — PRR-graphs, PRR-Boost and PRR-Boost-LB, the
  parallel runtime,
* :mod:`repro.trees` — exact computation, Greedy-Boost and DP-Boost on
  bidirected trees,
* :mod:`repro.baselines` — the heuristic baselines of Section VII,
* :mod:`repro.datasets` — synthetic stand-ins for the evaluation networks,
* :mod:`repro.experiments` — harnesses reproducing every table and figure.

Quickstart — open one :class:`Session` per graph and submit queries; the
engine, worker pool and selection scratch stay warm across them::

    from repro import BoostQuery, EvalQuery, Session, SeedQuery, load_dataset

    graph = load_dataset("digg-like")
    with Session(graph) as session:
        seeds = session.run(SeedQuery(k=20, rng_seed=1)).selected
        boost = session.run(BoostQuery(seeds=seeds, k=50, rng_seed=1))
        delta = session.run(
            EvalQuery(seeds=seeds, boost=boost.selected, rng_seed=1)
        )
        print(boost.selected, delta.estimates["boost"])

Every query answer is a JSON-serializable
:class:`~repro.api.QueryResult`; ``session.run_many([...])`` answers a
batch on one shared worker pool.  The free functions
(:func:`prr_boost`, :func:`imm`, :func:`ssa`, ...) remain available as
thin wrappers over a default throwaway session and return their
historical result objects unchanged.
"""

from .api import (
    AdmissionPolicy,
    AdmissionRejected,
    BoostQuery,
    EvalQuery,
    QueryResult,
    ResultCache,
    SamplingBudget,
    SeedQuery,
    Session,
    TreeQuery,
    algorithm_names,
    estimate_cost,
    query_from_dict,
    register_algorithm,
)
from .baselines import (
    high_degree_global,
    high_degree_local,
    more_seeds_baseline,
    pagerank_baseline,
)
from .core import (
    BoostResult,
    PRRGraph,
    collection_stats,
    derive_params,
    estimate_delta,
    estimate_mu,
    mc_greedy_boost,
    prr_boost,
    prr_boost_lb,
    sample_critical_set,
    sample_prr_graph,
)
from .datasets import load_dataset
from .diffusion import (
    BoostingModel,
    estimate_boost,
    estimate_sigma,
    exact_boost,
    exact_sigma,
    simulate_spread,
)
from .graphs import DiGraph, GraphBuilder
from .im import estimate_influence, imm, random_rr_set, ssa
from .trees import BidirectedTree, dp_boost, greedy_boost
from .trees import delta as tree_delta
from .trees import sigma as tree_sigma

# The paper's reference greedy with Monte-Carlo marginals; exported both
# under its implementation name and the registry key it answers to.
mc_greedy = mc_greedy_boost

__version__ = "1.2.0"

__all__ = [
    # session API
    "Session",
    "SamplingBudget",
    "BoostQuery",
    "SeedQuery",
    "EvalQuery",
    "TreeQuery",
    "QueryResult",
    "query_from_dict",
    "register_algorithm",
    "algorithm_names",
    # serving tier
    "ResultCache",
    "AdmissionPolicy",
    "AdmissionRejected",
    "estimate_cost",
    # graphs + model
    "DiGraph",
    "GraphBuilder",
    "BoostingModel",
    "simulate_spread",
    "estimate_sigma",
    "estimate_boost",
    "exact_sigma",
    "exact_boost",
    # influence maximization
    "imm",
    "ssa",
    "random_rr_set",
    "estimate_influence",
    # PRR-Boost core
    "PRRGraph",
    "sample_prr_graph",
    "sample_critical_set",
    "prr_boost",
    "prr_boost_lb",
    "mc_greedy",
    "mc_greedy_boost",
    "BoostResult",
    "estimate_delta",
    "estimate_mu",
    "collection_stats",
    "derive_params",
    # trees
    "BidirectedTree",
    "greedy_boost",
    "dp_boost",
    "tree_sigma",
    "tree_delta",
    # baselines + data
    "high_degree_global",
    "high_degree_local",
    "pagerank_baseline",
    "more_seeds_baseline",
    "load_dataset",
    "__version__",
]
