"""Micro-benchmark: flat selection subsystem vs the legacy object path.

Measures the *selection phase* (greedy max-coverage, greedy ``Δ̂``
selection and the ``Δ̂`` estimator over one seeded PRR/RR collection) and
the *end-to-end* algorithms (``prr_boost``, ``prr_boost_lb``, ``imm``).

Selection-phase rows compare, per greedy invocation (which legacy IMM
pays at every doubling round):

* **legacy** — dict/heap greedy over lists of frozensets, per-graph
  Python loops over ``PRRGraph`` objects,
* **vectorized** — warm :class:`repro.engine.coverage.CoverageIndex` /
  :class:`repro.core.prr.PRRArena` kernels (the index/arena accumulate
  incrementally during sampling, so a selection round starts from flat
  arrays — the shape the pipeline actually has).

End-to-end rows run each algorithm three ways on identical workloads:

* ``legacy_path`` — the full pre-engine pipeline: edge-wise reference
  samplers + object/heap selection, both from ``tests/oracles/``; this
  is the repo's "legacy" baseline, same vocabulary as
  ``benchmarks/bench_engine.py``,
* ``legacy_selection`` — engine sampling with the pre-arena object
  selection (the composed oracles ``legacy_prr_boost`` /
  ``legacy_prr_boost_lb`` / ``legacy_imm``; identical RNG stream to the
  vectorized arm, so outputs are asserted identical),
* ``vectorized`` — engine sampling + flat selection (the shipped
  algorithms).

Results land in ``BENCH_select.json``.  Run with::

    PYTHONPATH=src python benchmarks/bench_select.py [--smoke]

``--smoke`` shrinks the workload to a tiny graph with 2 repeats and skips
the JSON write — the CI regression check (it still asserts
legacy/vectorized output parity end to end).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import FrozenSet, List

import numpy as np

from repro.core import (
    estimate_delta,
    greedy_delta_selection,
    prr_boost,
    prr_boost_lb,
    sample_prr_arena,
    sample_prr_batch,
)
from repro.engine.coverage import CoverageIndex
from repro.graphs import learned_like, preferential_attachment
from repro.im import imm
from repro.im.rr import RRSampler

# The loop oracles live beside the tests (tests/oracles/).
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles.engine import (  # noqa: E402
    reference_rr_set,
    reference_sample_critical_set,
    reference_sample_prr_graph,
)
from oracles.selection import (  # noqa: E402
    legacy_estimate_delta,
    legacy_greedy_delta_selection,
    legacy_greedy_max_coverage,
    legacy_imm,
    legacy_imm_sampling,
    legacy_prr_boost,
    legacy_prr_boost_lb,
)

BENCH_SEED = 2017
RESULT_PATH = Path(__file__).parent.parent / "BENCH_select.json"

FULL = {
    "n_nodes": 10_000,
    "pa_out_degree": 4,  # ~52k edges
    "mean_probability": 0.5,
    "num_seeds": 20,
    "k": 5,
    "collection_size": 4_000,
    "rr_sets": 2_000,
    "e2e_max_samples": 2_000,
    "repeats": 2,
}
SMOKE = {
    "n_nodes": 600,
    "pa_out_degree": 3,
    "mean_probability": 0.4,
    "num_seeds": 5,
    "k": 3,
    "collection_size": 400,
    "rr_sets": 300,
    "e2e_max_samples": 600,
    "repeats": 2,
}


def build_graph(cfg):
    rng = np.random.default_rng(BENCH_SEED)
    return learned_like(
        preferential_attachment(cfg["n_nodes"], cfg["pa_out_degree"], rng),
        rng,
        cfg["mean_probability"],
    )


def top_degree_seeds(graph, count):
    return frozenset(np.argsort(graph.out_degrees())[-count:].tolist())


def measure(fns: dict, repeats: int) -> dict:
    """Best-of-``repeats`` seconds per labelled thunk, interleaved.

    Interleaving makes load spikes hit every arm; taking each arm's best
    measures intrinsic speed rather than scheduler luck.
    """
    best = {name: float("inf") for name in fns}
    for _ in range(repeats):
        for name, fn in fns.items():
            start = time.perf_counter()
            fn()
            best[name] = min(best[name], time.perf_counter() - start)
    return best


def check(name, legacy, fast):
    if legacy != fast:
        raise AssertionError(f"{name}: legacy {legacy!r} != vectorized {fast!r}")


def _row(times: dict) -> dict:
    """JSON row: seconds per arm + speedups vs the vectorized arm."""
    fast = times["vectorized"]
    row = {f"{name}_seconds": round(secs, 4) for name, secs in times.items()}
    for name, secs in times.items():
        if name != "vectorized":
            row[f"speedup_vs_{name}"] = round(secs / fast, 1) if fast > 0 else float("inf")
    return row


def _print(name, times: dict):
    fast = times["vectorized"]
    parts = " | ".join(
        f"{arm} {secs:8.3f}s" for arm, secs in times.items()
    )
    ratios = " ".join(
        f"{secs / fast:6.1f}x vs {arm}"
        for arm, secs in times.items()
        if arm != "vectorized"
    )
    print(f"{name:>24}: {parts} | {ratios}")


# ----------------------------------------------------------------------
# Selection-phase kernels
# ----------------------------------------------------------------------
def bench_selection_kernels(graph, seeds, cfg, results):
    k = cfg["k"]
    count = cfg["collection_size"]
    objs = sample_prr_batch(graph, seeds, k, np.random.default_rng(1), count)
    arena = sample_prr_arena(graph, seeds, k, np.random.default_rng(1), count)
    critical_sets = [
        g.critical if g.is_boostable else frozenset() for g in objs
    ]
    crit_index = CoverageIndex(graph.n)
    crit_index.extend_csr(*arena.critical_csr())
    arena.flat()
    crit_index.greedy(k)  # consolidate, as after in-pipeline accumulation

    rr_legacy: List[FrozenSet[int]] = []
    rr_index = CoverageIndex(graph.n)
    rr_sampler = RRSampler(graph)
    rr_legacy.extend(rr_sampler.sample_batch(np.random.default_rng(6), cfg["rr_sets"]))
    rr_sampler.sample_into(np.random.default_rng(6), cfg["rr_sets"], rr_index)
    rr_index.greedy(k)

    check(
        "greedy_cover_critical",
        legacy_greedy_max_coverage(critical_sets, k),
        crit_index.greedy(k),
    )
    check(
        "greedy_cover_rr",
        legacy_greedy_max_coverage(rr_legacy, k),
        rr_index.greedy(k),
    )
    check(
        "greedy_delta_selection",
        legacy_greedy_delta_selection(objs, graph.n, k),
        greedy_delta_selection(arena, graph.n, k),
    )
    boost_sets = [
        set(np.random.default_rng(s).choice(graph.n, size=k, replace=False).tolist())
        for s in range(8)
    ]
    for b in boost_sets:
        if abs(legacy_estimate_delta(objs, graph.n, b) - estimate_delta(arena, graph.n, b)) > 1e-9:
            raise AssertionError("estimate_delta mismatch")

    rows = {
        "greedy_cover_critical": measure(
            {
                "legacy": lambda: legacy_greedy_max_coverage(critical_sets, k),
                "vectorized": lambda: crit_index.greedy(k),
            },
            cfg["repeats"],
        ),
        "greedy_cover_rr": measure(
            {
                "legacy": lambda: legacy_greedy_max_coverage(rr_legacy, k),
                "vectorized": lambda: rr_index.greedy(k),
            },
            cfg["repeats"],
        ),
        "greedy_delta_selection": measure(
            {
                "legacy": lambda: legacy_greedy_delta_selection(objs, graph.n, k),
                "vectorized": lambda: greedy_delta_selection(arena, graph.n, k),
            },
            cfg["repeats"],
        ),
        "estimate_delta_x8": measure(
            {
                "legacy": lambda: [
                    legacy_estimate_delta(objs, graph.n, b) for b in boost_sets
                ],
                "vectorized": lambda: [
                    estimate_delta(arena, graph.n, b) for b in boost_sets
                ],
            },
            cfg["repeats"],
        ),
    }
    totals = {"legacy": 0.0, "vectorized": 0.0}
    for name, times in rows.items():
        totals["legacy"] += times["legacy"]
        totals["vectorized"] += times["vectorized"]
        results[name] = _row(times)
        _print(name, times)
    results["selection_phase_total"] = _row(totals)
    _print("selection_phase_total", totals)


# ----------------------------------------------------------------------
# Full legacy pipeline (reference samplers + object selection)
# ----------------------------------------------------------------------
class _ReferencePRRSampler:
    """Pre-engine PRR sampling exposed through the sampler protocol."""

    def __init__(self, graph, seeds, k):
        self.graph = graph
        self.seeds = frozenset(seeds)
        self.k = k
        self.n = graph.n
        self.graphs = []

    def sample(self, rng):
        prr = reference_sample_prr_graph(self.graph, self.seeds, self.k, rng)
        self.graphs.append(prr)
        return prr.critical if prr.is_boostable else frozenset()


class _ReferenceCriticalSampler:
    def __init__(self, graph, seeds):
        self.graph = graph
        self.seeds = frozenset(seeds)
        self.n = graph.n

    def sample(self, rng):
        _status, critical, _explored = reference_sample_critical_set(
            self.graph, self.seeds, rng
        )
        return critical


class _ReferenceRRSampler:
    def __init__(self, graph):
        self.graph = graph
        self.n = graph.n

    def sample(self, rng):
        return reference_rr_set(self.graph, rng)


def legacy_path_prr_boost(graph, seeds, k, rng, max_samples):
    """Algorithm 2 exactly as the pre-engine repo ran it."""
    seed_set = set(seeds)
    candidates = {v for v in range(graph.n) if v not in seed_set}
    ell_prime = 1.0 * (1.0 + np.log(3.0) / np.log(max(graph.n, 2)))
    sampler = _ReferencePRRSampler(graph, seed_set, k)
    critical_sets = legacy_imm_sampling(
        sampler, k, 0.5, ell_prime, rng, candidates=candidates,
        max_samples=max_samples,
    )
    mu_set, mu_covered = legacy_greedy_max_coverage(critical_sets, k, candidates)
    delta_set, delta_estimate = legacy_greedy_delta_selection(
        sampler.graphs, graph.n, k, candidates
    )
    mu_delta = legacy_estimate_delta(sampler.graphs, graph.n, set(mu_set))
    return sorted(mu_set if mu_delta >= delta_estimate else delta_set)


def legacy_path_prr_boost_lb(graph, seeds, k, rng, max_samples):
    seed_set = set(seeds)
    candidates = {v for v in range(graph.n) if v not in seed_set}
    ell_prime = 1.0 * (1.0 + np.log(3.0) / np.log(max(graph.n, 2)))
    sampler = _ReferenceCriticalSampler(graph, seed_set)
    critical_sets = legacy_imm_sampling(
        sampler, k, 0.5, ell_prime, rng, candidates=candidates,
        max_samples=max_samples,
    )
    mu_set, _ = legacy_greedy_max_coverage(critical_sets, k, candidates)
    return sorted(mu_set)


def legacy_path_imm(graph, k, rng, max_samples):
    sampler = _ReferenceRRSampler(graph)
    samples = legacy_imm_sampling(
        sampler, k, 0.5, 1.0, rng, max_samples=max_samples
    )
    chosen, _ = legacy_greedy_max_coverage(samples, k)
    return chosen


# ----------------------------------------------------------------------
# End to end
# ----------------------------------------------------------------------
def bench_end_to_end(graph, seeds, cfg, results):
    k = cfg["k"]
    cap = cfg["e2e_max_samples"]

    def pair(name, arms, key):
        # The engine-sampled arms share one RNG stream: assert identical
        # outputs before trusting the timings.  The reference-sampled arm
        # draws a different (equally valid) sample, so only its timing is
        # comparable.
        check(name, key(arms["legacy_selection"]()), key(arms["vectorized"]()))
        times = measure(arms, cfg["repeats"])
        results[name] = _row(times)
        _print(name, times)

    pair(
        "prr_boost",
        {
            "legacy_path": lambda: legacy_path_prr_boost(
                graph, seeds, k, np.random.default_rng(2), cap
            ),
            "legacy_selection": lambda: legacy_prr_boost(
                graph, seeds, k, np.random.default_rng(2), max_samples=cap,
            ),
            "vectorized": lambda: prr_boost(
                graph, seeds, k, np.random.default_rng(2), max_samples=cap,
            ),
        },
        key=lambda r: r.boost_set if hasattr(r, "boost_set") else r,
    )
    pair(
        "prr_boost_lb",
        {
            "legacy_path": lambda: legacy_path_prr_boost_lb(
                graph, seeds, k, np.random.default_rng(3), cap
            ),
            "legacy_selection": lambda: legacy_prr_boost_lb(
                graph, seeds, k, np.random.default_rng(3), max_samples=cap,
            ),
            "vectorized": lambda: prr_boost_lb(
                graph, seeds, k, np.random.default_rng(3), max_samples=cap,
            ),
        },
        key=lambda r: r.boost_set if hasattr(r, "boost_set") else r,
    )
    pair(
        "imm",
        {
            "legacy_path": lambda: legacy_path_imm(
                graph, k, np.random.default_rng(4), cap
            ),
            "legacy_selection": lambda: legacy_imm(
                graph, k, np.random.default_rng(4), max_samples=cap,
            ),
            "vectorized": lambda: imm(
                graph, k, np.random.default_rng(4), max_samples=cap
            ),
        },
        key=lambda r: r.chosen if hasattr(r, "chosen") else r,
    )


def run(smoke: bool = False) -> dict:
    cfg = SMOKE if smoke else FULL
    graph = build_graph(cfg)
    seeds = top_degree_seeds(graph, cfg["num_seeds"])
    print(
        f"graph: n={graph.n} m={graph.m} seeds={len(seeds)} "
        f"k={cfg['k']} collection={cfg['collection_size']}"
    )
    results = {
        "graph": {"n": graph.n, "m": graph.m, "seeds": len(seeds), "k": cfg["k"]},
        "collection_size": cfg["collection_size"],
        "rr_sets": cfg["rr_sets"],
        "e2e_max_samples": cfg["e2e_max_samples"],
        "repeats": cfg["repeats"],
        "smoke": smoke,
        "arms": {
            "legacy_path": "reference (pre-engine) sampling + object selection",
            "legacy_selection": "engine sampling + object selection",
            "vectorized": "engine sampling + arena/index selection",
        },
    }
    bench_selection_kernels(graph, seeds, cfg, results)
    bench_end_to_end(graph, seeds, cfg, results)
    return results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny graph, 2 repeats, no JSON write (CI regression mode)",
    )
    args = parser.parse_args()
    results = run(smoke=args.smoke)
    if not args.smoke:
        RESULT_PATH.write_text(json.dumps(results, indent=2) + "\n")
        print(f"wrote {RESULT_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
