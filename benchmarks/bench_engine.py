"""Micro-benchmark: engine batch sampling vs the per-call legacy path.

Measures RR-sets/sec, PRR-graphs/sec, critical-sets/sec and forward
cascades/sec on a 10k-node / ~50k-edge synthetic graph, for both the
vectorized :class:`repro.engine.SamplingEngine` batch API and the edge-wise
pre-engine samplers kept in ``tests/oracles/engine.py``.  A full run
writes ``BENCH_engine.json`` at the repo root so the performance
trajectory stays tracked; ``--quick`` only prints, leaving the committed
full-size baseline alone.

Run with::

    PYTHONPATH=src python benchmarks/bench_engine.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.core import sample_critical_batch, sample_prr_batch
from repro.engine import SamplingEngine
from repro.graphs import learned_like, preferential_attachment

# The loop oracles live beside the tests (tests/oracles/).
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles.engine import (  # noqa: E402
    reference_rr_set,
    reference_sample_critical_set,
    reference_sample_prr_graph,
    reference_simulate_spread,
)

BENCH_SEED = 2017
N_NODES = 10_000
PA_OUT_DEGREE = 4  # ~52k edges
MEAN_PROBABILITY = 0.5  # high-influence regime (paper's Twitter: avg p 0.608)
PRR_K = 5
NUM_SEEDS = 20

RESULT_PATH = Path(__file__).parent.parent / "BENCH_engine.json"


def build_graph():
    rng = np.random.default_rng(BENCH_SEED)
    return learned_like(
        preferential_attachment(N_NODES, PA_OUT_DEGREE, rng), rng, MEAN_PROBABILITY
    )


def top_degree_seeds(graph, count):
    return frozenset(np.argsort(graph.out_degrees())[-count:].tolist())


REPEATS = 4


def measure_pair(legacy_fn, engine_fn, legacy_samples, engine_samples):
    """Best-of-``REPEATS`` rates for both implementations, interleaved.

    Interleaving makes load spikes on shared machines hit both sides, and
    taking each side's best rate measures intrinsic speed rather than
    scheduler luck — the same denoising applied symmetrically.
    """
    legacy_best = engine_best = 0.0
    for _ in range(REPEATS):
        start = time.perf_counter()
        legacy_fn()
        legacy_best = max(legacy_best, legacy_samples / (time.perf_counter() - start))
        start = time.perf_counter()
        engine_fn()
        engine_best = max(engine_best, engine_samples / (time.perf_counter() - start))
    return legacy_best, engine_best


def bench_rr(graph, engine, legacy_samples, engine_samples):
    legacy_rng = np.random.default_rng(1)
    batch_rng = np.random.default_rng(1)
    return measure_pair(
        lambda: [reference_rr_set(graph, legacy_rng) for _ in range(legacy_samples)],
        lambda: engine.sample_rr_batch(batch_rng, engine_samples),
        legacy_samples,
        engine_samples,
    )


def bench_prr(graph, seeds, legacy_samples, engine_samples):
    legacy_rng = np.random.default_rng(2)
    batch_rng = np.random.default_rng(2)
    return measure_pair(
        lambda: [
            reference_sample_prr_graph(graph, seeds, PRR_K, legacy_rng)
            for _ in range(legacy_samples)
        ],
        lambda: sample_prr_batch(graph, seeds, PRR_K, batch_rng, engine_samples),
        legacy_samples,
        engine_samples,
    )


def bench_critical(graph, seeds, legacy_samples, engine_samples):
    legacy_rng = np.random.default_rng(3)
    batch_rng = np.random.default_rng(3)
    return measure_pair(
        lambda: [
            reference_sample_critical_set(graph, seeds, legacy_rng)
            for _ in range(legacy_samples)
        ],
        lambda: sample_critical_batch(graph, seeds, batch_rng, engine_samples),
        legacy_samples,
        engine_samples,
    )


def bench_cascade(graph, engine, seeds, legacy_samples, engine_samples):
    boost = set(list(seeds)[:5])
    legacy_rng = np.random.default_rng(4)
    batch_rng = np.random.default_rng(4)
    return measure_pair(
        lambda: [
            reference_simulate_spread(graph, seeds, boost, legacy_rng)
            for _ in range(legacy_samples)
        ],
        lambda: engine.simulate_batch(seeds, boost, batch_rng, engine_samples),
        legacy_samples,
        engine_samples,
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="quarter-size run for smoke testing; skips the JSON write"
    )
    args = parser.parse_args()
    scale = 4 if args.quick else 1

    graph = build_graph()
    engine = SamplingEngine.for_graph(graph)
    seeds = top_degree_seeds(graph, NUM_SEEDS)
    print(f"graph: n={graph.n} m={graph.m} seeds={len(seeds)} k={PRR_K}")

    results = {
        "graph": {"n": graph.n, "m": graph.m, "seeds": len(seeds), "k": PRR_K},
        "repeats": REPEATS,
    }
    for name, (legacy_rate, batch_rate) in {
        "rr_sets": bench_rr(graph, engine, 400 // scale, 1600 // scale),
        "prr_graphs": bench_prr(graph, seeds, 250 // scale, 1000 // scale),
        "critical_sets": bench_critical(graph, seeds, 400 // scale, 1600 // scale),
        "cascades": bench_cascade(graph, engine, seeds, 100 // scale, 400 // scale),
    }.items():
        results[name] = {
            "legacy_per_sec": round(legacy_rate, 1),
            "engine_per_sec": round(batch_rate, 1),
            "speedup": round(batch_rate / legacy_rate, 1),
        }
        print(
            f"{name:>14}: legacy {legacy_rate:9.1f}/s | "
            f"engine {batch_rate:9.1f}/s | {batch_rate / legacy_rate:5.1f}x"
        )

    if not args.quick:
        RESULT_PATH.write_text(json.dumps(results, indent=2) + "\n")
        print(f"wrote {RESULT_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
