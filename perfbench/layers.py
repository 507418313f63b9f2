"""Per-layer metrics of the traced run.

:func:`install` wraps the public entry points of each layer of the
program — where their callers look them up — in spans of the given
tracer.  :func:`layer_metrics` turns the recorded spans into the
per-layer numbers: times and counts per query over the timed loop, and
set-up numbers as the median over set-up cycles.

Wrappers installed before the worker pool forks are inherited by the
workers, but spans recorded there never come back; worker compute shows
up as ``runtime.wait_ms``, the coordinator's time blocked on the pool.
"""

from __future__ import annotations

import statistics
from importlib import import_module
from typing import Dict, List, Sequence

from spans import Span, Tracer, children_of, covered, self_time

# (end-to-end metric it should move, workload) is documented in README.md.
PER_LAYER = {
    "api.query_ms": "ms", "api.self_ms": "ms", "cache.hit_ratio": "ratio",
    "admission.decide_ms": "ms", "serve.overhead_ms": "ms",
    "prr.phase1_ms": "ms", "prr.compress_ms": "ms", "prr.samples": "count",
    "prr.boostable_ratio": "ratio",
    "select.delta_ms": "ms", "select.estimate_ms": "ms",
    "cover.greedy_ms": "ms", "cover.greedy_calls": "count",
    "cover.members": "count",
    "imm.sampling_ms": "ms", "rr.lanes_ms": "ms", "rr.sets": "count",
    "runtime.wait_ms": "ms", "runtime.chunks": "count",
    "runtime.payload_mb": "MB", "runtime.merge_ms": "ms",
    "runtime.retries": "count", "runtime.restarts": "count",
    "runtime.spawn_ms": "ms",
    "store.open_ms": "ms",
    "tree.build_ms": "ms", "dp.ms": "ms", "dp.table_entries": "count",
    "setup.graph_ms": "ms", "setup.session_ms": "ms", "setup.warmup_ms": "ms",
    "trace.latency_p50_ms": "ms", "trace.spans": "count",
    "host.slowdown": "ratio",
}

# Spans that are an algorithm's body: what api.self_ms excludes.
BODIES = ("body.prr_boost", "body.imm", "dp.boost")


def _arg(index: int, name: str):
    def count(args, kwargs, result):
        return kwargs[name] if name in kwargs else args[index]
    return count


def _payload_bytes(args, kwargs, result):
    return sum(arr.nbytes for chunk in result for arr in chunk)


def install(tracer: Tracer) -> None:
    """Wrap every measured entry point.  Undo with ``tracer.restore()``."""
    # import_module, not "import a.b as b": some packages export a
    # function under their submodule's name (repro.im.imm).
    algorithms = import_module("repro.api.algorithms")
    boost = import_module("repro.core.boost")
    parallel = import_module("repro.core.parallel")
    imm = import_module("repro.im.imm")
    storage = import_module("repro.storage")
    trees = import_module("repro.trees")
    from repro.api.admission import AdmissionPolicy
    from repro.api.session import Session
    from repro.core.prr import PRRArena
    from repro.engine import SamplingEngine
    from repro.engine.coverage import CoverageIndex

    w = tracer.wrap
    # repro.api
    w(Session, "run", "api.query")
    w(Session, "run_many", "api.query")
    w(Session, "tree_for", "tree.build")
    w(AdmissionPolicy, "decide", "admission.decide")
    w(algorithms, "prr_boost_core", "body.prr_boost")
    w(algorithms, "imm_core", "body.imm")
    # repro.core.prr + engine lanes
    w(boost, "sample_prr_lanes", "prr.lanes", _arg(4, "count"))
    w(parallel, "parallel_prr_payloads", "prr.parallel", _arg(3, "count"))
    w(SamplingEngine, "prr_phase1_lanes", "prr.phase1")
    # repro.core.estimator + engine.coverage
    w(boost, "greedy_delta_selection", "select.delta")
    for name in ("estimate_mu", "estimate_delta", "collection_stats"):
        w(boost, name, "select.estimate")
    w(CoverageIndex, "greedy", "cover.greedy",
      lambda args, kwargs, result: args[0].total_members)
    # repro.im
    w(imm, "imm_sampling", "imm.sampling")
    w(SamplingEngine, "rr_lane_csr", "rr.lanes", _arg(2, "count"))
    # repro.core.parallel
    w(parallel.SharedGraphRuntime, "__init__", "runtime.spawn")
    w(parallel.SharedGraphRuntime, "submit", "runtime.submit",
      lambda args, kwargs, result: len(args[2]))
    w(parallel.SharedGraphRuntime, "run", "runtime.wait", _payload_bytes)
    w(PRRArena, "from_payloads", "runtime.merge")
    w(PRRArena, "extend_arena", "runtime.merge")
    # repro.storage, repro.trees
    w(storage, "open_graph", "store.open")
    w(trees, "dp_boost", "dp.boost")


def _total_ms(spans: Sequence[Span]) -> float:
    return 1000.0 * sum(s.duration for s in spans)


def layer_metrics(
    tracer: Tracer,
    loop_start: float,
    cycles: Sequence[Span],
    queries: int,
    items: int,
    envelopes: List[dict],
    cache_hits: int,
    cache_lookups: int,
    health,
    latency_p50_ms: float,
    slowdown: float,
) -> Dict[str, float]:
    """Per-layer metrics; every time is divided by ``slowdown``, the
    run's median host slowdown measured by the reference kernel.
    ``latency_p50_ms`` comes already scaled per item, as in the
    untraced run, so the two compare directly."""
    loop = [s for s in tracer.spans if s.start >= loop_start]
    by_name: Dict[str, List[Span]] = {}
    for s in loop:
        by_name.setdefault(s.name, []).append(s)

    def spans(name):
        return by_name.get(name, [])

    def per_query_ms(*names):
        return sum(_total_ms(spans(n)) for n in names) / queries

    def per_query_count(*names):
        return sum(s.value for n in names for s in spans(n)) / queries

    def per_cycle_ms(name):
        return statistics.median(
            _total_ms([s for s in tracer.spans if s.name == name
                       and c.start <= s.start and s.end <= c.end])
            for c in cycles
        )

    bodies = [(s.start, s.end) for n in BODIES for s in spans(n)]
    # One client, closed loop: a body span inside an api.query interval
    # belongs to that query, whichever lane thread ran it.
    api_self = sum(
        s.duration - covered(s.start, s.end, bodies) for s in spans("api.query")
    )
    phase1_children = children_of(loop, ["prr.phase1"])
    compress = sum(
        self_time(s, phase1_children.get(s.id, ())) for s in spans("prr.lanes")
    )
    stats = [e["extra"]["stats"] for e in envelopes if "stats" in e.get("extra", {})]
    total = sum(st["total"] for st in stats)
    tables = [e["extra"]["table_entries"] for e in envelopes
              if "table_entries" in e.get("extra", {})]

    metrics = {
        "api.query_ms": per_query_ms("api.query"),
        "api.self_ms": 1000.0 * api_self / queries,
        "cache.hit_ratio": cache_hits / cache_lookups if cache_lookups else 0.0,
        "admission.decide_ms": per_query_ms("admission.decide"),
        "serve.overhead_ms": (
            _total_ms(spans("client.request")) - _total_ms(spans("api.query"))
        ) / items,
        "prr.phase1_ms": per_query_ms("prr.phase1"),
        "prr.compress_ms": 1000.0 * compress / queries,
        "prr.samples": per_query_count("prr.lanes", "prr.parallel"),
        "prr.boostable_ratio": (
            sum(st["boostable"] for st in stats) / total if total else 0.0
        ),
        "select.delta_ms": per_query_ms("select.delta"),
        "select.estimate_ms": per_query_ms("select.estimate"),
        "cover.greedy_ms": per_query_ms("cover.greedy"),
        "cover.greedy_calls": len(spans("cover.greedy")) / queries,
        "cover.members": per_query_count("cover.greedy"),
        "imm.sampling_ms": per_query_ms("imm.sampling"),
        "rr.lanes_ms": per_query_ms("rr.lanes"),
        "rr.sets": per_query_count("rr.lanes"),
        "runtime.wait_ms": per_query_ms("runtime.wait"),
        "runtime.chunks": per_query_count("runtime.submit"),
        "runtime.payload_mb": per_query_count("runtime.wait") / 1e6,
        "runtime.merge_ms": per_query_ms("runtime.merge"),
        "runtime.retries": float(health.retries) if health else 0.0,
        "runtime.restarts": float(health.restarts) if health else 0.0,
        "runtime.spawn_ms": per_cycle_ms("runtime.spawn"),
        "store.open_ms": per_cycle_ms("store.open"),
        "tree.build_ms": per_query_ms("tree.build"),
        "dp.ms": per_query_ms("dp.boost"),
        "dp.table_entries": sum(tables) / len(tables) if tables else 0.0,
        "setup.graph_ms": per_cycle_ms("setup.graph"),
        "setup.session_ms": per_cycle_ms("setup.session"),
        "setup.warmup_ms": per_cycle_ms("setup.warmup"),
        "trace.spans": len(loop) / queries,
        "host.slowdown": slowdown,
    }
    for name, unit in PER_LAYER.items():
        if unit == "ms" and name in metrics:
            metrics[name] /= slowdown
    metrics["trace.latency_p50_ms"] = latency_p50_ms
    return {name: metrics[name] for name in PER_LAYER}
