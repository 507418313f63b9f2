"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload boost_prr --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Everything the run writes goes under ``perfbench/out/``.

A run executes its workload's fixed item list to completion, so its
length is set by the workload, not by ``--seconds``; that argument is
accepted for the command-line contract and recorded in the diagnostics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_CYCLES = 11
KERNEL_CALLS_PER_CYCLE = 3  # reference kernel calls after each set-up cycle

END_TO_END = {
    "latency_p50_ms": "ms", "latency_p90_ms": "ms", "throughput_qps": "1/s",
    "setup_s": "s", "peak_rss_mb": "MB", "success_rate": "fraction",
    "quality": "estimate",
}


def source_digest() -> str:
    """Hash of the program's source and the benchmark's own code (which
    holds each workload's deployment settings), so answer digests are
    compared only between runs of identical code."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def identity_digest(envelopes) -> str:
    """Hash of the answers with timings removed."""
    rows = [[e.get("selected"), e.get("estimates"), e.get("fingerprint")]
            for e in envelopes]
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


def check_identity(name: str, seed: int, items, digest: str) -> str | None:
    """Compare ``digest`` with the one recorded by an earlier run of the
    same code on the same items (traced or not); record it if first."""
    h = hashlib.sha256(source_digest().encode())
    for item in items:
        h.update(item if isinstance(item, bytes) else json.dumps(item).encode())
    path = OUT / "digests" / f"{name}-seed{seed}-{h.hexdigest()[:16]}.txt"
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.exists():
        recorded = path.read_text().strip()
        if recorded != digest:
            return f"identity digest {digest[:16]} differs from {recorded[:16]} ({path.name})"
        return None
    tmp = path.with_suffix(".tmp")
    tmp.write_text(digest + "\n")
    tmp.replace(path)
    return None


def run(workload, seed: int, seconds: float, trace: bool) -> dict:
    from layers import install, layer_metrics
    from measure import (
        ReferenceKernel, cpu_times, environment, loadavg, local_median,
        peak_rss_mb, reset_peak_rss, steal_share, tail_percentile,
    )
    from spans import Tracer

    items = workload.items(seed)
    warm = workload.warmup_item()
    problems = []
    workdir = OUT / "work"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    reference = ReferenceKernel()
    span = tracer.span if trace else (lambda name: contextlib.nullcontext())
    diag = environment(ROOT)
    diag["loadavg_start"] = loadavg()
    cpu_before = cpu_times()
    run_start = time.perf_counter()
    if trace:
        install(tracer)
    deployment = None
    try:
        workload.prepare(workdir)
        setup_s, cycles = [], []
        for _ in range(SETUP_CYCLES):
            if deployment is not None:
                deployment.close()
                deployment = None
            t0 = time.perf_counter()
            with span("setup.cycle") as cycle:
                with span("setup.graph"):
                    graph = workload.build_graph(workdir)
                with span("setup.session"):
                    deployment = workload.open(graph, workdir)
                with span("setup.warmup"):
                    warm_envelopes = deployment.execute(warm)
            setup_s.append(time.perf_counter() - t0)
            cycles.append(cycle)
            for _ in range(KERNEL_CALLS_PER_CYCLE):
                reference()
            if warm_envelopes is None:
                problems.append("warm-up request refused")
            else:
                problems.extend(filter(None, map(workload.check, warm_envelopes)))

        cache = deployment.session.cache
        hits0, misses0 = (cache.hits, cache.misses) if cache else (0, 0)
        latencies, peaks, envelopes = [], [], []
        failed = 0
        qpi = workload.queries_per_item
        reference_s = 0.0
        loop_start = time.perf_counter()
        for item in items:
            reset_peak_rss()
            t = time.perf_counter()
            try:
                with span("client.request"):
                    answer = deployment.execute(item)
            except Exception:  # a failed query is counted, the loop goes on
                traceback.print_exc()
                answer = None
            latencies.append(time.perf_counter() - t)
            peaks.append(peak_rss_mb())
            reference_s += reference()
            if answer is None or len(answer) != qpi:
                failed += qpi
                continue
            for envelope in answer:
                if "error" in envelope.get("extra", {}):
                    failed += 1
                else:
                    envelopes.append(envelope)
                    why = workload.check(envelope)
                    if why:
                        problems.append(why)
        # The reference kernel runs between items, outside every latency.
        window = time.perf_counter() - loop_start - reference_s
        health = deployment.session.runtime_health()
        hits = cache.hits - hits0 if cache else 0
        lookups = hits + (cache.misses - misses0) if cache else 0
    finally:
        if deployment is not None:
            deployment.close()
        tracer.restore()

    attempted = len(items) * qpi
    digest = identity_digest(envelopes)
    problems.append(check_identity(workload.name, seed, items, digest))
    raw = {
        "latency_p50_ms": 1000.0 * statistics.median(latencies),
        "latency_p90_ms": 1000.0 * tail_percentile(latencies, 90),
        "throughput_qps": len(envelopes) / window,
        "setup_s": statistics.median(setup_s),
    }
    # Times are reported at the reference host speed: each item's (and
    # set-up cycle's) time is divided by the host slowdown the reference
    # kernel measured around it.  Raw figures go to the diagnostics line.
    k = KERNEL_CALLS_PER_CYCLE
    # A set-up cycle is scaled by the median of the kernel calls right
    # after it, over the parts that match the workload's set-up.
    setup_calls = reference.slowdowns(workload.setup_parts)[:SETUP_CYCLES * k]
    setup_f = [
        statistics.median(setup_calls[i * k:(i + 1) * k])
        for i in range(SETUP_CYCLES)
    ]
    factors = reference.slowdowns(workload.reference_parts)
    loop_f = local_median(factors[SETUP_CYCLES * k:])
    scaled = [x / f for x, f in zip(latencies, loop_f)]
    p50 = 1000.0 * statistics.median(scaled)
    slowdown = statistics.median(loop_f)
    if trace:
        metrics = layer_metrics(
            tracer, loop_start, cycles, attempted, len(items), envelopes,
            hits, lookups, health, p50, slowdown,
        )
    else:
        metrics = {
            "latency_p50_ms": p50,
            "latency_p90_ms": 1000.0 * tail_percentile(scaled, 90),
            "throughput_qps": len(envelopes) / (window * sum(scaled) / sum(latencies)),
            "setup_s": statistics.median(x / f for x, f in zip(setup_s, setup_f)),
            "peak_rss_mb": statistics.median(peaks),
            "success_rate": (attempted - failed) / attempted,
            "quality": (
                statistics.fmean(e["estimates"][workload.primary] for e in envelopes)
                if envelopes else 0.0
            ),
        }
    diag.update(
        loadavg_end=loadavg(),
        steal_share=steal_share(cpu_before, cpu_times()),
        run_s=time.perf_counter() - run_start,
        host_slowdown=slowdown,
        reference_ms_median={
            part: 1000.0 * statistics.median(times)
            for part, times in reference.times.items()
        },
        raw=raw,
        items=len(items),
        error_rate=failed / attempted,
        identity_digest=digest,
        cache_hits=hits,
        setup_cycles_s=setup_s,
        setup_slowdown=statistics.median(setup_f),
        seconds_arg=seconds,
    )
    problems = [p for p in problems if p]
    return {
        "workload": workload.name, "seed": seed, "trace": trace,
        "correct": not problems, "problems": problems[:20],
        "attempted": attempted, "failed": failed,
        "metrics": metrics, "diagnostics": diag,
        "latencies_ms": [1000.0 * x for x in latencies],
        "reference_ms": {
            part: [1000.0 * x for x in times]
            for part, times in reference.times.items()
        },
        "spans": tracer.to_dicts() if trace else [],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from layers import PER_LAYER
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))

    OUT.mkdir(parents=True, exist_ok=True)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(result))
    units = PER_LAYER if args.trace else END_TO_END
    for name, value in result["metrics"].items():
        print(f"{name:24s} {value:14.6g} {units[name]}")
    for problem in result["problems"]:
        print(f"WRONG ANSWER: {problem}")
    floor = HERE / "noise_floor.json"
    if floor.exists():
        result["diagnostics"]["noise_floor"] = (
            json.loads(floor.read_text()).get("workloads", {}).get(args.workload)
        )
    print(json.dumps({"diagnostics": result["diagnostics"]}))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in result["metrics"].items()
        },
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
