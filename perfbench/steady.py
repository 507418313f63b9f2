"""Run the benchmark many times and report its run-to-run spread.

    python3 perfbench/steady.py                          # every workload, seeds 1-10
    python3 perfbench/steady.py --workloads boost_prr --seeds 1-5
    python3 perfbench/steady.py --trace                  # also traced runs
    python3 perfbench/steady.py --record perfbench/noise_floor.json
    python3 perfbench/steady.py --compare perfbench/noise_floor.json

Each (seed, workload) pair runs ``run.py`` in its own process; seeds are
the outer loop, so slow phases of the host spread over all workloads.
For every end-to-end metric the report gives the median, the quartiles
and their distance as a share of the median, next to the bound from
``BENCHMARK.json``.  ``--trace`` follows every untraced run with a
traced run of the same seed: its identity digest must equal the
untraced one (``run.py`` fails otherwise), and the difference of the two
``latency_p50_ms`` is reported as the tracing overhead.  ``--compare``
checks that no median is worse than the recorded one by more than its
bound.

Reported times are divided by the host slowdown the reference kernel
measures between items (``measure.ReferenceKernel``).  Work the program
leaves running between items would slow the kernel too and be divided
out, so each workload's median slowdown and unscaled ``latency_p50_ms``
are recorded beside the metrics, and ``--compare`` flags a workload whose
median slowdown rose by more than its recorded spread (IQR over median):
then the raw figures, not the scaled ones, tell whether the program got
slower.  A flag is printed in the summary; it does not change the exit
code, since a slower host raises the slowdown too.  Exit code 1 when any
run fails or any check does not hold.
"""

from __future__ import annotations

import argparse
import datetime
import json
import statistics
import subprocess
import sys
from pathlib import Path

from measure import quartiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Per-run diagnostics recorded beside the metrics: the reference kernel's
# median slowdown over the timed loop and the unscaled median latency.
HOST = {
    "host_slowdown": lambda diag: diag["host_slowdown"],
    "raw_latency_p50_ms": lambda diag: diag["raw"]["latency_p50_ms"],
}


def parse_seeds(text: str):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        diagnostics = json.loads(lines[-2])["diagnostics"]
    except (IndexError, ValueError, KeyError):
        sys.stderr.write(proc.stdout + proc.stderr)
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
                "exit": proc.returncode}
    result["diagnostics"] = diagnostics
    result["exit"] = proc.returncode
    if proc.returncode:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
    return result


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--record", type=Path)
    parser.add_argument("--compare", type=Path)
    args = parser.parse_args(argv)

    workloads = args.workloads.split(",")
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    values = {w: {m: [] for m in bounds} for w in workloads}
    host = {w: {h: [] for h in HOST} for w in workloads}
    overhead = {w: [] for w in workloads}
    ok = True
    for seed in seeds:
        for w in workloads:
            res = run_once(w, seed, args.seconds, 0)
            diag = res.get("diagnostics", {})
            good = res["correct"] and res["exit"] == 0 and res["failed"] == 0
            ok &= good
            for m in bounds:
                if m in res["metrics"]:
                    values[w][m].append(res["metrics"][m]["value"])
            if res["metrics"]:
                for h, read in HOST.items():
                    host[w][h].append(read(diag))
            line = "  ".join(
                f"{m}={v['value']:.4g} {v['unit']}" for m, v in res["metrics"].items()
            )
            print(f"{w:10s} seed={seed:<4d} {'ok ' if good else 'BAD'} "
                  f"error_rate={diag.get('error_rate')} "
                  f"steal={diag.get('steal_share', 0) or 0:.3f}  {line}",
                  flush=True)
            if args.trace:
                traced = run_once(w, seed, args.seconds, 1)
                tgood = traced["correct"] and traced["exit"] == 0
                ok &= tgood
                if tgood and res["metrics"]:
                    p50 = traced["metrics"]["trace.latency_p50_ms"]["value"]
                    overhead[w].append(p50 - res["metrics"]["latency_p50_ms"]["value"])
                    same = (traced["diagnostics"]["identity_digest"]
                            == diag.get("identity_digest"))
                    ok &= same
                    print(f"{w:10s} seed={seed:<4d} traced "
                          f"{'ok ' if same else 'DIGEST DIFFERS'} "
                          f"overhead_p50_ms={overhead[w][-1]:+.3f}", flush=True)

    previous = json.loads(args.compare.read_text()) if args.compare else None
    floor, host_floor, flags = {}, {}, []
    print()
    for w in workloads:
        floor[w] = {}
        for m, spec in bounds.items():
            if len(values[w][m]) < 2:
                continue
            q = quartiles(values[w][m])
            floor[w][m] = q
            verdict = "ok"
            if q["iqr_share"] > spec["bound"]:
                verdict, ok = "SPREAD OVER BOUND", False
            elif q["iqr_share"] > spec["bound"] / 3:
                verdict = "spread over a third of bound"
            if previous:
                before = previous["workloads"].get(w, {}).get(m)
                if before:
                    sign = 1 if spec["better"] == "lower" else -1
                    worse = sign * (q["median"] - before["median"]) / before["median"]
                    if worse > spec["bound"]:
                        verdict, ok = f"MEDIAN WORSE BY {worse:.1%}", False
                    else:
                        verdict += f"; median moved {q['median'] / before['median'] - 1:+.1%}"
            print(f"{w:10s} {m:15s} median={q['median']:<12.6g} "
                  f"q1={q['q1']:<12.6g} q3={q['q3']:<12.6g} "
                  f"spread={q['iqr_share']:.3f} bound={spec['bound']}  {verdict}")
        host_floor[w] = {}
        for h in HOST:
            if len(host[w][h]) < 2:
                continue
            q = host_floor[w][h] = quartiles(host[w][h])
            verdict = ""
            before = (previous or {}).get("host", {}).get(w, {}).get(h)
            if before:
                moved = q["median"] / before["median"] - 1
                verdict = f"median moved {moved:+.1%}"
                if h == "host_slowdown" and moved > before["iqr_share"]:
                    verdict = (f"FLAG: slowdown rose {moved:+.1%}, beyond its recorded "
                               f"spread {before['iqr_share']:.3f}; compare raw figures")
                    flags.append(w)
            print(f"{w:10s} {h:15s} median={q['median']:<12.6g} "
                  f"q1={q['q1']:<12.6g} q3={q['q3']:<12.6g} "
                  f"spread={q['iqr_share']:.3f} (diagnostic)  {verdict}")
        if overhead[w]:
            print(f"{w:10s} tracing overhead on latency_p50_ms: median "
                  f"{statistics.median(overhead[w]):+.3f} ms over {len(overhead[w])} seeds")
    if args.record:
        args.record.write_text(json.dumps({
            "recorded": datetime.date.today().isoformat(),
            "seeds": seeds,
            "run_seconds": args.seconds,
            "workloads": floor,
            "host": host_floor,
        }, indent=1) + "\n")
    print("steady: all checks hold" if ok else "steady: CHECKS FAILED")
    if flags:
        print("steady: host slowdown rose beyond its recorded spread on "
              + ", ".join(flags) + "; compare their raw figures")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
