"""Percentiles, quartiles, resident memory and noise diagnostics."""

from __future__ import annotations

import math
import os
import platform
import statistics
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

MIN_TAIL = 10  # samples a reported percentile needs beyond it

# Fast-state median times (ms) of the ReferenceKernel parts on the host
# the benchmark was tuned on (2-vCPU x86-64 VM, Python 3.11, numpy 2.4).
# Only the scale of the reported times depends on them.
REFERENCE_MS = {"bulk": 6.0, "calls": 2.0}


def tail_percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile of ``values``.

    Refuses (``ValueError``) when fewer than :data:`MIN_TAIL` samples lie
    beyond the rank, since such a tail is a handful of outliers, not a
    percentile.
    """
    n = len(values)
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < MIN_TAIL:
        raise ValueError(
            f"p{q:g} of {n} samples has {n - rank} beyond it; need {MIN_TAIL}"
        )
    return sorted(values)[rank - 1]


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median, first and third quartile, and their distance as a share
    of the median (``statistics.quantiles(values, n=4)``)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {
        "median": med, "q1": q1, "q3": q3,
        "iqr_share": (q3 - q1) / med if med else float("nan"),
        "n": len(values),
    }


def _status_kb(pid: str, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:  # the process has exited
        pass
    return 0


def child_pids() -> List[str]:
    """Live child processes of this process (all threads' children)."""
    pids: List[str] = []
    for task in Path("/proc/self/task").iterdir():
        try:
            pids.extend((task / "children").read_text().split())
        except OSError:
            pass
    return pids


def reset_peak_rss() -> None:
    """Restart the VmHWM count of this process and its live children
    (Linux ``clear_refs`` value 5); a no-op where that is refused."""
    for pid in ["self", *child_pids()]:
        try:
            with open(f"/proc/{pid}/clear_refs", "w") as fh:
                fh.write("5")
        except OSError:
            pass


def peak_rss_mb() -> float:
    """Peak resident memory (VmHWM) of this process plus its live
    children, in MB (10^6 bytes)."""
    kb = _status_kb("self", "VmHWM") + sum(
        _status_kb(pid, "VmHWM") for pid in child_pids()
    )
    return kb * 1024 / 1e6


def cpu_times() -> Optional[List[int]]:
    """The aggregate ``cpu`` line of ``/proc/stat`` (jiffies per state)."""
    try:
        with open("/proc/stat") as fh:
            return [int(x) for x in fh.readline().split()[1:]]
    except OSError:
        return None


def steal_share(before: Optional[List[int]], after: Optional[List[int]]) -> Optional[float]:
    """Share of all CPU time stolen by the hypervisor between two samples."""
    if not before or not after or len(before) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8])  # user..steal; guest time is already in user
    return delta[7] / total if total else 0.0


def loadavg() -> Optional[str]:
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().strip()
    except OSError:
        return None


def git_commit(root: Path) -> str:
    """HEAD's commit id read from ``root/.git``, or ``"unknown"``
    (benchmark checkouts are often not repositories)."""
    try:
        head = (root / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            path = root / ".git" / ref
            if path.exists():
                return path.read_text().strip()
            for line in (root / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


def environment(root: Path) -> Dict[str, object]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(root),
    }


class ReferenceKernel:
    """Fixed CPU work timed between the benchmark's items.

    The host this benchmark was tuned on changes speed by up to 1.5x for
    seconds at a time (other tenants; steal stays near 0), which moves
    whole runs.  Two parts of fixed work track that slowdown: ``bulk``
    (numpy passes over 200k-element arrays and an interpreted loop) and
    ``calls`` (a thousand numpy calls on 64-element arrays).  Contention
    slows call-heavy code more than bulk array code, so each workload
    divides its item times by the parts that match its own mix:
    ``imm_cover`` by ``bulk``, ``tree_dp`` by ``calls``, ``boost_prr`` and
    ``serve_w2`` by the geometric mean of both (see README.md).  Set-up
    cycles use both parts, except on ``tree_dp``, whose set-up is call-heavy
    like its queries and uses ``calls``.  The kernel never touches
    the program, but work the program leaves running between items slows
    it too, and is then divided out of the reported times.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(20170419)
        self._keys = rng.integers(0, 1000, 200_000)
        self._weights = rng.random(200_000)
        self._small = [rng.random(64) for _ in range(100)]
        self.times: Dict[str, List[float]] = {"bulk": [], "calls": []}
        self.sink = 0.0

    def __call__(self) -> float:
        """Run both parts once; returns the seconds spent."""
        start = time.perf_counter()
        counts = np.bincount(self._keys, weights=self._weights, minlength=1000)
        order = np.argsort(self._keys[:50_000], kind="stable")
        acc = 0
        for i in range(20_000):
            acc += i & 7
        mid = time.perf_counter()
        total = 0.0
        for _ in range(10):
            for a in self._small:
                total += float(np.maximum(a, 0.5).sum())
        end = time.perf_counter()
        self.sink += float(counts.sum() + self._weights[order].sum() + acc) + total
        self.times["bulk"].append(mid - start)
        self.times["calls"].append(end - mid)
        return end - start

    def slowdowns(self, parts: Sequence[str]) -> List[float]:
        """Per call: the geometric mean over ``parts`` of the part's time
        divided by its :data:`REFERENCE_MS`."""
        n = len(self.times["bulk"])
        return [
            math.exp(sum(
                math.log(1000.0 * self.times[p][i] / REFERENCE_MS[p])
                for p in parts
            ) / len(parts))
            for i in range(n)
        ]


def local_median(values: Sequence[float], half: int = 2) -> List[float]:
    """Median of each value and its ``half`` neighbours on either side:
    the host's speed around one item, robust to one noisy kernel call."""
    return [
        statistics.median(values[max(0, i - half): i + half + 1])
        for i in range(len(values))
    ]
