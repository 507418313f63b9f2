"""Parallel sampling: one chunk scheduler over two transports.

The paper parallelizes PRR-graph generation with OpenMP over eight
threads.  Here sampling is cut into ``(chunk_id, master_seed)`` chunks
and :class:`SharedGraphRuntime` schedules them, built for repeated use:

* **Two transports, one scheduler** — the *fork* transport runs a
  persistent pool of forked workers on this machine; the *TCP*
  transport (:mod:`repro.dist`) drives ``repro dist-worker`` hosts
  serving replicas of the graph.  Tags, windows, retries, degradation
  and health are the scheduler's, identical for both.
* **Zero-copy graph publication** (fork) — the graph's CSR arrays and
  edge probabilities are written once into a single
  :mod:`multiprocessing.shared_memory` segment (or, for a pristine
  store-backed graph, workers mmap the store file); workers build their
  :class:`~repro.engine.SamplingEngine` over read-only views, so neither
  pool startup nor any task pays a per-worker graph pickle.
* **Per-slot windows** — every slot (a forked worker or a host) holds
  at most a small window of chunks in flight, refilled least-loaded
  first as results stream back, so cheap chunks (activated/hopeless
  roots) never leave a slot idling behind a static partition — and the
  owner of every chunk is known the moment it is sent.
* **Tag-multiplexed submissions** — every dispatch gets a runtime-unique
  tag and the collector thread files results per tag
  (:meth:`SharedGraphRuntime.submit` / :meth:`~SharedGraphRuntime.gather`),
  so concurrent callers — the serving tier's overlapped ``run_many``
  lanes — pipeline independent queries' chunks onto the same slots
  instead of taking turns.
* **Raw-buffer results** — chunks come back as flat arrays
  (:class:`~repro.core.prr.PRRArena` payloads, critical or RR CSRs).
  Large fork results travel through a per-result shared-memory segment,
  small ones ride the result queue; hosts send raw array frames.

Determinism: chunking is a pure function of ``count`` and each chunk's
RNG seed is spawned from its chunk id, so a collection depends only on
``(count, master_seed)`` — not on worker or host count, scheduling, or
whether the serial fallback ran.  The serial fallback (``workers <= 1``
without a hosts runtime, or a platform without ``fork``) iterates the
same chunks in-process without touching any runtime.

Fault tolerance: the same contract makes the runtime *supervised*
rather than merely fail-fast.  A lost slot's outstanding chunks are
re-queued with bounded retries and exponential backoff (re-executing a
chunk is bit-identical); forked workers are respawned against the
already-published graph, hosts are not.  After too many consecutive
deaths of one slot, or with no slot left, the runtime **degrades**
instead of raising: gatherers finish their chunks serially in-process
and later dispatches bypass it — same results, no recovery storm.
:meth:`SharedGraphRuntime.health` snapshots the counters
(:class:`RuntimeHealth`), and a process-wide shared-memory registry with
an ``atexit``/SIGTERM reaper (:func:`reap_shm_segments`) unlinks
orphaned ``repro-*`` segments even on abnormal exit.  Every fork
recovery path is deterministically drivable via
:mod:`repro.testing.faults`.
"""

from __future__ import annotations

import atexit
import heapq
import itertools
import math
import multiprocessing as mp
import os
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from ..engine import SamplingEngine
from ..engine.coverage import csr_to_frozensets
from ..graphs.digraph import CSRView, DiGraph
from ..testing import faults
from .prr import PRRArena, sample_prr_lanes

__all__ = [
    "parallel_prr_collection",
    "parallel_critical_sets",
    "parallel_rr_csr",
    "SharedGraphRuntime",
    "RuntimeHealth",
    "runtime_health",
    "run_chunks",
    "use_chunked_stream",
    "get_runtime",
    "shutdown_runtime",
    "shutdown_runtime_for",
    "runtime_is_alive",
    "reap_shm_segments",
    "fork_available",
    "resolve_sampler_workers",
    "PARALLEL_MIN_SAMPLES",
]

# Samples per streamed chunk: small enough that stragglers rebalance,
# large enough that per-chunk overhead (seed spawn + one result ship)
# stays negligible.  Chunks are lane batches, so CHUNK_SIZE is a multiple
# of the lane width.
CHUNK_SIZE = 256

# Results below this many bytes ride the queue; larger ones go through a
# per-result shared-memory segment.
_SHM_RESULT_MIN = 1 << 18


# Below this many samples a sampler dispatch stays in-process: a chunk
# queue round-trip costs more than two lane batches.
PARALLEL_MIN_SAMPLES = 512

# Supervision defaults.  A lost chunk is re-queued at most
# MAX_TASK_RETRIES times (exponential backoff from RETRY_BACKOFF_BASE
# seconds); after MAX_CONSECUTIVE_DEATHS losses of one slot with no
# successful result in between, the runtime degrades to the in-process
# serial path instead of respawning further.
MAX_TASK_RETRIES = 3
RETRY_BACKOFF_BASE = 0.05
MAX_CONSECUTIVE_DEATHS = 3

# How often the collector checks worker liveness, due retries and
# straggler timeouts when no results are arriving.  Bounds
# fault-detection latency, not result latency — gatherers are woken per
# arriving result.
_POLL_INTERVAL = 0.2

def fork_available() -> bool:
    """Whether the platform supports the fork start method."""
    return "fork" in mp.get_all_start_methods()


def resolve_sampler_workers(workers: int | None) -> int:
    """Effective worker count for a sampler: explicit value, or 1 (serial)
    when unset or the platform lacks fork."""
    if workers is None or workers <= 1 or not fork_available():
        return 1
    return int(workers)


def _resolve_workers(workers: int | None) -> int:
    return workers or min(os.cpu_count() or 1, 8)


def _chunk_jobs(count: int, master_seed: int) -> List[Tuple[int, int, int]]:
    """``(chunk_id, seed, size)`` jobs of at most :data:`CHUNK_SIZE` samples.

    The chunking is a pure function of ``count`` (never of the worker
    count), and each chunk's RNG seed is spawned from its chunk id — so
    the merged collection depends only on ``(count, master_seed)``, no
    matter how many workers ran or in which order chunks finished.
    """
    if count <= 0:
        return []
    num_chunks = math.ceil(count / CHUNK_SIZE)
    base, extra = divmod(count, num_chunks)
    sizes = [base + (1 if i < extra else 0) for i in range(num_chunks)]
    seq = np.random.SeedSequence(master_seed)
    seeds = [int(s.generate_state(1)[0]) for s in seq.spawn(num_chunks)]
    return [
        (cid, seed, size)
        for cid, (seed, size) in enumerate(zip(seeds, sizes))
        if size > 0
    ]


# ----------------------------------------------------------------------
# Shared-memory plumbing
# ----------------------------------------------------------------------
# Resource-tracker note: the runtime requires fork, so every process
# shares the master's tracker.  CPython's SharedMemory registers a name
# on open (a set add, idempotent across attachers) and unregisters it in
# unlink() — each segment here is unlinked exactly once by its consumer,
# so the ledger balances without any manual (un)registration.
#
# On top of that sits a process-wide *named-segment registry*: every
# segment is created under the ``repro-<master-pid>-…`` prefix and
# recorded in ``_shm_registry``; :func:`reap_shm_segments` (run at
# interpreter exit and on SIGTERM, callable any time after shutdown)
# unlinks whatever is left — including segments published by *workers*
# that died before the master could consume them, found by scanning
# ``/dev/shm`` for the shared prefix.  Normal operation unlinks every
# segment promptly; the reaper exists for abnormal exits.

_ArrayTable = List[Tuple[str, str, tuple, int]]

# The prefix is fixed at import time in the master, so forked workers
# inherit it and every segment of one process tree shares it.
_SHM_PREFIX = f"repro-{os.getpid():x}"
_shm_counter = itertools.count()
_shm_registry: set = set()
_SHM_REG_LOCK = threading.Lock()


def _create_shm(size: int) -> shared_memory.SharedMemory:
    """A fresh registered segment under this process tree's name prefix."""
    while True:
        name = f"{_SHM_PREFIX}-{os.getpid():x}-{next(_shm_counter):x}"
        try:
            shm = shared_memory.SharedMemory(name=name, create=True, size=size)
        except FileExistsError:  # pragma: no cover - counter collision
            continue
        with _SHM_REG_LOCK:
            _shm_registry.add(name)
        return shm


def _unregister_shm(name: str) -> None:
    with _SHM_REG_LOCK:
        _shm_registry.discard(name)


def reap_shm_segments() -> List[str]:
    """Unlink every leftover ``repro-*`` segment of this process tree.

    Covers the registry (segments this process created) plus, on
    platforms exposing ``/dev/shm``, a prefix scan that also catches
    segments published by crashed workers.  Safe to call repeatedly;
    returns the names actually reaped.  Only call while no runtime of
    this process is live — the reaper cannot tell an orphan from a
    segment still in use by an open pool.
    """
    with _SHM_REG_LOCK:
        names = set(_shm_registry)
        _shm_registry.clear()
    shm_dir = "/dev/shm"
    if os.path.isdir(shm_dir):
        try:
            names.update(
                entry for entry in os.listdir(shm_dir)
                if entry.startswith(_SHM_PREFIX + "-")
            )
        except OSError:  # pragma: no cover - defensive
            pass
    reaped = []
    for name in sorted(names):
        try:
            seg = shared_memory.SharedMemory(name=name)
        except (FileNotFoundError, OSError):
            continue
        try:
            seg.close()
            seg.unlink()
        except (FileNotFoundError, OSError):  # pragma: no cover - raced
            continue
        reaped.append(name)
    return reaped


_sigterm_installed = False


def _sigterm_reaper(signum, frame):  # pragma: no cover - signal path
    try:
        shutdown_runtime()
    except Exception:
        pass
    reap_shm_segments()
    signal.signal(signum, signal.SIG_DFL)
    os.kill(os.getpid(), signum)


def _install_sigterm_reaper() -> None:
    """Chain a SIGTERM reaper once, only over the default handler and
    only from the main thread — never clobber an application handler."""
    global _sigterm_installed
    if _sigterm_installed:
        return
    _sigterm_installed = True
    if threading.current_thread() is not threading.main_thread():
        return
    try:
        if signal.getsignal(signal.SIGTERM) is signal.SIG_DFL:
            signal.signal(signal.SIGTERM, _sigterm_reaper)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        pass


def _publish_arrays(
    arrays: Dict[str, np.ndarray]
) -> Tuple[shared_memory.SharedMemory, _ArrayTable]:
    """Copy ``arrays`` into one fresh shared-memory segment.

    Returns the segment plus an offset table (name, dtype, shape, offset)
    that :func:`_attach_arrays` uses to rebuild zero-copy views.
    """
    table: _ArrayTable = []
    offset = 0
    contiguous = {}
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        contiguous[name] = arr
        table.append((name, arr.dtype.str, arr.shape, offset))
        offset += arr.nbytes
        offset = (offset + 63) & ~63  # 64-byte alignment
    shm = _create_shm(max(offset, 1))
    for (name, _dt, _shape, off), arr in zip(table, contiguous.values()):
        if arr.nbytes:
            dst = np.frombuffer(
                shm.buf, dtype=arr.dtype, count=arr.size, offset=off
            )
            dst[:] = arr.ravel()
    return shm, table


def _attach_arrays(
    shm: shared_memory.SharedMemory, table: _ArrayTable
) -> Dict[str, np.ndarray]:
    """Zero-copy read-only views of a published segment."""
    out = {}
    for name, dtype_str, shape, offset in table:
        dt = np.dtype(dtype_str)
        size = int(np.prod(shape, dtype=np.int64))
        arr = np.frombuffer(shm.buf, dtype=dt, count=size, offset=offset)
        arr = arr.reshape(shape)
        arr.flags.writeable = False
        out[name] = arr
    return out


def _ship_result(arrays: Sequence[np.ndarray]):
    """Package worker output: queue-inline when small, else one shared
    segment of raw buffers."""
    arrays = [np.ascontiguousarray(a) for a in arrays]
    total = sum(a.nbytes for a in arrays)
    if total < _SHM_RESULT_MIN:
        return ("q", arrays)
    named = {str(i): a for i, a in enumerate(arrays)}
    shm, table = _publish_arrays(named)
    shm.close()  # the master unlinks after copying out
    return ("shm", shm.name, table)


def _receive_result(msg) -> List[np.ndarray]:
    """Unpack :func:`_ship_result` output (copies out of shared memory)."""
    if msg[0] == "q":
        return list(msg[1])
    _tag, name, table = msg
    shm = shared_memory.SharedMemory(name=name)  # attach: not re-tracked
    views = _attach_arrays(shm, table)
    out = [np.array(views[str(i)], copy=True) for i in range(len(table))]
    del views
    shm.close()
    shm.unlink()
    _unregister_shm(name)
    return out


class _SharedGraphView:
    """Duck-typed :class:`DiGraph` over shared-memory array views.

    Exposes exactly what :class:`~repro.engine.SamplingEngine` and the
    samplers consume (``n``/``m``, the two CSR views, the flat edge
    arrays) without ever materializing a private copy of the graph.
    """

    def __init__(self, n: int, m: int, shm, arrays: Dict[str, np.ndarray]):
        self.n = n
        self.m = m
        self._shm = shm  # keeps the segment mapped
        self._a = arrays
        self._engine_cache = None

    def out_csr(self) -> CSRView:
        a = self._a
        return CSRView(
            a["out_indptr"], a["out_nodes"], a["out_p"], a["out_pp"], a["out_eid"]
        )

    def in_csr(self) -> CSRView:
        a = self._a
        return CSRView(
            a["in_indptr"], a["in_nodes"], a["in_p"], a["in_pp"], a["in_eid"]
        )

    def edge_arrays(self):
        a = self._a
        return a["src"], a["dst"], a["p"], a["pp"]


def _publishable_store_path(graph) -> Optional[str]:
    """The store path workers can attach to directly, if any.

    Only **pristine** store-backed graphs qualify: ``version == 0``
    means every array the workers would read is exactly what the file
    holds.  After an in-place probability update the live arrays diverge
    from the file (copy-on-write), so the runtime falls back to the
    shared-memory publication of the current arrays.
    """
    path = getattr(graph, "store_path", None)
    if path is None or getattr(graph, "version", 0) != 0:
        return None
    return path if os.path.exists(path) else None


def _graph_arrays(graph: DiGraph) -> Dict[str, np.ndarray]:
    out = graph.out_csr()
    inc = graph.in_csr()
    src, dst, p, pp = graph.edge_arrays()
    return {
        "out_indptr": out.indptr, "out_nodes": out.nodes, "out_p": out.p,
        "out_pp": out.pp, "out_eid": out.eid,
        "in_indptr": inc.indptr, "in_nodes": inc.nodes, "in_p": inc.p,
        "in_pp": inc.pp, "in_eid": inc.eid,
        "src": src, "dst": dst, "p": p, "pp": pp,
    }


# ----------------------------------------------------------------------
# Worker
# ----------------------------------------------------------------------
def _run_task(graph, kind: str, seed: int, size: int, params) -> List[np.ndarray]:
    """Sample one chunk on ``graph`` (a view in workers, the real graph in
    the serial fallback) and return the result as a flat array list."""
    rng = np.random.default_rng(seed)
    if kind == "prr":
        seed_set, k = params
        arena = sample_prr_lanes(graph, frozenset(seed_set), k, rng, size)
        return list(arena.payload()[1:])  # n is implicit
    if kind == "critical":
        (seed_set,) = params
        engine = SamplingEngine.for_graph(graph)
        status, counts, values, explored = engine.critical_lane_csr(
            frozenset(seed_set), rng, size
        )
        return [status, counts, values, explored]
    if kind == "rr":
        engine = SamplingEngine.for_graph(graph)
        counts, values = engine.rr_lane_csr(rng, size)
        return [counts, values]
    raise ValueError(f"unknown task kind: {kind}")


def _worker_main(
    source, n, m, task_queue, result_queue, slot, generation
) -> None:
    plan = faults.plan_from_env()  # inherited at fork; None in production
    if source[0] == "store":
        # mmap-backed graph: attach by path.  Every worker maps the same
        # file, so the page cache is shared across the pool and no copy
        # of the graph is ever serialized or published.
        from ..storage.store import open_graph

        view = open_graph(source[1], mode="mmap")
    else:
        _tag, shm_name, table = source
        shm = shared_memory.SharedMemory(name=shm_name)  # attach: not re-tracked
        view = _SharedGraphView(n, m, shm, _attach_arrays(shm, table))
    SamplingEngine.for_graph(view)  # warm the engine once
    chunk_index = 0
    while True:
        task = task_queue.get()
        if task is None:
            break
        task_id, kind, seed, size, params = task
        chunk_index += 1
        action = (
            plan.action_for(slot, generation, chunk_index)
            if plan is not None
            else faults.NO_ACTION
        )
        if action.delay_s:
            time.sleep(action.delay_s)
        if action.kill:
            # Simulated hard crash mid-chunk (no result, no cleanup).
            # Results already shipped are flushed first, so exactly this
            # slot's unanswered chunks are lost.
            result_queue.close()
            result_queue.join_thread()
            os._exit(17)
        if action.drop:
            continue  # simulated lost result message
        try:
            msg = _ship_result(_run_task(view, kind, seed, size, params))
            result_queue.put((slot, task_id, True, msg))
        except Exception as exc:  # surface, don't hang the master
            result_queue.put((slot, task_id, False, repr(exc)))
    # Flush pending queue feeds, then exit without interpreter teardown:
    # the engine holds views into the shared segment, and unwinding them
    # through GC trips BufferError in SharedMemory.__del__.
    result_queue.close()
    result_queue.join_thread()
    os._exit(0)


@dataclass(frozen=True)
class RuntimeHealth:
    """A point-in-time snapshot of the runtime's supervision state.

    ``workers`` is the runtime's capacity (its forked workers, or the
    summed worker counts its hosts reported at handshake) and
    ``workers_alive`` the part of it on live slots.  ``restarts`` counts
    lost slots — a forked worker that died (respawned unless the runtime
    degrades) or a host whose connection dropped — and ``retries`` chunk
    re-queues.  ``degraded`` says the runtime gave up on its slots:
    gatherers finish their chunks serially in-process and later
    dispatches bypass it (results stay bit-identical — only throughput
    changes).  ``slots`` carries one counter dict per slot: its label
    (``worker-<i>`` or ``host:port``), liveness, capacity, and chunks
    done, lost and outstanding.
    """

    workers: int
    workers_alive: int
    restarts: int
    retries: int
    degraded: bool
    slots: Tuple[Dict[str, Any], ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "workers": int(self.workers),
            "workers_alive": int(self.workers_alive),
            "restarts": int(self.restarts),
            "retries": int(self.retries),
            "degraded": bool(self.degraded),
            "slots": [dict(s) for s in self.slots],
        }


# ----------------------------------------------------------------------
# Fork transport
# ----------------------------------------------------------------------
class _ForkTransport:
    """Forked workers on one machine, one slot per process.

    The graph is published once — by store path for pristine
    store-backed graphs (workers mmap the file, sharing one page-cache
    image), else copied into one shared-memory segment.  Each slot has
    its own task queue and all share one result queue; results travel
    as :func:`_ship_result` payloads.  A dead worker is reported as a
    lost slot and can be respawned against the published graph.
    """

    respawnable = True

    def __init__(self, graph, workers: int) -> None:
        if not fork_available():
            raise RuntimeError("SharedGraphRuntime requires the fork start method")
        self.graph = graph
        self._ctx = mp.get_context("fork")
        store_path = _publishable_store_path(graph)
        if store_path is not None:
            self.shm = None
            self._source: tuple = ("store", store_path)
        else:
            self.shm, table = _publish_arrays(_graph_arrays(graph))
            self._source = ("shm", self.shm.name, table)
        self.publication = self._source[0]
        # (label, capacity, window): two chunks in flight per worker, so
        # the next chunk is already queued when one finishes.
        self.slots = [(f"worker-{i}", 1, 2) for i in range(workers)]
        self._results = self._ctx.Queue()
        self._tasks: List[Any] = [None] * workers
        self.procs: List[Any] = [None] * workers
        self._generation = [0] * workers
        self._reported: set = set()
        self._lost: List[tuple] = []
        self._last_check = time.monotonic()
        for slot in range(workers):
            self._spawn(slot)

    def _spawn(self, slot: int) -> None:
        self._tasks[slot] = self._ctx.Queue()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(
                self._source, self.graph.n, self.graph.m, self._tasks[slot],
                self._results, slot, self._generation[slot],
            ),
            daemon=True,
        )
        proc.start()
        self.procs[slot] = proc

    def respawn(self, slot: int) -> None:
        """Replace a dead worker; tasks queued for it die with it."""
        old = self._tasks[slot]
        old.close()
        old.cancel_join_thread()
        self._generation[slot] += 1
        self._spawn(slot)
        self._reported.discard(slot)

    def send(self, slot: int, tasks: Sequence[tuple]) -> None:
        queue = self._tasks[slot]
        try:
            for task in tasks:
                queue.put(task)
        except (ValueError, OSError):  # queue of a worker being replaced
            pass  # its chunks were re-queued when the death was seen

    def poll(self, timeout: float):
        """The next event, or ``None`` after ``timeout`` seconds."""
        now = time.monotonic()
        if now - self._last_check >= _POLL_INTERVAL:
            self._last_check = now
            for slot, proc in enumerate(self.procs):
                if slot not in self._reported and not proc.is_alive():
                    self._reported.add(slot)
                    self._lost.append(("lost", slot, f"worker {slot} died"))
        if self._lost:
            return self._lost.pop(0)
        try:
            slot, task_id, ok, payload = self._results.get(timeout=timeout)
        except Exception:  # timeout, or a torn message from a dying worker
            return None
        if not ok:
            return ("err", slot, task_id, payload)
        try:
            return ("res", slot, task_id, _receive_result(payload))
        except Exception as exc:  # pragma: no cover - defensive
            return ("err", slot, task_id, f"result unpack failed: {exc!r}")

    def close(self, deadline: float) -> None:
        """Stop every worker by ``deadline`` and release the graph.

        Safe on a half-dead pool: a dead worker's sentinel is never
        consumed and joining a dead process returns at once.
        """
        for queue in self._tasks:
            try:
                queue.put(None)
            except Exception:  # pragma: no cover - broken queue
                pass
        # Drain results while workers wind down: a worker mid-put must
        # not block on a full pipe, and every abandoned result's segment
        # needs unlinking.
        while time.monotonic() < deadline:
            try:
                msg = self._results.get(timeout=0.25)
            except Exception:
                if not any(p.is_alive() for p in self.procs):
                    break
                continue
            try:
                if msg[2]:
                    _receive_result(msg[3])
            except Exception:  # pragma: no cover - defensive
                pass
        for proc in self.procs:
            proc.join(timeout=max(deadline - time.monotonic(), 0.1))
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()
                proc.join(timeout=0.5)
                if proc.is_alive():
                    proc.kill()
        # cancel_join_thread: never block interpreter exit on unflushed
        # queue buffers — every worker is gone by now.
        for queue in [*self._tasks, self._results]:
            queue.close()
            queue.cancel_join_thread()
        if self.shm is not None:  # store-published pools own no segment
            try:
                self.shm.close()
                self.shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already unlinked
                pass
            _unregister_shm(self.shm.name)


# ----------------------------------------------------------------------
# Scheduler
# ----------------------------------------------------------------------
class _Slot:
    """Scheduler state of one slot: a forked worker or a worker host."""

    def __init__(self, index: int, label: str, workers: int, window: int):
        self.index = index
        self.label = label
        self.workers = workers
        self.window = window
        self.alive = True
        # task_id -> task in send order.  A slot answers in order, so the
        # first entry is the chunk it works on; head_since is when that
        # chunk became first (the straggler clock).
        self.outstanding: Dict[tuple, tuple] = {}
        self.head_since = 0.0
        self.death_streak = 0
        self.done = 0
        self.lost = 0

    def counters(self) -> Dict[str, Any]:
        return {
            "slot": self.label,
            "alive": self.alive,
            "workers": self.workers,
            "chunks_done": self.done,
            "chunks_lost": self.lost,
            "outstanding": len(self.outstanding),
        }


class SharedGraphRuntime:
    """The chunk scheduler, over forked workers or remote worker hosts.

    Construction starts the transport: without ``hosts`` it publishes
    the graph and forks ``workers`` long-lived processes (default: one
    per core, at most eight); with ``hosts`` (``"h:p,h:p"`` or a
    sequence) it connects to ``repro dist-worker`` hosts serving
    replicas of the graph, and a mismatched replica fails here.

    Work is **tag-multiplexed**: every :meth:`submit` gets a fresh tag,
    its chunks go to the least-loaded slot with a free window place,
    and a collector thread files results into per-tag stashes.  That is
    what lets several queries' sampling share the slots *concurrently* —
    the serving tier's overlapped ``run_many`` submits every query's
    chunks up front and each lane blocks only on :meth:`gather` of its
    own tag.  :meth:`run` is the one-shot form (submit + gather).

    Supervision is one model for both transports: a lost slot's
    outstanding chunks are re-queued (at most ``max_task_retries`` times
    each, exponential backoff); forked workers are respawned, hosts are
    not.  With ``task_timeout`` set, a slot's oldest chunk left
    unanswered that long is re-queued too.  After
    ``max_consecutive_deaths`` losses of one slot with no result in
    between, or with no live slot left, the runtime **degrades**:
    gatherers finish their chunks serially in-process and later
    dispatches bypass it.

    Determinism is untouched by any of this: chunking is a pure
    function of ``count``, each chunk's RNG seed of its chunk id, and
    gather restores submission order, so a collection depends only on
    ``(count, master_seed)``.
    """

    def __init__(
        self,
        graph: DiGraph,
        workers: Optional[int] = None,
        hosts=None,
        max_task_retries: int = MAX_TASK_RETRIES,
        max_consecutive_deaths: int = MAX_CONSECUTIVE_DEATHS,
        task_timeout: Optional[float] = None,
    ) -> None:
        _install_sigterm_reaper()
        self.graph = graph
        self.graph_version = getattr(graph, "version", 0)
        self.hosts = hosts or None
        self.max_task_retries = int(max_task_retries)
        self.max_consecutive_deaths = int(max_consecutive_deaths)
        # Off by default: chunk cost is workload-dependent and a false
        # positive doubles work.  Catches lost results from slots that
        # stay alive, which loss detection cannot see.
        self.task_timeout = task_timeout
        if self.hosts is not None:
            from ..dist.transport import HostTransport

            self.transport = HostTransport(graph, self.hosts)
        else:
            self.transport = _ForkTransport(graph, _resolve_workers(workers))
        self._slots = [
            _Slot(i, *spec) for i, spec in enumerate(self.transport.slots)
        ]
        self.workers = sum(s.workers for s in self._slots)
        self._closed = False
        self._shutdown_lock = threading.Lock()
        # Everything below is guarded by the condition's lock; transport
        # sends and respawns happen outside it.
        self._cv = threading.Condition()
        self._next_tag = 0
        self._pending: Dict[int, set] = {}      # tag -> unanswered cids
        self._order: Dict[int, List[int]] = {}  # tag -> submission cid order
        self._stash: Dict[int, Dict[int, List[np.ndarray]]] = {}
        # tag -> (kind, params, {cid: (seed, size)}): what a re-queue and
        # the degraded serial path need to re-execute a chunk.
        self._specs: Dict[int, Tuple[str, tuple, Dict[int, Tuple[int, int]]]] = {}
        self._queue: deque = deque()      # tasks waiting for a window place
        self._deferred: List[tuple] = []  # heap of (due, seq, task)
        self._deferred_seq = itertools.count()
        self._task_retries: Dict[tuple, int] = {}
        self._restarts = 0
        self._retries_total = 0
        self._degraded = False
        self._failure: Optional[str] = None
        self._collector = threading.Thread(
            target=self._collect_loop, name="runtime-collector", daemon=True
        )
        self._collector.start()

    @property
    def degraded(self) -> bool:
        return self._degraded

    @property
    def active(self) -> bool:
        """Whether dispatches should use this runtime (open, not degraded)."""
        return not self._closed and not self._degraded

    @property
    def publication(self) -> str:
        """How slots reach the graph: ``"store"`` (mmap by path),
        ``"shm"`` (a shared-memory copy) or ``"hosts"`` (replicas)."""
        return self.transport.publication

    # ------------------------------------------------------------------
    # Tagged submission API
    # ------------------------------------------------------------------
    def submit(
        self, kind: str, jobs: Sequence[Tuple[int, int, int]], params: tuple
    ) -> int:
        """Queue ``jobs`` (``(chunk_id, seed, size)``) under a fresh tag.

        Non-blocking: returns the tag once the first chunks are sent.
        Thread-safe.
        """
        with self._cv:
            if self._closed:
                raise RuntimeError("runtime is shut down")
            if self._failure is not None:
                raise RuntimeError(self._failure)
            tag = self._next_tag
            self._next_tag += 1
            self._pending[tag] = {cid for cid, _seed, _size in jobs}
            self._order[tag] = [cid for cid, _seed, _size in jobs]
            self._stash[tag] = {}
            self._specs[tag] = (
                kind, params, {cid: (seed, size) for cid, seed, size in jobs}
            )
            self._queue.extend(
                ((tag, cid), kind, seed, size, params) for cid, seed, size in jobs
            )
        self._dispatch()
        return tag

    def gather(self, tag: int) -> List[List[np.ndarray]]:
        """Block until every chunk of ``tag`` has arrived; return their
        results in submission order.  Thread-safe; each tag may be
        gathered exactly once.

        The collector notifies on every arriving result, so small
        batches complete with no polling quantization.  If the runtime
        **degrades**, the gatherer claims its remaining chunks and runs
        them serially in-process — bit-identical by the determinism
        contract.  Only an unrecoverable failure (a chunk that raises on
        a slot, or retries exhausted) shuts the runtime down and raises.
        """
        while True:
            serial: List[Tuple[int, int, int]] = []
            with self._cv:
                if self._failure is not None:
                    failure = self._failure
                    break
                pending = self._pending.get(tag)
                if pending is None:
                    raise KeyError(f"unknown or already-gathered tag {tag}")
                if not pending:
                    del self._pending[tag]
                    order = self._order.pop(tag)
                    chunks = self._stash.pop(tag)
                    self._specs.pop(tag)
                    for cid in order:
                        self._task_retries.pop((tag, cid), None)
                    return [chunks[cid] for cid in order]
                if self._degraded:
                    # Claim every outstanding chunk: a late duplicate from
                    # a slot is dropped on arrival (it would be identical).
                    kind, params, chunkmap = self._specs[tag]
                    serial = [(cid, *chunkmap[cid]) for cid in sorted(pending)]
                    pending.clear()
                else:
                    self._cv.wait(timeout=0.5)
            for cid, seed, size in serial:
                arrays = _run_task(self.graph, kind, seed, size, params)
                with self._cv:
                    self._stash[tag][cid] = arrays
        self.shutdown()
        raise RuntimeError(failure)

    def run(
        self, kind: str, jobs: Sequence[Tuple[int, int, int]], params: tuple
    ) -> List[List[np.ndarray]]:
        """Execute ``jobs`` and return their results in submission order
        (one-shot :meth:`submit` + :meth:`gather`)."""
        return self.gather(self.submit(kind, jobs, params))

    # ------------------------------------------------------------------
    # Scheduling + supervision
    # ------------------------------------------------------------------
    def _dispatch(self) -> None:
        """Fill free window places from the queue, least-loaded slot
        first; the sends happen outside the lock."""
        sends: Dict[int, List[tuple]] = {}
        with self._cv:
            if self._closed or self._degraded or self._failure is not None:
                return
            now = time.monotonic()
            while self._queue:
                free = [
                    s for s in self._slots
                    if s.alive and len(s.outstanding) < s.window
                ]
                if not free:
                    break
                task = self._queue.popleft()
                tag, cid = task[0]
                if cid not in self._pending.get(tag, ()):
                    continue  # answered meanwhile
                slot = min(free, key=lambda s: len(s.outstanding) / s.workers)
                if not slot.outstanding:
                    slot.head_since = now
                slot.outstanding[task[0]] = task
                sends.setdefault(slot.index, []).append(task)
        for index, tasks in sends.items():
            try:
                self.transport.send(index, tasks)
            except Exception as exc:
                self._slot_lost(index, f"send failed: {exc!r}")

    def _requeue(self, task_id: tuple, why: str) -> None:
        """Schedule a lost chunk for re-execution (caller holds the cv).

        Bounded retries with exponential backoff; exhausting them is the
        one unrecoverable outcome and sets :attr:`_failure`.
        """
        tag, cid = task_id
        if cid not in self._pending.get(tag, ()):
            return
        retries = self._task_retries.get(task_id, 0) + 1
        if retries > self.max_task_retries:
            self._failure = (
                f"chunk {task_id} lost {retries} times "
                f"(last cause: {why}); retries exhausted"
            )
            self._cv.notify_all()
            return
        self._task_retries[task_id] = retries
        self._retries_total += 1
        kind, params, chunkmap = self._specs[tag]
        seed, size = chunkmap[cid]
        due = time.monotonic() + RETRY_BACKOFF_BASE * (2 ** (retries - 1))
        heapq.heappush(
            self._deferred,
            (due, next(self._deferred_seq), (task_id, kind, seed, size, params)),
        )

    def _slot_lost(self, index: int, why: str) -> None:
        """Re-queue a lost slot's chunks; respawn it, or degrade.

        Each loss extends the slot's death streak (reset by a result
        from it, so a one-time burst recovers).  A streak of
        :attr:`max_consecutive_deaths`, or no live slot left on a
        transport that cannot respawn, degrades the runtime — which
        bounds the recovery storm a crashing environment could cause.
        """
        with self._cv:
            slot = self._slots[index]
            if self._closed or not slot.alive:
                return
            slot.alive = False
            slot.death_streak += 1
            self._restarts += 1
            lost = list(slot.outstanding)
            slot.outstanding.clear()
            slot.lost += len(lost)
            if self._degraded or self._failure is not None:
                return
            respawn = self.transport.respawnable
            if slot.death_streak >= self.max_consecutive_deaths or (
                not respawn and not any(s.alive for s in self._slots)
            ):
                self._degraded = True
                self._queue.clear()
                self._deferred.clear()
                self._cv.notify_all()  # gatherers take over serially
                return
            for task_id in lost:
                self._requeue(task_id, f"{slot.label}: {why}")
        if respawn:
            self.transport.respawn(index)  # outside the lock: slow
            with self._cv:
                slot.alive = True

    def _sweep(self) -> None:
        """Release due retries to the queue; with :attr:`task_timeout`,
        re-queue every slot's first chunk unanswered for that long."""
        now = time.monotonic()
        with self._cv:
            if self._closed or self._degraded or self._failure is not None:
                return
            while self._deferred and self._deferred[0][0] <= now:
                self._queue.appendleft(heapq.heappop(self._deferred)[2])
            if self.task_timeout is None:
                return
            for slot in self._slots:
                if (
                    slot.alive and slot.outstanding
                    and now - slot.head_since > self.task_timeout
                ):
                    task_id = next(iter(slot.outstanding))
                    del slot.outstanding[task_id]
                    slot.head_since = now
                    self._requeue(
                        task_id,
                        f"no result from {slot.label} in {self.task_timeout}s",
                    )

    def _on_result(self, index: int, task_id: tuple, arrays) -> None:
        with self._cv:
            slot = self._slots[index]
            if task_id in slot.outstanding:
                if next(iter(slot.outstanding)) == task_id:
                    slot.head_since = time.monotonic()
                del slot.outstanding[task_id]
            slot.death_streak = 0
            tag, cid = task_id
            pending = self._pending.get(tag)
            if pending is not None and cid in pending:
                pending.discard(cid)
                self._stash[tag][cid] = arrays
                slot.done += 1
            # else: tag abandoned, or a late duplicate after a re-queue.
            self._cv.notify_all()  # wake gatherers per result arrival

    def _collect_loop(self) -> None:
        """The single consumer of transport events, until shutdown.

        Events are ``("res", slot, task_id, arrays)``, ``("err", slot,
        task_id, detail)`` — a chunk raised, which fails the runtime:
        re-running it elsewhere reproduces the error — and ``("lost",
        slot, why)``.  Between events, and at least every
        :data:`_POLL_INTERVAL` seconds, due retries and straggler
        timeouts are serviced and free windows refilled.
        """
        while not self._closed:
            timeout = _POLL_INTERVAL
            with self._cv:
                if self._deferred:
                    due = self._deferred[0][0] - time.monotonic()
                    timeout = min(timeout, max(due, 0.001))
            try:
                event = self.transport.poll(timeout)
                if event is not None:
                    self._handle(event)
                self._sweep()
                self._dispatch()
            except Exception as exc:  # pragma: no cover - never hang gathers
                with self._cv:
                    self._failure = f"runtime collector failed: {exc!r}"
                    self._cv.notify_all()
                return

    def _handle(self, event) -> None:
        kind, index = event[0], event[1]
        if kind == "res":
            self._on_result(index, event[2], event[3])
        elif kind == "lost":
            self._slot_lost(index, event[2])
        else:
            with self._cv:
                self._failure = (
                    f"chunk {event[2]} failed on "
                    f"{self._slots[index].label}: {event[3]}"
                )
                self._cv.notify_all()

    def health(self) -> RuntimeHealth:
        """A consistent snapshot of the supervision counters."""
        with self._cv:
            return RuntimeHealth(
                workers=self.workers,
                workers_alive=sum(s.workers for s in self._slots if s.alive),
                restarts=self._restarts,
                retries=self._retries_total,
                degraded=self._degraded,
                slots=tuple(s.counters() for s in self._slots),
            )

    def shutdown(self, timeout: float = 15.0) -> None:
        """Stop the transport (idempotent, concurrency-safe, bounded).

        Total teardown wall-clock is capped by ``timeout``; forked
        workers still alive past it are terminated, host connections are
        closed after a ``bye``.
        """
        with self._shutdown_lock:
            if self._closed:
                return
            self._closed = True
        deadline = time.monotonic() + max(float(timeout), 0.1)
        with self._cv:
            if self._failure is None:
                self._failure = "runtime is shut down"
            self._cv.notify_all()
        if threading.current_thread() is not self._collector:
            self._collector.join(
                timeout=min(5.0, max(deadline - time.monotonic(), 0.1))
            )
        self.transport.close(deadline)


# ----------------------------------------------------------------------
# Runtime registry
# ----------------------------------------------------------------------
# id(graph) -> the runtime serving it.  At most one entry is a local
# (fork) pool; hosts runtimes stay bound to their graph until
# shutdown_runtime_for.  Entries hold their graph, so an id cannot be
# reused while it is registered.
_RUNTIMES: Dict[int, SharedGraphRuntime] = {}
_RUNTIME_LOCK = threading.Lock()


def get_runtime(graph: DiGraph, workers: Optional[int] = None,
                hosts=None) -> SharedGraphRuntime:
    """The runtime serving ``graph`` (created or replaced on demand).

    With ``hosts``, connect a runtime to those worker hosts and bind it
    to ``graph`` (replacing any runtime bound before) until
    :func:`shutdown_runtime_for`; every chunked dispatch on the graph
    then goes to it.  Otherwise return the graph's bound hosts runtime
    if there is one, else the process's one local pool: reused while it
    serves this graph at its current
    :attr:`~repro.graphs.DiGraph.version` with at least ``workers``
    workers — so multi-round algorithms (IMM doubling, repeated boosts)
    pay pool startup once — and replaced otherwise.  A version bump
    retires the pool: its published segment holds the old arrays.
    Thread-safe — overlap lanes race here on first parallel dispatch.
    """
    with _RUNTIME_LOCK:
        current = _RUNTIMES.get(id(graph))
        if hosts:
            runtime = SharedGraphRuntime(graph, hosts=hosts)
            if current is not None:
                current.shutdown()
            _RUNTIMES[id(graph)] = runtime
            return runtime
        if current is not None and (
            current.hosts is not None
            or (
                not current._closed
                and current.graph_version == getattr(graph, "version", 0)
                and current.workers >= _resolve_workers(workers)
            )
        ):
            return current
        for key, runtime in list(_RUNTIMES.items()):
            if runtime.hosts is None:
                del _RUNTIMES[key]
                runtime.shutdown()
        runtime = SharedGraphRuntime(graph, workers)
        _RUNTIMES[id(graph)] = runtime
        return runtime


def _hosts_runtime_for(graph) -> Optional[SharedGraphRuntime]:
    runtime = _RUNTIMES.get(id(graph))
    return runtime if runtime is not None and runtime.hosts is not None else None


def shutdown_runtime() -> None:
    """Tear down every registered runtime (idempotent; also runs at exit).

    Lock-free on purpose: the SIGTERM reaper calls it from a handler.
    """
    runtimes = list(_RUNTIMES.values())
    _RUNTIMES.clear()
    for runtime in runtimes:
        runtime.shutdown()


def shutdown_runtime_for(graph) -> bool:
    """Tear down the runtime serving ``graph``, if any.

    The hook :meth:`repro.api.Session.close` uses to release the worker
    processes, shared-memory segments or host connections it is
    responsible for without disturbing another graph's runtime.
    Returns whether a runtime was shut down.
    """
    with _RUNTIME_LOCK:
        runtime = _RUNTIMES.pop(id(graph), None)
    if runtime is None:
        return False
    runtime.shutdown()
    return True


def runtime_is_alive(graph) -> bool:
    """Whether a runtime serving ``graph`` exists and is open."""
    runtime = _RUNTIMES.get(id(graph))
    return runtime is not None and not runtime._closed


def runtime_health(graph=None) -> Optional[RuntimeHealth]:
    """Supervision snapshot of ``graph``'s runtime (default: the local
    pool), or ``None`` when none is live — serial configurations,
    fork-less platforms, post-shutdown.  The session/serving tiers
    report this through ``Session.stats()`` and ``/healthz``.
    """
    if graph is None:
        runtime = next(
            (r for r in list(_RUNTIMES.values()) if r.hosts is None), None
        )
    else:
        runtime = _RUNTIMES.get(id(graph))
    if runtime is None or runtime._closed:
        return None
    return runtime.health()


# LIFO atexit: the reaper is registered first so it runs *after* the
# runtime shutdown below has unlinked everything it owns — catching only
# what an abnormal teardown left behind.
atexit.register(reap_shm_segments)
atexit.register(shutdown_runtime)


def use_chunked_stream(graph, workers: int, count: int) -> bool:
    """Whether a sampler draw of ``count`` samples takes the chunked
    stream: with local ``workers > 1``, and always on a graph bound to a
    hosts runtime (even a degraded one), so host counts never change the
    stream.  Chunked results are a pure function of ``(count,
    master_seed)``, identical on every path that runs them."""
    return count >= PARALLEL_MIN_SAMPLES and (
        workers > 1 or _hosts_runtime_for(graph) is not None
    )


def run_chunks(
    graph: DiGraph,
    kind: str,
    jobs: Sequence[Tuple[int, int, int]],
    params: tuple,
    workers: int,
) -> List[List[np.ndarray]]:
    """Run chunk jobs on ``graph``'s bound hosts runtime, else on the
    local pool when ``workers > 1``, else serially in-process — same
    chunks, same seeds, same results on every path.  A degraded or
    shut-down runtime is bypassed the same way."""
    runtime = _hosts_runtime_for(graph)
    if runtime is None and workers > 1 and fork_available() and len(jobs) > 1:
        runtime = get_runtime(graph, workers)
    if runtime is not None and runtime.active and len(jobs) > 1:
        return runtime.run(kind, jobs, params)
    return [
        _run_task(graph, kind, seed, size, params) for _cid, seed, size in jobs
    ]


# ----------------------------------------------------------------------
# Public sampling entry points
# ----------------------------------------------------------------------
def parallel_prr_collection(
    graph: DiGraph,
    seeds,
    k: int,
    count: int,
    master_seed: int = 0,
    workers: int | None = None,
) -> PRRArena:
    """Sample ``count`` PRR-graphs into one arena across the runtime.

    The collection is a pure function of ``(count, master_seed)`` —
    independent of worker count, including the serial fallback.  The
    result is a :class:`PRRArena`; index it for :class:`PRRGraph` views
    or feed it directly to the vectorized estimators.
    """
    seed_set = frozenset(int(s) for s in seeds)
    jobs = _chunk_jobs(count, master_seed)
    if not jobs:
        return PRRArena(graph.n)
    parts = run_chunks(
        graph, "prr", jobs, (tuple(seed_set), k), _resolve_workers(workers)
    )
    return PRRArena.from_payloads([(graph.n, *arrays) for arrays in parts])


def parallel_critical_sets(
    graph: DiGraph,
    seeds,
    count: int,
    master_seed: int = 0,
    workers: int | None = None,
) -> List[FrozenSet[int]]:
    """Sample ``count`` critical sets (the PRR-Boost-LB payload) in parallel."""
    seed_set = frozenset(int(s) for s in seeds)
    jobs = _chunk_jobs(count, master_seed)
    parts = run_chunks(
        graph, "critical", jobs, (tuple(seed_set),), _resolve_workers(workers)
    )
    out: List[FrozenSet[int]] = []
    for _status, counts, values, _explored in parts:
        out.extend(csr_to_frozensets(counts, values))
    return out


def parallel_rr_csr(
    graph: DiGraph,
    count: int,
    master_seed: int = 0,
    workers: int | None = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Sample ``count`` RR-sets as one ``(counts, values)`` CSR.

    The shape :meth:`repro.engine.coverage.CoverageIndex.extend_csr`
    ingests — the parallel backend of
    :meth:`repro.im.rr.RRSampler.sample_into`.
    """
    jobs = _chunk_jobs(count, master_seed)
    if not jobs:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    parts = run_chunks(graph, "rr", jobs, (), _resolve_workers(workers))
    return (
        np.concatenate([p[0] for p in parts]),
        np.concatenate([p[1] for p in parts]),
    )


def parallel_critical_csr(
    graph: DiGraph,
    seeds,
    count: int,
    master_seed: int = 0,
    workers: int | None = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``count`` critical sets as ``(status_codes, counts, values,
    explored)`` — the array-shaped sibling of
    :func:`parallel_critical_sets` used by the samplers."""
    seed_set = frozenset(int(s) for s in seeds)
    jobs = _chunk_jobs(count, master_seed)
    if not jobs:
        return (
            np.empty(0, dtype=np.int8),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
        )
    parts = run_chunks(
        graph, "critical", jobs, (tuple(seed_set),), _resolve_workers(workers)
    )
    return (
        np.concatenate([p[0] for p in parts]),
        np.concatenate([p[1] for p in parts]),
        np.concatenate([p[2] for p in parts]),
        np.concatenate([p[3] for p in parts]),
    )


def parallel_prr_payloads(
    graph: DiGraph,
    seeds,
    k: int,
    count: int,
    master_seed: int = 0,
    workers: int | None = None,
) -> List[tuple]:
    """Chunk-ordered arena payloads for ``count`` PRR-graphs — the form
    :meth:`repro.core.boost.PRRSampler.sample_into` merges incrementally."""
    seed_set = frozenset(int(s) for s in seeds)
    jobs = _chunk_jobs(count, master_seed)
    parts = run_chunks(
        graph, "prr", jobs, (tuple(seed_set), k), _resolve_workers(workers)
    )
    return [(graph.n, *arrays) for arrays in parts]
