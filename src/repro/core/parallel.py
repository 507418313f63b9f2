"""Parallel sampling on a persistent zero-copy shared-memory runtime.

The paper parallelizes PRR-graph generation with OpenMP over eight
threads.  The Python analogue here is a process-based runtime built for
repeated use:

* **Zero-copy graph publication** — the graph's CSR arrays and edge
  probabilities are written once into a single
  :mod:`multiprocessing.shared_memory` segment
  (:class:`SharedGraphRuntime`); workers attach by name and build their
  :class:`~repro.engine.SamplingEngine` over read-only views, so neither
  pool startup nor any task pays a per-worker graph pickle.
* **Persistent pull-scheduled workers** — one pool per graph survives
  across calls (IMM doubling rounds, repeated ``prr_boost`` runs, …).
  Tasks are small sample chunks on one shared queue; an idle worker
  steals the next chunk the moment it finishes, so cheap chunks
  (activated/hopeless roots) never leave a worker idling behind a static
  partition.
* **Tag-multiplexed submissions** — every dispatch gets a runtime-unique
  tag and a collector thread demultiplexes results per tag
  (:meth:`SharedGraphRuntime.submit` / :meth:`~SharedGraphRuntime.gather`),
  so concurrent callers — the serving tier's overlapped ``run_many``
  lanes — pipeline independent queries' sampling chunks onto one pool
  instead of taking turns.
* **Raw-buffer results** — workers sample with the lane kernels and ship
  flat arrays back (:class:`~repro.core.prr.PRRArena` payloads, critical
  or RR CSRs).  Large results travel through a per-result shared-memory
  segment — bytes, not pickled object graphs; small ones ride the result
  queue directly, which is cheaper than a segment round-trip.

Determinism: chunking is a pure function of ``count`` and each chunk's
RNG seed is spawned from its chunk id, so a collection depends only on
``(count, master_seed)`` — not on worker count, scheduling, or whether
the serial fallback ran.  The serial fallback (``workers <= 1``, or a
platform without ``fork``) iterates the same chunks in-process without
touching any pool machinery.

Fault tolerance: the same determinism contract is what makes the
runtime *supervised* rather than merely fail-fast.  Workers announce
each chunk they pull (a claim message ahead of the result), so the
collector knows chunk ownership; a liveness sweep detects dead workers,
re-enqueues their unacknowledged chunks with bounded retries and
exponential backoff (re-executing a chunk is bit-identical — it is a
pure function of its id and seed), and respawns replacements against
the already-published shared graph.  After too many consecutive worker
deaths the runtime **degrades** instead of raising: remaining chunks run
serially in-process inside :meth:`SharedGraphRuntime.gather`, and later
dispatches bypass the pool entirely — same results, no recovery storm.
:meth:`SharedGraphRuntime.health` snapshots the supervision counters
(:class:`RuntimeHealth`), and a process-wide shared-memory registry with
an ``atexit``/SIGTERM reaper (:func:`reap_shm_segments`) unlinks
orphaned ``repro-*`` segments even on abnormal exit.  Every recovery
path is deterministically drivable via :mod:`repro.testing.faults`.
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
    "bind_distributed_runtime",
    "unbind_distributed_runtime",
    "distributed_runtime_for",
    "distributed_sampling_active",
    "run_chunks_local",
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

# Supervision defaults.  A lost chunk is re-enqueued at most
# MAX_TASK_RETRIES times (exponential backoff from RETRY_BACKOFF_BASE
# seconds); after MAX_CONSECUTIVE_DEATHS worker deaths with no
# successful result in between, the runtime degrades to the in-process
# serial path instead of respawning further.
MAX_TASK_RETRIES = 3
RETRY_BACKOFF_BASE = 0.05
MAX_CONSECUTIVE_DEATHS = 3

# How often the collector sweeps worker liveness / due retries when no
# results are arriving.  Bounds fault-detection latency, not result
# latency — gatherers are woken per arriving result.
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
    source, n, m, task_queue, result_queue, worker_id, generation
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
        # Claim before computing: the collector learns chunk ownership,
        # so a death (or a vanished result) is attributable to exactly
        # one chunk and that chunk can be re-enqueued.
        result_queue.put(("claim", worker_id, task_id))
        action = (
            plan.action_for(worker_id, generation, chunk_index)
            if plan is not None
            else faults.NO_ACTION
        )
        if action.delay_s:
            time.sleep(action.delay_s)
        if action.kill:
            # Simulated hard crash mid-chunk (no result, no cleanup).  The
            # queue is closed first so the feeder thread drains the claim
            # to the master — modelling a worker that died *during* the
            # computation, after ownership was observable.  (A death in
            # the sub-millisecond window before the claim flushes is the
            # known-unattributable race documented on the runtime.)
            result_queue.close()
            result_queue.join_thread()
            os._exit(17)
        if action.drop:
            continue  # simulated lost result message
        try:
            msg = _ship_result(_run_task(view, kind, seed, size, params))
            result_queue.put(("res", worker_id, task_id, True, msg))
        except Exception as exc:  # surface, don't hang the master
            result_queue.put(("res", worker_id, task_id, False, repr(exc)))
    # Flush pending queue feeds, then exit without interpreter teardown:
    # the engine holds views into the shared segment, and unwinding them
    # through GC trips BufferError in SharedMemory.__del__.
    result_queue.close()
    result_queue.join_thread()
    os._exit(0)


@dataclass(frozen=True)
class RuntimeHealth:
    """A point-in-time snapshot of the runtime's supervision state.

    ``workers`` is the configured pool size, ``workers_alive`` how many
    processes currently pass ``is_alive``; ``restarts`` counts worker
    respawns, ``retries`` chunk re-enqueues, and ``degraded`` whether the
    runtime has given up on the pool and fallen back to the in-process
    serial path (results stay bit-identical — only throughput changes).

    For the distributed runtime the same fields are reinterpreted at
    host granularity — ``workers`` is the summed remote capacity,
    ``restarts`` counts host losses, ``retries`` chunk re-assignments —
    and ``hosts`` carries one counter dict per configured worker host.
    """

    workers: int
    workers_alive: int
    restarts: int
    retries: int
    degraded: bool
    hosts: Optional[Tuple[Dict[str, Any], ...]] = None

    def to_dict(self) -> Dict[str, Any]:
        out = {
            "workers": int(self.workers),
            "workers_alive": int(self.workers_alive),
            "restarts": int(self.restarts),
            "retries": int(self.retries),
            "degraded": bool(self.degraded),
        }
        if self.hosts is not None:
            out["hosts"] = [dict(h) for h in self.hosts]
        return out


# ----------------------------------------------------------------------
# Runtime
# ----------------------------------------------------------------------
class SharedGraphRuntime:
    """A persistent worker pool bound to one graph's shared arrays.

    Construction publishes the graph once and forks ``workers``
    long-lived processes.  Work is **tag-multiplexed**: every submission
    (:meth:`submit`) gets a runtime-unique tag, its chunk tasks carry
    ``(tag, chunk_id)`` ids on the one shared task queue, and a collector
    thread demultiplexes the result queue back into per-tag stashes.
    That is what lets several queries' sampling phases share the worker
    pool *concurrently* — the serving tier's overlapped ``run_many``
    submits every query's chunks up front (each from its own lane
    thread) and each lane blocks only on :meth:`gather` of its own tag,
    running its selection phase the moment its samples are complete
    while other queries' chunks still occupy the workers.

    :meth:`run` is the one-shot form (submit + gather) used by the
    per-collection entry points below; it is safe to call from multiple
    threads at once.  Reused across calls via :func:`get_runtime`;
    :meth:`shutdown` (or interpreter exit) releases processes and shared
    memory.

    Determinism is untouched by the multiplexing: chunking stays a pure
    function of ``count`` and each chunk's RNG seed of its chunk id, so
    a collection depends only on ``(count, master_seed)`` no matter how
    many tags interleaved on the pool.
    """

    def __init__(
        self,
        graph: DiGraph,
        workers: int,
        max_task_retries: int = MAX_TASK_RETRIES,
        max_consecutive_deaths: int = MAX_CONSECUTIVE_DEATHS,
        retry_backoff: float = RETRY_BACKOFF_BASE,
        task_timeout: Optional[float] = None,
    ) -> None:
        if not fork_available():
            raise RuntimeError("SharedGraphRuntime requires the fork start method")
        _install_sigterm_reaper()
        self.graph = graph
        self.graph_version = getattr(graph, "version", 0)
        self.workers = int(workers)
        self.max_task_retries = int(max_task_retries)
        self.max_consecutive_deaths = int(max_consecutive_deaths)
        self.retry_backoff = float(retry_backoff)
        # Optional straggler bound: a *claimed* chunk with no result after
        # this many seconds is re-enqueued (its late duplicate, if any, is
        # deduplicated on arrival — chunks are deterministic).  Off by
        # default: chunk cost is workload-dependent and a false positive
        # doubles work.  Catches lost results from workers that stay
        # alive, which the liveness sweep cannot see.
        self.task_timeout = task_timeout
        self._ctx = mp.get_context("fork")
        # Publication: pristine store-backed graphs are published *by
        # path* — workers mmap the store file themselves, so pool startup
        # copies nothing and all workers share one page-cache image.
        # Everything else is copied once into a shared-memory segment.
        store_path = _publishable_store_path(graph)
        if store_path is not None:
            self._shm = None
            self._source: tuple = ("store", store_path)
        else:
            self._shm, table = _publish_arrays(_graph_arrays(graph))
            self._source = ("shm", self._shm.name, table)
        self._tasks = self._ctx.Queue()
        self._results = self._ctx.Queue()
        self._closed = False
        self._shutdown_lock = threading.Lock()
        # Tag-multiplexing + supervision state, guarded by the condition's
        # lock (spawn/respawn of processes happens outside it).
        self._cv = threading.Condition()
        self._next_tag = 0
        self._pending: Dict[int, set] = {}      # tag -> outstanding cids
        self._order: Dict[int, List[int]] = {}  # tag -> submission cid order
        self._stash: Dict[int, Dict[int, List[np.ndarray]]] = {}
        # tag -> (kind, params, {cid: (seed, size)}): what re-enqueue and
        # the degraded serial fallback need to re-execute a chunk.
        self._specs: Dict[int, Tuple[str, tuple, Dict[int, Tuple[int, int]]]] = {}
        self._inflight: Dict[int, Tuple[tuple, float]] = {}  # slot -> (task, t)
        self._task_retries: Dict[tuple, int] = {}
        self._deferred: List[tuple] = []  # heap of (due, seq, task_tuple)
        self._deferred_seq = itertools.count()
        self._generation = [0] * self.workers
        self._dead_handled: set = set()
        self._restarts = 0
        self._retries_total = 0
        # Per-slot run of deaths with no intervening result from that
        # slot.  A one-time burst (every worker killed at once) is one
        # death per slot and recovers; a slot whose respawns keep dying
        # is the hopeless-environment signal that triggers degradation.
        self._death_streak = [0] * self.workers
        self._degraded = False
        self._failure: Optional[str] = None
        self._procs: List[mp.process.BaseProcess] = [None] * self.workers
        for slot in range(self.workers):
            self._spawn(slot)
        self._collector = threading.Thread(
            target=self._collect_loop, name="runtime-collector", daemon=True
        )
        self._collector.start()

    def _spawn(self, slot: int) -> None:
        proc = self._ctx.Process(
            target=_worker_main,
            args=(
                self._source, self.graph.n, self.graph.m,
                self._tasks, self._results, slot, self._generation[slot],
            ),
            daemon=True,
        )
        proc.start()
        self._procs[slot] = proc

    @property
    def degraded(self) -> bool:
        return self._degraded

    @property
    def publication(self) -> str:
        """How workers attach to the graph: ``"store"`` (mmap by path)
        or ``"shm"`` (copied into a shared-memory segment)."""
        return self._source[0]

    # ------------------------------------------------------------------
    # Tagged submission API
    # ------------------------------------------------------------------
    def submit(
        self, kind: str, jobs: Sequence[Tuple[int, int, int]], params: tuple
    ) -> int:
        """Enqueue ``jobs`` (``(chunk_id, seed, size)``) under a fresh tag.

        Non-blocking: returns the tag immediately; workers start pulling
        the chunks as soon as they go idle.  Thread-safe.
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
        for cid, seed, size in jobs:
            self._tasks.put(((tag, cid), kind, seed, size, params))
        return tag

    def gather(self, tag: int) -> List[List[np.ndarray]]:
        """Block until every chunk of ``tag`` has arrived; return their
        results in submission order.  Thread-safe; each tag may be
        gathered exactly once.

        Wake-up is event-driven — the collector notifies on *every*
        arriving result, so small batches complete with no polling
        quantization (the wait timeout below is only a liveness backstop).

        Recovery: lost chunks are re-enqueued transparently by the
        collector; if the runtime **degrades** (too many consecutive
        worker deaths) the gatherer claims its remaining chunks and runs
        them serially in-process — bit-identical by the determinism
        contract.  Only an unrecoverable failure (a chunk that *raises*
        in a worker, or retries exhausted) tears the runtime down before
        raising."""
        failure = None
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
                    self._specs.pop(tag, None)
                    return [chunks[cid] for cid in order]
                if self._degraded:
                    # Claim every outstanding chunk of this tag for serial
                    # in-process execution.  Removing them from the pending
                    # set means a late worker duplicate is dropped on
                    # arrival (it would be identical anyway).
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
    # Collector + supervision
    # ------------------------------------------------------------------
    def _is_outstanding(self, task_id: tuple) -> bool:
        """Whether a chunk is still owed a result (caller holds the cv)."""
        tag, cid = task_id
        pending = self._pending.get(tag)
        return pending is not None and cid in pending

    def _requeue(self, task_id: tuple, why: str) -> None:
        """Schedule a lost chunk for re-execution (caller holds the cv).

        Bounded retries with exponential backoff; exhausting them is the
        one unrecoverable outcome and sets :attr:`_failure`.
        """
        if not self._is_outstanding(task_id):
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
        tag, cid = task_id
        spec = self._specs.get(tag)
        if spec is None:  # pragma: no cover - tag abandoned meanwhile
            return
        kind, params, chunkmap = spec
        seed, size = chunkmap[cid]
        due = time.monotonic() + self.retry_backoff * (2 ** (retries - 1))
        heapq.heappush(
            self._deferred,
            (due, next(self._deferred_seq), (task_id, kind, seed, size, params)),
        )

    def _service_deferred(self) -> None:
        """Move due re-enqueued chunks back onto the task queue."""
        now = time.monotonic()
        ready = []
        with self._cv:
            while self._deferred and self._deferred[0][0] <= now:
                _due, _seq, task = heapq.heappop(self._deferred)
                ready.append(task)
        for task in ready:
            self._tasks.put(task)

    def _sweep(self) -> None:
        """Detect dead workers; re-enqueue their chunks and respawn them.

        Each death increments its slot's death streak (reset by a result
        from that slot, so a one-time burst of deaths recovers); when a
        slot's respawns have died :attr:`max_consecutive_deaths` times in
        a row the runtime degrades — no further respawns, gatherers finish serially — which
        bounds the recovery storm a persistently crashing environment
        could otherwise cause.  With :attr:`task_timeout` set, claimed
        chunks whose result never arrived (worker alive but wedged, or
        the result message lost) are re-enqueued too.
        """
        respawn: List[int] = []
        now = time.monotonic()
        with self._cv:
            if self._closed or self._failure is not None:
                return
            for slot, proc in enumerate(self._procs):
                if proc.is_alive() or slot in self._dead_handled:
                    continue
                self._dead_handled.add(slot)
                lost = self._inflight.pop(slot, None)
                if lost is not None:
                    self._requeue(lost[0], f"worker {slot} died")
                self._death_streak[slot] += 1
                if self._degraded:
                    continue
                if self._death_streak[slot] >= self.max_consecutive_deaths:
                    self._degraded = True
                    self._cv.notify_all()  # gatherers take over serially
                    continue
                self._generation[slot] += 1
                self._restarts += 1
                respawn.append(slot)
            if self.task_timeout is not None:
                for slot, (task_id, claimed_at) in list(self._inflight.items()):
                    if now - claimed_at > self.task_timeout:
                        del self._inflight[slot]
                        self._requeue(task_id, f"no result within {self.task_timeout}s")
        for slot in respawn:
            self._spawn(slot)  # outside the lock: process start is slow
            with self._cv:
                self._dead_handled.discard(slot)

    def _collect_loop(self) -> None:
        """Drain the result queue into the per-tag stashes (single reader).

        Runs until shutdown.  Claim messages maintain per-worker chunk
        ownership; result arrivals wake every gatherer promptly (no
        polling floor on small batches).  Between messages — and at least
        every :data:`_POLL_INTERVAL` seconds — the liveness sweep and the
        retry queue run.  Sets :attr:`_failure` only for unrecoverable
        outcomes (a chunk that raised in a worker, retries exhausted);
        result payloads are copied out of (and their segments unlinked
        from) shared memory here, so abandoned tags never leak segments.
        """
        last_sweep = time.monotonic()
        while not self._closed:
            self._service_deferred()
            try:
                msg = self._results.get(timeout=_POLL_INTERVAL)
            except Exception:
                msg = None
            now = time.monotonic()
            if msg is None or now - last_sweep >= _POLL_INTERVAL:
                self._sweep()
                last_sweep = now
            if msg is None:
                continue
            if msg[0] == "claim":
                _kind, wid, task_id = msg
                with self._cv:
                    prev = self._inflight.get(wid)
                    self._inflight[wid] = (task_id, time.monotonic())
                    if prev is not None and prev[0] != task_id:
                        # The worker moved on without ever shipping the
                        # previous chunk's result: treat it as lost.
                        self._requeue(
                            prev[0], f"worker {wid} superseded it unanswered"
                        )
                continue
            _kind, wid, (tag, cid), ok, payload = msg
            if not ok:
                with self._cv:
                    self._failure = f"worker task ({tag}, {cid}) failed: {payload}"
                    self._cv.notify_all()
                continue
            try:
                arrays = _receive_result(payload)
            except Exception as exc:  # pragma: no cover - defensive
                with self._cv:
                    self._failure = f"result unpack failed: {exc!r}"
                    self._cv.notify_all()
                continue
            with self._cv:
                held = self._inflight.get(wid)
                if held is not None and held[0] == (tag, cid):
                    del self._inflight[wid]
                if 0 <= wid < len(self._death_streak):
                    self._death_streak[wid] = 0
                pending = self._pending.get(tag)
                if pending is not None and cid in pending:
                    self._stash[tag][cid] = arrays
                    pending.discard(cid)
                # else: tag abandoned or chunk already satisfied (late
                # duplicate after a retry) — arrays dropped, segment
                # already unlinked by _receive_result.
                self._cv.notify_all()  # wake gatherers per result arrival

    def health(self) -> RuntimeHealth:
        """A consistent snapshot of the supervision counters."""
        with self._cv:
            return RuntimeHealth(
                workers=self.workers,
                workers_alive=sum(
                    p is not None and p.is_alive() for p in self._procs
                ),
                restarts=self._restarts,
                retries=self._retries_total,
                degraded=self._degraded,
            )

    def shutdown(self, timeout: float = 15.0) -> None:
        """Tear the pool down (idempotent, concurrency-safe, bounded).

        Total teardown wall-clock is capped by ``timeout``: the drain
        phase and the per-worker joins share one deadline, and workers
        still alive past it are terminated (then killed).  Safe against a
        half-dead pool — sentinels go onto the task queue regardless of
        which workers still live, a dead worker's sentinel is simply
        never consumed, and joins on already-dead processes return
        immediately.
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
        self._collector.join(timeout=min(5.0, max(deadline - time.monotonic(), 0.1)))
        for _ in self._procs:
            try:
                self._tasks.put(None)
            except Exception:  # pragma: no cover - broken queue
                pass
        # Drain in-flight results *while* workers wind down: a worker
        # mid-put must not block forever against a full pipe, and every
        # abandoned result's shared segment needs unlinking.  Bounded, and
        # tolerant of truncated/claim messages from dying workers.
        while time.monotonic() < deadline:
            try:
                msg = self._results.get(timeout=0.25)
            except Exception:
                if not any(p is not None and p.is_alive() for p in self._procs):
                    break
                continue
            if msg and msg[0] == "res" and msg[3]:
                try:
                    _receive_result(msg[4])
                except Exception:  # pragma: no cover - defensive
                    pass
        for proc in self._procs:
            if proc is None:
                continue
            proc.join(timeout=max(deadline - time.monotonic(), 0.1))
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()
                proc.join(timeout=0.5)
                if proc.is_alive():
                    proc.kill()
        # cancel_join_thread: never block interpreter exit on unflushed
        # queue buffers — every worker is gone by now.
        self._tasks.close()
        self._tasks.cancel_join_thread()
        self._results.close()
        self._results.cancel_join_thread()
        if self._shm is not None:  # store-published runtimes own no segment
            try:
                self._shm.close()
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already unlinked
                pass
            _unregister_shm(self._shm.name)


_runtime: Optional[SharedGraphRuntime] = None
_RUNTIME_LOCK = threading.Lock()


def get_runtime(graph: DiGraph, workers: int) -> SharedGraphRuntime:
    """The cached runtime for ``graph`` (created/replaced on demand).

    One runtime is kept alive at a time — repeated calls with the same
    graph (at its current :attr:`~repro.graphs.DiGraph.version`) and a
    compatible worker count reuse the warm pool, which is what makes
    multi-round algorithms (IMM doubling, repeated boosts) pay pool
    startup once per graph instead of once per call.  A version bump
    (in-place probability update) retires the pool: its published
    segment holds the pre-mutation arrays.  Thread-safe — overlap lanes
    race here on first parallel dispatch.
    """
    global _runtime
    with _RUNTIME_LOCK:
        if (
            _runtime is not None
            and not _runtime._closed
            and _runtime.graph is graph
            and _runtime.graph_version == getattr(graph, "version", 0)
            and _runtime.workers >= workers
        ):
            return _runtime
        if _runtime is not None:
            _runtime.shutdown()
        _runtime = SharedGraphRuntime(graph, workers)
        return _runtime


def shutdown_runtime() -> None:
    """Tear down the cached runtime (idempotent; also runs at exit)."""
    global _runtime
    if _runtime is not None:
        _runtime.shutdown()
        _runtime = None


def shutdown_runtime_for(graph) -> bool:
    """Tear down the cached runtime iff it is bound to ``graph``.

    The hook :meth:`repro.api.Session.close` uses to release worker
    processes and shared-memory segments it is responsible for without
    disturbing a runtime some other graph's caller still owns.  Returns
    whether a runtime was shut down.
    """
    global _runtime
    if _runtime is not None and _runtime.graph is graph:
        shutdown_runtime()
        return True
    return False


def runtime_is_alive(graph) -> bool:
    """Whether the cached runtime exists, is open, and serves ``graph``."""
    return _runtime is not None and not _runtime._closed and _runtime.graph is graph


def runtime_health(graph=None) -> Optional[RuntimeHealth]:
    """Supervision snapshot of the cached runtime, or ``None``.

    ``None`` means no runtime is live (serial configurations, fork-less
    platforms, post-shutdown) — or, when ``graph`` is given, that the
    live runtime serves a different graph.  A graph with a bound
    distributed runtime reports that runtime's host-granular health
    instead (see :mod:`repro.dist`).  The session/serving tiers report
    this through ``Session.stats()`` and ``/healthz``.
    """
    if graph is not None:
        dist = distributed_runtime_for(graph)
        if dist is not None:
            return dist.health()
    rt = _runtime
    if rt is None or rt._closed:
        return None
    if graph is not None and rt.graph is not graph:
        return None
    return rt.health()


# ----------------------------------------------------------------------
# Distributed runtime binding
# ----------------------------------------------------------------------
# Graphs with a multi-host sampling runtime attached (repro.dist) are
# registered here so the chunk executor below can route batch work to
# the coordinator without this module ever importing repro.dist (dist
# imports parallel for the chunking/payload contract — the dependency
# only points one way).  The registry holds anything duck-typed like
# DistributedRuntime: ``.run(kind, jobs, params)``, ``.active``,
# ``.degraded`` and ``.health()``.
_DIST_RUNTIMES: Dict[int, Any] = {}
_DIST_LOCK = threading.Lock()


def bind_distributed_runtime(graph, runtime) -> None:
    """Route ``graph``'s chunked sampling through ``runtime``.

    Subsequent multi-chunk dispatches (``parallel_rr_csr`` and friends)
    go to the distributed coordinator instead of the local pool while
    the binding holds.  One binding per graph; rebinding replaces."""
    with _DIST_LOCK:
        _DIST_RUNTIMES[id(graph)] = runtime


def unbind_distributed_runtime(graph) -> bool:
    """Drop ``graph``'s distributed binding (idempotent)."""
    with _DIST_LOCK:
        return _DIST_RUNTIMES.pop(id(graph), None) is not None


def distributed_runtime_for(graph) -> Optional[Any]:
    """The distributed runtime bound to ``graph``, if any (even a
    degraded one — the sampler dispatch gate keys off the *binding* so a
    session keeps drawing the chunked stream after degradation)."""
    with _DIST_LOCK:
        return _DIST_RUNTIMES.get(id(graph))


def distributed_sampling_active(graph) -> bool:
    """Whether samplers should take the chunked path for ``graph``
    regardless of their local ``workers`` setting.

    True whenever a distributed runtime is bound — including after it
    degraded to the local fallback — so every query of a ``hosts=``
    session draws the same chunk-seeded sample stream.  (Chunked results
    are a pure function of ``(count, master_seed)``, so this stream is
    identical to any local ``workers > 1`` run.)
    """
    return distributed_runtime_for(graph) is not None


# LIFO atexit: the reaper is registered first so it runs *after* the
# runtime shutdown below has unlinked everything it owns — catching only
# what an abnormal teardown left behind.
atexit.register(reap_shm_segments)
atexit.register(shutdown_runtime)


def _run_chunks(
    graph: DiGraph,
    kind: str,
    jobs: Sequence[Tuple[int, int, int]],
    params: tuple,
    workers: int,
) -> List[List[np.ndarray]]:
    """Run chunk jobs on the distributed runtime (when one is bound to
    ``graph``), else the local shared runtime, else serially in-process —
    same chunks, same seeds, same results on every path.  A **degraded**
    runtime (supervision gave up on its hosts/pool) is bypassed the same
    way: the next tier down is the graceful floor."""
    dist = distributed_runtime_for(graph)
    if dist is not None and len(jobs) > 1 and getattr(dist, "active", False):
        return dist.run(kind, jobs, params)
    return run_chunks_local(graph, kind, jobs, params, workers)


def run_chunks_local(
    graph: DiGraph,
    kind: str,
    jobs: Sequence[Tuple[int, int, int]],
    params: tuple,
    workers: int,
) -> List[List[np.ndarray]]:
    """Run chunk jobs on the local shared runtime, or serially in-process
    when ``workers <= 1`` / no fork — never through a distributed
    binding.  This is what ``repro dist-worker`` hosts (and the
    coordinator's degraded fallback) call, so a worker process that
    happens to share an interpreter with a coordinator can never bounce
    its own chunks back over the wire."""
    if workers > 1 and fork_available() and len(jobs) > 1:
        rt = get_runtime(graph, workers)
        if not rt.degraded:
            return rt.run(kind, jobs, params)
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
    parts = _run_chunks(
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
    parts = _run_chunks(
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
    parts = _run_chunks(graph, "rr", jobs, (), _resolve_workers(workers))
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
    parts = _run_chunks(
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
    parts = _run_chunks(
        graph, "prr", jobs, (tuple(seed_set), k), _resolve_workers(workers)
    )
    return [(graph.n, *arrays) for arrays in parts]
