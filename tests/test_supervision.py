"""Supervision cases written once and run on both transports.

The chunk scheduler owns retries, degradation and health for forked
workers and worker hosts alike, so each fault case below runs against
``fork`` (faults injected into workers via :mod:`repro.testing.faults`)
and ``tcp`` (scripted :class:`~dist_hosts.FakeHost`\\ s that fail once
they hold chunks).  Every case checks the merged results bit for bit
against :func:`~repro.core.parallel._run_task`.
"""

import contextlib
import glob

import numpy as np
import pytest

from dist_hosts import FakeHost, WorkerHost, fresh_graph
from repro.core.parallel import (
    _SHM_PREFIX,
    SharedGraphRuntime,
    _chunk_jobs,
    _run_task,
    fork_available,
)
from repro.testing import faults

SEEDS = (0, 1)
PARAMS = (SEEDS, 5)


class ForkCase:
    """Two forked workers; the fault plan stays set while the runtime
    lives, so respawned workers inherit it too."""

    @contextlib.contextmanager
    def runtime(self, scenario, **kw):
        plans = {
            "healthy": None,
            "kill_one": dict(kill_worker=0, kill_on_chunk=1),
            "kill_all": dict(kill_worker="any", kill_on_chunk=1,
                             kill_all_generations=True),
            "exhaust": dict(kill_worker="any", kill_on_chunk=1,
                            kill_all_generations=True),
        }
        if scenario == "exhaust":
            kw.update(max_task_retries=1, max_consecutive_deaths=10_000)
        plan = plans[scenario]
        with faults.inject(**plan) if plan else contextlib.nullcontext():
            runtime = SharedGraphRuntime(fresh_graph(), 2, **kw)
            try:
                yield runtime
            finally:
                runtime.shutdown()

    def closed(self, runtime):
        return not any(p.is_alive() for p in runtime.transport.procs)


class TcpCase:
    """Worker hosts; a faulty host fails once it owns chunks."""

    @contextlib.contextmanager
    def runtime(self, scenario, **kw):
        hosts = {
            "healthy": [WorkerHost(), WorkerHost()],
            "kill_one": [WorkerHost(), FakeHost("die")],
            "kill_all": [FakeHost("die")],
            # A dying host plus a wedged one: every chunk is lost twice.
            "exhaust": [FakeHost("die"), FakeHost("silent")],
        }[scenario]
        if scenario == "exhaust":
            kw.update(max_task_retries=1, task_timeout=0.3)
        try:
            runtime = SharedGraphRuntime(
                fresh_graph(), hosts=[h.addr for h in hosts], **kw
            )
            try:
                yield runtime
            finally:
                runtime.shutdown()
        finally:
            for host in hosts:
                host.join()

    def closed(self, runtime):
        return all(sock.fileno() == -1 for sock in runtime.transport.socks)


CASES = [
    pytest.param(ForkCase(), id="fork", marks=pytest.mark.skipif(
        not fork_available(), reason="requires fork start method")),
    pytest.param(TcpCase(), id="tcp"),
]


@pytest.fixture(params=CASES)
def case(request):
    return request.param


def _jobs_and_reference(count=1024, master_seed=42):
    jobs = _chunk_jobs(count, master_seed)
    graph = fresh_graph()
    return jobs, [
        _run_task(graph, "prr", seed, size, PARAMS) for _cid, seed, size in jobs
    ]


def _assert_identical(out, reference):
    assert len(out) == len(reference)
    for got, want in zip(out, reference):
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)


def _shm_orphans():
    return glob.glob(f"/dev/shm/{_SHM_PREFIX}*")


def test_mid_run_kill_is_retried_bit_identical(case):
    jobs, reference = _jobs_and_reference()
    with case.runtime("kill_one") as runtime:
        out = runtime.run("prr", jobs, PARAMS)
        health = runtime.health()
    _assert_identical(out, reference)
    assert health.restarts >= 1
    assert health.retries >= 1
    assert not health.degraded
    assert sum(s["chunks_lost"] for s in health.slots) >= 1
    assert _shm_orphans() == []


def test_losing_every_slot_degrades_to_serial(case):
    jobs, reference = _jobs_and_reference()
    with case.runtime("kill_all", max_consecutive_deaths=2) as runtime:
        out = runtime.run("prr", jobs, PARAMS)
        assert runtime.degraded and not runtime.active
        # A degraded runtime still answers, serially, bit-identical.
        again = runtime.run("prr", jobs, PARAMS)
        health = runtime.health()
    _assert_identical(out, reference)
    _assert_identical(again, reference)
    assert health.degraded
    assert health.restarts >= 1
    assert _shm_orphans() == []


def test_exhausted_retries_raise(case):
    jobs, _reference = _jobs_and_reference(512)
    with case.runtime("exhaust") as runtime:
        with pytest.raises(RuntimeError, match="retries exhausted"):
            runtime.run("prr", jobs, PARAMS)
        assert runtime._closed
    assert _shm_orphans() == []


def test_shutdown_is_idempotent_and_releases_everything(case):
    jobs, reference = _jobs_and_reference(512)
    with case.runtime("healthy") as runtime:
        _assert_identical(runtime.run("prr", jobs, PARAMS), reference)
        runtime.shutdown()
        runtime.shutdown()
        assert runtime._closed
        assert case.closed(runtime)
        with pytest.raises(RuntimeError):
            runtime.submit("prr", jobs, PARAMS)
    assert _shm_orphans() == []
