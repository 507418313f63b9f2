"""Tests for the TCP transport of the chunk scheduler (:mod:`repro.dist`).

The contracts under test:

* **protocol** — frames round-trip raw arrays exactly; EOF between
  frames is a clean ``None``; every malformed frame raises
  :class:`ProtocolError`, on both ends of the wire,
* **handshake** — a worker serving a different graph refuses the
  coordinator at connect time,
* **determinism** — every merged payload is bit-identical to the local
  chunked path, for 1 and 2 hosts, after a mid-run host kill, and after
  full degradation to the local fallback,
* **supervision** — host loss re-assigns chunks (bounded), health
  reports per-host counters, all-hosts-lost degrades instead of failing
  (the transport-independent cases run on both transports in
  ``test_supervision.py``),
* **session wiring** — ``Session(hosts=...)`` envelopes match a local
  ``workers>1`` session; admission prices the remote capacity.

Worker hosts run as in-process threads (``dist_hosts``) so the suite
needs no subprocess spawning; the CLI entry point is exercised separately in
``test_cli.py``-style via ``bench_dist --smoke`` in CI.
"""

import socket
import threading

import numpy as np
import pytest

from dist_hosts import FakeHost, WorkerHost, fresh_graph
from repro.api import (
    AdmissionPolicy,
    BoostQuery,
    SamplingBudget,
    SeedQuery,
    Session,
    estimate_cost,
)
from repro.core import parallel
from repro.core.parallel import SharedGraphRuntime, _chunk_jobs, _run_task
from repro.dist import parse_hosts, serve_worker
from repro.dist.protocol import (
    _LEN,
    PROTOCOL_VERSION,
    ProtocolError,
    recv_msg,
    send_msg,
)


@pytest.fixture()
def two_hosts():
    hosts = [WorkerHost(), WorkerHost()]
    yield hosts
    for h in hosts:
        h.join()


@pytest.fixture()
def graph():
    return fresh_graph()


def local_reference(graph, kind, count, seed, **kw):
    if kind == "rr":
        return parallel.parallel_rr_csr(graph, count, seed, workers=1)
    if kind == "prr":
        return parallel.parallel_prr_collection(
            graph, kw["seeds"], kw["k"], count, seed, workers=1
        ).payload()
    if kind == "critical":
        return parallel.parallel_critical_csr(
            graph, frozenset(kw["seeds"]), count, seed, workers=1
        )
    raise AssertionError(kind)


class TestProtocol:
    def test_frame_round_trip(self):
        a, b = socket.socketpair()
        try:
            arrays = [
                np.arange(10, dtype=np.int64),
                np.zeros((2, 3), dtype=np.float32),
                np.empty(0, dtype=np.int32),
            ]
            send_msg(a, {"type": "result", "tag": 3, "cid": 9}, arrays)
            header, got = recv_msg(b)
            assert header["type"] == "result"
            assert header["tag"] == 3 and header["cid"] == 9
            assert len(got) == len(arrays)
            for sent, received in zip(arrays, got):
                assert sent.dtype == received.dtype
                assert sent.shape == received.shape
                assert np.array_equal(sent, received)
        finally:
            a.close()
            b.close()

    def test_eof_between_frames_is_none(self):
        a, b = socket.socketpair()
        try:
            send_msg(a, {"type": "bye"})
            a.close()
            assert recv_msg(b)[0]["type"] == "bye"
            assert recv_msg(b) is None
        finally:
            b.close()

    def test_truncated_frame_raises(self):
        a, b = socket.socketpair()
        try:
            a.sendall(b"\x40\x00\x00\x00{\"type\"")  # promises 64 bytes
            a.close()
            with pytest.raises(ProtocolError):
                recv_msg(b)
        finally:
            b.close()

    def test_parse_hosts(self):
        assert parse_hosts("a:1, b:2") == [("a", 1), ("b", 2)]
        assert parse_hosts([("c", 3), "d:4"]) == [("c", 3), ("d", 4)]
        with pytest.raises(ValueError):
            parse_hosts("")
        with pytest.raises(ValueError):
            parse_hosts(["noport"])


def _frame(header_bytes, payload=b""):
    return _LEN.pack(len(header_bytes)) + header_bytes + payload


class TestMalformedFrames:
    """Every malformed frame is a :class:`ProtocolError` — never an
    ``AttributeError`` from a reader thread that then dies silently."""

    @pytest.mark.parametrize("header", [
        b"[]",                                       # not an object
        b'"text"',
        b'{"type": "result", "arrays": {}}',         # table not a list
        b'{"type": "result", "arrays": [["<i8"]]}',  # entry not a pair
        b'{"type": "result", "arrays": [["<i8", [-1]]]}',
        b'{"type": "result", "arrays": [["<i8", [2.5]]]}',
        b'{"type": "result", "arrays": [["<i8", 3]]}',
        b'{"type": "result", "arrays": [["zz", [1]]]}',
        b'{"type": "result", "arrays": [["|O", [1]]]}',
        b'{"type": "result", "arrays": [["<i8", [1099511627776]]]}',
        b"\xff\xfe",                                # not UTF-8 JSON
    ])
    def test_raises_protocol_error(self, header):
        a, b = socket.socketpair()
        try:
            a.sendall(_frame(header))
            with pytest.raises(ProtocolError):
                recv_msg(b)
        finally:
            a.close()
            b.close()

    def test_garbage_from_host_is_a_lost_host(self, graph):
        """A host that answers with a ``[]`` header is dropped; with no
        host left the gatherer finishes serially, bit-identical."""
        host = FakeHost("garbage")
        jobs = _chunk_jobs(1024, 42)
        want = [_run_task(graph, "rr", seed, size, ()) for _c, seed, size in jobs]
        rt = SharedGraphRuntime(graph, hosts=[host.addr])
        out = []
        runner = threading.Thread(
            target=lambda: out.append(rt.run("rr", jobs, ())), daemon=True
        )
        try:
            runner.start()
            runner.join(timeout=30.0)
            assert not runner.is_alive(), "run() hung on a malformed frame"
            health = rt.health()
        finally:
            rt.shutdown()
            host.join()
        assert host.got_chunks.is_set()
        assert health.restarts == 1 and health.degraded
        assert health.slots[0]["alive"] is False
        for got, ref in zip(out[0], want):
            for g, w in zip(got, ref):
                assert np.array_equal(g, w)

    def test_worker_survives_malformed_coordinator_frame(self, graph):
        host = WorkerHost()
        try:
            sock = socket.create_connection(
                ("127.0.0.1", int(host.addr.rsplit(":", 1)[1]))
            )
            with sock:
                send_msg(sock, {"type": "hello", "protocol": PROTOCOL_VERSION})
                assert recv_msg(sock)[0]["type"] == "welcome"
                sock.sendall(_frame(b"[]"))
                assert recv_msg(sock) is None  # session over, cleanly
            # ... and the next coordinator is served as usual.
            rt = SharedGraphRuntime(graph, hosts=[host.addr])
            try:
                jobs = _chunk_jobs(512, 3)
                got = rt.run("rr", jobs, ())
            finally:
                rt.shutdown()
        finally:
            host.join()
        for arrays, (_cid, seed, size) in zip(got, jobs):
            for g, w in zip(arrays, _run_task(graph, "rr", seed, size, ())):
                assert np.array_equal(g, w)


class TestHandshake:
    def test_mismatched_graph_is_refused(self, graph):
        other = WorkerHost(seed=99)  # different probabilities
        try:
            with pytest.raises(ProtocolError, match="fingerprint mismatch"):
                SharedGraphRuntime(graph, hosts=[other.addr])
        finally:
            other.join()

    def test_connect_refused_raises(self, graph):
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))  # bound but never listening/accepting
        port = sock.getsockname()[1]
        sock.close()
        with pytest.raises(OSError):
            SharedGraphRuntime(graph, hosts=[f"127.0.0.1:{port}"])


class TestDeterministicMerge:
    @pytest.mark.parametrize("host_count", [1, 2])
    def test_rr_identity_across_host_counts(self, graph, two_hosts,
                                            host_count):
        addrs = [h.addr for h in two_hosts[:host_count]]
        parallel.get_runtime(graph, hosts=addrs)
        try:
            got = parallel.parallel_rr_csr(graph, 1024, 42)
        finally:
            parallel.shutdown_runtime_for(graph)
        want = local_reference(fresh_graph(), "rr", 1024, 42)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    def test_prr_and_critical_identity(self, graph, two_hosts):
        parallel.get_runtime(graph, hosts=[h.addr for h in two_hosts])
        try:
            prr = parallel.parallel_prr_collection(
                graph, {1, 2, 3}, 5, 600, 17
            ).payload()
            crit = parallel.parallel_critical_csr(
                graph, frozenset({1, 2, 3}), 600, 23
            )
        finally:
            parallel.shutdown_runtime_for(graph)
        ref = fresh_graph()
        for g, w in zip(prr, local_reference(ref, "prr", 600, 17,
                                             seeds={1, 2, 3}, k=5)):
            assert np.array_equal(g, w)
        for g, w in zip(crit, local_reference(ref, "critical", 600, 23,
                                              seeds={1, 2, 3})):
            assert np.array_equal(g, w)

    def test_chunks_spread_across_hosts(self, graph, two_hosts):
        rt = parallel.get_runtime(graph, hosts=[h.addr for h in two_hosts])
        try:
            parallel.parallel_rr_csr(graph, 4096, 7)
            done = [s["chunks_done"] for s in rt.health().to_dict()["slots"]]
        finally:
            parallel.shutdown_runtime_for(graph)
        assert sum(done) == 16
        assert all(d > 0 for d in done), f"one host sat idle: {done}"


class TestSupervision:
    def test_mid_run_host_kill_keeps_identity(self, graph, two_hosts):
        rt = parallel.get_runtime(graph, hosts=[h.addr for h in two_hosts])
        try:
            killer = threading.Timer(0.02, two_hosts[1].kill)
            killer.start()
            got = parallel.parallel_rr_csr(graph, 8192, 123)
            health = rt.health()
        finally:
            parallel.shutdown_runtime_for(graph)
        want = local_reference(fresh_graph(), "rr", 8192, 123)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
        assert health.workers_alive < health.workers
        assert health.restarts >= 1  # host losses
        assert not health.degraded

    def test_all_hosts_lost_degrades_to_local(self, graph):
        host = WorkerHost()
        rt = parallel.get_runtime(graph, hosts=[host.addr])
        try:
            killer = threading.Timer(0.02, host.kill)
            killer.start()
            got = parallel.parallel_rr_csr(graph, 8192, 321)
            assert rt.degraded
            assert not rt.active
            # Later dispatches bypass the dead runtime entirely.
            later = parallel.parallel_rr_csr(graph, 1024, 5)
        finally:
            parallel.shutdown_runtime_for(graph)
            host.join()
        ref = fresh_graph()
        for g, w in zip(got, local_reference(ref, "rr", 8192, 321)):
            assert np.array_equal(g, w)
        for g, w in zip(later, local_reference(ref, "rr", 1024, 5)):
            assert np.array_equal(g, w)

    def test_health_reports_per_host_counters(self, graph, two_hosts):
        rt = SharedGraphRuntime(graph, hosts=[h.addr for h in two_hosts])
        try:
            health = rt.health().to_dict()
            assert health["workers"] == 2
            assert [s["alive"] for s in health["slots"]] == [True, True]
            assert {s["slot"] for s in health["slots"]} == {
                h.addr for h in two_hosts
            }
        finally:
            rt.shutdown()

    def test_shutdown_is_idempotent(self, graph, two_hosts):
        rt = SharedGraphRuntime(graph, hosts=[h.addr for h in two_hosts])
        rt.shutdown()
        rt.shutdown()
        with pytest.raises(RuntimeError):
            rt.submit("rr", [(0, 1, 8), (1, 2, 8)], ())


class TestSessionHosts:
    BUDGET = SamplingBudget(max_samples=600, mc_runs=50)

    def queries(self, workers=None):
        budget = SamplingBudget(max_samples=600, mc_runs=50,
                                workers=workers)
        return [
            SeedQuery(algorithm="imm", k=4, rng_seed=11, budget=budget),
            BoostQuery(algorithm="prr_boost", seeds=[1, 2, 3], k=4,
                       rng_seed=13, budget=budget),
        ]

    def test_envelopes_match_local_chunked_session(self, two_hosts):
        graph = fresh_graph()
        with Session(graph, hosts=",".join(h.addr for h in two_hosts)) as s:
            dist_results = [s.run(q) for q in self.queries()]
            health = s.runtime_health()
            assert health is not None
            assert [slot["slot"] for slot in health.slots] == [
                h.addr for h in two_hosts
            ]
            assert s.effective_parallelism() == 2
        with Session(fresh_graph()) as s:
            local_results = [s.run(q) for q in self.queries(workers=2)]
        for d, l in zip(dist_results, local_results):
            assert d.selected == l.selected
            assert d.estimates == l.estimates
            assert d.fingerprint == l.fingerprint

    def test_close_unbinds_and_shuts_down(self, two_hosts):
        graph = fresh_graph()
        session = Session(graph, hosts=[h.addr for h in two_hosts])
        rt = session._hosts_runtime
        session.close()
        assert not parallel.runtime_is_alive(graph)
        assert rt._closed

    def test_bound_graph_cannot_also_serve(self, two_hosts):
        """A graph bound to a hosts runtime would send its chunks back
        over the wire if this process served it too."""
        graph = fresh_graph()
        with Session(graph, hosts=[two_hosts[0].addr]):
            with pytest.raises(ValueError, match="bound to a hosts runtime"):
                serve_worker(graph, port=0, max_sessions=0)

    def test_admission_prices_remote_capacity(self, two_hosts):
        graph = fresh_graph()
        query = SeedQuery(algorithm="imm", k=4, rng_seed=1,
                          budget=SamplingBudget(max_samples=5000))
        with Session(fresh_graph()) as serial:
            serial_units = estimate_cost(serial, query).units
        with Session(graph, hosts=[h.addr for h in two_hosts]) as s:
            dist_units = estimate_cost(s, query).units
            # 2 single-worker hosts halve the sampling price.
            assert dist_units == pytest.approx(serial_units / 2.0)
            policy = AdmissionPolicy(reject_units=serial_units * 0.75)
            assert policy.decide(s, query).action == "admit"

    def test_dist_session_cache_key_matches_chunked_stream(self, two_hosts):
        from repro.api import ResultCache

        graph = fresh_graph()
        query = self.queries()[0]
        with Session(graph, hosts=[h.addr for h in two_hosts],
                     cache=ResultCache()) as s:
            key = s._cache_key(query)
        assert key is not None
        assert key[-1] == 2  # keyed as the chunked (workers>1) stream
