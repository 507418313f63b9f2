"""TCP transport of the chunk scheduler.

:class:`HostTransport` is what
:class:`~repro.core.parallel.SharedGraphRuntime` runs on when it is
given ``hosts``: one slot per ``repro dist-worker`` host, reached over
the :mod:`repro.dist.protocol` frames.  It only moves bytes — connect
and handshake, send chunk assignments, turn every frame a host sends
(or fails to send) into a scheduler event.  Tags, windows, retries,
degradation and health all live in the scheduler.
"""

from __future__ import annotations

import queue
import socket
import threading
import time
from typing import List, Sequence, Tuple, Union

from .protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    graph_fingerprint,
    publishable_store,
    recv_msg,
    send_msg,
    store_digest,
)

__all__ = ["HostTransport", "parse_hosts"]

# Handshake must complete within this; after it, reads block until the
# host answers or the connection drops (liveness is EOF-driven, bounded
# by the OS keepalive/connection teardown).
_HANDSHAKE_TIMEOUT = 10.0

HostSpec = Union[str, Tuple[str, int]]


def parse_hosts(hosts: Union[str, Sequence[HostSpec]]) -> List[Tuple[str, int]]:
    """Normalize ``"h1:p1,h2:p2"`` / ``["h:p", (h, p)]`` to (host, port)
    pairs."""
    if isinstance(hosts, str):
        hosts = [h for h in hosts.split(",") if h.strip()]
    out: List[Tuple[str, int]] = []
    for spec in hosts:
        if isinstance(spec, str):
            host, _sep, port = spec.rpartition(":")
            if not host:
                raise ValueError(f"host spec {spec!r} is not host:port")
            out.append((host.strip(), int(port)))
        else:
            host, port = spec
            out.append((str(host), int(port)))
    if not out:
        raise ValueError("no worker hosts given")
    return out


def _connect(addr: Tuple[str, int], hello: dict) -> Tuple[socket.socket, int]:
    """Open and handshake one host; returns the socket and its capacity."""
    label = f"{addr[0]}:{addr[1]}"
    sock = socket.create_connection(addr, timeout=_HANDSHAKE_TIMEOUT)
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        send_msg(sock, hello)
        msg = recv_msg(sock)
        if msg is None:
            raise ProtocolError(f"{label} closed during handshake")
        header, _arrays = msg
        if header.get("type") == "error":
            raise ProtocolError(f"{label} refused: {header.get('detail')}")
        if header.get("type") != "welcome":
            raise ProtocolError(
                f"{label} sent {header.get('type')!r} instead of welcome"
            )
        sock.settimeout(None)
        return sock, max(1, int(header.get("workers", 1)))
    except BaseException:
        sock.close()
        raise


class HostTransport:
    """Worker hosts over TCP, one slot per host.

    Construction connects to every host and checks its replica (graph
    fingerprint, store digest) — a refusal raises here, not mid-query.
    A reader thread per host turns its frames into events for
    :meth:`poll`; *any* exception while reading — a dropped connection,
    a malformed frame — reports the host lost.  Hosts are not
    respawned.
    """

    respawnable = False
    publication = "hosts"

    def __init__(self, graph, hosts: Union[str, Sequence[HostSpec]]) -> None:
        store = publishable_store(graph)
        hello = {
            "type": "hello",
            "protocol": PROTOCOL_VERSION,
            "fingerprint": graph_fingerprint(graph),
            "store_digest": store_digest(store) if store else None,
        }
        self.socks: List[socket.socket] = []
        # (label, capacity, window): enough chunks in flight to keep
        # every remote core busy plus a margin that hides a round trip.
        self.slots: List[Tuple[str, int, int]] = []
        try:
            for addr in parse_hosts(hosts):
                sock, workers = _connect(addr, hello)
                self.socks.append(sock)
                self.slots.append(
                    (f"{addr[0]}:{addr[1]}", workers, 2 * workers + 2)
                )
        except BaseException:
            for sock in self.socks:
                sock.close()
            raise
        self._send_locks = [threading.Lock() for _ in self.socks]
        self._events: queue.Queue = queue.Queue()
        self._readers = [
            threading.Thread(
                target=self._read, args=(slot,),
                name=f"repro-host-{label}", daemon=True,
            )
            for slot, (label, _workers, _window) in enumerate(self.slots)
        ]
        for reader in self._readers:
            reader.start()

    def _read(self, slot: int) -> None:
        """Turn one host's frames into events until it drops."""
        why = "connection closed"
        try:
            while True:
                msg = recv_msg(self.socks[slot])
                if msg is None:
                    break
                header, arrays = msg
                mtype = header.get("type")
                if mtype not in ("result", "chunk_error"):
                    why = f"unexpected {mtype!r} frame"
                    break
                task_id = (int(header["tag"]), int(header["cid"]))
                if mtype == "result":
                    self._events.put(("res", slot, task_id, arrays))
                else:
                    self._events.put(("err", slot, task_id, header.get("detail")))
        except Exception as exc:  # any fault from a host is a lost host
            why = f"{type(exc).__name__}: {exc}"
        self._events.put(("lost", slot, why))

    def send(self, slot: int, tasks: Sequence[tuple]) -> None:
        """Assign ``tasks`` to one host: a ``chunks`` frame per tag."""
        by_tag: dict = {}
        for task in tasks:
            by_tag.setdefault(task[0][0], []).append(task)
        with self._send_locks[slot]:
            for tag, group in by_tag.items():
                _task_id, kind, _seed, _size, params = group[0]
                send_msg(self.socks[slot], {
                    "type": "chunks",
                    "tag": tag,
                    "kind": kind,
                    "params": list(params),
                    "jobs": [[task_id[1], seed, size]
                             for task_id, _k, seed, size, _p in group],
                })

    def poll(self, timeout: float):
        """The next event, or ``None`` after ``timeout`` seconds."""
        try:
            return self._events.get(timeout=timeout)
        except queue.Empty:
            return None

    def close(self, deadline: float) -> None:
        """Say ``bye`` to every host, then close every connection."""
        for sock, lock in zip(self.socks, self._send_locks):
            if lock.acquire(timeout=0.5):
                try:
                    send_msg(sock, {"type": "bye"})
                except OSError:
                    pass
                finally:
                    lock.release()
            try:
                sock.shutdown(socket.SHUT_RDWR)  # wakes a blocked reader
            except OSError:
                pass
            sock.close()
        for reader in self._readers:
            reader.join(timeout=max(deadline - time.monotonic(), 0.1))
