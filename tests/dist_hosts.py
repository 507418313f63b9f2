"""Worker hosts for the TCP-transport tests, all in-process threads.

* :class:`WorkerHost` — a real :func:`repro.dist.serve_worker` on an
  ephemeral port, serving its own replica of :func:`fresh_graph`,
* :class:`FakeHost` — a scripted host that handshakes like ``repro
  dist-worker`` and then misbehaves once it holds chunks, so every host
  fault is reproducible without timers.
"""

import socket
import threading
import time

import numpy as np

from repro.dist import serve_worker
from repro.dist.protocol import _LEN, PROTOCOL_VERSION, recv_msg, send_msg
from repro.graphs import learned_like, preferential_attachment


def fresh_graph(seed=17, n=150):
    rng = np.random.default_rng(seed)
    return learned_like(preferential_attachment(n, 3, rng), rng, 0.2)


class WorkerHost:
    """An in-process worker host with its own graph replica."""

    def __init__(self, seed=17, workers=1):
        self.graph = fresh_graph(seed=seed)
        self.stop = threading.Event()
        infos = []
        self.thread = threading.Thread(
            target=serve_worker,
            args=(self.graph,),
            kwargs=dict(port=0, workers=workers, ready=infos.append,
                        stop=self.stop),
            daemon=True,
        )
        self.thread.start()
        deadline = time.time() + 10.0
        while not infos and time.time() < deadline:
            time.sleep(0.01)
        assert infos, "worker never came up"
        self.addr = f"127.0.0.1:{infos[0]['port']}"

    def kill(self):
        self.stop.set()

    def join(self):
        self.stop.set()
        self.thread.join(timeout=5.0)


class FakeHost:
    """A host that accepts one coordinator and fails on its first chunks.

    ``mode`` is what it does with the first ``chunks`` frame:

    * ``"die"`` — drops the connection unanswered (a host killed while
      it owns chunks),
    * ``"silent"`` — keeps every assignment and never answers (a wedged
      host that stays connected),
    * ``"garbage"`` — answers with a frame whose header is ``[]``.
    """

    def __init__(self, mode):
        self.mode = mode
        self.got_chunks = threading.Event()
        self._server = socket.create_server(("127.0.0.1", 0))
        self._server.settimeout(10.0)
        self.addr = f"127.0.0.1:{self._server.getsockname()[1]}"
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        try:
            conn, _addr = self._server.accept()
        except OSError:
            return
        with conn:
            try:
                recv_msg(conn)  # hello: any replica is accepted
                send_msg(conn, {"type": "welcome",
                                "protocol": PROTOCOL_VERSION, "workers": 1})
                while True:
                    msg = recv_msg(conn)
                    if msg is None or msg[0].get("type") != "chunks":
                        return
                    if not self.got_chunks.is_set():
                        self.got_chunks.set()
                        if self.mode == "die":
                            return
                        if self.mode == "garbage":
                            conn.sendall(_LEN.pack(2) + b"[]")
            except OSError:
                return

    def join(self):
        self._server.close()
        self._thread.join(timeout=5.0)
