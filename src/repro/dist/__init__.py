"""Multi-host sampling: the TCP transport of the chunk scheduler.

:class:`~repro.core.parallel.SharedGraphRuntime` schedules sample chunks
over forked workers or, given ``hosts``, over worker *hosts* — lifting
the single-host ceiling of local cores and one machine's page cache.
This package holds only the host side and the wire; the scheduler
(tags, windows, retries, degradation, health) is the local one:

* :mod:`repro.dist.protocol` — the length-prefixed binary wire format:
  handshake with graph fingerprint + store digest, chunk assignment,
  raw-array result frames (the same flat payloads the fork transport
  ships between processes),
* :mod:`repro.dist.transport` — :class:`HostTransport`, the
  coordinator's connection to every host, and :func:`parse_hosts`,
* :mod:`repro.dist.worker` — the host-side server (``repro
  dist-worker --graph-store ...``): opens the replicated graph store
  locally (mmap, zero warm-up via the persisted engine precompute) and
  runs assigned chunks through its own local runtime.

The determinism contract is the same ``(count, master_seed)`` purity the
local runtime guarantees: every chunk is a pure function of its
``(chunk_id, seed)`` and the gatherer restores submission order, so
results are bit-identical to the serial and single-host paths regardless
of host count, chunk interleaving, or which host computed what.
"""

from .protocol import graph_fingerprint, store_digest
from .transport import HostTransport, parse_hosts
from .worker import serve_worker

__all__ = [
    "HostTransport",
    "parse_hosts",
    "graph_fingerprint",
    "store_digest",
    "serve_worker",
]
