"""Wire format of the distributed sampling runtime.

Every message is one length-prefixed frame::

    <u32 header_len> <header json> <raw array bytes ...>

The header is a small JSON object carrying ``type`` plus message fields;
its ``arrays`` key is an offset-free table ``[[dtype_str, shape], ...]``
describing the raw, C-contiguous numpy buffers concatenated after it —
the same flat-array payloads :func:`repro.core.parallel._ship_result`
moves between local worker processes, reused here so a remote chunk
result is byte-for-byte the array list the local runtime would have
produced.  Numbers stay exact: seeds and sizes are plain ints (chunk
seeds are ``SeedSequence`` 32-bit words), and array payloads never round
through JSON.

Handshake: the coordinator opens with ``hello`` carrying the protocol
version, a **graph fingerprint** (``n``, ``m`` and the rounded
probability sums — the same graph component the Session fingerprint
uses) and, for store-backed graphs, a **store digest** (header bytes +
file size).  The worker refuses mismatches with an ``error`` frame, so a
stale replica or the wrong store fails loudly at connect time instead of
silently merging samples from a different graph.

Message types
-------------
``hello``        coordinator → worker: version, fingerprint, store digest
``welcome``      worker → coordinator: accepted; host capacity (workers)
``error``        worker → coordinator: handshake refused / fatal failure
``chunks``       coordinator → worker: a slice of chunk jobs to run
``result``       worker → coordinator: one chunk's flat array payload
``chunk_error``  worker → coordinator: a chunk raised (deterministic
                 failures fail fast — retrying elsewhere reproduces them)
``bye``          coordinator → worker: session over, close the connection
"""

from __future__ import annotations

import hashlib
import json
import math
import socket
import struct
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "PROTOCOL_VERSION",
    "ProtocolError",
    "send_msg",
    "recv_msg",
    "graph_fingerprint",
    "store_digest",
]

PROTOCOL_VERSION = 1

# A header is a few hundred bytes of JSON; anything larger is a corrupt
# stream (or not this protocol at all) and should fail fast rather than
# allocate unbounded buffers.
_MAX_HEADER = 1 << 20
# The raw arrays of one frame (a chunk result is at most a few MB); a
# table declaring more is corrupt and fails before any allocation.
_MAX_PAYLOAD = 1 << 30

_LEN = struct.Struct("<I")


class ProtocolError(RuntimeError):
    """A malformed frame or a handshake refusal."""


def _recv_exact(sock: socket.socket, nbytes: int) -> Optional[memoryview]:
    """Read exactly ``nbytes``; ``None`` on clean EOF at a frame start."""
    buf = bytearray(nbytes)
    view = memoryview(buf)
    got = 0
    while got < nbytes:
        read = sock.recv_into(view[got:])
        if read == 0:
            if got == 0:
                return None
            raise ProtocolError("connection closed mid-frame")
        got += read
    return memoryview(buf)


def send_msg(
    sock: socket.socket,
    header: Dict[str, Any],
    arrays: Sequence[np.ndarray] = (),
) -> None:
    """Ship one frame: ``header`` (JSON) plus raw array payloads."""
    blobs = [np.ascontiguousarray(a) for a in arrays]
    header = dict(header)
    header["arrays"] = [[a.dtype.str, list(a.shape)] for a in blobs]
    hb = json.dumps(header, separators=(",", ":")).encode("utf-8")
    parts = [_LEN.pack(len(hb)), hb]
    parts.extend(b.tobytes() for b in blobs if b.nbytes)
    sock.sendall(b"".join(parts))


def recv_msg(
    sock: socket.socket,
) -> Optional[Tuple[Dict[str, Any], List[np.ndarray]]]:
    """Read one frame; ``None`` on clean EOF between frames."""
    prefix = _recv_exact(sock, _LEN.size)
    if prefix is None:
        return None
    (hlen,) = _LEN.unpack(prefix)
    if not 0 < hlen <= _MAX_HEADER:
        raise ProtocolError(f"implausible header length {hlen}")
    raw = _recv_exact(sock, hlen)
    if raw is None:
        raise ProtocolError("connection closed mid-frame")
    try:
        header = json.loads(bytes(raw).decode("utf-8"))
    except ValueError as exc:
        raise ProtocolError(f"undecodable header: {exc}") from exc
    if not isinstance(header, dict):
        raise ProtocolError(f"header is a {type(header).__name__}, not an object")
    table = header.get("arrays", [])
    if not isinstance(table, list):
        raise ProtocolError(f"malformed arrays table: {table!r:.80}")
    specs = [_array_spec(entry) for entry in table]
    total = sum(math.prod(shape) * dt.itemsize for dt, shape in specs)
    if total > _MAX_PAYLOAD:
        raise ProtocolError(f"declared payload of {total} bytes exceeds the cap")
    arrays: List[np.ndarray] = []
    for dt, shape in specs:
        nbytes = math.prod(shape) * dt.itemsize
        if nbytes:
            payload = _recv_exact(sock, nbytes)
            if payload is None:
                raise ProtocolError("connection closed mid-frame")
            arr = np.frombuffer(bytes(payload), dtype=dt).reshape(shape)
        else:
            arr = np.empty(shape, dtype=dt)
        arrays.append(arr)
    return header, arrays


def _array_spec(entry) -> Tuple[np.dtype, Tuple[int, ...]]:
    """Validate one ``[dtype_str, shape]`` entry of the arrays table."""
    if not isinstance(entry, list) or len(entry) != 2:
        raise ProtocolError(f"malformed arrays entry: {entry!r:.80}")
    dtype_str, shape = entry
    try:
        dt = np.dtype(dtype_str)
    except Exception as exc:  # numpy raises TypeError, ValueError, ...
        raise ProtocolError(f"bad dtype {dtype_str!r:.40}") from exc
    if dt.kind not in "biufc":  # plain numbers only: no objects, no records
        raise ProtocolError(f"bad dtype {dtype_str!r:.40}")
    if not isinstance(shape, list) or not all(
        type(dim) is int and dim >= 0 for dim in shape
    ):
        raise ProtocolError(f"bad shape {shape!r:.80}")
    return dt, tuple(shape)


def graph_fingerprint(graph) -> Dict[str, float]:
    """The handshake identity of a graph: shape plus probability sums.

    Matches the graph component of the Session fingerprint (same 9-digit
    rounding), so two replicas agree iff they would stamp the same
    reproducibility fingerprint on results.
    """
    _src, _dst, p, pp = graph.edge_arrays()
    return {
        "n": int(graph.n),
        "m": int(graph.m),
        "p_sum": round(float(np.sum(p)), 9),
        "pp_sum": round(float(np.sum(pp)), 9),
    }


def store_digest(path) -> str:
    """A cheap identity digest of a graph store file.

    Hashes the full serialized header (magic, array table, meta — which
    embeds the ingest provenance) plus the file size.  Two stores with
    equal digests were written from the same ingest; payload corruption
    is the store checksum's job (``repro.storage.open_store(validate=)``),
    not the handshake's.
    """
    import os

    from ..storage.format import read_header

    path = str(path)
    file_size = os.path.getsize(path)
    with open(path, "rb") as fh:
        prefix = fh.read(1 << 16)
    header = read_header(path, file_size, prefix)
    with open(path, "rb") as fh:
        raw = fh.read(header.data_start)
    digest = hashlib.sha256(raw)
    digest.update(str(file_size).encode())
    return digest.hexdigest()


def publishable_store(graph) -> Optional[str]:
    """The store path remote hosts could open for ``graph``, if any
    (pristine store-backed graphs only — same rule as the local pool's
    by-path publication)."""
    from ..core.parallel import _publishable_store_path

    return _publishable_store_path(graph)
