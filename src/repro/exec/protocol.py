"""The wire protocol of distributed execution: framed, digested messages.

The ``remote`` backend (:mod:`repro.exec.remote`) runs the map rounds of
a sharded fit on workers connected over TCP. Everything that crosses a
socket goes through this module, and the format deliberately reuses the
spill idiom of PR 5 (:mod:`repro.exec.spill`): arrays travel as raw
``.npy`` byte strings — the same self-describing dtype/shape header
``np.save`` writes to a spill directory — and each message carries a
JSON manifest describing them. A message on the wire is one **frame**::

    u64 big-endian payload length | payload

and the payload is::

    u32 big-endian header length | UTF-8 JSON header | blob

where the blob is the concatenation of the ``.npy`` serializations of
the message's arrays, and the header holds

* ``kind`` — the message type (``hello`` / ``welcome`` / ``task`` /
  ``result`` / ``stop``),
* arbitrary JSON metadata (round, shard and attempt numbers, the model
  config, ...),
* ``segments`` — a table of ``{name, offset, length}`` entries locating
  each array inside the blob,
* ``blob_sha256`` — the SHA-256 of the blob.

The digest is verified on every receive: a frame whose blob does not
hash to its header's digest raises :class:`ProtocolError`, and the
receiver must treat the **connection** as corrupt — once one frame is
bad, the stream offsets that frame the next read on cannot be trusted
either, so the remote session drops the connection and re-dispatches
(the same recovery path as a dead worker). Short reads (a peer that
died mid-frame) and oversized length prefixes (a peer that is not
speaking this protocol) raise :class:`ProtocolError` too.

Only JSON and ``.npy`` bytes cross the wire — never pickle — so a
coordinator and a worker need not share a code version to fail safely.
"""

from __future__ import annotations

import hashlib
import io
import json
import socket
import struct

import numpy as np

#: Frame length prefix (u64 BE) and header length prefix (u32 BE).
_FRAME_PREFIX = struct.Struct(">Q")
_HEADER_PREFIX = struct.Struct(">I")

#: Upper bound on an accepted payload: a length prefix beyond this is a
#: peer that is not speaking the protocol (or a corrupted stream), not a
#: plausible shard packet.
MAX_PAYLOAD_BYTES = 1 << 40


class ProtocolError(ConnectionError):
    """A malformed, truncated, or digest-mismatched protocol frame.

    Subclasses ``ConnectionError`` deliberately: after any framing
    error the stream position is untrustworthy, so the only safe
    recovery is to drop the connection — callers handle this alongside
    a peer that died.
    """


def encode_message(
    kind: str,
    meta: dict | None = None,
    arrays: dict[str, np.ndarray] | None = None,
) -> bytes:
    """Serialize one message to its payload bytes (unframed).

    ``arrays`` values must be numpy arrays (memory-mapped views are
    fine; ``np.save`` copies the values out). ``meta`` must be
    JSON-serializable and must not use the reserved keys ``kind``,
    ``segments``, ``blob_sha256``.
    """
    segments = []
    blob = io.BytesIO()
    for name, array in (arrays or {}).items():
        offset = blob.tell()
        np.save(blob, np.ascontiguousarray(array), allow_pickle=False)
        segments.append(
            {"name": name, "offset": offset, "length": blob.tell() - offset}
        )
    blob_bytes = blob.getvalue()
    header = dict(meta or {})
    header["kind"] = kind
    header["segments"] = segments
    header["blob_sha256"] = hashlib.sha256(blob_bytes).hexdigest()
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    return _HEADER_PREFIX.pack(len(header_bytes)) + header_bytes + blob_bytes


def decode_message(payload: bytes) -> tuple[str, dict, dict[str, np.ndarray]]:
    """Inverse of :func:`encode_message`: ``(kind, meta, arrays)``.

    Verifies the blob digest before decoding any array; a mismatch (or
    any structural defect: a header that is not a JSON object with a
    ``str`` kind, a list of segments and a ``str`` digest) raises
    :class:`ProtocolError`, and nothing else does.
    """
    if len(payload) < _HEADER_PREFIX.size:
        raise ProtocolError(
            f"truncated protocol payload ({len(payload)} bytes)"
        )
    (header_len,) = _HEADER_PREFIX.unpack_from(payload)
    header_end = _HEADER_PREFIX.size + header_len
    if header_end > len(payload):
        raise ProtocolError(
            f"protocol header length {header_len} exceeds payload "
            f"({len(payload)} bytes)"
        )
    try:
        header = json.loads(payload[_HEADER_PREFIX.size : header_end])
        kind = header.pop("kind")
        segments = header.pop("segments")
        expected_digest = header.pop("blob_sha256")
        if (type(kind), type(segments), type(expected_digest)) != (
            str, list, str
        ):
            raise TypeError("a kind, segments or digest of the wrong type")
    except (
        ValueError, RecursionError, KeyError, TypeError, AttributeError
    ) as err:  # bad JSON or UTF-8, deep nesting, not a well-formed object
        raise ProtocolError(f"malformed protocol header: {err!r}") from err
    blob = payload[header_end:]
    actual_digest = hashlib.sha256(blob).hexdigest()
    if actual_digest != expected_digest:
        raise ProtocolError(
            f"protocol blob digest mismatch in {kind!r} message: "
            f"expected sha256 {expected_digest[:16]}..., got "
            f"{actual_digest[:16]}... — the connection is corrupt"
        )
    arrays: dict[str, np.ndarray] = {}
    try:
        for segment in segments:
            chunk = blob[
                segment["offset"] : segment["offset"] + segment["length"]
            ]
            arrays[segment["name"]] = np.lib.format.read_array(
                io.BytesIO(chunk), allow_pickle=False
            )
    except (ValueError, KeyError, TypeError, OSError) as err:
        raise ProtocolError(
            f"malformed array segment in {kind!r} message: {err}"
        ) from err
    return kind, header, arrays


def send_frame(sock: socket.socket, payload: bytes) -> None:
    """Write one length-prefixed frame (a single ``sendall``)."""
    sock.sendall(_FRAME_PREFIX.pack(len(payload)) + payload)


def recv_frame(sock: socket.socket) -> bytes:
    """Read one length-prefixed frame; raises :class:`ProtocolError` on
    a short read (peer died mid-frame) or an implausible length prefix.
    A clean EOF before any prefix byte raises ``EOFError`` — the normal
    end of a connection, distinct from a torn frame."""
    prefix = _recv_exact(sock, _FRAME_PREFIX.size, at_message_boundary=True)
    (length,) = _FRAME_PREFIX.unpack(prefix)
    if length > MAX_PAYLOAD_BYTES:
        raise ProtocolError(
            f"implausible protocol frame length {length}; the peer is "
            "not speaking the kbt remote protocol"
        )
    return _recv_exact(sock, length, at_message_boundary=False)


def send_message(
    sock: socket.socket,
    kind: str,
    meta: dict | None = None,
    arrays: dict[str, np.ndarray] | None = None,
) -> None:
    """``encode_message`` + ``send_frame`` in one call."""
    send_frame(sock, encode_message(kind, meta, arrays))


def recv_message(
    sock: socket.socket,
) -> tuple[str, dict, dict[str, np.ndarray]]:
    """``recv_frame`` + ``decode_message`` in one call."""
    return decode_message(recv_frame(sock))


def _recv_exact(
    sock: socket.socket, length: int, at_message_boundary: bool
) -> bytes:
    chunks = []
    remaining = length
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            if at_message_boundary and remaining == length:
                raise EOFError("connection closed")
            raise ProtocolError(
                f"connection closed mid-frame ({length - remaining} of "
                f"{length} bytes read)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


__all__ = [
    "MAX_PAYLOAD_BYTES",
    "ProtocolError",
    "decode_message",
    "encode_message",
    "recv_frame",
    "recv_message",
    "send_frame",
    "send_message",
]
