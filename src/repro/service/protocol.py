"""The framed wire protocol of the storage service.

Frame layout (everything big-endian)::

    +----------------+-----------+----------------------+
    | length (4 B)   | type (1B) | body (length-1 bytes)|
    +----------------+-----------+----------------------+

``length`` covers the type byte plus the body, so an empty-bodied frame
has ``length == 1``. Frames larger than the receiver's ``max_frame``
are a protocol error. Message *bodies* reuse the byte formats the rest
of the library already defines — :meth:`repro.system.records.
StoredRecord.to_bytes`, :mod:`repro.core.serialize`, … — so the service
adds framing, not a second serialization layer.

A session starts with a version-negotiating ``HELLO``/``HELLO_ACK``
exchange (the client offers its supported protocol versions and its
pairing preset; the server picks the highest common version and
confirms the preset). Failures travel as typed ``ERROR`` frames whose
``code`` maps back to the library's exception hierarchy on the client.
The handshake frames — HELLO, HELLO_ACK and a handshake ERROR — are
the only unsequenced frames.

Protocol **version 2**, the only version, adds the fault-tolerance
layer:

* every post-hello frame carries a 4-byte big-endian **sequence
  number** right after the type byte; the server echoes the request's
  sequence number on its reply, so a client can discard late or
  duplicated replies instead of consuming them as the answer to
  another request;
* mutating requests (:data:`MUTATION_TYPES`) wrap their body in an
  **idempotency envelope** — a client-generated key the server uses to
  deduplicate retried mutations, so a retry across a reconnect is
  applied exactly once.

Because every post-hello frame is self-describing — ``(type, seq,
body)`` with the reply echoing its request's seq — the protocol
supports **pipelining** without any wire change: a peer may send many
requests before reading any reply, and replies may arrive in *any*
order (a server running requests concurrently answers cheap ops while
an expensive one is still in flight). Correlation is purely by
sequence number; :data:`SEQ_BROADCAST` marks a reply that answers no
particular request (e.g. an ERROR for an unparseable frame) and is
terminal for every exchange on the connection.

The cluster fabric (:mod:`repro.cluster`) adds two ops:
``RECORD_DIGEST`` asks a node for a record's content digest (optionally
verifying the blob bytes against it on disk), and ``REPAIR_RECORD``
force-puts known-good record bytes over a missing or corrupted replica
copy — the write half of digest-verified read-repair.
"""

from __future__ import annotations

import asyncio
import json
from enum import IntEnum

from repro.errors import (
    ProtocolError,
    ReproError,
    code_for_exception,
    exception_for_code,
)

#: Protocol versions this build can speak, in preference order.
PROTOCOL_VERSIONS = (2,)

#: Default upper bound on one frame (type byte + body).
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: Upper bound on a HELLO/HELLO_ACK frame: negotiation happens before
#: any per-session state exists, so the handshake never needs (or gets)
#: the full frame budget.
HELLO_MAX_BYTES = 4096

_HEADER_LEN = 4
_SEQ_LEN = 4

#: v2 sentinel sequence number for replies that answer no particular
#: request (e.g. an ERROR for a frame the server could not even parse);
#: clients accept it for whatever exchange is in flight.
SEQ_BROADCAST = 0xFFFFFFFF


class MessageType(IntEnum):
    """The type byte of every frame."""

    HELLO = 0x01
    HELLO_ACK = 0x02
    OK = 0x03
    ERROR = 0x04
    PING = 0x05
    PONG = 0x06
    HEALTH = 0x07
    HEALTH_REPLY = 0x08

    STORE_RECORD = 0x10
    FETCH_RECORD = 0x11
    RECORD = 0x12
    FETCH_COMPONENT = 0x13
    COMPONENT = 0x14
    LIST_RECORDS = 0x15
    RECORD_IDS = 0x16
    DELETE_RECORD = 0x17
    REPLACE_COMPONENT = 0x18
    RECORD_DIGEST = 0x19
    RECORD_DIGEST_REPLY = 0x1A
    REPAIR_RECORD = 0x1B

    PUT_AUTHORITY_KEYS = 0x20
    GET_AUTHORITY_KEYS = 0x21
    AUTHORITY_KEYS = 0x22

    REENCRYPT = 0x30
    REENCRYPT_SWEEP = 0x31
    SWEEP_PROGRESS = 0x32
    SWEEP_DONE = 0x33

    STATS = 0x40
    STATS_REPLY = 0x41

    # Server-side transform offload (outsourced decryption). The
    # transform-key registry is an in-memory cache — registering a key
    # is a naturally idempotent overwrite that works on read-only
    # servers, so PUT_TRANSFORM_KEY is neither a MUTATION_TYPE nor a
    # WRITE_TYPE.
    PUT_TRANSFORM_KEY = 0x50
    TRANSFORM_FETCH = 0x51
    TRANSFORMED = 0x52


#: Requests that change server state *and* carry a version-2
#: idempotency envelope, so a retry across a reconnect is applied
#: exactly once.
MUTATION_TYPES = frozenset({
    MessageType.STORE_RECORD,
    MessageType.DELETE_RECORD,
    MessageType.REPLACE_COMPONENT,
    MessageType.REPAIR_RECORD,
    MessageType.REENCRYPT,
    MessageType.REENCRYPT_SWEEP,
})

#: Everything that writes to the store (gated by read-only mode).
#: PUT_AUTHORITY_KEYS is a naturally idempotent overwrite, so it is
#: write-gated but needs no dedup envelope.
WRITE_TYPES = MUTATION_TYPES | {MessageType.PUT_AUTHORITY_KEYS}


# -- error frames -------------------------------------------------------------

def encode_error(exc: ReproError) -> bytes:
    """The ERROR frame body for a library exception."""
    return encode_json({"code": code_for_exception(exc), "message": str(exc)})


def raise_error(body: bytes):
    """Decode an ERROR frame body and raise the matching exception."""
    payload = decode_json(body)
    code = payload.get("code")
    message = payload.get("message", "")
    if not isinstance(message, str):
        message = repr(message)
    raise exception_for_code(code)(message)


# -- body helpers -------------------------------------------------------------

def encode_json(obj) -> bytes:
    return json.dumps(obj, separators=(",", ":"), sort_keys=True).encode(
        "utf-8"
    )


def decode_json(body: bytes) -> dict:
    try:
        obj = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError("frame body is not valid JSON") from exc
    if not isinstance(obj, dict):
        raise ProtocolError("frame body is not a JSON object")
    return obj


def json_str(obj: dict, key: str) -> str:
    value = obj.get(key)
    if not isinstance(value, str):
        raise ProtocolError(f"frame field {key!r} missing or not a string")
    return value


def pack_parts(*parts: bytes) -> bytes:
    """Concatenate byte strings with 4-byte length prefixes."""
    return b"".join(
        len(part).to_bytes(4, "big") + part for part in parts
    )


def unpack_parts(body: bytes, count: int) -> list:
    """Split a :func:`pack_parts` body back into exactly ``count`` parts."""
    parts = []
    offset = 0
    for _ in range(count):
        if offset + 4 > len(body):
            raise ProtocolError("truncated multi-part frame body")
        length = int.from_bytes(body[offset:offset + 4], "big")
        offset += 4
        if length > len(body) - offset:
            raise ProtocolError("truncated multi-part frame body")
        parts.append(body[offset:offset + length])
        offset += length
    if offset != len(body):
        raise ProtocolError("trailing bytes after multi-part frame body")
    return parts


def unpack_all_parts(body: bytes, max_parts: int = 1 << 20) -> list:
    """Split a :func:`pack_parts` body of *unknown* part count.

    The bulk-sweep request carries one update information per targeted
    ciphertext, so its part count is data-dependent; every other
    multi-part body keeps using the exact-count :func:`unpack_parts`.
    """
    parts = []
    offset = 0
    while offset < len(body):
        if offset + 4 > len(body):
            raise ProtocolError("truncated multi-part frame body")
        length = int.from_bytes(body[offset:offset + 4], "big")
        offset += 4
        if length > len(body) - offset:
            raise ProtocolError("truncated multi-part frame body")
        parts.append(body[offset:offset + length])
        offset += length
        if len(parts) > max_parts:
            raise ProtocolError("multi-part frame body has too many parts")
    return parts


# -- idempotency envelope (protocol version 2) --------------------------------

def wrap_idempotency(key: str, body: bytes) -> bytes:
    """Prefix a mutating request body with its idempotency key."""
    return pack_parts(key.encode("utf-8"), body)


def unwrap_idempotency(body: bytes) -> tuple:
    """``(key, inner body)`` of an idempotency-wrapped request."""
    key_raw, inner = unpack_parts(body, 2)
    try:
        key = key_raw.decode("utf-8")
    except UnicodeDecodeError:
        raise ProtocolError("idempotency key is not valid UTF-8") from None
    if not key or len(key) > 200:
        raise ProtocolError("idempotency key is empty or oversized")
    return key, inner


# -- framing ------------------------------------------------------------------

def encode_frame(msg_type: int, body: bytes = b"", seq: int = None) -> bytes:
    """One wire frame: length prefix, type byte, [v2 seq], body."""
    seq_raw = b"" if seq is None else (seq & 0xFFFFFFFF).to_bytes(
        _SEQ_LEN, "big"
    )
    length = 1 + len(seq_raw) + len(body)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {length} bytes exceeds the maximum")
    return (length.to_bytes(_HEADER_LEN, "big") + bytes([msg_type])
            + seq_raw + body)


def decode_frame_type(type_byte: int) -> MessageType:
    try:
        return MessageType(type_byte)
    except ValueError:
        raise ProtocolError(f"unknown frame type 0x{type_byte:02x}") from None


async def _read_payload(reader: asyncio.StreamReader, max_frame: int,
                        drain_oversized: bool) -> bytes:
    header = await reader.readexactly(_HEADER_LEN)
    length = int.from_bytes(header, "big")
    if length < 1:
        raise ProtocolError("frame length must cover the type byte")
    if length > max_frame:
        if drain_oversized:
            # Consume the declared payload so the typed ERROR reply is
            # not torn down by a kernel reset over unread bytes.
            remaining = length
            while remaining > 0:
                chunk = await reader.read(min(remaining, 65536))
                if not chunk:
                    break
                remaining -= len(chunk)
        raise ProtocolError(
            f"frame of {length} bytes exceeds the {max_frame}-byte maximum"
        )
    return await reader.readexactly(length)


async def read_frame(reader: asyncio.StreamReader,
                     max_frame: int = MAX_FRAME_BYTES, *,
                     drain_oversized: bool = False) -> tuple:
    """Read one ``(MessageType, body)`` frame from a stream.

    Raises :class:`ProtocolError` on malformed/oversized frames and
    :class:`asyncio.IncompleteReadError` when the peer disconnects
    mid-frame (callers treat that as a dropped connection, not an
    application error). With ``drain_oversized`` an oversized payload is
    read and discarded before raising, so an ERROR reply can still be
    delivered.
    """
    payload = await _read_payload(reader, max_frame, drain_oversized)
    return decode_frame_type(payload[0]), payload[1:]


async def read_seq_frame(reader: asyncio.StreamReader,
                         max_frame: int = MAX_FRAME_BYTES) -> tuple:
    """Read one v2 ``(MessageType, seq, body)`` frame from a stream."""
    payload = await _read_payload(reader, max_frame, False)
    msg_type = decode_frame_type(payload[0])
    if len(payload) < 1 + _SEQ_LEN:
        raise ProtocolError("v2 frame is too short for a sequence number")
    seq = int.from_bytes(payload[1:1 + _SEQ_LEN], "big")
    return msg_type, seq, payload[1 + _SEQ_LEN:]


async def write_frame(writer: asyncio.StreamWriter, msg_type: int,
                      body: bytes = b"", seq: int = None) -> int:
    """Write one frame and drain; returns the raw bytes put on the wire."""
    frame = encode_frame(msg_type, body, seq)
    writer.write(frame)
    await writer.drain()
    return len(frame)


# -- hello negotiation --------------------------------------------------------

def hello_body(preset: str, role: str, name: str,
               versions=PROTOCOL_VERSIONS) -> bytes:
    return encode_json({
        "versions": list(versions),
        "preset": preset,
        "role": role,
        "name": name,
    })


def negotiate(hello: dict, server_preset: str,
              supported=PROTOCOL_VERSIONS) -> int:
    """Server-side version/preset negotiation; returns the chosen version."""
    offered = hello.get("versions")
    if not isinstance(offered, list) or not all(
        isinstance(v, int) and not isinstance(v, bool) for v in offered
    ):
        raise ProtocolError("hello offers no valid protocol versions")
    common = sorted(set(offered) & set(supported))
    if not common:
        raise ProtocolError(
            f"no common protocol version (client offers {sorted(offered)}, "
            f"server speaks {sorted(supported)})"
        )
    preset = json_str(hello, "preset")
    if preset != server_preset:
        raise ProtocolError(
            f"pairing preset mismatch: client uses {preset!r}, "
            f"server uses {server_preset!r}"
        )
    return common[-1]
