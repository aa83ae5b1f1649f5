"""The asyncio TCP server hosting the paper's cloud-server role.

One :class:`StorageService` is the Fig. 1 "Server" box made real: it
stores Fig. 2 records in a persistent :class:`repro.service.store.
RecordStore`, serves component downloads, acts as the public-key
directory authorities publish into, and executes the Section V-C proxy
``ReEncrypt`` on stored ciphertexts when an owner pushes an update key
plus update information — all without ever holding a decryption key or
content key.

Connections are concurrent (one coroutine per client), each protected
by a hello timeout and a per-request idle timeout. Application errors
travel back as typed ERROR frames and leave the connection open;
protocol violations answer with an ERROR frame and close it; a peer
that disconnects mid-frame just gets cleaned up. ``stop()`` shuts the
listener and every live session down gracefully.

Fault tolerance: replies echo the request's sequence number so clients
can discard stale frames; mutating requests carry idempotency keys
deduplicated through a bounded
:class:`repro.service.retry.IdempotencyTable`, making a retry across a
reconnect apply exactly once; and when a storage *write* fails at the
OS level (disk full, permission loss) the server degrades to
**read-only mode** — fetches keep serving while every write answers a
typed, retryable ``unavailable`` ERROR. A ``HEALTH`` heartbeat reports
the current mode.

Every payload-bearing frame is metered through a
:class:`repro.system.meter.Meter` with the *same role-pair/kind
vocabulary its clients meter on their side*, so the server's meter and
a client's tell the same Table IV story entry for entry (frame headers
are tallied separately as ``meter.wire_bytes``).

Parallel execution: pairing-heavy work never runs on the event loop.
Store reads, writes and record decodes run on a one-thread **offload
executor** — one thread, so store mutations stay serialized with each
other while PING/HEALTH latency stays bounded by the interpreter's
thread-switch interval instead of by a multi-second pairing burst.
ReEncrypt has one path: ``REENCRYPT_SWEEP`` matches update information
to the store's ciphertext-id index by header peek (no group math), and
``REENCRYPT`` is a sweep of one. Records are fanned out chunk-by-chunk
to a :class:`repro.parallel.pool.CryptoPool` (``workers=0`` routes
chunks through the offload thread instead — same code, same bytes),
each finished chunk is applied with the crash-safe
:meth:`repro.service.store.RecordStore.replace_record_bytes_many` pack
(skipping any record a concurrent write changed since the chunk's
read), and the sweep streams a ``SWEEP_PROGRESS`` frame per chunk
before the final ``SWEEP_DONE`` summary.

Pipelined dispatch: after the handshake, one frame loop serves every
session. It keeps pulling frames and spawns each request as its own
task — up to ``max_inflight`` concurrently per session, a window
enforced by a semaphore so a flooding client blocks on the socket
instead of ballooning server memory (``max_inflight=1`` is a window of
one: one request at a time, on the same loop). Every reply (and
every sweep progress frame) is tagged with *its* request's sequence
number, so replies may legally overtake each other on the wire: a slow
``FETCH_RECORD`` no longer head-of-line-blocks the cheap ``PING``
behind it. Ordering and exactly-once invariants survive because (a)
all store mutations still run on the single offload thread, (b) one
session's mutating requests additionally serialize through a
per-session mutation lock in arrival order, and (c) a mutation key
already being applied parks its duplicate until the original resolves
(the in-flight table), then replays the deduplicated reply.
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict
from concurrent.futures import BrokenExecutor, ThreadPoolExecutor

from repro.core.outsourcing import server_transform_many
from repro.core.serialize import (
    decode_authority_public_key,
    decode_public_attribute_keys,
    decode_transform_key,
    decode_update_key,
    peek_update_info,
)
from repro.errors import (
    AuthorizationError,
    ProtocolError,
    ReproError,
    SchemeError,
    StorageError,
    UnavailableError,
    code_for_exception,
    exception_for_code,
)
from repro.pairing.group import PairingGroup
from repro.parallel.batch import (
    ALREADY_CURRENT,
    ERROR,
    UPDATED,
    reencrypt_records_raw,
)
from repro.parallel.pool import CryptoPool, chunked
from repro.service import protocol
from repro.service.protocol import MessageType
from repro.service.retry import IdempotencyTable
from repro.service.store import RecordStore
from repro.system.meter import ROLE_SERVER, Meter
from repro.system.records import StoredComponent, StoredRecord

#: Roles a client may claim in its hello.
_CLIENT_ROLES = frozenset({"owner", "user", "aa", "ca"})


class _Session:
    """Per-connection state: negotiated identity plus the streams."""

    __slots__ = ("reader", "writer", "peer_name", "peer_role",
                 "write_lock", "mutation_lock", "window")

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer
        self.peer_name = "?"
        self.peer_role = "?"
        # Created inside the event loop by _accept: frame writes are
        # atomic under write_lock (pipelined replies interleave, frames
        # must not); one session's mutations serialize in arrival order
        # under mutation_lock; window bounds concurrent requests.
        self.write_lock = None
        self.mutation_lock = None
        self.window = None


class StorageService:
    """The networked cloud server: storage, key directory, ReEncrypt."""

    def __init__(self, group: PairingGroup, store: RecordStore, *,
                 name: str = "cloud", host: str = "127.0.0.1", port: int = 0,
                 meter: Meter = None, idle_timeout: float = 30.0,
                 hello_timeout: float = 10.0,
                 max_frame: int = protocol.MAX_FRAME_BYTES,
                 read_only: bool = False, dedup_entries: int = 4096,
                 workers=0, sweep_chunk: int = 16,
                 probe_interval: float = 1.0, inline_crypto: bool = False,
                 max_inflight: int = 32,
                 evict_transform_keys: bool = True):
        if sweep_chunk <= 0:
            raise ValueError("sweep_chunk must be positive")
        if max_inflight < 1:
            raise ValueError("max_inflight must be at least 1")
        self.group = group
        self.store = store
        self.name = name
        self.role = ROLE_SERVER
        self.host = host
        self.port = port
        self.preset = group.params.name
        self.meter = meter if meter is not None else Meter(group)
        self.idle_timeout = idle_timeout
        self.hello_timeout = hello_timeout
        self.max_frame = max_frame
        self.read_only = read_only
        # Operator-configured read-only (`serve --read-only`) is a
        # policy and never auto-recovers; read-only entered because a
        # write FAILED is a degradation, and the server probes its way
        # back to writable once the fault clears (see _maybe_recover).
        self._configured_read_only = read_only
        self.degraded_reason = None
        self.probe_interval = probe_interval
        self._last_probe = None
        # Adversarial-control knob only: run crypto/storage jobs inline
        # on the event loop instead of the offload thread. This is the
        # "defense disabled" leg of the spam-flood scenario — never set
        # it in production.
        self.inline_crypto = inline_crypto
        self.dedup = IdempotencyTable(dedup_entries)
        self.pool = CryptoPool(workers)
        self.sweep_chunk = sweep_chunk
        #: Per-session concurrent-request window (1 = one at a time).
        self.max_inflight = max_inflight
        # Mutations whose apply is in flight right now, keyed by
        # idempotency key: a pipelined (or cross-connection) duplicate
        # parks on the future instead of double-applying.
        self._inflight_keys = {}
        # (uid, owner id) -> registered TransformKey. In-memory only (a
        # transform key is rebuildable client-side in one request) and
        # epoch-coupled: every REENCRYPT/REENCRYPT_SWEEP that rolls an
        # authority version evicts the entries built against the old
        # version, so a revoked user's cached token can never outlive
        # the re-encryption that revoked it (server_transform_many's
        # version validation is the second line of defense).
        self._transform_keys = OrderedDict()
        self.max_transform_keys = 1024
        # Adversarial-control knob only: keep pre-revocation transform
        # keys registered across epoch rolls. This is the "defense
        # disabled" leg of the stale-transform-token scenario — never
        # set it in production.
        self.evict_transform_keys = evict_transform_keys
        # Pipelined in-flight TRANSFORM_FETCHes funnel through one
        # micro-batching drain task so concurrent transforms share
        # prepared pairings and one final exponentiation per batch.
        self._transform_queue = []
        self._transform_task = None
        store.attach_meter(self.meter)
        # One thread: store mutations serialize with each other, and
        # pairing bursts leave the event loop free for PING/HEALTH.
        self._cpu = ThreadPoolExecutor(max_workers=1,
                                       thread_name_prefix="repro-crypto")
        self._server = None
        self._sessions = set()
        self._tasks = set()

    # -- lifecycle --------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting connections (port 0 → ephemeral)."""
        if not self.pool.inline:
            # Boot the pool's workers before traffic arrives: spawning
            # them lazily would bill forkserver start-up, per-worker
            # library imports, and the per-process group rebuild to the
            # first sweep.
            await self._offload(self.pool.warm, 0.05, self.group)
        self._server = await asyncio.start_server(
            self._accept, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, close every live session."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for session in list(self._sessions):
            session.writer.close()
        for task in list(self._tasks):
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        self._sessions.clear()
        self._tasks.clear()
        self.pool.shutdown()
        self._cpu.shutdown(wait=False, cancel_futures=True)

    @property
    def connection_count(self) -> int:
        return len(self._sessions)

    # -- connection handling ----------------------------------------------

    async def _accept(self, reader, writer):
        session = _Session(reader, writer)
        session.write_lock = asyncio.Lock()
        session.mutation_lock = asyncio.Lock()
        session.window = asyncio.Semaphore(self.max_inflight)
        task = asyncio.current_task()
        self._sessions.add(session)
        self._tasks.add(task)
        try:
            await self._run_session(session)
        except (asyncio.IncompleteReadError, ConnectionError,
                asyncio.TimeoutError, TimeoutError):
            pass  # peer vanished or went idle: drop the session quietly
        except asyncio.CancelledError:  # server shutting down
            pass
        finally:
            self._sessions.discard(session)
            self._tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _run_session(self, session: _Session) -> None:
        try:
            await asyncio.wait_for(self._handshake(session),
                                   self.hello_timeout)
        except ProtocolError as exc:
            await self._send(session, MessageType.ERROR,
                             protocol.encode_error(exc))
            return
        await self._run_pipelined(session)

    async def _run_pipelined(self, session: _Session) -> None:
        """The session's one frame loop: read, spawn, keep reading.

        Each request runs as its own task; the session window semaphore
        (acquired *before* spawning) bounds in-flight requests, so a
        client pushing faster than the server serves parks here — the
        kernel's receive buffer, not the server's heap, absorbs the
        burst. The idle timeout only fires when nothing is in flight:
        a connection waiting on its own slow sweep is busy, not idle.
        """
        loop = asyncio.get_running_loop()
        inflight = set()
        read_task = None
        try:
            while True:
                if read_task is None:
                    read_task = loop.create_task(protocol.read_seq_frame(
                        session.reader, self.max_frame
                    ))
                # wait (unlike wait_for) never cancels the read on
                # timeout, so a frame header already consumed from the
                # stream is never lost to an idle check.
                done, _ = await asyncio.wait({read_task},
                                             timeout=self.idle_timeout)
                if not done:
                    if any(not task.done() for task in inflight):
                        continue  # busy serving, not idle
                    raise TimeoutError("session idle timeout")
                frame_task, read_task = read_task, None
                try:
                    msg_type, seq, body = frame_task.result()
                except ProtocolError as exc:
                    # Garbled framing: the stream is unusable and the
                    # request's seq unknowable — broadcast and drop.
                    await self._send(session, MessageType.ERROR,
                                     protocol.encode_error(exc),
                                     seq=protocol.SEQ_BROADCAST)
                    return
                self.meter.record_wire(9 + len(body))
                await session.window.acquire()
                task = loop.create_task(
                    self._serve_one(session, msg_type, seq, body)
                )
                inflight.add(task)
                task.add_done_callback(inflight.discard)
        except asyncio.CancelledError:  # server shutdown
            for task in inflight:
                task.cancel()
            raise
        finally:
            if read_task is not None:
                read_task.cancel()
                await asyncio.gather(read_task, return_exceptions=True)
            if inflight:
                # Graceful ends (peer EOF, idle, protocol error) let
                # in-flight requests finish: a mutation past its apply
                # must still record its dedup reply, or a retry on a
                # fresh connection would double-apply it.
                await asyncio.gather(*list(inflight),
                                     return_exceptions=True)

    async def _serve_one(self, session: _Session, msg_type: MessageType,
                         seq: int, body: bytes) -> None:
        """One request, as its own task."""
        try:
            try:
                if msg_type in protocol.WRITE_TYPES:
                    # One session's mutations apply in arrival order
                    # (reads flow around them freely).
                    async with session.mutation_lock:
                        await self._dispatch(session, msg_type, seq, body)
                else:
                    await self._dispatch(session, msg_type, seq, body)
            except ProtocolError as exc:
                await self._send(session, MessageType.ERROR,
                                 protocol.encode_error(exc), seq=seq)
                # Protocol violations end the session: closing the
                # transport wakes the read loop.
                session.writer.close()
            except ReproError as exc:
                # Application errors are answered, not fatal.
                await self._send(session, MessageType.ERROR,
                                 protocol.encode_error(exc), seq=seq)
        finally:
            session.window.release()

    async def _handshake(self, session: _Session) -> None:
        # The hello is capped well below max_frame: nothing is allocated
        # for the session until negotiation succeeds, and an oversized
        # hello earns a typed ERROR (drained first), not a silent drop.
        msg_type, body = await protocol.read_frame(
            session.reader, min(self.max_frame, protocol.HELLO_MAX_BYTES),
            drain_oversized=True,
        )
        self.meter.record_wire(5 + len(body))
        if msg_type is not MessageType.HELLO:
            raise ProtocolError("expected a HELLO frame first")
        hello = protocol.decode_json(body)
        version = protocol.negotiate(hello, self.preset)
        role = protocol.json_str(hello, "role")
        if role not in _CLIENT_ROLES:
            raise ProtocolError(f"unknown client role {role!r}")
        session.peer_role = role
        session.peer_name = protocol.json_str(hello, "name")
        await self._send(session, MessageType.HELLO_ACK, protocol.encode_json(
            {"version": version, "preset": self.preset, "server": self.name}
        ))

    async def _send(self, session: _Session, msg_type: MessageType,
                    body: bytes = b"", seq: int = None) -> None:
        """Write one reply frame, tagged with its request's seq.

        The write lock keeps pipelined replies frame-atomic: concurrent
        tasks may interleave *frames* on the wire in any order, but
        never bytes within one frame. ``seq=None`` writes an unsequenced
        handshake frame (the HELLO_ACK or the handshake ERROR).
        """
        try:
            async with session.write_lock:
                sent = await protocol.write_frame(session.writer, msg_type,
                                                  body, seq=seq)
        except (ConnectionError, OSError):
            return  # peer already gone; the read side will notice
        self.meter.record_wire(sent)

    # -- metering ---------------------------------------------------------

    def _meter_in(self, session: _Session, kind: str, payload) -> None:
        """A payload the peer sent us (peer → server)."""
        self.meter.record(session.peer_name, session.peer_role,
                          self.name, self.role, kind, payload)

    def _meter_out(self, session: _Session, kind: str, payload) -> None:
        """A payload we send the peer (server → peer)."""
        self.meter.record(self.name, self.role,
                          session.peer_name, session.peer_role, kind, payload)

    # -- request dispatch -------------------------------------------------

    async def _dispatch(self, session: _Session, msg_type: MessageType,
                        seq: int, body: bytes) -> None:
        handler = self._HANDLERS.get(msg_type)
        if handler is None:
            raise ProtocolError(
                f"unexpected frame type {msg_type.name} in a session"
            )
        key = None
        inflight_future = None
        if msg_type in protocol.MUTATION_TYPES:
            key, body = protocol.unwrap_idempotency(body)
            while True:
                cached = self.dedup.get(key)
                if cached is not None:
                    # A retried mutation: replay the reply the lost
                    # original earned, without applying it again.
                    await self._send(session, cached[0], cached[1], seq=seq)
                    return
                inflight = self._inflight_keys.get(key)
                if inflight is None:
                    break
                # The original is mid-apply on another task (a retry
                # racing its own first attempt across connections):
                # park until it resolves, then replay its cached reply —
                # or fall through and apply, if the original failed
                # uncachably (e.g. the disk degraded mid-write).
                await asyncio.wait({inflight})
            inflight_future = asyncio.get_running_loop().create_future()
            self._inflight_keys[key] = inflight_future
        try:
            # Refused only after the dedup lookup: a retried mutation
            # that already applied gets its cached reply in any mode.
            if msg_type in protocol.WRITE_TYPES and self.read_only:
                if not await self._maybe_recover():
                    raise UnavailableError(
                        "server is in read-only mode; writes are refused "
                        "but reads keep serving — retry later"
                    )
            try:
                reply = await handler(self, session, seq, body)
            except ProtocolError:
                raise  # ends the session; nothing worth caching
            except UnavailableError:
                raise  # transient by definition: the retry must re-attempt
            except ReproError as exc:
                if key is not None:
                    self.dedup.put(
                        key, (MessageType.ERROR, protocol.encode_error(exc))
                    )
                raise
            except OSError as exc:
                if msg_type in protocol.WRITE_TYPES:
                    # The disk stopped accepting writes: degrade instead
                    # of corrupting state or hanging up. Not cached —
                    # once the disk recovers, the same key must be
                    # applicable.
                    self.read_only = True
                    self.degraded_reason = str(exc)
                    raise UnavailableError(
                        f"storage write failed ({exc}); server is now "
                        f"read-only — retry later"
                    ) from exc
                raise StorageError(f"storage read failed: {exc}") from exc
            else:
                # A mutating handler may return the (type, body) it
                # answered with, so a deduplicated retry replays that
                # exact reply (the sweep caches its SWEEP_DONE summary
                # this way); plain handlers return None and cache the
                # empty OK.
                if key is not None:
                    self.dedup.put(
                        key,
                        reply if reply is not None else (MessageType.OK, b""),
                    )
        finally:
            if inflight_future is not None:
                if self._inflight_keys.get(key) is inflight_future:
                    del self._inflight_keys[key]
                if not inflight_future.done():
                    inflight_future.set_result(None)

    async def _maybe_recover(self) -> bool:
        """Probe the way back from *degraded* read-only to writable.

        Configured read-only is policy, not damage: never recover from
        it. Degraded read-only probes the store's write path at most
        once per ``probe_interval`` (a refused-write stampede must not
        become a probe stampede); the first probe that succeeds flips
        the server back to writable and lets the refused write proceed.
        A retried mutation that degraded the server is therefore
        applied exactly once after recovery — its UnavailableError was
        never cached in the dedup table, so the retry's idempotency key
        is still fresh.
        """
        if self._configured_read_only:
            return False
        now = time.monotonic()
        if (self._last_probe is not None
                and now - self._last_probe < self.probe_interval):
            return False
        self._last_probe = now
        if not await self._offload(self.store.probe_writable):
            return False
        self.read_only = False
        self.degraded_reason = None
        self.meter.bump("server.readonly-recovered")
        return True

    async def _offload(self, fn, *args):
        """Run one blocking crypto/storage job on the offload thread."""
        if self.inline_crypto:
            return fn(*args)
        return await asyncio.get_running_loop().run_in_executor(
            self._cpu, fn, *args
        )

    async def _handle_ping(self, session, seq, body):
        await self._send(session, MessageType.PONG, body, seq=seq)

    async def _handle_health(self, session, seq, body):
        await self._send(session, MessageType.HEALTH_REPLY,
                         protocol.encode_json(self.health()), seq=seq)

    async def _handle_store_record(self, session, seq, body):
        # Decoding a multi-row record is pairing-substrate work (one
        # subgroup check per element): off the loop.
        record = await self._offload(StoredRecord.from_bytes, self.group,
                                     body)
        self._meter_in(session, "store-record", record)
        await self._offload(self.store.put, record)
        await self._send(session, MessageType.OK, seq=seq)

    async def _handle_fetch_record(self, session, seq, body):
        request = protocol.decode_json(body)
        record_id = protocol.json_str(request, "record")
        self._meter_in(session, "read-request", record_id)
        # The stored blob IS the served representation (``to_bytes``
        # round-trips byte-identically — the cluster's digest-based
        # read-repair depends on it); the metered Table II size comes
        # from the store's decode memo.
        blob, size = await self._offload(self.store.get_record_bytes_sized,
                                         record_id)
        self.meter.record_sized(self.name, self.role, session.peer_name,
                                session.peer_role, "record-download", size)
        await self._send(session, MessageType.RECORD, blob, seq=seq)

    async def _handle_fetch_component(self, session, seq, body):
        request = protocol.decode_json(body)
        record_id = protocol.json_str(request, "record")
        component_name = protocol.json_str(request, "component")
        # Same metered request string as the client's read path.
        self._meter_in(session, "read-request",
                       f"{record_id}/{component_name}")
        record = await self._offload(self.store.get, record_id)
        component = record.component(component_name)
        self._meter_out(session, "component-download", component)
        await self._send(session, MessageType.COMPONENT,
                         component.to_bytes(), seq=seq)

    async def _handle_list_records(self, session, seq, body):
        await self._send(session, MessageType.RECORD_IDS,
                         protocol.encode_json(
                             {"records": self.store.record_ids()}
                         ), seq=seq)

    async def _handle_delete_record(self, session, seq, body):
        request = protocol.decode_json(body)
        record_id = protocol.json_str(request, "record")
        owner_id = protocol.json_str(request, "owner")
        self._meter_in(session, "delete-record", record_id)
        await self._offload(self._delete_record, record_id, owner_id)
        await self._send(session, MessageType.OK, seq=seq)

    def _delete_record(self, record_id, owner_id):
        """The delete (offload thread): only the record's owner may."""
        self.store.get(record_id).check_owner(owner_id)
        self.store.delete(record_id)

    async def _handle_replace_component(self, session, seq, body):
        header_raw, component_raw = protocol.unpack_parts(body, 2)
        request = protocol.decode_json(header_raw)
        record_id = protocol.json_str(request, "record")
        component = await self._offload(StoredComponent.from_bytes,
                                        self.group, component_raw)
        self._meter_in(session, "update-component", component)
        # StoredRecord.with_component refuses another owner's component.
        await self._offload(self.store.replace_component, record_id,
                            component)
        await self._send(session, MessageType.OK, seq=seq)

    async def _handle_record_digest(self, session, seq, body):
        """Report a record's content digest (cluster scrub/repair probe).

        With ``verify`` the blob bytes are read back and checked against
        the digest (off the loop — it is a disk read), so ``ok: false``
        means "this replica cannot serve verified bytes and needs
        repair", while the digest itself names the version this node
        believes it holds.
        """
        request = protocol.decode_json(body)
        record_id = protocol.json_str(request, "record")
        digest = self.store.digest(record_id)
        ok = True
        if request.get("verify"):
            ok = await self._offload(self.store.verify_record, record_id)
        await self._send(session, MessageType.RECORD_DIGEST_REPLY,
                         protocol.encode_json(
                             {"record": record_id, "digest": digest,
                              "ok": ok}
                         ), seq=seq)

    async def _handle_repair_record(self, session, seq, body):
        """Accept known-good record bytes over a broken/missing copy.

        The body is raw :meth:`StoredRecord.to_bytes`. The store decodes
        (and subgroup-checks) it once, off the loop, before anything
        touches disk, then stores it byte-preserving so the repaired
        replica lands digest-identical to its source.
        """
        record = await self._offload(self._repair_record, body)
        self._meter_in(session, "repair-record", record)
        await self._send(session, MessageType.OK, seq=seq)

    def _repair_record(self, body):
        """The repair write (offload thread); returns the stored record
        — the store's own validated decode, served from its memo."""
        record_id = StoredRecord.peek_record_id(body)
        self.store.put_record_bytes(record_id, body)
        return self.store.get(record_id)

    async def _handle_put_authority_keys(self, session, seq, body):
        header_raw, apk_raw, pak_raw = protocol.unpack_parts(body, 3)
        request = protocol.decode_json(header_raw)
        aid = protocol.json_str(request, "aid")
        # Decode to validate and meter in Table II units; store raw.
        apk = decode_authority_public_key(self.group, apk_raw)
        pak = decode_public_attribute_keys(self.group, pak_raw)
        if apk.aid != aid or pak.aid != aid:
            raise ProtocolError("published keys disagree on the AID")
        self._meter_in(session, "authority-public-key", apk)
        self._meter_in(session, "public-attribute-keys", pak)
        self.store.put_authority_keys(
            aid, protocol.pack_parts(apk_raw, pak_raw)
        )
        await self._send(session, MessageType.OK, seq=seq)

    async def _handle_get_authority_keys(self, session, seq, body):
        request = protocol.decode_json(body)
        aid = protocol.json_str(request, "aid")
        blob = self.store.get_authority_keys(aid)
        apk_raw, pak_raw = protocol.unpack_parts(blob, 2)
        self._meter_out(session, "authority-public-key",
                        decode_authority_public_key(self.group, apk_raw))
        self._meter_out(session, "public-attribute-keys",
                        decode_public_attribute_keys(self.group, pak_raw))
        await self._send(session, MessageType.AUTHORITY_KEYS, blob, seq=seq)

    async def _handle_put_transform_key(self, session, seq, body):
        """Register a user's outsourced-decryption token.

        A naturally idempotent overwrite of the (uid, owner) slot — no
        idempotency envelope, no write gating (the registry is
        in-memory, so it works on read-only servers).
        """
        header_raw, key_raw = protocol.unpack_parts(body, 2)
        request = protocol.decode_json(header_raw)
        uid = protocol.json_str(request, "uid")
        # Decode (and subgroup-check) off the loop; transform keys are
        # the size of a full user key bundle.
        transform_key = await self._offload(decode_transform_key,
                                            self.group, key_raw)
        if transform_key.uid != uid:
            raise ProtocolError("transform key disagrees on the UID")
        self._meter_in(session, "transform-key", transform_key)
        cache_key = (transform_key.uid, transform_key.owner_id)
        self._transform_keys[cache_key] = transform_key
        self._transform_keys.move_to_end(cache_key)
        while len(self._transform_keys) > self.max_transform_keys:
            self._transform_keys.popitem(last=False)
            self.meter.bump("transform.cache.evict")
        self.meter.bump("transform.cache.put")
        await self._send(session, MessageType.OK, seq=seq)

    async def _handle_transform_fetch(self, session, seq, body):
        """Serve a component partially decrypted under a registered
        transform key: all the pairings happen here, the user finishes
        with one GT exponentiation and zero pairings.

        The reply carries only what finalization needs — the
        ciphertext's ``C`` component, the partial, and the sealed body —
        never the LSSS rows the transform already consumed.
        """
        request = protocol.decode_json(body)
        record_id = protocol.json_str(request, "record")
        component_name = protocol.json_str(request, "component")
        uid = protocol.json_str(request, "uid")
        self._meter_in(session, "read-request",
                       f"{record_id}/{component_name}")
        record = await self._offload(self.store.get, record_id)
        component = record.component(component_name)
        transform_key = self._transform_keys.get((uid, record.owner_id))
        if transform_key is None:
            self.meter.bump("transform.cache.miss")
            raise AuthorizationError(
                f"no transform key registered for user {uid!r} under "
                f"owner {record.owner_id!r}; send PUT_TRANSFORM_KEY first"
            )
        self.meter.bump("transform.cache.hit")
        self._transform_keys.move_to_end((uid, record.owner_id))
        ciphertext = component.abe_ciphertext
        partial = await self._transform_partial(ciphertext, transform_key)
        reply = protocol.pack_parts(
            protocol.encode_json({
                "record": record_id,
                "component": component_name,
                "id": ciphertext.ciphertext_id,
                "owner": record.owner_id,
            }),
            ciphertext.c.to_bytes(),
            partial.to_bytes(),
            component.data_ciphertext.to_bytes(),
        )
        self.meter.record_sized(
            self.name, self.role, session.peer_name, session.peer_role,
            "transformed-download",
            2 * self.group.gt_bytes + len(component.data_ciphertext),
        )
        await self._send(session, MessageType.TRANSFORMED, reply, seq=seq)

    async def _transform_partial(self, ciphertext, transform_key):
        """Queue one transform and await its partial decryption.

        Requests that pile up while a batch is on the offload thread
        drain as the *next* batch: concurrent in-flight transforms under
        one key share prepared pairings and a single batched final
        exponentiation (:func:`repro.core.outsourcing.
        server_transform_many`) instead of paying per-request pairing
        reductions.
        """
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        self._transform_queue.append((ciphertext, transform_key, future))
        if self._transform_task is None or self._transform_task.done():
            self._transform_task = loop.create_task(self._drain_transforms())
        return await future

    async def _drain_transforms(self):
        while self._transform_queue:
            batch, self._transform_queue = self._transform_queue, []
            by_key = {}
            for ciphertext, transform_key, future in batch:
                by_key.setdefault(id(transform_key), (transform_key, []))[
                    1
                ].append((ciphertext, future))
            for transform_key, items in by_key.values():
                pending = [(ciphertext, future) for ciphertext, future
                           in items if not future.done()]
                if not pending:
                    continue
                if len(pending) > 1:
                    self.meter.bump("transform.batch.amortized",
                                    len(pending) - 1)
                try:
                    partials = await self._offload(
                        server_transform_many, self.group,
                        [ciphertext for ciphertext, _ in pending],
                        transform_key,
                    )
                except ReproError:
                    # One bad ciphertext (e.g. a stale version) fails the
                    # whole batch call before any Miller replay: re-run
                    # per item so its siblings still get their partials
                    # and only the bad request earns the typed error.
                    for ciphertext, future in pending:
                        try:
                            (partial,) = await self._offload(
                                server_transform_many, self.group,
                                [ciphertext], transform_key,
                            )
                        except BaseException as exc:
                            if not future.done():
                                future.set_exception(exc)
                        else:
                            if not future.done():
                                future.set_result(partial)
                    continue
                except BaseException as exc:
                    for _, future in pending:
                        if not future.done():
                            future.set_exception(exc)
                    continue
                for (_, future), partial in zip(pending, partials):
                    if not future.done():
                        future.set_result(partial)

    def _evict_stale_transform_keys(self, aid: str, to_version: int) -> None:
        """Drop every registered transform key the epoch roll outran.

        Called at the end of every completed ReEncrypt run: a key
        carrying a version below ``to_version`` for the re-keyed
        authority belongs to the pre-revocation epoch and must not be
        applied to re-encrypted ciphertexts (it would fail version
        validation anyway — eviction keeps the registry from serving
        guaranteed-stale tokens and forces revoked users back through
        key issuance).
        """
        if not self.evict_transform_keys:
            return
        stale = [
            cache_key
            for cache_key, transform_key in self._transform_keys.items()
            if aid in transform_key.transformed_secret
            and transform_key.transformed_secret[aid].version < to_version
        ]
        for cache_key in stale:
            del self._transform_keys[cache_key]
            self.meter.bump("transform.cache.evict")

    async def _handle_reencrypt(self, session, seq, body):
        """Single-ciphertext ReEncrypt: a sweep of one.

        The body's ciphertext id is located in the index, then runs
        through :meth:`_reencrypt` like any sweep. Already at the key's
        target version answers OK (a replay is harmless); a UI for
        another ciphertext fails the ReEncrypt input check.
        """
        id_raw, uk_raw, ui_raw = protocol.unpack_parts(body, 3)
        try:
            ciphertext_id = id_raw.decode("utf-8")
        except UnicodeDecodeError:
            raise ProtocolError("ciphertext id is not valid UTF-8") from None
        update_key = await self._offload(decode_update_key, self.group,
                                         uk_raw)
        self._meter_in(session, "update-key", update_key)
        head = peek_update_info(ui_raw)
        record_id, component_name = self.store.locate_ciphertext(
            ciphertext_id
        )
        self._meter_update_info(session, head)
        missing, errors = [], {}
        await self._reencrypt(session, seq, update_key, uk_raw,
                              {record_id: [(component_name, ui_raw)]},
                              {record_id: [ciphertext_id]}, missing, errors)
        if missing:
            raise StorageError(f"no ciphertext {ciphertext_id!r}")
        for error in errors.values():
            raise exception_for_code(error["code"])(error["message"])
        await self._send(session, MessageType.OK, seq=seq)

    def _meter_update_info(self, session, head) -> None:
        """Meter one UI in Table II units from its encoding header."""
        self.meter.record_sized(
            session.peer_name, session.peer_role, self.name, self.role,
            "update-info", len(head["attrs"]) * self.group.g1_bytes,
        )

    async def _handle_reencrypt_sweep(self, session, seq, body):
        """Bulk revocation: one UK, many UIs, chunked through the pool.

        Matching is by encoding-header peek against the ciphertext-id
        index — no group element decodes on the loop. The matched
        records go through :meth:`_reencrypt`, with a progress frame
        per chunk. The final summary is both sent and returned, so a
        deduplicated retry replays it verbatim.
        """
        parts = protocol.unpack_all_parts(body)
        if len(parts) < 2:
            raise ProtocolError(
                "sweep body needs a header and an update key"
            )
        request = protocol.decode_json(parts[0])
        declared = request.get("n")
        uk_raw, ui_raws = parts[1], parts[2:]
        if (isinstance(declared, bool) or not isinstance(declared, int)
                or declared != len(ui_raws)):
            raise ProtocolError(
                "sweep header disagrees with the update-information count"
            )
        # Validate the update key once, off the loop; the workers then
        # decode it trusted (and cache it per process).
        update_key = await self._offload(decode_update_key, self.group,
                                         uk_raw)
        self._meter_in(session, "update-key", update_key)
        matched = {}   # record id -> [(component name, ui raw)]
        targeted = {}  # record id -> [ciphertext id]
        missing, errors = [], {}
        for index, ui_raw in enumerate(ui_raws):
            try:
                head = peek_update_info(ui_raw)
            except SchemeError as exc:
                errors[f"ui[{index}]"] = {"code": "scheme",
                                          "message": str(exc)}
                continue
            try:
                record_id, component_name = self.store.locate_ciphertext(
                    head["ct"]
                )
            except StorageError:
                missing.append(head["ct"])
                continue
            matched.setdefault(record_id, []).append((component_name,
                                                      ui_raw))
            targeted.setdefault(record_id, []).append(head["ct"])
            self._meter_update_info(session, head)
        updated, already_current = await self._reencrypt(
            session, seq, update_key, uk_raw, matched, targeted, missing,
            errors, stream=True,
        )
        summary = protocol.encode_json({
            "requested": declared,
            "records": len(matched),
            "updated": sorted(updated),
            "already_current": sorted(already_current),
            "missing": sorted(missing),
            "errors": errors,
        })
        await self._send(session, MessageType.SWEEP_DONE, summary, seq=seq)
        return MessageType.SWEEP_DONE, summary

    async def _reencrypt(self, session, seq, update_key, uk_raw, matched,
                         targeted, missing, errors, *,
                         stream=False) -> tuple:
        """The one ReEncrypt path of REENCRYPT and REENCRYPT_SWEEP.

        ``matched`` maps a record id to its ``[(component name, UI
        raw)]``, ``targeted`` to the ciphertext ids those UIs name.
        Chunks of records run through :meth:`_sweep_chunk`; with
        ``stream`` each finished chunk sends a ``SWEEP_PROGRESS``
        frame. Returns ``(updated, already_current)`` ciphertext ids and
        extends ``missing`` and ``errors`` in place.
        Every chunk written back is committed, also when a broken
        crypto pool fails the run mid-way, so a rerun finds the applied
        chunks already current.
        """
        loop = asyncio.get_running_loop()
        executor = self._cpu if self.pool.inline else self.pool.executor
        # Every chunk runs read → re-encrypt → write-back as its own
        # task: the store legs go through the offload thread (the one
        # thread ALL store mutations run on — see __init__) while the
        # pairing-heavy middle leg goes to the pool, so chunks pipeline
        # without ever touching the store from the event-loop thread.
        pending = [
            (chunk_ids, asyncio.ensure_future(self._sweep_chunk(
                loop, executor, uk_raw, chunk_ids, matched
            )))
            for chunk_ids in chunked(sorted(matched), self.sweep_chunk)
        ]
        updated, already_current = [], []
        done = 0
        try:
            for chunk_ids, future in pending:
                try:
                    results = await future
                except BrokenExecutor as exc:
                    raise UnavailableError(
                        f"crypto pool failed mid-sweep ({exc}); retry later"
                    ) from exc
                for record_id, item_results in results:
                    if item_results is None:
                        # Deleted after matching: a per-record outcome,
                        # not a failed sweep.
                        missing.extend(targeted[record_id])
                        continue
                    for ciphertext_id, status, code, message in item_results:
                        if status == UPDATED:
                            updated.append(ciphertext_id)
                        elif status == ALREADY_CURRENT:
                            already_current.append(ciphertext_id)
                        else:
                            errors[ciphertext_id] = {"code": code,
                                                     "message": message}
                done += len(chunk_ids)
                if not stream:
                    continue
                await self._send(
                    session, MessageType.SWEEP_PROGRESS,
                    protocol.encode_json({
                        "done": done,
                        "total": len(matched),
                        "updated": len(updated),
                        "already_current": len(already_current),
                        "errors": len(errors),
                        "missing": len(missing),
                    }),
                    seq=seq,
                )
        except BaseException:
            # Don't leave chunk tasks running (or their exceptions
            # unretrieved) behind a failed sweep.
            for _, future in pending:
                future.cancel()
            await asyncio.gather(*(future for _, future in pending),
                                 return_exceptions=True)
            await self._offload(self.store.commit_replacements)
            raise
        # The durability barrier the per-chunk applies deferred: every
        # repoint lands on disk before the request is acknowledged.
        await self._offload(self.store.commit_replacements)
        self._evict_stale_transform_keys(update_key.aid,
                                         update_key.to_version)
        return updated, already_current

    async def _sweep_chunk(self, loop, executor, uk_raw, chunk_ids, matched):
        """Read, re-encrypt, and write back one sweep chunk.

        Both store legs run on the offload thread via :meth:`_offload`,
        keeping every store mutation in the process on that single
        thread (and the fsync-heavy replace off the event loop); only
        the pairing-heavy middle leg runs in the pool executor.
        Returns what :meth:`_sweep_apply_chunk` returns.
        """
        digests, tasks = await self._offload(self._sweep_read_chunk,
                                             chunk_ids, matched)
        results = []
        if tasks:
            results = await loop.run_in_executor(
                executor, reencrypt_records_raw, self.group, uk_raw, tasks
            )
        outcomes = dict(zip(digests, results))
        return await self._offload(self._sweep_apply_chunk, chunk_ids,
                                   digests, outcomes)

    def _sweep_read_chunk(self, chunk_ids, matched):
        """``({record id: digest}, tasks)`` over the chunk's records
        still present."""
        digests, tasks = {}, []
        for record_id in chunk_ids:
            if record_id in self.store:
                digests[record_id] = self.store.digest(record_id)
                tasks.append((self.store.get_record_bytes(record_id),
                              matched[record_id]))
        return digests, tasks

    def _sweep_apply_chunk(self, chunk_ids, digests, outcomes):
        """Write back one chunk; returns ``[(record id, item results)]``.

        A record a concurrent delete removed since matching gets
        ``None``. A record whose digest moved since the read (a
        concurrent replace) is skipped — writing back its re-encrypted
        old bytes would undo the replace — and its items become
        ``storage`` errors. Deletes and replaces run on this same
        offload thread, so neither check can race one.
        """
        results, writes = [], []
        for record_id in chunk_ids:
            if record_id not in outcomes or record_id not in self.store:
                results.append((record_id, None))
                continue
            new_blob, item_results = outcomes[record_id]
            if self.store.digest(record_id) != digests[record_id]:
                exc = StorageError(f"record {record_id!r} changed during "
                                   f"the sweep; rerun it to resume")
                item_results = [
                    (item[0], ERROR, code_for_exception(exc), str(exc))
                    for item in item_results
                ]
            elif new_blob is not None:
                writes.append((record_id, new_blob))
            results.append((record_id, item_results))
        # Deferred group-commit: chunks rename into place with no sync
        # barrier; _reencrypt commits once at the end, so an
        # acknowledged ReEncrypt is still durable.
        self.store.replace_record_bytes_many(writes, durable=False)
        return results

    async def _handle_stats(self, session, seq, body):
        # stats() reads every record through the store's blob cache and
        # decode memo, which only the offload thread may touch.
        stats = await self._offload(self.stats)
        await self._send(session, MessageType.STATS_REPLY,
                         protocol.encode_json(stats), seq=seq)

    def health(self) -> dict:
        """The heartbeat payload: current mode and coarse liveness."""
        return {
            "server": self.name,
            "status": "read-only" if self.read_only else "ok",
            "read_only": self.read_only,
            "degraded": self.read_only and not self._configured_read_only,
            "records": len(self.store),
            "connections": self.connection_count,
            "workers": self.pool.workers,
        }

    def stats(self) -> dict:
        """A JSON-friendly snapshot of storage and traffic counters."""
        return {
            "server": self.name,
            "preset": self.preset,
            "records": len(self.store),
            "authorities": self.store.authority_ids(),
            "storage_bytes": self.store.storage_bytes(),
            "connections": self.connection_count,
            "read_only": self.read_only,
            "workers": self.pool.workers,
            "max_inflight": self.max_inflight,
            "dedup_entries": len(self.dedup),
            "dedup_hits": self.dedup.hits,
            "cache": self.store.cache_stats(),
            "transform_keys": len(self._transform_keys),
            "counters": {
                **self.meter.counter_summary("store."),
                **self.meter.counter_summary("transform."),
                **self.meter.counter_summary("decrypt."),
            },
            "wire_bytes": self.meter.wire_bytes,
            "channels": self.meter.channel_summary(),
            "by_kind": self.meter.bytes_by_kind(),
        }

    _HANDLERS = {
        MessageType.PING: _handle_ping,
        MessageType.HEALTH: _handle_health,
        MessageType.STORE_RECORD: _handle_store_record,
        MessageType.FETCH_RECORD: _handle_fetch_record,
        MessageType.FETCH_COMPONENT: _handle_fetch_component,
        MessageType.LIST_RECORDS: _handle_list_records,
        MessageType.DELETE_RECORD: _handle_delete_record,
        MessageType.REPLACE_COMPONENT: _handle_replace_component,
        MessageType.RECORD_DIGEST: _handle_record_digest,
        MessageType.REPAIR_RECORD: _handle_repair_record,
        MessageType.PUT_AUTHORITY_KEYS: _handle_put_authority_keys,
        MessageType.GET_AUTHORITY_KEYS: _handle_get_authority_keys,
        MessageType.PUT_TRANSFORM_KEY: _handle_put_transform_key,
        MessageType.TRANSFORM_FETCH: _handle_transform_fetch,
        MessageType.REENCRYPT: _handle_reencrypt,
        MessageType.REENCRYPT_SWEEP: _handle_reencrypt_sweep,
        MessageType.STATS: _handle_stats,
    }
