"""Client-side library for the networked storage service.

:class:`ServiceConnection` owns one framed TCP connection: it speaks
the hello negotiation, sends requests, maps typed ERROR frames back
into the library's exception hierarchy, and meters every
payload-bearing transfer through a :class:`repro.system.meter.Meter`
with the same role/kind vocabulary the server meters with — so a
client-side meter and the server's meter tell the same Table IV story
for the same workload.

Every connection runs one background reader task that correlates each
incoming frame to its pending request by sequence number, and a
``max_inflight`` window bounding how many requests share the connection
at once (``1`` means one request at a time). A timed-out request fails
alone — its late reply is discarded by seq and logged, never consumed
as the answer to another request — and the connection stays up for
every sibling; only reader-level breakage (EOF, garbled frames) fails
everything in flight and forces a reconnect.

With a :class:`repro.service.retry.RetryPolicy` attached, the
connection is fault-tolerant: a failed exchange is re-sent under
exponential backoff, reconnecting (re-HELLO included) when the socket
broke. Mutating requests carry a stable idempotency key across retries
so the server applies them exactly once, and each request retries under
its own :class:`~repro.service.retry.RetrySequence`. Every recovery
action is recorded in :attr:`ServiceConnection.retry_log`.

On top of it sit the three role wrappers
(:class:`repro.system.workflow.CloudStorageSystem` runs the first two as
its owners and users):

* :class:`OwnerClient` — hybrid-encrypts and uploads Fig. 2 records,
  reads its own data back via the ledger, replaces components, deletes
  records, and drives the owner side of Section V-C revocation
  (pushing the update key + per-ciphertext update information so the
  server re-encrypts);
* :class:`UserClient` — a :class:`~repro.core.wallet.UserWallet` that
  downloads components and decrypts end-to-end;
* :class:`AuthorityClient` — publishes authority/attribute public keys
  into the server's key directory.

Key issuance itself (AA → user) stays out-of-band, exactly as in the
paper: the server is never on the path of any secret key.

The routines every role shares — one metered download
(:func:`fetch_component`), one session-grouped decrypt plus AEAD open
(:func:`open_components`), one outsourced read (:func:`read_transformed`),
one record sealer (:func:`seal_record`) and the key-directory requests
(:func:`learn_authorities`, :func:`publish_keys`) — live here as
functions of a connection, so the cluster roles and the load harness
run exactly the single-node code.
"""

from __future__ import annotations

import asyncio
import hashlib
from collections import OrderedDict

from repro.core.authority import AttributeAuthority
from repro.core.keys import UpdateKey
from repro.core.outsourcing import user_finalize_value
from repro.core.owner import DataOwner
from repro.core.serialize import (
    decode_authority_public_key,
    decode_public_attribute_keys,
    encode_authority_public_key,
    encode_public_attribute_keys,
    encode_transform_key,
    encode_update_info,
    encode_update_key,
)
from repro.core.wallet import UserWallet
from repro.crypto.hybrid import encrypt_with_session, open_sealed
from repro.crypto.symmetric import SymmetricCiphertext
from repro.errors import (
    AuthorizationError,
    OutcomeUnknownError,
    ProtocolError,
    RetryExhaustedError,
    TransportError,
    UnavailableError,
)
from repro.pairing.group import PairingGroup
from repro.service import protocol
from repro.service.protocol import MessageType
from repro.service.retry import (
    RetryLog,
    RetryPolicy,
    is_retryable,
    new_idempotency_key,
)
from repro.system.meter import ROLE_SERVER, Meter
from repro.system.records import StoredComponent, StoredRecord

#: Validated component decodes a connection keeps, keyed by the SHA-256
#: of the downloaded body (see :func:`fetch_component`).
DECODE_MEMO_ENTRIES = 128


class _PendingReply:
    """One request awaiting its reply, keyed by seq.

    The reader task pushes ``("progress", body)``, ``("final",
    (type, body))`` or ``("error", exc)`` items; the requesting task
    consumes them under its own per-item timeout.
    """

    __slots__ = ("queue", "progress")

    def __init__(self, progress=None):
        self.queue = asyncio.Queue()
        self.progress = progress  # MessageType of progress frames, or None

    def deliver(self, kind, value) -> None:
        self.queue.put_nowait((kind, value))


class ServiceConnection:
    """One framed, metered client connection to a :class:`StorageService`."""

    def __init__(self, group: PairingGroup, host: str, port: int, *,
                 role: str, name: str, meter: Meter = None,
                 timeout: float = 30.0,
                 max_frame: int = protocol.MAX_FRAME_BYTES,
                 retry: RetryPolicy = None, retry_log: RetryLog = None,
                 max_inflight: int = 1):
        if max_inflight < 1:
            raise ValueError("max_inflight must be at least 1")
        self.group = group
        self.host = host
        self.port = port
        self.role = role
        self.name = name
        self.meter = meter if meter is not None else Meter(group)
        self.timeout = timeout
        self.max_frame = max_frame
        self.retry = retry
        self.retry_log = retry_log if retry_log is not None else RetryLog()
        self.max_inflight = max_inflight
        self.server_name = None
        self.version = None
        self._reader = None
        self._writer = None
        self._send_seq = 0
        # Per-connection state: the reader task, pending requests by
        # seq, the write lock keeping frames atomic, and the in-flight
        # window.
        self._reader_task = None
        self._pending = {}  # seq -> _PendingReply
        self._write_lock = None
        self._window = None
        self._connect_lock = None
        # sha256(component body) -> its validated StoredComponent.
        self.decoded_components = OrderedDict()

    @property
    def connected(self) -> bool:
        return self._writer is not None

    async def connect(self) -> "ServiceConnection":
        """Connect and negotiate; with a retry policy, keeps trying."""
        attempt = 1
        retry_state = self.retry.sequence() if self.retry is not None else None
        while True:
            try:
                return await self._connect_once()
            except Exception as exc:
                if not await self._backoff("HELLO", attempt, exc,
                                           retry_state):
                    raise
                attempt += 1

    async def _ensure_connected(self) -> None:
        """Reconnect if needed, serialized: when N in-flight requests
        fail together (their reader died), exactly one performs the
        reconnect and the rest reuse it."""
        if self._connect_lock is None:
            self._connect_lock = asyncio.Lock()
        async with self._connect_lock:
            if not self.connected:
                await self._connect_once()

    async def _connect_once(self) -> "ServiceConnection":
        """One connection attempt: TCP connect plus the HELLO exchange."""
        await self.close()  # never reuse a half-dead socket
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )
        try:
            sent = await protocol.write_frame(
                self._writer, MessageType.HELLO,
                protocol.hello_body(self.group.params.name, self.role,
                                    self.name),
            )
            self.meter.record_wire(sent)
            try:
                msg_type, body = await asyncio.wait_for(
                    protocol.read_frame(self._reader, self.max_frame),
                    self.timeout,
                )
            except ProtocolError as exc:
                raise TransportError(f"garbled HELLO_ACK: {exc}") from exc
            self.meter.record_wire(5 + len(body))
            if msg_type is MessageType.ERROR:
                protocol.raise_error(body)
            if msg_type is not MessageType.HELLO_ACK:
                raise ProtocolError(
                    f"expected HELLO_ACK, got {msg_type.name}"
                )
            ack = protocol.decode_json(body)
            self.version = ack.get("version")
            if self.version not in protocol.PROTOCOL_VERSIONS:
                raise ProtocolError(
                    f"server chose unsupported protocol version "
                    f"{self.version!r}"
                )
            self.server_name = protocol.json_str(ack, "server")
            # Created here, inside the running loop, fresh per
            # connection (stale waiters of a previous connection
            # already failed in close()).
            self._write_lock = asyncio.Lock()
            self._window = asyncio.Semaphore(self.max_inflight)
            self._reader_task = asyncio.get_running_loop().create_task(
                self._read_replies()
            )
            return self
        except BaseException:
            await self.close()
            raise

    async def close(self) -> None:
        reader_task = self._reader_task
        self._reader_task = None
        if reader_task is not None and reader_task is not asyncio.current_task():
            reader_task.cancel()
            await asyncio.gather(reader_task, return_exceptions=True)
        self._fail_pending(TransportError("connection closed"))
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._reader = self._writer = None

    def _fail_pending(self, exc: BaseException) -> None:
        """Deliver a terminal error to every request in flight."""
        pending, self._pending = self._pending, {}
        for entry in pending.values():
            entry.deliver("error", exc)

    async def _read_replies(self) -> None:
        """The connection's reader: correlate every frame to its request.

        Runs for the lifetime of one connection. Frame-level breakage
        (EOF, garbled frames) is terminal for the *connection* — every
        pending request fails with a retryable transport error and the
        socket closes — but an individual request's timeout is handled
        on the requesting side and never reaches here.
        """
        try:
            while True:
                reply_type, reply_seq, reply = await protocol.read_seq_frame(
                    self._reader, self.max_frame
                )
                self.meter.record_wire(9 + len(reply))
                if reply_seq == protocol.SEQ_BROADCAST:
                    # A reply answering no particular request (the
                    # server could not even parse a frame): terminal
                    # for every exchange on this connection.
                    pending, self._pending = self._pending, {}
                    for entry in pending.values():
                        entry.deliver("final", (reply_type, reply))
                    continue
                entry = self._pending.get(reply_seq)
                if entry is None:
                    # A reply to a request that already timed out (its
                    # retry is in flight under a fresh seq) or a chaos
                    # duplicate: discard, never mis-correlate.
                    self.retry_log.note(
                        "discard", reply_type.name,
                        cause=f"unmatched reply seq {reply_seq}",
                    )
                    continue
                if entry.progress is not None and reply_type is entry.progress:
                    entry.deliver("progress", reply)
                    continue
                del self._pending[reply_seq]
                entry.deliver("final", (reply_type, reply))
        except asyncio.CancelledError:
            raise
        except ProtocolError as exc:
            self._reader_task = None
            self._fail_pending(TransportError(f"garbled reply frame: {exc}"))
            self._abort_transport()
        except Exception as exc:
            self._reader_task = None
            self._fail_pending(
                exc if is_retryable(exc)
                else TransportError(f"reply reader died: {exc!r}")
            )
            self._abort_transport()

    def _abort_transport(self) -> None:
        """Close the socket without awaiting (reader-task cleanup)."""
        if self._writer is not None:
            self._writer.close()
            self._reader = self._writer = None

    def _check_open(self) -> None:
        """Refuse to exchange without a negotiated connection whose
        reader is alive (never connected, closed, or broken)."""
        if self._reader_task is None:
            raise TransportError(
                "connection is not open (closed or never connected)"
            )

    async def _exchange(self, msg_type: MessageType, body: bytes = b"",
                        progress=None, on_progress=None) -> tuple:
        """One request/reply over the shared connection.

        The window semaphore bounds requests in flight; the write lock
        keeps request frames atomic on the wire. Progress frames of type
        ``progress`` are decoded and handed to ``on_progress``, each
        restarting the timeout. A timeout fails *this* request only —
        the pending entry is dropped (its late reply, if any, will be
        discarded by seq) and the connection stays up for every sibling.
        The caller's retry loop re-sends under a fresh seq and the same
        idempotency key.
        """
        self._check_open()
        async with self._window:
            seq = self._send_seq
            self._send_seq = (self._send_seq + 1) & 0x7FFFFFFF
            entry = _PendingReply(progress)
            self._pending[seq] = entry
            try:
                async with self._write_lock:
                    self._check_open()
                    sent = await protocol.write_frame(
                        self._writer, msg_type, body, seq=seq
                    )
                self.meter.record_wire(sent)
                while True:
                    try:
                        kind, value = await asyncio.wait_for(
                            entry.queue.get(), self.timeout
                        )
                    except (asyncio.TimeoutError, TimeoutError):
                        raise TransportError(
                            f"{msg_type.name} (seq {seq}) timed out after "
                            f"{self.timeout}s"
                        ) from None
                    if kind == "progress":
                        payload = protocol.decode_json(value)
                        if on_progress is not None:
                            on_progress(payload)
                        continue  # each frame restarts the timeout
                    if kind == "error":
                        raise value
                    return value  # ("final", (reply type, reply body))
            finally:
                self._pending.pop(seq, None)

    async def __aenter__(self) -> "ServiceConnection":
        return await self.connect()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    async def _backoff(self, request: str, attempt: int,
                       exc: BaseException, retry_state=None) -> bool:
        """Log and sleep before a retry; False when out of budget.

        Two budgets gate every retry: the per-attempt count (exhaustion
        re-raises the original failure, as before) and the policy's
        total wall-clock ``deadline`` — when sleeping the next backoff
        would overrun it, a typed :class:`RetryExhaustedError` carrying
        this request's attempt trace is raised instead, so adversarial
        delay injection can't stretch a failover into unbounded retry.

        ``retry_state`` is one request's :class:`~repro.service.retry.
        RetrySequence`; pipelined requests retry concurrently, so each
        carries its own walk/deadline state instead of sharing the
        policy's built-in default sequence.
        """
        if self.retry is None or not is_retryable(exc):
            return False
        state = retry_state if retry_state is not None else self.retry
        if not state.attempts_left(attempt):
            self.retry_log.note("exhausted", request, attempt=attempt,
                                cause=repr(exc))
            return False
        delay = state.backoff(attempt)
        if state.deadline_overrun(delay):
            self.retry_log.note("exhausted", request, attempt=attempt,
                                cause=f"deadline {self.retry.deadline}s "
                                      f"overrun: {exc!r}")
            raise RetryExhaustedError(
                f"{request}: retry deadline of {self.retry.deadline}s "
                f"overrun after {attempt} attempt(s) ({exc!r})",
                attempts=[entry for entry in self.retry_log
                          if entry["request"] == request],
            ) from exc
        self.retry_log.note("retry", request, attempt=attempt,
                            cause=repr(exc), delay=delay)
        await asyncio.sleep(delay)
        return True

    async def request_stream(self, msg_type: MessageType, body: bytes = b"",
                             *, final: MessageType, progress: MessageType,
                             on_progress=None) -> bytes:
        """Send one request answered by progress frames plus a final.

        :meth:`request` with progress delivery: each ``progress`` frame
        is decoded and handed to ``on_progress``. A retry re-sends under
        the *same* idempotency key, so the server either resumes
        idempotently or replays the cached final reply — possibly with
        no progress frames at all. Returns the final frame's body.
        """
        _, reply = await self.request(msg_type, body, expect=final,
                                      progress=progress,
                                      on_progress=on_progress)
        return reply

    async def request(self, msg_type: MessageType, body: bytes = b"",
                      expect: MessageType = None, *,
                      progress: MessageType = None,
                      on_progress=None) -> tuple:
        """Send one request; raise the mapped exception on ERROR frames.

        With a retry policy, transport failures reconnect (full
        re-HELLO) and re-send under backoff; mutating requests keep one
        idempotency key across every retry so the server applies them
        exactly once. A typed ``unavailable`` ERROR (read-only server)
        is retried the same way; all other ERRORs raise immediately.
        A refusal after a sent attempt lost its reply raises
        :class:`OutcomeUnknownError`: the lost attempt may have applied.
        """
        attempt = 1
        key = None
        lost = False  # a sent attempt of this mutation lost its reply
        retry_state = self.retry.sequence() if self.retry is not None else None
        while True:
            try:
                if not self.connected and self.retry is not None:
                    await self._ensure_connected()
                wire_body = body
                if msg_type in protocol.MUTATION_TYPES:
                    if key is None:
                        key = new_idempotency_key()
                    wire_body = protocol.wrap_idempotency(key, body)
                reply_type, reply = await self._exchange(
                    msg_type, wire_body,
                    progress=progress, on_progress=on_progress,
                )
            except Exception as exc:
                lost = lost or key is not None
                if not await self._backoff(msg_type.name, attempt, exc,
                                           retry_state):
                    raise
                attempt += 1
                continue
            if reply_type is MessageType.ERROR:
                try:
                    protocol.raise_error(reply)
                except Exception as exc:
                    if isinstance(exc, UnavailableError) and await \
                            self._backoff(msg_type.name, attempt, exc,
                                          retry_state):
                        attempt += 1
                        continue
                    if lost:
                        raise OutcomeUnknownError(
                            f"{msg_type.name} refused after a lost reply"
                        ) from exc
                    raise
            if expect is not None and reply_type is not expect:
                raise ProtocolError(
                    f"expected a {expect.name} reply, got {reply_type.name}"
                )
            return reply_type, reply

    # -- metering (the role/kind vocabulary the server meters with) -------

    def meter_send(self, kind: str, payload) -> None:
        self.meter.record(self.name, self.role,
                          self.server_name or "server", ROLE_SERVER,
                          kind, payload)

    def meter_receive(self, kind: str, payload) -> None:
        self.meter.record(self.server_name or "server", ROLE_SERVER,
                          self.name, self.role, kind, payload)


async def send_sweep(connection: ServiceConnection, server_key: UpdateKey,
                     update_infos, *, on_progress=None) -> dict:
    """Send one ``REENCRYPT_SWEEP`` and return the decoded ``SWEEP_DONE``.

    The one builder of sweep requests, used by the single-node owner and
    by every node leg of a cluster sweep. It meters the update key, then
    each update information in order — the order the server meters them
    on receipt — so the two meter logs agree entry for entry.
    """
    update_infos = list(update_infos)
    connection.meter_send("update-key", server_key)
    for update_info in update_infos:
        connection.meter_send("update-info", update_info)
    body = protocol.pack_parts(
        protocol.encode_json({"n": len(update_infos)}),
        encode_update_key(connection.group, server_key),
        *(encode_update_info(update_info) for update_info in update_infos),
    )
    reply = await connection.request_stream(
        MessageType.REENCRYPT_SWEEP, body,
        final=MessageType.SWEEP_DONE,
        progress=MessageType.SWEEP_PROGRESS,
        on_progress=on_progress,
    )
    return protocol.decode_json(reply)


async def fetch_component(connection: ServiceConnection, record_id: str,
                          component_name: str) -> StoredComponent:
    """The one metered component download: user reads, owner self-reads,
    cluster failover reads and the load harness's decrypt op.

    The validated decode is memoized per connection by the SHA-256 of
    the body: identical bytes give the identical (frozen) validated
    component, and any other bytes are validated afresh, so no
    subgroup check is ever skipped.
    """
    connection.meter_send("read-request", f"{record_id}/{component_name}")
    _, body = await connection.request(
        MessageType.FETCH_COMPONENT,
        protocol.encode_json(
            {"record": record_id, "component": component_name}
        ),
        expect=MessageType.COMPONENT,
    )
    memo = connection.decoded_components
    key = hashlib.sha256(body).digest()
    component = memo.get(key)
    if component is None:
        component = StoredComponent.from_bytes(connection.group, body)
        memo[key] = component
        if len(memo) > DECODE_MEMO_ENTRIES:
            memo.popitem(last=False)
    else:
        memo.move_to_end(key)
    connection.meter_receive("component-download", component)
    return component


def open_components(wallet: UserWallet, components, meter: Meter) -> list:
    """Decrypt downloaded components through the wallet's session cache.

    Components are grouped by policy shape so every group rides one
    :meth:`DecryptionSession.decrypt_many` call (one batched final
    exponentiation, one batch inversion), and each body is opened with
    its AEAD. Session hits, misses and evictions land on ``meter`` —
    the meter of the connection that did the read.
    """
    groups = OrderedDict()  # id(session) -> (session, [slot indices])
    for index, component in enumerate(components):
        session = wallet.decryption_session_for(component.abe_ciphertext,
                                                meter)
        groups.setdefault(id(session), (session, []))[1].append(index)
    plaintexts = [None] * len(components)
    for session, slots in groups.values():
        blinded = session.decrypt_many(
            [components[index].abe_ciphertext for index in slots]
        )
        for index, value in zip(slots, blinded):
            component = components[index]
            plaintexts[index] = open_sealed(
                value, component.abe_ciphertext.ciphertext_id,
                component.data_ciphertext,
            )
    return plaintexts


def seal_component(core: DataOwner, name: str, ciphertext_id: str,
                   plaintext: bytes, policy) -> StoredComponent:
    """Encrypt one component through the owner's session cache."""
    abe_ciphertext, body = encrypt_with_session(
        core.session_for(policy), ciphertext_id, plaintext
    )
    return StoredComponent(name=name, abe_ciphertext=abe_ciphertext,
                           data_ciphertext=body)


def seal_record(core: DataOwner, record_id: str,
                components: dict) -> StoredRecord:
    """Encrypt one Fig. 2 record, the one sealer of every service upload.

    ``components`` maps a component name to ``(plaintext, policy)``;
    each is sealed under ``record/name``, so an id the ledger already
    holds fails as used. Callers scope the seal and its store with
    :meth:`DataOwner.minted`. Components sharing a policy reuse one cached
    :class:`~repro.fastpath.session.EncryptionSession`, so the policy
    is parsed and precomputed once per policy string rather than once
    per component.
    """
    return StoredRecord(
        record_id=record_id, owner_id=core.owner_id,
        components={
            name: seal_component(core, name, f"{record_id}/{name}",
                                 plaintext, policy)
            for name, (plaintext, policy) in components.items()
        },
    )


async def learn_authorities(connection: ServiceConnection, core: DataOwner,
                            aid: str) -> None:
    """Fetch one authority's keys from a server into the owner's cache."""
    _, body = await connection.request(
        MessageType.GET_AUTHORITY_KEYS,
        protocol.encode_json({"aid": aid}),
        expect=MessageType.AUTHORITY_KEYS,
    )
    apk_raw, pak_raw = protocol.unpack_parts(body, 2)
    apk = decode_authority_public_key(connection.group, apk_raw)
    pak = decode_public_attribute_keys(connection.group, pak_raw)
    connection.meter_receive("authority-public-key", apk)
    connection.meter_receive("public-attribute-keys", pak)
    core.learn_authority(apk, pak)


async def publish_keys(connection: ServiceConnection,
                       core: AttributeAuthority) -> None:
    """Push one authority's current public keys into a server."""
    apk = core.authority_public_key()
    pak = core.public_attribute_keys()
    connection.meter_send("authority-public-key", apk)
    connection.meter_send("public-attribute-keys", pak)
    await connection.request(
        MessageType.PUT_AUTHORITY_KEYS,
        protocol.pack_parts(
            protocol.encode_json({"aid": core.aid}),
            encode_authority_public_key(apk),
            encode_public_attribute_keys(pak),
        ),
        expect=MessageType.OK,
    )


async def put_transform_key(connection: ServiceConnection, uid: str,
                            transform_key) -> None:
    """Upload one already-minted blinded bundle to one server."""
    connection.meter_send("transform-key", transform_key)
    await connection.request(
        MessageType.PUT_TRANSFORM_KEY,
        protocol.pack_parts(
            protocol.encode_json({"uid": uid}),
            encode_transform_key(transform_key),
        ),
        expect=MessageType.OK,
    )


async def read_transformed(connection: ServiceConnection, wallet: UserWallet,
                           record_id: str, component_name: str) -> bytes:
    """One outsourced read: zero pairings on the client.

    The server applies every pairing of Eq. (1) under the wallet's
    registered blinded key and returns ``(C, partial, sealed data)``;
    finalization here is one GT exponentiation plus the AEAD open.
    """
    connection.meter_send("read-request", f"{record_id}/{component_name}")
    _, body = await connection.request(
        MessageType.TRANSFORM_FETCH,
        protocol.encode_json({
            "record": record_id,
            "component": component_name,
            "uid": wallet.uid,
        }),
        expect=MessageType.TRANSFORMED,
    )
    header_raw, c_raw, partial_raw, data_raw = protocol.unpack_parts(body, 4)
    header = protocol.decode_json(header_raw)
    owner_id = protocol.json_str(header, "owner")
    ciphertext_id = protocol.json_str(header, "id")
    retrieval_key = wallet.retrieval_keys.get(owner_id)
    if retrieval_key is None:
        raise AuthorizationError(
            f"no retrieval key for owner {owner_id!r}; call "
            "register_transform_key first"
        )
    # The partial came from an untrusted transform; subgroup-check
    # both GT elements before exponentiating (the AEAD MAC below is
    # the integrity gate, this is the don't-run-on-garbage gate).
    c = connection.group.decode_gt(c_raw)
    partial = connection.group.decode_gt(partial_raw)
    data_ciphertext = SymmetricCiphertext.from_bytes(data_raw)
    connection.meter_receive("transformed-download", [c, partial, data_raw])
    blinded = user_finalize_value(c, partial, retrieval_key)
    return open_sealed(blinded, ciphertext_id, data_ciphertext)


class BaseClient:
    """Shared plumbing: ping, stats, record listing."""

    def __init__(self, connection: ServiceConnection):
        self.connection = connection
        self.group = connection.group

    async def close(self) -> None:
        await self.connection.close()

    async def ping(self) -> bool:
        _, body = await self.connection.request(
            MessageType.PING, b"hello", expect=MessageType.PONG
        )
        return body == b"hello"

    async def health(self) -> dict:
        """The server's heartbeat: ``status`` is ``ok`` or ``read-only``."""
        _, body = await self.connection.request(
            MessageType.HEALTH, expect=MessageType.HEALTH_REPLY
        )
        return protocol.decode_json(body)

    async def stats(self) -> dict:
        _, body = await self.connection.request(
            MessageType.STATS, expect=MessageType.STATS_REPLY
        )
        return protocol.decode_json(body)

    async def list_records(self) -> list:
        _, body = await self.connection.request(
            MessageType.LIST_RECORDS, expect=MessageType.RECORD_IDS
        )
        records = protocol.decode_json(body).get("records")
        if not isinstance(records, list):
            raise ProtocolError("malformed record listing")
        return records

    async def record_digest(self, record_id: str, *,
                            verify: bool = False) -> dict:
        """One replica's view of a record: its content digest, and —
        with ``verify`` — whether the node can actually serve bytes
        matching it (``ok: false`` marks a replica needing repair)."""
        _, body = await self.connection.request(
            MessageType.RECORD_DIGEST,
            protocol.encode_json({"record": record_id, "verify": verify}),
            expect=MessageType.RECORD_DIGEST_REPLY,
        )
        return protocol.decode_json(body)

    async def fetch_record(self, record_id: str) -> StoredRecord:
        """Download one whole record (every component)."""
        self.connection.meter_send("read-request", record_id)
        _, body = await self.connection.request(
            MessageType.FETCH_RECORD,
            protocol.encode_json({"record": record_id}),
            expect=MessageType.RECORD,
        )
        record = StoredRecord.from_bytes(self.group, body)
        self.connection.meter_receive("record-download", record)
        return record

    async def repair_record(self, record_bytes: bytes) -> None:
        """Force-put known-good record bytes (the read-repair write)."""
        await self.connection.request(
            MessageType.REPAIR_RECORD, record_bytes, expect=MessageType.OK,
        )

    async def _fetch_component(self, record_id: str,
                               component_name: str) -> StoredComponent:
        return await fetch_component(self.connection, record_id,
                                     component_name)


class OwnerClient(BaseClient):
    """The data-owner role against a live server."""

    def __init__(self, connection: ServiceConnection, core: DataOwner):
        super().__init__(connection)
        self.core = core

    async def learn_authorities(self, aid: str) -> None:
        """Fetch an authority's public keys from the server's directory."""
        await learn_authorities(self.connection, self.core, aid)

    async def upload(self, record_id: str, components: dict) -> StoredRecord:
        """Encrypt (:func:`seal_record`) and upload one Fig. 2 record;
        a refused store retires its ids (:meth:`DataOwner.minted`)."""
        with self.core.minted(f"{record_id}/{name}" for name in components):
            record = seal_record(self.core, record_id, components)
            self.connection.meter_send("store-record", record)
            await self.connection.request(
                MessageType.STORE_RECORD, record.to_bytes(),
                expect=MessageType.OK,
            )
        return record

    async def read_own(self, record_id: str, component_name: str) -> bytes:
        """Read own data back via the ledger — no ABE keys involved."""
        return self.core.open_own(
            await self._fetch_component(record_id, component_name)
        )

    async def update_component(self, record_id: str, component_name: str,
                               plaintext: bytes, policy) -> StoredComponent:
        """Replace one component's data under a fresh versioned id."""
        ciphertext_id = self.core.next_component_id(record_id,
                                                    component_name)
        with self.core.minted([ciphertext_id]):
            component = seal_component(self.core, component_name,
                                       ciphertext_id, plaintext, policy)
            self.connection.meter_send("update-component", component)
            await self.connection.request(
                MessageType.REPLACE_COMPONENT,
                protocol.pack_parts(
                    protocol.encode_json({"record": record_id}),
                    component.to_bytes(),
                ),
                expect=MessageType.OK,
            )
        self.core.retire_replaced(record_id, component_name, ciphertext_id)
        return component

    async def delete_record(self, record_id: str) -> None:
        """Remove a record server-side and retire its ledger entries."""
        self.connection.meter_send("delete-record", record_id)
        await self.connection.request(
            MessageType.DELETE_RECORD,
            protocol.encode_json({"record": record_id,
                                  "owner": self.core.owner_id}),
            expect=MessageType.OK,
        )
        self.core.retire_stored_record(record_id)

    async def push_revocation_updates(self, update_key: UpdateKey,
                                      include_uk2: bool = True) -> list:
        """Owner side of Section V-C Phase 2, over the wire.

        For every owned ciphertext involving the re-keyed authority,
        send the update key and the ledger-derived update information;
        the server runs ReEncrypt in place. Returns the ids answered OK,
        settled through ``DataOwner.settle_update``.
        """
        from repro.core.revocation import strip_uk2

        server_key = update_key if include_uk2 else strip_uk2(update_key)
        key_raw = encode_update_key(self.group, server_key)
        confirmed = []
        try:
            for ciphertext_id in self.core.records_for_update(update_key):
                update_info = self.core.update_info_for_record(
                    ciphertext_id, update_key
                )
                self.connection.meter_send("update-key", server_key)
                self.connection.meter_send("update-info", update_info)
                await self.connection.request(
                    MessageType.REENCRYPT,
                    protocol.pack_parts(
                        ciphertext_id.encode("utf-8"),
                        key_raw,
                        encode_update_info(update_info),
                    ),
                    expect=MessageType.OK,
                )
                confirmed.append(ciphertext_id)
        finally:
            self.core.settle_update(update_key, confirmed)
        return confirmed

    async def sweep_revocation(self, update_key: UpdateKey, *,
                               include_uk2: bool = True,
                               on_progress=None) -> dict:
        """Revoke across every owned ciphertext in ONE sweep request.

        The bulk counterpart of :meth:`push_revocation_updates`: the
        update key and every ledger-derived update information travel in
        a single ``REENCRYPT_SWEEP`` frame, the server re-encrypts
        matching records chunk-by-chunk through its crypto pool (one
        amortized pairing preparation per owner instead of one cold
        pairing per ciphertext), and progress frames stream back through
        ``on_progress``. The sent ids reported ``updated`` *or*
        ``already-current`` are settled through
        ``DataOwner.settle_update``. Returns the server's summary plus
        ``pending`` (rerun the same update key to resume them) and
        ``epoch_rolled``.
        """
        from repro.core.revocation import strip_uk2

        server_key = update_key if include_uk2 else strip_uk2(update_key)
        eligible = self.core.records_for_update(update_key)
        summary = {"requested": 0, "records": 0, "updated": [],
                   "already_current": [], "missing": [], "errors": {}}
        if eligible:
            # Bulk UI computation: the whole sweep's exponentiations
            # share batched inversions (see
            # DataOwner.update_infos_for_records).
            summary = await send_sweep(
                self.connection, server_key,
                self.core.update_infos_for_records(eligible, update_key),
                on_progress=on_progress,
            )
        sent_ids = set(eligible)
        summary["pending"] = self.core.settle_update(update_key, [
            ciphertext_id
            for ciphertext_id in (*summary.get("updated", ()),
                                  *summary.get("already_current", ()))
            if ciphertext_id in sent_ids
        ])
        summary["epoch_rolled"] = self.core.authority_version(
            update_key.aid) == update_key.to_version
        return summary


class UserClient(BaseClient, UserWallet):
    """The data-consumer role against a live server."""

    def __init__(self, connection: ServiceConnection, uid: str):
        BaseClient.__init__(self, connection)
        UserWallet.__init__(self, connection.group, uid)

    async def read(self, record_id: str, component_name: str) -> bytes:
        """Download one component and decrypt it end-to-end."""
        component = await fetch_component(self.connection, record_id,
                                          component_name)
        return open_components(self, [component], self.connection.meter)[0]

    async def read_many(self, items) -> list:
        """Batch read: pipelined downloads, batched session decrypts.

        ``items`` is a sequence of ``(record_id, component_name)``
        pairs. Downloads share the connection's pipeline window;
        :func:`open_components` decrypts each policy group with one
        ``decrypt_many`` call instead of N cold decrypts.
        """
        components = await asyncio.gather(*(
            fetch_component(self.connection, record_id, component_name)
            for record_id, component_name in items
        ))
        return open_components(self, components, self.connection.meter)

    async def put_transform_key(self, transform_key) -> None:
        """Upload one already-minted blinded bundle to this server."""
        await put_transform_key(self.connection, self.uid, transform_key)

    async def register_transform_key(self, owner_id: str) -> None:
        """Mint and upload the outsourcing token for one owner's data.

        The private ``z`` (the :class:`~repro.core.outsourcing.
        RetrievalKey`) never leaves this client; the server receives
        only the blinded bundle. Re-registering after a key roll simply
        overwrites the server's (uid, owner) slot.
        """
        transform_key, retrieval_key = self.mint_transform_key(owner_id)
        await self.put_transform_key(transform_key)
        self.retrieval_keys[owner_id] = retrieval_key

    async def read_outsourced(self, record_id: str,
                              component_name: str) -> bytes:
        """Read via server-side transform (:func:`read_transformed`).

        Requires a prior :meth:`register_transform_key` for the
        record's owner.
        """
        return await read_transformed(self.connection, self, record_id,
                                      component_name)


class AuthorityClient(BaseClient):
    """An attribute authority publishing into the server's key directory."""

    def __init__(self, connection: ServiceConnection,
                 core: AttributeAuthority):
        super().__init__(connection)
        self.core = core

    async def publish_keys(self) -> None:
        """Push this AA's current public key material to the server."""
        await publish_keys(self.connection, self.core)
