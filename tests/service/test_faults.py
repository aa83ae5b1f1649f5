"""Fault-tolerance suite: chaos proxy, retry/idempotency, crash recovery.

Covers the ISSUE tentpole end to end — seeded fault injection through
:class:`ChaosProxy`, retry with reconnect + re-HELLO, exactly-once
mutations via the server's idempotency table, read-only degradation,
the HEALTH heartbeat — plus the satellites: the timeout desync
regression (a late reply is discarded by seq, never consumed as another
request's answer), the HELLO frame cap, and crash-recovery invariants
checked across a real process kill.
"""

import asyncio
import random
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.errors import (
    ProtocolError,
    StorageError,
    TransportError,
    UnavailableError,
)
from repro.service import protocol
from repro.service.client import BaseClient, OwnerClient, ServiceConnection
from repro.service.faults import ChaosProxy, FaultSpec
from repro.service.protocol import MessageType
from repro.service.retry import (
    IdempotencyTable,
    RetryPolicy,
    is_retryable,
)
from repro.service.smoke import run_smoke
from repro.service.store import RecordStore

from .conftest import run, start_service

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])

DISRUPTIVE = ("drop", "delay", "corrupt", "truncate")


def make_connection(group, host, port, *, role="user", name="user:bob",
                    retry=None, timeout=2.0):
    return ServiceConnection(group, host, port, role=role, name=name,
                             retry=retry, timeout=timeout)


async def start_proxied(group, root, *, schedule=None, spec=None, seed=0,
                        **kwargs):
    service = await start_service(group, root, **kwargs)
    proxy = ChaosProxy(service.host, service.port, spec=spec, seed=seed,
                       schedule=schedule)
    await proxy.start()
    return service, proxy


def quick_retry(attempts=6, seed=0):
    """A fast deterministic policy so tests never sleep for real."""
    return RetryPolicy(max_attempts=attempts, base_delay=0.01,
                       max_delay=0.05, rng=random.Random(seed))


# -- retry policy / classification units --------------------------------------

def test_backoff_grows_and_caps():
    policy = RetryPolicy(base_delay=0.1, multiplier=2.0, max_delay=0.5,
                         jitter=0.0)
    delays = [policy.backoff(n) for n in range(1, 6)]
    assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]


def test_backoff_jitter_is_deterministic_with_seeded_rng():
    a = RetryPolicy(jitter=0.5, rng=random.Random(42))
    b = RetryPolicy(jitter=0.5, rng=random.Random(42))
    assert [a.backoff(n) for n in range(1, 8)] \
        == [b.backoff(n) for n in range(1, 8)]


def test_attempt_budget():
    policy = RetryPolicy(max_attempts=3)
    assert policy.attempts_left(1) and policy.attempts_left(2)
    assert not policy.attempts_left(3)
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)


def test_retryable_classification():
    assert is_retryable(ConnectionResetError())
    assert is_retryable(asyncio.IncompleteReadError(b"", 4))
    assert is_retryable(TimeoutError())
    assert is_retryable(TransportError("garbled"))
    assert is_retryable(UnavailableError("read-only"))
    assert not is_retryable(StorageError("no record"))
    assert not is_retryable(ProtocolError("preset mismatch"))


def test_idempotency_table_lru_and_hits():
    table = IdempotencyTable(max_entries=2)
    table.put("a", (MessageType.OK, b""))
    table.put("b", (MessageType.OK, b""))
    assert table.get("a") == (MessageType.OK, b"")  # refreshes 'a'
    table.put("c", (MessageType.OK, b""))           # evicts 'b'
    assert "b" not in table
    assert "a" in table and "c" in table
    assert len(table) == 2
    assert table.hits == 1
    assert table.get("b") is None


# -- satellite: timeout desync regression -------------------------------------

async def _laggy_server(first_delay):
    """A protocol-speaking server that answers the first request late.

    Requests are answered concurrently, each PONG echoing its request's
    seq, so a retry is answered while the first reply is still delayed.
    """
    state = {"first": True}

    async def handle(reader, writer):
        _, body = await protocol.read_frame(reader)
        hello = protocol.decode_json(body)
        await protocol.write_frame(
            writer, MessageType.HELLO_ACK,
            protocol.encode_json({"version": 2, "preset": hello["preset"],
                                  "server": "laggy"}),
        )

        async def answer(seq, body, delay):
            await asyncio.sleep(delay)
            try:
                await protocol.write_frame(writer, MessageType.PONG, body,
                                           seq=seq)
            except (ConnectionError, OSError):
                pass

        replies = []
        try:
            while True:
                _, seq, body = await protocol.read_seq_frame(reader)
                delay = first_delay if state["first"] else 0.0
                state["first"] = False
                replies.append(asyncio.ensure_future(
                    answer(seq, body, delay)
                ))
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            pass
        await asyncio.gather(*replies)

    return await asyncio.start_server(handle, "127.0.0.1", 0)


def test_timed_out_request_recovers_with_retry(group):
    """A timed-out request fails alone: the retry is answered on the
    same connection, and the late first reply is discarded by seq."""
    async def body():
        server = await _laggy_server(first_delay=0.4)
        host, port = server.sockets[0].getsockname()[:2]
        conn = make_connection(group, host, port, timeout=0.1,
                               retry=quick_retry())
        await conn.connect()
        reader_task = conn._reader_task
        try:
            _, reply = await conn.request(MessageType.PING, b"payload",
                                          expect=MessageType.PONG)
            for _ in range(200):  # wait out the late first PONG
                if conn.retry_log.events("discard"):
                    break
                await asyncio.sleep(0.01)
            same_socket = conn._reader_task is reader_task
        finally:
            await conn.close()
            server.close()
            await server.wait_closed()
        return reply, same_socket, conn.retry_log

    reply, same_socket, log = run(body())
    assert reply == b"payload"
    assert same_socket
    retries = log.events("retry")
    assert retries and "timed out" in retries[0]["cause"]
    discards = log.events("discard")
    assert [e["request"] for e in discards] == ["PONG"]
    assert "unmatched reply seq 0" in discards[0]["cause"]


# -- satellite: HELLO frame cap -----------------------------------------------

def test_oversized_hello_gets_typed_error(group, store_root):
    async def body():
        service = await start_service(group, store_root)
        reader, writer = await asyncio.open_connection(
            service.host, service.port
        )
        try:
            await protocol.write_frame(
                writer, MessageType.HELLO, b"x" * (2 * protocol.HELLO_MAX_BYTES)
            )
            msg_type, body_raw = await protocol.read_frame(reader)
            assert msg_type is MessageType.ERROR
            with pytest.raises(ProtocolError, match="maximum"):
                protocol.raise_error(body_raw)
        finally:
            writer.close()
            await service.stop()

    run(body())


def test_reasonable_hello_still_fits_under_the_cap(group, store_root):
    async def body():
        service = await start_service(group, store_root)
        conn = make_connection(group, service.host, service.port)
        try:
            await conn.connect()
            assert conn.version == max(protocol.PROTOCOL_VERSIONS)
        finally:
            await conn.close()
            await service.stop()

    run(body())


# -- injected faults, one at a time -------------------------------------------

def test_dropped_reply_without_retry_raises(group, store_root):
    async def body():
        # Frame 0 is the HELLO_ACK; frame 1 (first PONG) is dropped.
        service, proxy = await start_proxied(group, store_root,
                                             schedule={1: "drop"})
        conn = make_connection(group, proxy.host, proxy.port)
        await conn.connect()
        try:
            with pytest.raises(asyncio.IncompleteReadError):
                await conn.request(MessageType.PING, b"x",
                                   expect=MessageType.PONG)
            assert not conn.connected
        finally:
            await conn.close()
            await proxy.stop()
            await service.stop()
        return proxy.injected

    injected = run(body())
    assert [f["fault"] for f in injected] == ["drop"]


def test_corrupted_reply_is_transport_error_then_recovers(group, store_root):
    async def body():
        service, proxy = await start_proxied(group, store_root,
                                             schedule={1: "corrupt"})
        conn = make_connection(group, proxy.host, proxy.port,
                               retry=quick_retry())
        await conn.connect()
        try:
            _, reply = await conn.request(MessageType.PING, b"x",
                                          expect=MessageType.PONG)
        finally:
            await conn.close()
            await proxy.stop()
            await service.stop()
        return reply, conn.retry_log

    reply, log = run(body())
    assert reply == b"x"
    assert any("garbled" in e["cause"] for e in log.events("retry"))


def test_truncated_reply_recovers(group, store_root):
    async def body():
        service, proxy = await start_proxied(group, store_root,
                                             schedule={1: "truncate"})
        conn = make_connection(group, proxy.host, proxy.port,
                               retry=quick_retry())
        await conn.connect()
        try:
            _, reply = await conn.request(MessageType.PING, b"x",
                                          expect=MessageType.PONG)
        finally:
            await conn.close()
            await proxy.stop()
            await service.stop()
        return reply, conn.retry_log

    reply, log = run(body())
    assert reply == b"x"
    assert log.events("retry")


def test_duplicated_reply_is_discarded_by_seq(group, store_root):
    async def body():
        service, proxy = await start_proxied(group, store_root,
                                             schedule={1: "duplicate"})
        conn = make_connection(group, proxy.host, proxy.port)
        await conn.connect()
        try:
            _, first = await conn.request(MessageType.PING, b"one",
                                          expect=MessageType.PONG)
            # The duplicate of "one" is still buffered; without seq
            # correlation it would be read as the answer to "two".
            _, second = await conn.request(MessageType.PING, b"two",
                                           expect=MessageType.PONG)
        finally:
            await conn.close()
            await proxy.stop()
            await service.stop()
        return first, second, conn.retry_log

    first, second, log = run(body())
    assert first == b"one"
    assert second == b"two"
    discards = log.events("discard")
    assert discards and "unmatched reply seq" in discards[0]["cause"]


# -- exactly-once mutations ---------------------------------------------------

def test_mutation_retried_across_reconnect_applies_once(group, scenario,
                                                        store_root):
    """The acceptance-criteria dedup test: drop the OK of a STORE_RECORD
    after the server applied it; the client's retry (fresh connection,
    same idempotency key) must be answered from the dedup table instead
    of failing with 'already exists'."""
    async def body():
        service, proxy = await start_proxied(group, store_root,
                                             schedule={1: "drop"})
        conn = make_connection(group, proxy.host, proxy.port, role="owner",
                               name="owner:alice", retry=quick_retry())
        owner = OwnerClient(await conn.connect(), scenario.owner_core)
        try:
            await owner.upload("r", {"note": (b"exactly once",
                                              "hospital:doctor")})
        finally:
            await owner.close()
            await proxy.stop()
            await service.stop()
        return service, proxy, conn.retry_log

    service, proxy, log = run(body())
    assert [f["fault"] for f in proxy.injected] == ["drop"]
    assert [e["request"] for e in log.events("retry")] == ["STORE_RECORD"]
    assert service.store.record_ids() == ["r"]  # applied exactly once
    assert service.dedup.hits == 1              # the retry was a replay


def test_replayed_key_returns_cached_reply(group, scenario, store_root):
    """Same idempotency key, same connection: the second send replays
    the cached OK instead of raising 'already exists'."""
    async def body():
        service = await start_service(group, store_root)
        conn = make_connection(group, service.host, service.port,
                               role="owner", name="owner:alice")
        await conn.connect()
        record = scenario.make_record("r")
        wire = protocol.wrap_idempotency("key-1", record.to_bytes())
        try:
            first = await conn._exchange(MessageType.STORE_RECORD, wire)
            second = await conn._exchange(MessageType.STORE_RECORD, wire)
            # A *different* key is a genuinely new request and must fail.
            other = protocol.wrap_idempotency("key-2", record.to_bytes())
            third = await conn._exchange(MessageType.STORE_RECORD, other)
        finally:
            await conn.close()
            await service.stop()
        return service, first, second, third

    service, first, second, third = run(body())
    assert first == (MessageType.OK, b"")
    assert second == (MessageType.OK, b"")
    assert third[0] is MessageType.ERROR
    assert service.dedup.hits == 1


def test_cached_application_error_is_replayed(group, scenario, store_root):
    async def body():
        service = await start_service(group, store_root)
        conn = make_connection(group, service.host, service.port)
        await conn.connect()
        wire = protocol.wrap_idempotency(
            "del-1",
            protocol.encode_json({"record": "ghost", "owner": "alice"}),
        )
        try:
            first = await conn._exchange(MessageType.DELETE_RECORD, wire)
            second = await conn._exchange(MessageType.DELETE_RECORD, wire)
        finally:
            await conn.close()
            await service.stop()
        return first, second, service.dedup.hits

    first, second, hits = run(body())
    assert first[0] is MessageType.ERROR and second[0] is MessageType.ERROR
    assert first[1] == second[1]
    assert hits == 1


# -- read-only degradation & health -------------------------------------------

def test_read_only_server_refuses_writes_serves_reads(group, scenario,
                                                      store_root):
    async def body():
        service = await start_service(group, store_root)
        service.store.put(scenario.make_record("r"))
        await service.stop()

        reborn = await start_service(group, store_root, read_only=True)
        conn = make_connection(group, reborn.host, reborn.port, role="owner",
                               name="owner:alice")
        owner = OwnerClient(await conn.connect(), scenario.owner_core)
        try:
            health = await owner.health()
            assert health["status"] == "read-only"
            with pytest.raises(UnavailableError, match="read-only"):
                await owner.upload("r2", {"note": (b"x", "hospital:doctor")})
            # Reads keep serving.
            assert await owner.list_records() == ["r"]
            assert await owner.read_own("r", "note") == b"plaintext body"
        finally:
            await owner.close()
            await reborn.stop()

    run(body())


def test_failing_disk_degrades_to_read_only(group, scenario, store_root):
    async def body():
        service = await start_service(group, store_root)
        service.store.put(scenario.make_record("r"))
        conn = make_connection(group, service.host, service.port,
                               role="owner", name="owner:alice")
        owner = OwnerClient(await conn.connect(), scenario.owner_core)

        def full_disk(blob):
            raise OSError(28, "No space left on device")

        service.store.blobs.put = full_disk
        try:
            with pytest.raises(UnavailableError, match="read-only"):
                await owner.upload("r2", {"note": (b"x", "hospital:doctor")})
            assert service.read_only
            health = await owner.health()
            assert health["status"] == "read-only"
            # Fetches keep serving from the intact store.
            assert await owner.read_own("r", "note") == b"plaintext body"
            # Operator fixes the disk and flips the mode back on. (The
            # owner's ledger burned the r2 ciphertext ids on the failed
            # try, so the re-upload uses a fresh record id.)
            del service.store.blobs.put
            service.read_only = False
            await owner.upload("r3", {"note": (b"y", "hospital:doctor")})
            listing = await owner.list_records()
        finally:
            await owner.close()
            await service.stop()
        return listing

    assert run(body()) == ["r", "r3"]


def test_unavailable_error_is_retried_until_exhausted(group, scenario,
                                                      store_root):
    async def body():
        service = await start_service(group, store_root, read_only=True)
        conn = make_connection(group, service.host, service.port,
                               role="owner", name="owner:alice",
                               retry=quick_retry(attempts=3))
        owner = OwnerClient(await conn.connect(), scenario.owner_core)
        try:
            with pytest.raises(UnavailableError):
                await owner.upload("r", {"note": (b"x", "hospital:doctor")})
        finally:
            await owner.close()
            await service.stop()
        return conn.retry_log

    log = run(body())
    assert len(log.events("retry")) == 2   # attempts 1 and 2 backed off
    assert len(log.events("exhausted")) == 1


def test_health_on_a_healthy_server(group, store_root):
    async def body():
        service = await start_service(group, store_root, name="nimbus")
        client = BaseClient(await make_connection(
            group, service.host, service.port
        ).connect())
        try:
            health = await client.health()
            stats = await client.stats()
        finally:
            await client.close()
            await service.stop()
        return health, stats

    health, stats = run(body())
    assert health == {"server": "nimbus", "status": "ok",
                      "read_only": False, "degraded": False, "records": 0,
                      "connections": 1, "workers": 0}
    assert stats["read_only"] is False
    assert stats["dedup_hits"] == 0


# -- chaos proxy determinism --------------------------------------------------

def _ping_workload(group, store_root, seed):
    async def body():
        spec = FaultSpec(drop=0.1, corrupt=0.08, truncate=0.05,
                         duplicate=0.1)
        service, proxy = await start_proxied(group, store_root, spec=spec,
                                             seed=seed)
        conn = make_connection(group, proxy.host, proxy.port,
                               retry=quick_retry(attempts=10, seed=seed))
        await conn.connect()
        try:
            for n in range(30):
                _, reply = await conn.request(
                    MessageType.PING, b"%d" % n, expect=MessageType.PONG
                )
                assert reply == b"%d" % n
        finally:
            await conn.close()
            await proxy.stop()
            await service.stop()
        return [(f["conn"], f["frame"], f["fault"]) for f in proxy.injected]

    return run(body())


def test_chaos_proxy_is_deterministic_per_seed(group, tmp_path):
    first = _ping_workload(group, tmp_path / "a", seed=13)
    second = _ping_workload(group, tmp_path / "b", seed=13)
    assert first == second
    assert first  # the seed actually injected something


# -- the acceptance smoke cycle under chaos -----------------------------------

def test_smoke_cycle_with_scheduled_faults(group, store_root):
    """Drops + a delay + one corrupted frame at fixed points: the cycle
    completes and every injected fault shows up in the retry log."""
    from repro.ec.params import TOY80

    async def body():
        service = await start_service(group, store_root)
        report = {}
        try:
            rc = await run_smoke(
                TOY80, service.host, service.port, seed=7,
                chaos=FaultSpec(delay_seconds=0.8), chaos_seed=0,
                chaos_schedule={3: "drop", 7: "delay",
                                11: "corrupt", 15: "drop"},
                timeout=0.4, report=report,
            )
        finally:
            await service.stop()
        return rc, report

    rc, report = run(body())
    assert rc == 0
    assert sorted(f["fault"] for f in report["injected"]) == \
        ["corrupt", "delay", "drop", "drop"]
    # Every injected fault is visible as a recovery in the retry log.
    retries = report["retry_counts"].get("retry", 0)
    assert retries >= len(report["injected"])


def test_smoke_cycle_under_seeded_chaos(group, store_root):
    from repro.ec.params import TOY80

    async def body():
        service = await start_service(group, store_root)
        spec = FaultSpec(drop=0.06, delay=0.04, corrupt=0.04,
                         truncate=0.03, duplicate=0.05, delay_seconds=1.0)
        report = {}
        try:
            rc = await run_smoke(TOY80, service.host, service.port, seed=7,
                                 chaos=spec, chaos_seed=1, timeout=0.5,
                                 report=report)
        finally:
            await service.stop()
        return rc, report

    rc, report = run(body())
    assert rc == 0
    fault_counts = report["fault_counts"]
    retry_counts = report["retry_counts"]
    assert sum(fault_counts.values()) > 0
    disruptive = sum(fault_counts.get(kind, 0) for kind in DISRUPTIVE)
    duplicates = fault_counts.get("duplicate", 0)
    # Each disruptive fault forced a logged retry; each duplicate a
    # logged discard (a duplicate may also surface as a retry when the
    # copy arrives garbled mid-recovery).
    assert retry_counts.get("retry", 0) >= disruptive
    assert retry_counts.get("discard", 0) + retry_counts.get("retry", 0) \
        >= disruptive + duplicates


# -- crash recovery across a real process kill --------------------------------

_CRASH_SCRIPT = r"""
import os, sys

src, root, mode = sys.argv[1], sys.argv[2], sys.argv[3]
sys.path.insert(0, src)

from repro.core.authority import AttributeAuthority
from repro.core.ca import CertificateAuthority
from repro.core.owner import DataOwner
from repro.crypto.hybrid import seal
from repro.ec.params import TOY80
from repro.pairing.group import PairingGroup
from repro.service import store as store_mod
from repro.system.records import StoredComponent, StoredRecord

group = PairingGroup(TOY80, seed=0x5EED)
ca = CertificateAuthority(group)
aa = AttributeAuthority(group, "hospital", ["doctor"])
ca.register_authority("hospital")
owner = DataOwner(group, "alice")
ca.register_owner("alice")
aa.register_owner(owner.secret_key)
owner.learn_authority(aa.authority_public_key(), aa.public_attribute_keys())


def component(name, cid, text):
    session = group.random_gt()
    return StoredComponent(
        name=name,
        abe_ciphertext=owner.encrypt(session, "hospital:doctor",
                                     ciphertext_id=cid),
        data_ciphertext=seal(session, cid, text),
    )


store = store_mod.RecordStore(root, group)
old = StoredRecord(record_id="r", owner_id="alice",
                   components={"note": component("note", "r/note", b"old")})
store.put(old)
replacement = component("note", "r/note#v0", b"new")
new = old.with_component(replacement)
with open(os.path.join(root, "old.bin"), "wb") as fh:
    fh.write(old.to_bytes())
with open(os.path.join(root, "new.bin"), "wb") as fh:
    fh.write(new.to_bytes())

if mode == "mid-replace":
    # Die after the new blob landed, before the ref repoints.
    real_write = store_mod._atomic_write

    def crash_on_ref(directory, path, data):
        if path.parent.name == "refs":
            os._exit(3)
        real_write(directory, path, data)

    store_mod._atomic_write = crash_on_ref
elif mode == "mid-gc":
    # Die after the ref repointed, while collecting the old blob.
    def crash_on_delete(digest):
        os._exit(3)

    store.blobs.delete = crash_on_delete
else:
    raise SystemExit(f"unknown mode {mode!r}")

store.replace_component("r", replacement)
os._exit(9)  # the crash hook should have fired
"""


def _crash_run(tmp_path, mode):
    script = tmp_path / "crash.py"
    script.write_text(_CRASH_SCRIPT)
    root = tmp_path / "store"
    proc = subprocess.run(
        [sys.executable, str(script), SRC_DIR, str(root), mode],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 3, (proc.stdout, proc.stderr)
    return root


def test_process_killed_mid_replace_keeps_old_record(group, tmp_path):
    root = _crash_run(tmp_path, "mid-replace")
    store = RecordStore(root, group)
    # The ref still points at the old, digest-valid record.
    assert store.get("r").to_bytes() == (root / "old.bin").read_bytes()
    assert store.locate_ciphertext("r/note") == ("r", "note")
    report = store.check()
    assert not report["missing_blobs"] and not report["corrupt_blobs"]
    assert not report["index_mismatches"]
    # The only residue is the orphaned new blob, which gc reclaims.
    assert len(report["orphan_blobs"]) == 1
    assert store.gc() == report["orphan_blobs"]
    assert store.check()["ok"]
    assert store.get("r").to_bytes() == (root / "old.bin").read_bytes()


def test_process_killed_mid_gc_keeps_new_record(group, tmp_path):
    root = _crash_run(tmp_path, "mid-gc")
    store = RecordStore(root, group)
    # The replace completed: the ref resolves to the new record.
    assert store.get("r").to_bytes() == (root / "new.bin").read_bytes()
    assert store.locate_ciphertext("r/note#v0") == ("r", "note")
    report = store.check()
    assert not report["missing_blobs"] and not report["corrupt_blobs"]
    assert not report["index_mismatches"]
    # The uncollected old blob is the only residue.
    assert len(report["orphan_blobs"]) == 1
    assert store.gc() == report["orphan_blobs"]
    assert store.check()["ok"]


# -- decorrelated jitter ------------------------------------------------------

def test_decorrelated_backoff_walks_its_window_and_caps():
    policy = RetryPolicy(max_attempts=10, base_delay=0.05, max_delay=2.0,
                         decorrelated=True, rng=random.Random(7))
    previous = policy.base_delay
    for attempt in range(1, 10):
        delay = policy.backoff(attempt)
        assert policy.base_delay <= delay <= 2.0
        assert delay <= max(policy.base_delay, 3.0 * previous)
        previous = delay
    # A fresh failure sequence restarts the walk at the base, so the
    # first delay is never an inherited multi-second wait.
    assert policy.backoff(1) <= 3.0 * policy.base_delay


def test_decorrelated_backoff_is_deterministic_and_seed_dephased():
    def schedule(seed):
        policy = RetryPolicy(max_attempts=6, decorrelated=True,
                             rng=random.Random(seed))
        return [policy.backoff(attempt) for attempt in range(1, 6)]

    # Same seed, same schedule (tests depend on this); different seeds
    # de-phase — the point of per-node policies in the cluster client.
    assert schedule("0:node-0") == schedule("0:node-0")
    assert schedule("0:node-0") != schedule("0:node-1")


# -- chaos fleet --------------------------------------------------------------

def _fleet_ping_workload(group, root, *, specs, seed):
    """Two proxied upstreams, 15 pings each; returns injected-by-node."""
    from repro.service.faults import ChaosFleet

    async def body():
        services = [await start_service(group, root / f"n{i}")
                    for i in range(2)]
        fleet = ChaosFleet(
            {f"node-{i}": (service.host, service.port)
             for i, service in enumerate(services)},
            specs=specs, seed=seed,
        )
        await fleet.start()
        try:
            for name in ("node-0", "node-1"):
                host, port = fleet.address(name)
                conn = make_connection(
                    group, host, port,
                    retry=quick_retry(attempts=10, seed=f"{seed}:{name}"),
                )
                await conn.connect()
                try:
                    for n in range(15):
                        _, reply = await conn.request(
                            MessageType.PING, b"%d" % n,
                            expect=MessageType.PONG,
                        )
                        assert reply == b"%d" % n
                finally:
                    await conn.close()
            counts = fleet.fault_counts()
            injected = {
                name: [(f["frame"], f["fault"]) for f in faults]
                for name, faults in fleet.injected_by_node().items()
            }
        finally:
            await fleet.stop()
            for service in services:
                await service.stop()
        return counts, injected

    return run(body())


def test_chaos_fleet_fault_streams_are_independent(group, tmp_path):
    """Adding faults in front of node-0 must not shift node-1's stream:
    each proxy draws from its own ``{seed}:{name}`` RNG."""
    noisy = FaultSpec(drop=0.12, corrupt=0.08, truncate=0.05)
    _, only_zero = _fleet_ping_workload(
        group, tmp_path / "a", specs={"node-0": noisy}, seed=13)
    _, both = _fleet_ping_workload(
        group, tmp_path / "b",
        specs={"node-0": noisy, "node-1": noisy}, seed=13)

    assert only_zero["node-0"]          # the spec actually fired
    assert not only_zero["node-1"]      # absent spec = faithful proxy
    # node-0's stream is bit-for-bit identical whether or not node-1
    # has its own chaos.
    assert both["node-0"] == only_zero["node-0"]


def test_chaos_fleet_aggregates_fault_counts(group, tmp_path):
    noisy = FaultSpec(drop=0.12, corrupt=0.08, truncate=0.05)
    counts, injected = _fleet_ping_workload(
        group, tmp_path,
        specs={"node-0": noisy, "node-1": noisy}, seed=13)
    assert counts  # something fired across the fleet
    assert sum(counts.values()) == sum(
        len(faults) for faults in injected.values()
    )
