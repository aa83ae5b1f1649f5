"""End-to-end service tests over real localhost sockets at TOY80."""

import asyncio
import io
import threading

import pytest

from repro.ec.params import TOY80
from repro.errors import (
    AuthorizationError,
    PolicyNotSatisfiedError,
    ProtocolError,
    StorageError,
    TransportError,
    UnavailableError,
)
from repro.service import protocol
from repro.service.client import OwnerClient, ServiceConnection, UserClient
from repro.service.protocol import MessageType
from repro.service.smoke import run_smoke

from .conftest import run, start_service


async def connect(scenario, service, role, name) -> ServiceConnection:
    conn = ServiceConnection(
        scenario.group, service.host, service.port, role=role, name=name
    )
    return await conn.connect()


async def make_owner(scenario, service) -> OwnerClient:
    return OwnerClient(
        await connect(scenario, service, "owner", "owner:alice"),
        scenario.owner_core,
    )


async def make_user(scenario, service, uid, secret_key=None) -> UserClient:
    user = UserClient(
        await connect(scenario, service, "user", f"user:{uid}"), uid
    )
    user.receive_public_key(getattr(scenario, f"{uid}_pk"))
    if secret_key is not None:
        user.receive_secret_key(secret_key)
    return user


async def wait_for_sessions(service, count, deadline=2.0):
    """Poll until the server's live-session count drops to ``count``."""
    for _ in range(int(deadline / 0.01)):
        if service.connection_count == count:
            return
        await asyncio.sleep(0.01)
    raise AssertionError(
        f"server still tracks {service.connection_count} sessions"
    )


# -- the full lifecycle -------------------------------------------------------

def test_smoke_cycle_over_a_real_socket(group, store_root):
    """upload → read → revoke → re-encrypt → revoked read fails."""
    async def scenario():
        service = await start_service(group, store_root)
        out = io.StringIO()
        try:
            rc = await run_smoke(TOY80, service.host, service.port,
                                 out=out, seed=7)
        finally:
            await service.stop()
        return rc, out.getvalue()

    rc, transcript = run(scenario())
    assert rc == 0, transcript
    assert "smoke cycle passed" in transcript
    assert "revoked user's read now fails" in transcript


def test_upload_read_roundtrip(group, scenario, store_root):
    plaintext = b"exact plaintext bytes \x00\xff"

    async def body():
        service = await start_service(group, store_root)
        owner = await make_owner(scenario, service)
        bob = await make_user(scenario, service, "bob", scenario.bob_sk)
        try:
            await owner.upload(
                "r", {"note": (plaintext, "hospital:doctor")}
            )
            downloaded = await bob.read("r", "note")
            self_read = await owner.read_own("r", "note")
            listing = await bob.list_records()
        finally:
            await owner.close()
            await bob.close()
            await service.stop()
        return downloaded, self_read, listing

    downloaded, self_read, listing = run(body())
    assert downloaded == plaintext
    assert self_read == plaintext
    assert listing == ["r"]


def test_unauthorized_reads(group, scenario, store_root):
    async def body():
        service = await start_service(group, store_root)
        owner = await make_owner(scenario, service)
        # bob holds only 'doctor'; carol's client gets no keys at all.
        bob = await make_user(scenario, service, "bob", scenario.bob_sk)
        keyless = await make_user(scenario, service, "carol")
        try:
            await owner.upload(
                "r", {"nurse-note": (b"nurses only", "hospital:nurse")}
            )
            with pytest.raises(PolicyNotSatisfiedError):
                await bob.read("r", "nurse-note")
            with pytest.raises(AuthorizationError):
                await keyless.read("r", "nurse-note")
        finally:
            await owner.close()
            await bob.close()
            await keyless.close()
            await service.stop()

    run(body())


# -- error handling keeps sessions alive --------------------------------------

def test_missing_record_is_a_typed_error_not_a_hangup(group, scenario,
                                                      store_root):
    async def body():
        service = await start_service(group, store_root)
        bob = await make_user(scenario, service, "bob", scenario.bob_sk)
        try:
            with pytest.raises(StorageError, match="no record"):
                await bob.read("ghost", "note")
            # The connection survives the application error.
            assert await bob.ping()
            assert await bob.list_records() == []
        finally:
            await bob.close()
            await service.stop()

    run(body())


def test_duplicate_upload_is_rejected_server_side(group, scenario,
                                                  store_root):
    async def body():
        service = await start_service(group, store_root)
        owner = await make_owner(scenario, service)
        try:
            await owner.upload("r", {"note": (b"x", "hospital:doctor")})
            # Fresh ciphertexts, same record id: the server must refuse.
            with pytest.raises(StorageError, match="already exists"):
                await owner.upload("r", {"note2": (b"y", "hospital:doctor")})
            assert await owner.ping()
        finally:
            await owner.close()
            await service.stop()

    run(body())


# -- protocol violations ------------------------------------------------------

def test_hello_preset_mismatch_is_rejected(group, store_root):
    async def body():
        service = await start_service(group, store_root)
        reader, writer = await asyncio.open_connection(
            service.host, service.port
        )
        try:
            await protocol.write_frame(
                writer, MessageType.HELLO,
                protocol.hello_body("SS512", "user", "stranger"),
            )
            msg_type, frame_body = await protocol.read_frame(reader)
            assert msg_type is MessageType.ERROR
            with pytest.raises(ProtocolError, match="preset mismatch"):
                protocol.raise_error(frame_body)
        finally:
            writer.close()
            await service.stop()

    run(body())


def test_request_before_hello_is_rejected(group, store_root):
    async def body():
        service = await start_service(group, store_root)
        reader, writer = await asyncio.open_connection(
            service.host, service.port
        )
        try:
            await protocol.write_frame(writer, MessageType.PING, b"eager")
            msg_type, frame_body = await protocol.read_frame(reader)
            assert msg_type is MessageType.ERROR
            with pytest.raises(ProtocolError, match="HELLO frame first"):
                protocol.raise_error(frame_body)
        finally:
            writer.close()
            await service.stop()

    run(body())


def test_unknown_role_is_rejected(group, scenario, store_root):
    async def body():
        service = await start_service(group, store_root)
        conn = ServiceConnection(
            group, service.host, service.port, role="martian", name="zork"
        )
        try:
            with pytest.raises(ProtocolError, match="unknown client role"):
                await conn.connect()
        finally:
            await conn.close()
            await service.stop()

    run(body())


def test_oversized_frame_answers_error_and_closes(group, scenario,
                                                  store_root):
    async def body():
        service = await start_service(group, store_root, max_frame=256)
        bob = await make_user(scenario, service, "bob")
        try:
            with pytest.raises(ProtocolError, match="maximum"):
                await bob.connection.request(
                    MessageType.PING, b"x" * 1024, expect=MessageType.PONG
                )
            await wait_for_sessions(service, 0)
        finally:
            await bob.close()
            await service.stop()

    run(body())


# -- robustness ---------------------------------------------------------------

def test_server_survives_mid_request_disconnect(group, scenario, store_root):
    async def body():
        service = await start_service(group, store_root)
        owner = await make_owner(scenario, service)
        await owner.upload("r", {"note": (b"still here", "hospital:doctor")})

        # A rude client: finishes the hello, then dies mid-frame.
        reader, writer = await asyncio.open_connection(
            service.host, service.port
        )
        await protocol.write_frame(
            writer, MessageType.HELLO,
            protocol.hello_body(service.preset, "user", "rude"),
        )
        msg_type, _ = await protocol.read_frame(reader)
        assert msg_type is MessageType.HELLO_ACK
        writer.write((4096).to_bytes(4, "big") + b"\x10only-a-prefix")
        await writer.drain()
        writer.close()

        try:
            await wait_for_sessions(service, 1)  # only the owner remains
            # The server is unbothered: existing and new sessions work.
            assert await owner.ping()
            bob = await make_user(scenario, service, "bob", scenario.bob_sk)
            plaintext = await bob.read("r", "note")
            await bob.close()
        finally:
            await owner.close()
            await service.stop()
        return plaintext

    assert run(body()) == b"still here"


def test_concurrent_clients(group, scenario, store_root):
    async def body():
        service = await start_service(group, store_root)
        owner = await make_owner(scenario, service)
        await owner.upload("r", {
            "note": (b"shared note", "hospital:doctor"),
            "plan": (b"shared plan", "hospital:doctor OR hospital:nurse"),
        })
        users = [
            await make_user(scenario, service, "bob", scenario.bob_sk),
            await make_user(scenario, service, "carol", scenario.carol_sk),
        ]
        try:
            # One in-flight request per connection (the protocol is
            # strictly request/reply per session), three sessions at once.
            results = await asyncio.gather(
                users[0].read("r", "note"),
                users[1].read("r", "plan"),
                owner.read_own("r", "plan"),
            )
            results.append(await users[1].read("r", "note"))
            results.append(await users[0].list_records())
        finally:
            for user in users:
                await user.close()
            await owner.close()
            await service.stop()
        return results

    note0, plan1, own, note1, listing = run(body())
    assert note0 == note1 == b"shared note"
    assert plan1 == own == b"shared plan"
    assert listing == ["r"]


def test_restart_persistence(group, scenario, store_root):
    """Records survive a full server restart on the same store root."""
    async def body():
        service = await start_service(group, store_root)
        owner = await make_owner(scenario, service)
        await owner.upload("r", {"note": (b"durable", "hospital:doctor")})
        await owner.close()
        await service.stop()

        reborn = await start_service(group, store_root)
        bob = await make_user(scenario, reborn, "bob", scenario.bob_sk)
        try:
            stats = await bob.stats()
            plaintext = await bob.read("r", "note")
        finally:
            await bob.close()
            await reborn.stop()
        return stats, plaintext

    stats, plaintext = run(body())
    assert plaintext == b"durable"
    assert stats["records"] == 1


def test_idle_session_is_dropped(group, scenario, store_root):
    async def body():
        service = await start_service(group, store_root, idle_timeout=0.05)
        bob = await make_user(scenario, service, "bob")
        try:
            assert await bob.ping()
            await wait_for_sessions(service, 0)
            # The reader task may notice the server's close before the
            # next send (TransportError: not open) or not yet (EOF).
            with pytest.raises((ConnectionError, EOFError, OSError,
                                TransportError)):
                await bob.ping()
        finally:
            await bob.close()
            await service.stop()

    run(body())


def test_stats_snapshot(group, scenario, store_root):
    async def body():
        service = await start_service(group, store_root, name="cumulus")
        owner = await make_owner(scenario, service)
        try:
            await owner.upload("r", {"note": (b"x", "hospital:doctor")})
            stats = await owner.stats()
        finally:
            await owner.close()
            await service.stop()
        return stats

    stats = run(body())
    assert stats["server"] == "cumulus"
    assert stats["preset"] == "TOY80"
    assert stats["records"] == 1
    assert stats["storage_bytes"] > 0
    assert stats["wire_bytes"] > 0
    assert stats["by_kind"]["store-record"] > 0
    assert stats["channels"]["owner<->server"]["messages"] > 0


# -- digest probes & repair over the socket -----------------------------------

def test_record_digest_verify_and_repair_round_trip(group, scenario,
                                                    store_root):
    """The three cluster-repair primitives end to end: a verified digest
    probe flags the corrupted copy, FETCH_RECORD serves the healthy raw
    bytes, and REPAIR_RECORD force-puts them back digest-identical."""
    async def flow():
        service = await start_service(group, store_root)
        owner = await make_owner(scenario, service)
        try:
            await owner.upload("r", {"note": (b"body", "hospital:doctor")})
            probe = await owner.record_digest("r", verify=True)
            digest = service.store.digest("r")
            assert probe == {"record": "r", "digest": digest, "ok": True}

            blob = (await owner.fetch_record("r")).to_bytes()
            assert blob == service.store.get_record_bytes("r")

            # Rot the blob on disk; the verified probe must notice even
            # though the ref (and the unverified digest) look fine.
            path = service.store.blobs._path(digest)
            path.write_bytes(b"bit rot" + path.read_bytes()[7:])
            service.store.blobs._cache_drop(digest)
            damaged = await owner.record_digest("r", verify=True)
            assert damaged == {"record": "r", "digest": digest,
                               "ok": False}
            unverified = await owner.record_digest("r")
            assert unverified["ok"] is True  # no disk read, no verdict

            await owner.repair_record(blob)
            repaired = await owner.record_digest("r", verify=True)
            assert repaired["ok"] is True
            assert service.store.get_record_bytes("r") == blob
        finally:
            await owner.close()
            await service.stop()

    run(flow())


def test_record_digest_of_unknown_record_is_a_storage_error(group, scenario,
                                                            store_root):
    async def flow():
        service = await start_service(group, store_root)
        owner = await make_owner(scenario, service)
        try:
            with pytest.raises(StorageError):
                await owner.record_digest("ghost")
        finally:
            await owner.close()
            await service.stop()

    run(flow())


def test_repair_record_rejects_garbage_and_read_only(group, scenario,
                                                     store_root):
    async def flow():
        service = await start_service(group, store_root)
        owner = await make_owner(scenario, service)
        try:
            await owner.upload("r", {"note": (b"body", "hospital:doctor")})
            blob = (await owner.fetch_record("r")).to_bytes()
            with pytest.raises(StorageError):
                await owner.repair_record(b"\x00" * 32)
            # Configured read-only (policy, not damage) — a bare
            # read_only=True would now self-heal via the recovery probe.
            service.read_only = service._configured_read_only = True
            with pytest.raises(UnavailableError):
                await owner.repair_record(blob)
        finally:
            await owner.close()
            await service.stop()

    run(flow())


def test_stop_joins_the_crypto_thread(group, scenario, store_root):
    async def body():
        await asyncio.to_thread(int)  # the loop's own executor thread
        before = threading.active_count()
        service = await start_service(group, store_root)
        owner = await make_owner(scenario, service)
        try:
            await owner.upload("r", {"note": (b"x", "hospital:doctor")})
            assert threading.active_count() > before  # the offload ran
        finally:
            await owner.close()
            await service.stop()
        return before, threading.active_count()

    before, after = run(body())
    assert after == before
