"""REENCRYPT_SWEEP over real sockets: one request re-encrypts a whole
store, streams progress, survives chaos, and never starves the loop."""

import asyncio
import io

import pytest

from repro.core.revocation import rekey_standard
from repro.ec.params import TOY80
from repro.service.client import BaseClient, OwnerClient, ServiceConnection
from repro.service.faults import ChaosProxy
from repro.service.protocol import MessageType
from repro.service.retry import RetryPolicy
from repro.service.smoke import run_sweep_cycle

from .conftest import run, start_service


async def connect(scenario, host, port, role, name, *, retry=None,
                  timeout=5.0) -> ServiceConnection:
    conn = ServiceConnection(scenario.group, host, port, role=role,
                             name=name, retry=retry, timeout=timeout)
    return await conn.connect()


async def make_owner(scenario, host, port, **kwargs) -> OwnerClient:
    return OwnerClient(
        await connect(scenario, host, port, "owner", "owner:alice",
                      **kwargs),
        scenario.owner_core,
    )


async def populate(owner_client, count) -> list:
    ids = []
    for index in range(count):
        record_id = f"rec-{index:03d}"
        await owner_client.upload(record_id, {
            "note": (f"body {index}".encode("utf-8"), "hospital:doctor"),
        })
        ids.append(f"{record_id}/note")
    return ids


def revoke_bob(scenario):
    return rekey_standard(scenario.aa, "bob", ["doctor"]).update_key


# -- the full cycle, inline and through a real process pool -------------------

@pytest.mark.parametrize("workers", [0, 2])
def test_sweep_cycle_over_a_real_socket(group, store_root, workers):
    async def scenario():
        service = await start_service(group, store_root, workers=workers,
                                      sweep_chunk=3)
        out = io.StringIO()
        try:
            rc = await run_sweep_cycle(TOY80, service.host, service.port,
                                       out=out, seed=7, records=7)
        finally:
            await service.stop()
        return rc, out.getvalue()

    rc, transcript = run(scenario())
    assert rc == 0, transcript
    assert "sweep cycle passed" in transcript
    assert "sweep progress" in transcript


# -- one request, whole store -------------------------------------------------

def test_sweep_updates_every_record_and_streams_progress(
        group, scenario, store_root):
    async def flow():
        service = await start_service(group, store_root, sweep_chunk=2)
        owner = await make_owner(scenario, service.host, service.port)
        try:
            ciphertext_ids = await populate(owner, 5)
            update_key = revoke_bob(scenario)
            frames = []
            summary = await owner.sweep_revocation(
                update_key, on_progress=frames.append
            )
            component = await owner._fetch_component("rec-000", "note")
            repeat = await owner.sweep_revocation(update_key)
        finally:
            await owner.close()
            await service.stop()
        return ciphertext_ids, summary, frames, component, repeat

    ciphertext_ids, summary, frames, component, repeat = run(flow())
    assert sorted(summary["updated"]) == ciphertext_ids
    assert summary["records"] == 5
    assert summary["requested"] == 5
    assert not summary["errors"] and not summary["missing"]
    # chunk=2 over 5 records -> 3 progress frames, cumulative counters.
    assert [f["done"] for f in frames] == [2, 4, 5]
    assert frames[-1]["updated"] == 5
    assert component.abe_ciphertext.version_of("hospital") == 1
    # The owner's ledger advanced, so a replayed sweep ships nothing.
    assert repeat["requested"] == 0 and repeat["updated"] == []


# -- a delete racing the sweep -----------------------------------------------

@pytest.mark.parametrize("point", ["before_read", "before_apply"])
def test_record_deleted_mid_sweep_is_reported_missing(
        group, scenario, store_root, point):
    """A record deleted after the sweep matched it — before its chunk is
    read, or between the read and the write-back — is a per-record
    ``missing`` outcome: its siblings still update and commit."""
    async def flow():
        service = await start_service(group, store_root, sweep_chunk=2)
        owner = await make_owner(scenario, service.host, service.port)
        victim = "rec-001"
        hook_name = ("_sweep_read_chunk" if point == "before_read"
                     else "_sweep_apply_chunk")
        original = getattr(service, hook_name)

        def delete_then(*args):
            # Runs on the offload thread, where DELETE_RECORD runs too.
            if victim in service.store:
                service.store.delete(victim)
            return original(*args)

        commits = []
        commit = service.store.commit_replacements

        def counted_commit():
            commits.append(True)
            return commit()

        try:
            ciphertext_ids = await populate(owner, 4)
            setattr(service, hook_name, delete_then)
            service.store.commit_replacements = counted_commit
            summary = await owner.sweep_revocation(revoke_bob(scenario))
            survivor = await owner._fetch_component("rec-002", "note")
        finally:
            await owner.close()
            await service.stop()
        return ciphertext_ids, summary, commits, survivor

    ciphertext_ids, summary, commits, survivor = run(flow())
    assert summary["missing"] == ["rec-001/note"]
    assert sorted(summary["updated"]) == [
        ciphertext_id for ciphertext_id in ciphertext_ids
        if ciphertext_id != "rec-001/note"
    ]
    assert not summary["errors"]
    assert commits
    assert survivor.abe_ciphertext.version_of("hospital") == 1


# -- chaos: a dropped progress frame mid-stream -------------------------------

def test_sweep_survives_dropped_progress_frame(group, scenario, store_root):
    async def flow():
        service = await start_service(group, store_root, sweep_chunk=2)
        proxy = await ChaosProxy(service.host, service.port).start()
        retry = RetryPolicy(max_attempts=6, base_delay=0.01,
                            max_delay=0.05)
        owner = await make_owner(scenario, proxy.host, proxy.port,
                                 retry=retry)
        try:
            ciphertext_ids = await populate(owner, 4)
            update_key = revoke_bob(scenario)
            # The very next reply frame is the sweep's first progress
            # frame; sever the connection right there.
            proxy.schedule[proxy._reply_counter] = "drop"
            frames = []
            summary = await owner.sweep_revocation(
                update_key, on_progress=frames.append
            )
            stats = await owner.stats()
        finally:
            await owner.close()
            await proxy.stop()
            await service.stop()
        return ciphertext_ids, summary, proxy.injected, stats

    ciphertext_ids, summary, injected, stats = run(flow())
    assert [f["fault"] for f in injected] == ["drop"]
    assert injected[0]["frame_type"] == MessageType.SWEEP_PROGRESS
    # The retried sweep hit the idempotency table: the server replayed
    # its cached SWEEP_DONE instead of re-running the re-encryption.
    assert sorted(summary["updated"]) == ciphertext_ids
    assert stats["dedup_hits"] >= 1


# -- regression: the loop must keep answering during a sweep ------------------

def test_ping_answers_while_a_sweep_is_running(group, scenario, store_root):
    async def flow():
        service = await start_service(group, store_root, sweep_chunk=1)
        owner = await make_owner(scenario, service.host, service.port)
        pinger = BaseClient(
            await connect(scenario, service.host, service.port,
                          "user", "user:ping")
        )
        loop = asyncio.get_running_loop()
        try:
            await populate(owner, 10)
            update_key = revoke_bob(scenario)
            started = asyncio.Event()
            sweep = asyncio.ensure_future(owner.sweep_revocation(
                update_key, on_progress=lambda frame: started.set()
            ))
            await asyncio.wait_for(started.wait(), 30)
            latencies = []
            while not sweep.done():
                begin = loop.time()
                assert await pinger.ping()
                latencies.append(loop.time() - begin)
            summary = await sweep
        finally:
            await pinger.close()
            await owner.close()
            await service.stop()
        return summary, latencies

    summary, latencies = run(flow())
    assert len(summary["updated"]) == 10
    # At least one ping completed while the sweep was still in flight,
    # and none of them waited for the crypto to finish.
    assert latencies, "sweep finished before a single concurrent ping"
    assert max(latencies) < 2.0


