"""A write the server refuses leaves no live ledger id behind.

A live id the server never stored is reported ``missing`` by every
sweep and stays pending, so the owner's epoch could never roll. A
refused upload or replace therefore retires the ids it minted; only a
failure that leaves the write's outcome unknown (a protocol or
transport error, or a refusal of a retry whose first send lost its
reply) keeps them live. An upload of an id the ledger already holds
fails before any send and leaves the stored original live.

A retry that arrives at a read-only server still gets the reply its
first attempt earned: the server looks the idempotency key up before it
refuses a write.
"""

import asyncio

import pytest

from repro.cluster import ClusterOwner, sweep_cluster
from repro.core.revocation import rekey_standard
from repro.errors import (
    OutcomeUnknownError,
    SchemeError,
    StorageError,
    TransportError,
    UnavailableError,
)
from repro.service.client import OwnerClient, ServiceConnection
from repro.service.faults import ChaosProxy

from tests.cluster.conftest import make_cluster, start_fleet, stop_fleet

from .conftest import run, start_service
from .test_faults import quick_retry

NOTE = {"note": (b"body", "hospital:doctor")}


async def _owner(group, host, port, core, **kwargs) -> OwnerClient:
    return OwnerClient(await ServiceConnection(
        group, host, port, role="owner", name="owner:alice",
        **kwargs).connect(), core)


def _update_key(scenario):
    return rekey_standard(scenario.aa, "bob", ["doctor"]).update_key


def test_refused_writes_retire_their_ids_and_the_epoch_rolls(
        group, scenario, tmp_path):
    core = scenario.owner_core

    async def body():
        service = await start_service(group, tmp_path / "rw")
        frozen = await start_service(group, tmp_path / "ro", read_only=True)
        owner = await _owner(group, service.host, service.port, core)
        refused = await _owner(group, frozen.host, frozen.port, core)
        try:
            await owner.upload("rec", NOTE)
            with pytest.raises(SchemeError):  # already used: no send
                await owner.upload("rec", NOTE)
            with pytest.raises(SchemeError):  # the second seal fails
                await owner.upload("half", {
                    "note": (b"sealed first", "hospital:doctor"),
                    "plan": (b"never sealed", "elsewhere:clerk"),
                })
            with pytest.raises(StorageError):
                await owner.update_component("no-such", "note", b"x",
                                             "hospital:doctor")
            with pytest.raises(UnavailableError):
                await refused.upload("rec-ro", NOTE)
            return await owner.sweep_revocation(_update_key(scenario))
        finally:
            await owner.close()
            await refused.close()
            await service.stop()
            await frozen.stop()

    summary = run(body())
    assert summary["missing"] == [] and summary["pending"] == []
    assert summary["updated"] == ["rec/note"]
    assert summary["epoch_rolled"] is True
    for ciphertext_id in ("half/note", "no-such/note", "rec-ro/note"):
        assert core.is_retired(ciphertext_id), ciphertext_id
    assert core.next_component_id("half", "plan") == "half/plan"


def test_a_retry_after_a_lost_reply_gets_its_cached_reply_when_read_only(
        group, scenario, store_root):
    """The first STORE applies and its reply is dropped; the disk then
    fails, so the server is read-only when the retry arrives. The server
    looks the retry's idempotency key up before it refuses a write, so
    the retry gets the cached OK: the upload returns, ``r/note`` is
    live, and the next sweep re-encrypts it."""
    core = scenario.owner_core

    async def body():
        service = await start_service(group, store_root)
        put = service.store.put

        def put_then_fail(record):
            put(record)
            service.read_only = True

        service.store.put = put_then_fail
        service.store.probe_writable = lambda: False
        proxy = await ChaosProxy(service.host, service.port,
                                 schedule={1: "drop"}).start()
        owner = await _owner(group, proxy.host, proxy.port, core,
                             retry=quick_retry(attempts=3), timeout=2.0)
        try:
            await owner.upload("r", NOTE)
            assert service.dedup.hits == 1
            assert not core.is_retired("r/note")
            service.read_only = False
            service.store.put = put
            direct = await _owner(group, service.host, service.port, core)
            try:
                return await direct.sweep_revocation(_update_key(scenario))
            finally:
                await direct.close()
        finally:
            await owner.close()
            await proxy.stop()
            await service.stop()

    summary = run(body())
    assert summary["updated"] == ["r/note"]
    assert summary["epoch_rolled"] is True


def test_a_refused_retry_after_a_lost_reply_keeps_the_ids_live(
        group, scenario, store_root):
    """The first STORE applies and its reply is lost; the server then
    restarts, losing its in-memory dedup table, so the retry is refused
    (``already exists``). Whether the write applied is unknown to the
    owner, so ``r/note`` stays live — and the restarted server does hold
    it, so the next sweep re-encrypts it."""
    core = scenario.owner_core

    async def body():
        loop = asyncio.get_running_loop()
        service = await start_service(group, store_root)
        proxy = await ChaosProxy(service.host, service.port).start()
        applied = asyncio.Event()
        put = service.store.put

        def put_then_cut_off(record):
            put(record)
            # Cut the client off before the OK can reach it.
            loop.call_soon_threadsafe(proxy.partition)
            loop.call_soon_threadsafe(applied.set)

        service.store.put = put_then_cut_off
        owner = await _owner(group, proxy.host, proxy.port, core,
                             retry=quick_retry(attempts=60), timeout=2.0)
        upload = asyncio.ensure_future(owner.upload("r", NOTE))
        restarted = None
        try:
            await applied.wait()
            await service.stop()
            restarted = await start_service(group, store_root)
            proxy.upstream_port = restarted.port
            proxy.heal()
            with pytest.raises(OutcomeUnknownError) as refused:
                await upload
            assert isinstance(refused.value.__cause__, StorageError)
            assert not core.is_retired("r/note")
            direct = await _owner(group, restarted.host, restarted.port,
                                  core)
            try:
                return await direct.sweep_revocation(_update_key(scenario))
            finally:
                await direct.close()
        finally:
            await owner.close()
            await proxy.stop()
            await service.stop()
            if restarted is not None:
                await restarted.stop()

    summary = run(body())
    assert summary["updated"] == ["r/note"]
    assert summary["epoch_rolled"] is True


def test_an_unknown_outcome_keeps_the_ids_live(scenario):
    core = scenario.owner_core
    ciphertext_id = core.next_component_id("rec", "note")
    with pytest.raises(TransportError):
        with core.minted([ciphertext_id]):
            core.encrypt(core.group.random_gt(), "hospital:doctor",
                         ciphertext_id=ciphertext_id)
            raise TransportError("connection dropped after the send")
    assert not core.is_retired(ciphertext_id)
    refused = core.next_component_id("rec", "note")
    assert refused == "rec/note#v0"
    with pytest.raises(StorageError):
        with core.minted([refused]):
            core.encrypt(core.group.random_gt(), "hospital:doctor",
                         ciphertext_id=refused)
            raise StorageError("refused")
    assert core.is_retired(refused)


def test_cluster_owner_upload_of_a_held_id_is_refused_before_any_send(
        group, scenario, tmp_path):
    async def body():
        services, cluster_map = await start_fleet(group, tmp_path)
        cluster = make_cluster(group, cluster_map)
        owner = ClusterOwner(cluster, scenario.owner_core)
        try:
            await owner.upload("rec", NOTE)
            stores = cluster.meter.counter_summary("cluster.store-")
            with pytest.raises(SchemeError):
                await owner.upload("rec", NOTE)
            assert cluster.meter.counter_summary("cluster.store-") \
                == stores
            return await sweep_cluster(cluster, scenario.owner_core,
                                       _update_key(scenario))
        finally:
            await owner.close()
            await stop_fleet(services)

    summary = run(body())
    assert summary["converged"] == ["rec/note"]
    assert summary["pending"] == [] and summary["epoch_rolled"] is True
