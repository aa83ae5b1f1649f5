"""Deleting or replacing retires exactly the ledger ids the server
dropped, and every owner role reads its own data through the ledger.

Record ids may contain ``/``, so record ``a/b``'s ciphertext ``a/b/note``
shares the prefix ``a/`` with record ``a``'s ciphertexts. Deleting
``a`` must leave ``a/b/note`` live: a retired id drops out of
``records_for_update``, and the next revocation sweep would skip it.
A replace mints ``#v0``, ``#v1``, … and leaves only the newest id live.
"""

from repro.cluster import ClusterOwner
from repro.core.revocation import rekey_standard
from repro.ec.params import TOY80
from repro.service.client import OwnerClient, ServiceConnection
from repro.system.workflow import CloudStorageSystem

from tests.cluster.conftest import make_cluster, start_fleet, stop_fleet

from .conftest import run, start_service

NOTE = {"note": (b"body", "hospital:doctor")}


def _check_ledger(core, aa, retired):
    for ciphertext_id in retired:
        assert core.is_retired(ciphertext_id), ciphertext_id
    assert not core.is_retired("a/b/note")
    update_key = rekey_standard(aa, "bob", ["doctor"]).update_key
    assert core.records_for_update(update_key) == ["a/b/note"]


def test_owner_client_delete_leaves_the_nested_record_live(
        group, scenario, store_root):
    async def body():
        service = await start_service(group, store_root)
        owner = OwnerClient(await ServiceConnection(
            group, service.host, service.port, role="owner",
            name="owner:alice").connect(), scenario.owner_core)
        try:
            await owner.upload("a", NOTE)
            await owner.upload("a/b", NOTE)
            await owner.update_component("a", "note", b"v0",
                                         "hospital:doctor")
            await owner.delete_record("a")
        finally:
            await owner.close()
            await service.stop()

    run(body())
    _check_ledger(scenario.owner_core, scenario.aa, ["a/note", "a/note#v0"])


def test_cluster_owner_delete_leaves_the_nested_record_live(
        group, scenario, tmp_path):
    async def body():
        services, cluster_map = await start_fleet(group, tmp_path)
        owner = ClusterOwner(make_cluster(group, cluster_map),
                             scenario.owner_core)
        try:
            await owner.upload("a", NOTE)
            await owner.upload("a/b", NOTE)
            await owner.delete_record("a")
        finally:
            await owner.close()
            await stop_fleet(services)

    run(body())
    _check_ledger(scenario.owner_core, scenario.aa, ["a/note"])


def test_simulated_owner_delete_leaves_the_nested_record_live():
    with CloudStorageSystem(TOY80, seed=41) as system:
        system.add_authority("hospital", ["doctor"])
        system.add_owner("alice")
        system.add_user("bob")
        system.issue_keys("bob", "hospital", ["doctor"], "alice")
        system.upload("alice", "a", NOTE)
        system.upload("alice", "a/b", NOTE)
        system.delete_record("alice", "a")
    _check_ledger(system.owners["alice"].core,
                  system.authorities["hospital"], ["a/note"])


def _check_replaced(core, aa):
    assert [core.record(f"a/note{suffix}").ciphertext_id
            for suffix in ("", "#v0", "#v1")] \
        == ["a/note", "a/note#v0", "a/note#v1"]
    assert core.next_component_id("a", "note") == "a/note#v2"
    update_key = rekey_standard(aa, "bob", ["doctor"]).update_key
    assert core.records_for_update(update_key) == ["a/note#v1"]


def test_owner_client_replace_leaves_only_the_newest_id_live(
        group, scenario, store_root):
    async def body():
        service = await start_service(group, store_root)
        owner = OwnerClient(await ServiceConnection(
            group, service.host, service.port, role="owner",
            name="owner:alice").connect(), scenario.owner_core)
        try:
            await owner.upload("a", NOTE)
            for body_bytes in (b"v0", b"v1"):
                await owner.update_component("a", "note", body_bytes,
                                             "hospital:doctor")
            return await owner.read_own("a", "note")
        finally:
            await owner.close()
            await service.stop()

    assert run(body()) == b"v1"
    _check_replaced(scenario.owner_core, scenario.aa)


def test_simulated_owner_replace_leaves_only_the_newest_id_live():
    with CloudStorageSystem(TOY80, seed=43) as system:
        system.add_authority("hospital", ["doctor"])
        system.add_owner("alice")
        system.add_user("bob")
        system.issue_keys("bob", "hospital", ["doctor"], "alice")
        system.upload("alice", "a", NOTE)
        for body_bytes in (b"v0", b"v1"):
            system.update_component("alice", "a", "note", body_bytes,
                                    "hospital:doctor")
        assert system.read_own("alice", "a", "note") == b"v1"
    _check_replaced(system.owners["alice"].core,
                    system.authorities["hospital"])


def test_cluster_owner_reads_its_own_data_past_a_stopped_replica(
        group, scenario, tmp_path):
    async def body():
        services, cluster_map = await start_fleet(group, tmp_path)
        cluster = make_cluster(group, cluster_map, max_attempts=2)
        owner = ClusterOwner(cluster, scenario.owner_core)
        try:
            await owner.upload("a", NOTE)
            primary = cluster_map.replicas_for("a")[0].name
            await services[primary].stop()
            plaintext = await owner.read_own("a", "note")
            return plaintext, cluster.meter.counter(
                f"cluster.failover.{primary}")
        finally:
            await owner.close()
            await stop_fleet(services)

    plaintext, failovers = run(body())
    assert plaintext == b"body"
    assert failovers >= 1
