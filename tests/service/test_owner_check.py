"""Only a record's owner may replace or delete it.

A second owner's ``REPLACE_COMPONENT`` (a component sealed under its
own key) and ``DELETE_RECORD`` of the first owner's record are refused
with ``SchemeError("record … belongs to …")``, on one server and on
every replica of a cluster. The record's bytes stay as they were, the
refused replace retires the id it minted, and the real owner's next
sweep still rolls its epoch.
"""

import pytest

from repro.cluster import ClusterOwner, sweep_cluster
from repro.core.owner import DataOwner
from repro.core.revocation import rekey_standard
from repro.errors import SchemeError
from repro.service.client import OwnerClient, ServiceConnection

from tests.cluster.conftest import make_cluster, start_fleet, stop_fleet

from .conftest import run, start_service

NOTE = {"note": (b"body", "hospital:doctor")}
BELONGS = "record 'rec' belongs to 'alice'"


def _intruder(scenario) -> DataOwner:
    """A second registered owner, with the same authority's keys."""
    mallory = DataOwner(scenario.group, "mallory")
    scenario.ca.register_owner("mallory")
    scenario.aa.register_owner(mallory.secret_key)
    mallory.learn_authority(scenario.aa.authority_public_key(),
                            scenario.aa.public_attribute_keys())
    return mallory


async def _owner(group, host, port, core) -> OwnerClient:
    return OwnerClient(await ServiceConnection(
        group, host, port, role="owner", name=f"owner:{core.owner_id}",
    ).connect(), core)


def test_a_foreign_owner_cannot_replace_or_delete(group, scenario,
                                                  store_root):
    mallory = _intruder(scenario)

    async def body():
        service = await start_service(group, store_root)
        alice = await _owner(group, service.host, service.port,
                             scenario.owner_core)
        intruder = await _owner(group, service.host, service.port, mallory)
        try:
            await alice.upload("rec", NOTE)
            before = service.store.get_record_bytes("rec")
            with pytest.raises(SchemeError, match=BELONGS):
                await intruder.update_component("rec", "note", b"forged",
                                                "hospital:doctor")
            with pytest.raises(SchemeError, match=BELONGS):
                await intruder.delete_record("rec")
            assert service.store.get_record_bytes("rec") == before
            assert await alice.read_own("rec", "note") == b"body"
            return await alice.sweep_revocation(
                rekey_standard(scenario.aa, "bob", ["doctor"]).update_key
            )
        finally:
            await alice.close()
            await intruder.close()
            await service.stop()

    summary = run(body())
    assert summary["updated"] == ["rec/note"] and summary["pending"] == []
    assert summary["epoch_rolled"] is True
    assert mallory.is_retired("rec/note")


def test_a_foreign_owner_cannot_replace_or_delete_on_the_cluster(
        group, scenario, tmp_path):
    mallory = _intruder(scenario)

    async def body():
        services, cluster_map = await start_fleet(group, tmp_path)
        alice = ClusterOwner(make_cluster(group, cluster_map),
                             scenario.owner_core)
        intruder = ClusterOwner(
            make_cluster(group, cluster_map, name="owner:mallory"), mallory
        )
        try:
            await alice.upload("rec", NOTE)
            before = await alice.cluster.replica_digests("rec")
            with pytest.raises(SchemeError, match=BELONGS):
                await intruder.delete_record("rec")
            replica = cluster_map.replicas_for("rec")[0].name
            replacer = OwnerClient(
                await intruder.cluster.connection(replica), mallory
            )
            with pytest.raises(SchemeError, match=BELONGS):
                await replacer.update_component("rec", "note", b"forged",
                                                "hospital:doctor")
            assert await alice.cluster.replica_digests("rec") == before
            return await sweep_cluster(
                alice.cluster, scenario.owner_core,
                rekey_standard(scenario.aa, "bob", ["doctor"]).update_key,
            )
        finally:
            await alice.close()
            await intruder.close()
            await stop_fleet(services)

    summary = run(body())
    assert summary["converged"] == ["rec/note"]
    assert summary["pending"] == [] and summary["epoch_rolled"] is True
    assert mallory.is_retired("rec/note")
