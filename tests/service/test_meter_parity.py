"""Both ends of the socket meter the same Table IV story.

The same workload — upload a 2-component record, three authorized
reads, revoke one attribute with server-side ReEncrypt, one surviving
read — runs once through :class:`CloudStorageSystem` and once through
hand-wired clients of a bare server. Every payload that touches the
server role must be metered identically by the system's clients, the
system's server, the bare clients and the bare server: same
sender/recipient, same kind, same size, same order.
"""

from repro.core.revocation import rekey_standard
from repro.ec.params import TOY80
from repro.service.client import OwnerClient, ServiceConnection, UserClient
from repro.system.meter import ROLE_SERVER, Meter
from repro.system.workflow import CloudStorageSystem

from .conftest import run, start_service

NOTE = b"MRI shows nothing acute."
PLAN = b"Rest, fluids, follow-up in two weeks."
COMPONENTS = {
    "note": (NOTE, "hospital:doctor"),
    "plan": (PLAN, "hospital:doctor OR hospital:nurse"),
}


def run_system():
    with CloudStorageSystem(TOY80, seed=0xBEEF) as system:
        system.add_authority("hospital", ["doctor", "nurse"])
        system.add_owner("alice")
        system.add_user("bob")
        system.add_user("carol")
        system.issue_keys("bob", "hospital", ["doctor"], "alice")
        system.issue_keys("carol", "hospital", ["doctor", "nurse"], "alice")

        system.upload("alice", "record", COMPONENTS)
        assert system.read("bob", "record", "note") == NOTE
        assert system.read("carol", "record", "plan") == PLAN
        assert system.read_own("alice", "record", "plan") == PLAN
        system.revoke("hospital", "bob", ["doctor"])
        assert system.read("carol", "record", "note") == NOTE
    return system


async def run_service(scenario, store_root):
    group = scenario.group
    client_meter = Meter(group)  # one meter shared by every client
    service = await start_service(group, store_root)

    def connection(role, name):
        return ServiceConnection(group, service.host, service.port,
                                 role=role, name=name, meter=client_meter)

    owner = OwnerClient(
        await connection("owner", "owner:alice").connect(),
        scenario.owner_core,
    )
    bob = UserClient(await connection("user", "user:bob").connect(), "bob")
    bob.receive_public_key(scenario.bob_pk)
    bob.receive_secret_key(scenario.bob_sk)
    carol = UserClient(
        await connection("user", "user:carol").connect(), "carol"
    )
    carol.receive_public_key(scenario.carol_pk)
    carol.receive_secret_key(scenario.carol_sk)

    try:
        await owner.upload("record", COMPONENTS)
        assert await bob.read("record", "note") == NOTE
        assert await carol.read("record", "plan") == PLAN
        assert await owner.read_own("record", "plan") == PLAN
        result = rekey_standard(scenario.aa, "bob", ["doctor"])
        bob.drop_keys("hospital", "alice")
        carol.apply_update_key(result.update_key)
        updated = await owner.push_revocation_updates(result.update_key)
        assert len(updated) == 2
        assert await carol.read("record", "note") == NOTE
    finally:
        for client in (owner, bob, carol):
            await client.close()
        await service.stop()
    return client_meter, service.meter


def server_log(meter):
    """Only the transfers that touch the server role."""
    return [entry for entry in meter.log
            if ROLE_SERVER in (entry.sender_role, entry.recipient_role)]


def test_service_counters_match_the_simulation(scenario, store_root):
    system = run_system()
    client_meter, server_meter = run(run_service(scenario, store_root))

    # The strongest form of parity: the metered transfer logs are
    # identical entry-for-entry (sender, roles, kind, measured size).
    assert client_meter.log == server_log(system.meter)

    # Both ends of each socket tell the same story.
    assert server_meter.log == client_meter.log
    assert system.server.meter.log == server_log(system.meter)

    # And the Table IV aggregates line up per role-pair channel.
    for role in ("owner", "user"):
        assert client_meter.bytes_between(role, "server") == \
            system.meter.bytes_between(role, "server")
        assert client_meter.messages_between(role, "server") == \
            system.meter.messages_between(role, "server")

    # Per-kind totals for the kinds that only travel via the server.
    system_kinds = system.meter.bytes_by_kind()
    service_kinds = client_meter.bytes_by_kind()
    for kind in ("store-record", "read-request", "component-download",
                 "update-info"):
        assert service_kinds[kind] == system_kinds[kind], kind

    # Raw transport bytes (frame headers included) are accounted apart
    # from the Table II payload sizes.
    assert client_meter.wire_bytes > client_meter.total_bytes()


async def run_sweep(scenario, store_root):
    group = scenario.group
    client_meter = Meter(group)
    service = await start_service(group, store_root)
    owner = OwnerClient(
        await ServiceConnection(group, service.host, service.port,
                                role="owner", name="owner:alice",
                                meter=client_meter).connect(),
        scenario.owner_core,
    )
    try:
        await owner.upload("record", COMPONENTS)
        result = rekey_standard(scenario.aa, "bob", ["doctor"])
        summary = await owner.sweep_revocation(result.update_key)
        assert sorted(summary["updated"]) == ["record/note", "record/plan"]
    finally:
        await owner.close()
        await service.stop()
    return client_meter, service.meter


def test_sweep_meter_logs_agree_entry_for_entry(scenario, store_root):
    """The owner meters a REENCRYPT_SWEEP the way the server does on
    receipt: the update key first, then each update information."""
    client_meter, server_meter = run(run_sweep(scenario, store_root))
    assert server_meter.log == client_meter.log
