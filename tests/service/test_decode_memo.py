"""Decode once per content digest: validate at entry, trust on read.

The server subgroup-checks a record's elements when its bytes enter the
store (``STORE_RECORD``, ``REPLACE_COMPONENT``, ``REPAIR_RECORD``) and
afterwards serves trusted, memoized decodes — but only behind the
blob's SHA-256 check, so disk rot still surfaces. The client memoizes
its *validated* component decode by the SHA-256 of the body, so only
byte-identical downloads share a decode.
"""

import dataclasses

import pytest

from repro.errors import MathError, StorageError
from repro.ec.curve import INFINITY
from repro.pairing.group import G1Element
from repro.service import client as client_module
from repro.service import protocol
from repro.service.client import ServiceConnection, fetch_component
from repro.service.protocol import MessageType
from repro.service.store import RecordStore
from repro.system.meter import Meter
from repro.system.records import StoredComponent, StoredRecord

from .conftest import run, start_service
from .test_server import make_owner


def forge(group, component: StoredComponent) -> StoredComponent:
    """The component with ``C'`` swapped for the 2-torsion point
    ``(0, 0)``: correctly sized, on the curve, outside the order-r
    subgroup — only the subgroup check can catch it."""
    torsion = (0, 0)
    assert group.curve.is_on_curve(torsion)
    assert group.curve.mul(torsion, group.order) is not INFINITY
    ciphertext = dataclasses.replace(component.abe_ciphertext,
                                     c_prime=G1Element(group, torsion))
    forged = dataclasses.replace(component, abe_ciphertext=ciphertext)
    # Well-formed apart from the subgroup: a trusted decode accepts it.
    StoredComponent.from_bytes(group, forged.to_bytes(), validate=False)
    return forged


def forged_record(group, scenario, record_id="r") -> StoredRecord:
    record = scenario.make_record(record_id)
    return record.with_component(forge(group, record.components["note"]))


def count_decodes(monkeypatch, cls) -> list:
    """Record the ``validate`` flag of every ``cls.from_bytes`` call."""
    calls = []
    original = cls.from_bytes.__func__

    def counting(klass, group, blob, *, validate=True):
        calls.append(validate)
        return original(klass, group, blob, validate=validate)

    monkeypatch.setattr(cls, "from_bytes", classmethod(counting))
    return calls


# -- entry points reject forged elements -------------------------------------

def test_forged_element_rejected_at_every_entry_point(group, scenario,
                                                      store_root):
    async def flow():
        service = await start_service(group, store_root)
        owner = await make_owner(scenario, service)
        forged = forged_record(group, scenario, "forged").to_bytes()
        try:
            with pytest.raises(MathError):
                await owner.connection.request(
                    MessageType.STORE_RECORD, forged, expect=MessageType.OK,
                )
            assert "forged" not in service.store
            with pytest.raises(MathError):
                await owner.repair_record(forged)
            assert "forged" not in service.store

            await owner.upload("r", {"note": (b"body", "hospital:doctor")})
            digest = service.store.digest("r")
            component = (await owner.fetch_record("r")).components["note"]
            with pytest.raises(MathError):
                await owner.connection.request(
                    MessageType.REPLACE_COMPONENT,
                    protocol.pack_parts(
                        protocol.encode_json({"record": "r"}),
                        forge(group, component).to_bytes(),
                    ),
                    expect=MessageType.OK,
                )
            with pytest.raises(MathError):
                await owner.repair_record(
                    service.store.get("r").with_component(
                        forge(group, component)
                    ).to_bytes()
                )
            assert service.store.digest("r") == digest
            assert service.store.check()["ok"]
        finally:
            await owner.close()
            await service.stop()

    run(flow())


def test_repair_record_decodes_once(group, scenario, store_root,
                                    monkeypatch):
    async def flow():
        service = await start_service(group, store_root)
        owner = await make_owner(scenario, service)
        try:
            await owner.upload("r", {"note": (b"body", "hospital:doctor")})
            blob = service.store.get_record_bytes("r")
            calls = count_decodes(monkeypatch, StoredRecord)
            await owner.repair_record(blob)
            assert calls == [True]
            counters = service.meter.counter_summary("store.")
            assert counters.get("store.decode.hit", 0) >= 1
        finally:
            await owner.close()
            await service.stop()

    run(flow())


# -- the server's decode memo ------------------------------------------------

def test_memo_hit_never_masks_rot(group, scenario, store_root):
    store = RecordStore(store_root, group)
    digest = store.put(scenario.make_record("r"))
    store.get("r")
    assert store.cache_stats()["decode_hits"] == 1  # memoized
    path = store.blobs._path(digest)
    path.write_bytes(b"bit rot" + path.read_bytes()[7:])
    store.blobs._cache_drop(digest)
    with pytest.raises(StorageError):
        store.get("r")
    with pytest.raises(StorageError):
        store.get_record_bytes_sized("r")
    assert store.check()["corrupt_blobs"] == ["r"]


def test_reads_decode_trusted_and_check_validates(group, scenario,
                                                  store_root, monkeypatch):
    record = scenario.make_record("r")
    RecordStore(store_root, group).put(record)
    calls = count_decodes(monkeypatch, StoredRecord)
    store = RecordStore(store_root, group)          # open-time index
    assert store.get("r").to_bytes() == record.to_bytes()
    blob, size = store.get_record_bytes_sized("r")
    assert blob == record.to_bytes()
    assert size == record.payload_size_bytes(group)
    assert store.storage_bytes() == size
    assert calls == [False]                         # one trusted decode
    assert store.check()["ok"]
    assert calls == [False, True]                   # the audit validates


def test_put_seeds_the_memo(group, scenario, store_root):
    store = RecordStore(store_root, group)
    record = scenario.make_record("r")
    store.put(record)
    assert store.get("r") is record
    assert store.cache_stats()["decode_misses"] == 0


def test_decode_memo_is_bounded_and_metered(group, scenario, store_root):
    store = RecordStore(store_root, group, cache_entries=2)
    meter = Meter(group)
    store.attach_meter(meter)
    for index in range(4):
        store.put(scenario.make_record(f"r{index}"))
    assert store.cache_stats()["decode_entries"] == 2
    store.get("r3")                                 # hit (seeded by put)
    store.get("r0")                                 # miss: evicted
    stats = store.cache_stats()
    assert stats["decode_entries"] == 2
    assert (stats["decode_hits"], stats["decode_misses"]) == (1, 1)
    counters = meter.counter_summary("store.")
    assert counters.get("store.decode.hit") == 1
    assert counters.get("store.decode.miss") == 1


# -- the client's validated-decode memo --------------------------------------

def stub_connection(group, replies: list) -> ServiceConnection:
    """An unconnected ServiceConnection answering FETCH_COMPONENT with
    the given bodies in turn."""
    connection = ServiceConnection(group, "127.0.0.1", 0, role="user",
                                   name="user:bob")

    async def request(msg_type, body=b"", *, expect=None):
        return MessageType.COMPONENT, replies.pop(0)

    connection.request = request
    return connection


def test_client_validates_each_distinct_body_once(group, scenario,
                                                  monkeypatch):
    component = scenario.make_record("r").components["note"]
    body = component.to_bytes()
    flipped = body[:-1] + bytes([body[-1] ^ 1])     # one byte differs
    forged = forge(group, component).to_bytes()
    connection = stub_connection(group,
                                 [body, body, flipped, forged, forged])
    calls = count_decodes(monkeypatch, StoredComponent)

    async def flow():
        first = await fetch_component(connection, "r", "note")
        again = await fetch_component(connection, "r", "note")
        assert again is first
        assert calls == [True]
        other = await fetch_component(connection, "r", "note")
        assert other is not first
        assert calls == [True, True]
        for _ in range(2):                           # never memoized
            with pytest.raises(MathError):
                await fetch_component(connection, "r", "note")
        assert calls == [True] * 4

    run(flow())


def test_client_memo_is_bounded(group, scenario, monkeypatch):
    monkeypatch.setattr(client_module, "DECODE_MEMO_ENTRIES", 3)
    component = scenario.make_record("r").components["note"]
    bodies = [dataclasses.replace(component, name=f"n{index}").to_bytes()
              for index in range(5)]
    connection = stub_connection(group, list(bodies))

    async def flow():
        for _ in bodies:
            await fetch_component(connection, "r", "note")

    run(flow())
    memo = connection.decoded_components
    assert len(memo) == 3
    assert [component.name for component in memo.values()] == [
        "n2", "n3", "n4"
    ]
