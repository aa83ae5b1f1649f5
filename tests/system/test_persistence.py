"""Server-state persistence: the live server's store reopens from disk."""

import pytest

from repro.ec.params import TOY80
from repro.errors import StorageError
from repro.service.client import open_components
from repro.service.store import RecordStore
from repro.system.records import StoredComponent, StoredRecord
from repro.system.workflow import CloudStorageSystem


@pytest.fixture()
def system():
    deployment = CloudStorageSystem(TOY80, seed=808)
    deployment.add_authority("hospital", ["doctor", "nurse"])
    deployment.add_owner("alice")
    deployment.add_user("bob")
    deployment.issue_keys("bob", "hospital", ["doctor"], "alice")
    deployment.upload(
        "alice", "r1",
        {
            "a": (b"alpha", "hospital:doctor"),
            "b": (b"beta", "hospital:doctor OR hospital:nurse"),
        },
    )
    deployment.upload(
        "alice", "r2", {"c": (b"gamma", "hospital:nurse")}
    )
    yield deployment
    deployment.close()


class TestRecordRoundTrip:
    def test_component_roundtrip(self, system):
        group = system.group
        component = system.server.store.get("r1").component("a")
        revived = StoredComponent.from_bytes(group, component.to_bytes())
        assert revived.name == "a"
        assert revived.abe_ciphertext.c == component.abe_ciphertext.c
        assert (
            revived.data_ciphertext.to_bytes()
            == component.data_ciphertext.to_bytes()
        )

    def test_record_roundtrip(self, system):
        group = system.group
        record = system.server.store.get("r1")
        revived = StoredRecord.from_bytes(group, record.to_bytes())
        assert revived.record_id == "r1"
        assert revived.owner_id == "alice"
        assert set(revived.components) == {"a", "b"}

    def test_truncated_rejected(self, system):
        group = system.group
        record = system.server.store.get("r1")
        with pytest.raises(StorageError):
            StoredRecord.from_bytes(group, record.to_bytes()[:-4])
        with pytest.raises(StorageError):
            StoredComponent.from_bytes(
                group, record.component("a").to_bytes() + b"\x00"
            )


class TestServerStatePersistence:
    """A second :class:`RecordStore` opened on the server's directory
    sees exactly what the server committed (what a restart reloads)."""

    def test_export_import_preserves_reads(self, system):
        reopened = _reopen(system)
        assert reopened.record_ids() == ["r1", "r2"]
        record = reopened.get("r1")
        assert open_components(
            system.users["bob"],
            [record.component("a"), record.component("b")], system.meter,
        ) == [b"alpha", b"beta"]

    def test_restore_into_fresh_server(self, system):
        reopened = _reopen(system)
        store = system.server.store
        assert reopened.record_ids() == store.record_ids()
        assert reopened.storage_bytes() == store.storage_bytes()
        # the ciphertext index is rebuilt: re-encryption still routes
        assert reopened.locate_ciphertext("r1/a") == ("r1", "a")
        assert reopened.ciphertext_ids() == store.ciphertext_ids()

    def test_reencryption_survives_restore(self, system):
        system.add_user("carol")
        system.issue_keys("carol", "hospital", ["doctor"], "alice")
        system.revoke("hospital", "carol", ["doctor"])
        component = _reopen(system).get("r1").component("a")
        assert component.abe_ciphertext.version_of("hospital") == 1
        assert open_components(system.users["bob"], [component],
                               system.meter) == [b"alpha"]

    def test_malformed_state_rejected(self, system):
        store = system.server.store
        digest = store.digest("r1")
        (blob_path,) = store.root.rglob(digest)
        blob = bytearray(blob_path.read_bytes())
        blob[-1] ^= 0xFF
        blob_path.write_bytes(bytes(blob))
        with pytest.raises(StorageError):
            _reopen(system)


def _reopen(system) -> RecordStore:
    return RecordStore(system.server.store.root, system.group)
