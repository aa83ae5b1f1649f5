"""Integration tests: the full cloud-storage lifecycle of Fig. 1."""

import pytest

from repro.crypto import symmetric
from repro.errors import (
    AuthorizationError,
    IntegrityError,
    PolicyNotSatisfiedError,
    SchemeError,
    StorageError,
)
from repro.ec.params import TOY80
from repro.system.workflow import CloudStorageSystem

DENIED = (PolicyNotSatisfiedError, SchemeError, AuthorizationError)


@pytest.fixture()
def system():
    deployment = CloudStorageSystem(TOY80, seed=2024)
    deployment.add_authority("hospital", ["doctor", "nurse"])
    deployment.add_authority("trial", ["researcher"])
    deployment.add_owner("alice")
    deployment.add_user("bob")
    deployment.add_user("eve")
    deployment.issue_keys("bob", "hospital", ["doctor"], "alice")
    deployment.issue_keys("bob", "trial", ["researcher"], "alice")
    deployment.issue_keys("eve", "hospital", ["nurse"], "alice")
    deployment.issue_keys("eve", "trial", ["researcher"], "alice")
    deployment.upload(
        "alice",
        "patient-17",
        {
            "diagnosis": (
                b"stage II", "hospital:doctor AND trial:researcher",
            ),
            "name": (b"John Doe", "hospital:doctor OR hospital:nurse"),
        },
    )
    yield deployment
    deployment.close()


class TestDataPath:
    def test_fine_grained_access(self, system):
        assert system.read("bob", "patient-17", "diagnosis") == b"stage II"
        assert system.read("bob", "patient-17", "name") == b"John Doe"
        assert system.read("eve", "patient-17", "name") == b"John Doe"
        with pytest.raises(PolicyNotSatisfiedError):
            system.read("eve", "patient-17", "diagnosis")

    def test_unknown_record_and_component(self, system):
        with pytest.raises(StorageError):
            system.read("bob", "nope", "diagnosis")
        with pytest.raises(StorageError):
            system.read("bob", "patient-17", "nope")

    def test_user_without_keys_denied(self, system):
        system.add_user("mallory")
        with pytest.raises(AuthorizationError):
            system.read("mallory", "patient-17", "name")

    def test_stored_data_is_not_plaintext(self, system):
        record = system.server.store.get("patient-17")
        body = record.component("diagnosis").data_ciphertext.body
        assert b"stage II" not in body

    def test_server_cannot_decrypt_with_guessed_key(self, system):
        record = system.server.store.get("patient-17")
        component = record.component("diagnosis")
        with pytest.raises(IntegrityError):
            symmetric.decrypt(b"\x00" * 32, component.data_ciphertext)

    def test_multiple_owners_are_isolated(self, system):
        system.add_owner("carol")
        system.issue_keys("bob", "hospital", ["doctor"], "carol")
        system.issue_keys("bob", "trial", ["researcher"], "carol")
        system.upload(
            "carol", "carol-rec",
            {"x": (b"carol data", "hospital:doctor AND trial:researcher")},
        )
        assert system.read("bob", "carol-rec", "x") == b"carol data"
        # eve has no carol-scoped keys at all.
        with pytest.raises(AuthorizationError):
            system.read("eve", "carol-rec", "x")


class TestRevocationLifecycle:
    def test_standard(self, system):
        system.revoke("hospital", "bob", ["doctor"])
        with pytest.raises(DENIED):
            system.read("bob", "patient-17", "diagnosis")
        with pytest.raises(DENIED):
            system.read("bob", "patient-17", "name")
        # Survivor unaffected.
        assert system.read("eve", "patient-17", "name") == b"John Doe"

    def test_new_user_reads_old_data_after_revocation(self, system):
        system.revoke("hospital", "bob", ["doctor"])
        system.add_user("carol")
        system.issue_keys("carol", "hospital", ["doctor"], "alice")
        system.issue_keys("carol", "trial", ["researcher"], "alice")
        assert system.read("carol", "patient-17", "diagnosis") == b"stage II"

    def test_upload_after_revocation_uses_new_keys(self, system):
        system.revoke("hospital", "bob", ["doctor"])
        system.upload(
            "alice", "patient-18",
            {"note": (b"fresh", "hospital:nurse")},
        )
        assert system.read("eve", "patient-18", "note") == b"fresh"
        with pytest.raises(DENIED):
            system.read("bob", "patient-18", "note")

    def test_hardened(self, system):
        system.revoke("trial", "eve", ["researcher"], hardened=True)
        with pytest.raises(DENIED):
            system.read("eve", "patient-17", "diagnosis")
        # bob keeps reading: his trial key was re-issued by the AA.
        assert system.read("bob", "patient-17", "diagnosis") == b"stage II"

    def test_revocation_of_unused_attribute_keeps_everything_working(
        self, system
    ):
        system.issue_keys("eve", "hospital", ["doctor"], "alice")  # upgrade
        # Wait: eve now holds nurse+doctor? keygen replaces the key, so eve
        # holds doctor only... re-issue nurse+doctor to be precise.
        system.issue_keys("eve", "hospital", ["doctor", "nurse"], "alice")
        system.revoke("hospital", "eve", ["doctor"])
        assert system.read("eve", "patient-17", "name") == b"John Doe"
        assert system.read("bob", "patient-17", "diagnosis") == b"stage II"

    def test_sequential_revocations(self, system):
        system.add_user("carol")
        system.issue_keys("carol", "hospital", ["doctor"], "alice")
        system.issue_keys("carol", "trial", ["researcher"], "alice")
        system.revoke("hospital", "bob", ["doctor"])
        system.revoke("trial", "eve", ["researcher"])
        assert system.read("carol", "patient-17", "diagnosis") == b"stage II"
        with pytest.raises(DENIED):
            system.read("bob", "patient-17", "diagnosis")
        with pytest.raises(DENIED):
            system.read("eve", "patient-17", "diagnosis")


class TestMetering:
    def test_all_table4_channels_active(self, system):
        system.read("bob", "patient-17", "name")
        meter = system.meter
        assert meter.bytes_between("aa", "user") > 0
        assert meter.bytes_between("aa", "owner") > 0
        assert meter.bytes_between("owner", "server") > 0
        assert meter.bytes_between("server", "user") > 0

    def test_server_storage_accounting(self, system):
        stored = system.server.store.storage_bytes()
        record = system.server.store.get("patient-17")
        assert stored == record.payload_size_bytes(system.group)
        assert stored > 0


class TestSetupOrdering:
    def test_authority_added_after_owner(self):
        with CloudStorageSystem(TOY80, seed=9) as deployment:
            deployment.add_owner("alice")
            deployment.add_authority("late", ["x"])
            deployment.add_user("bob")
            deployment.issue_keys("bob", "late", ["x"], "alice")
            deployment.upload("alice", "r", {"c": (b"data", "late:x")})
            assert deployment.read("bob", "r", "c") == b"data"

    def test_unknown_entities_rejected(self, system):
        with pytest.raises(SchemeError):
            system.issue_keys("ghost", "hospital", ["doctor"], "alice")
        with pytest.raises(SchemeError):
            system.issue_keys("bob", "ghost", ["doctor"], "alice")
        with pytest.raises(SchemeError):
            system.issue_keys("bob", "hospital", ["doctor"], "ghost")
        with pytest.raises(SchemeError):
            system.upload("ghost", "r", {})
        with pytest.raises(SchemeError):
            system.read("ghost", "patient-17", "name")
