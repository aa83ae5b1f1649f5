"""Tests for the Lewko baseline deployment (Table IV measurement rig)."""

import pytest

from repro.baselines.lewko_system import LewkoCloudSystem
from repro.ec.params import TOY80
from repro.errors import (
    AuthorizationError,
    PolicyNotSatisfiedError,
    SchemeError,
    StorageError,
)


@pytest.fixture()
def system():
    deployment = LewkoCloudSystem(TOY80, seed=66)
    deployment.add_authority("hospital", ["doctor", "nurse"])
    deployment.add_authority("trial", ["researcher"])
    deployment.add_owner("alice")
    deployment.add_user("bob")
    deployment.issue_keys("bob", "hospital", ["doctor"])
    deployment.issue_keys("bob", "trial", ["researcher"])
    deployment.upload(
        "alice", "rec",
        {"c": (b"payload", "hospital:doctor AND trial:researcher")},
    )
    return deployment


class TestDataPath:
    def test_roundtrip(self, system):
        assert system.read("bob", "rec", "c") == b"payload"

    def test_unauthorized_denied(self, system):
        system.add_user("eve")
        system.issue_keys("eve", "hospital", ["nurse"])
        with pytest.raises(PolicyNotSatisfiedError):
            system.read("eve", "rec", "c")

    def test_keyless_user_denied(self, system):
        system.add_user("mallory")
        with pytest.raises(AuthorizationError):
            system.read("mallory", "rec", "c")

    def test_unknown_record(self, system):
        with pytest.raises(StorageError):
            system.read("bob", "ghost", "c")

    def test_foreign_key_rejected(self, system):
        system.add_user("eve")
        bob_key = system.users["bob"]._keys["hospital"]
        with pytest.raises(SchemeError):
            system.users["eve"].receive_key(bob_key)

    def test_partial_or_policy_works_without_all_authorities(self, system):
        """The baseline's structural difference from the reproduced
        scheme: an OR branch decrypts without keys from the other AA."""
        system.upload(
            "alice", "rec2",
            {"c": (b"either", "hospital:doctor OR trial:researcher")},
        )
        system.add_user("solo")
        system.issue_keys("solo", "hospital", ["doctor"])
        assert system.read("solo", "rec2", "c") == b"either"


class TestMetering:
    def test_channels_active(self, system):
        system.read("bob", "rec", "c")
        meter = system.meter
        assert meter.bytes_between("aa", "user") > 0
        assert meter.bytes_between("aa", "owner") > 0
        assert meter.bytes_between("owner", "server") > 0
        assert meter.bytes_between("server", "user") > 0

    def test_ciphertext_dominates_storage(self, system):
        group = system.group
        record = system.server.record("rec")
        ct = record.component("c").abe_ciphertext
        assert (
            ct.element_size_bytes(group)
            == 3 * group.gt_bytes + 4 * group.g1_bytes  # l=2 rows
        )
        assert system.server.storage_bytes() > ct.element_size_bytes(group)

    def test_bigger_than_ours_on_the_wire(self, system):
        """The Table IV headline, measured end-to-end: the baseline's
        server<->user traffic exceeds ours for the same read."""
        from repro.system.workflow import CloudStorageSystem

        with CloudStorageSystem(TOY80, seed=66) as ours:
            ours.add_authority("hospital", ["doctor", "nurse"])
            ours.add_authority("trial", ["researcher"])
            ours.add_owner("alice")
            ours.add_user("bob")
            ours.issue_keys("bob", "hospital", ["doctor"], "alice")
            ours.issue_keys("bob", "trial", ["researcher"], "alice")
            ours.upload(
                "alice", "rec",
                {"c": (b"payload", "hospital:doctor AND trial:researcher")},
            )
            ours.read("bob", "rec", "c")
            ours_bytes = ours.meter.bytes_between("server", "user")
        system.read("bob", "rec", "c")
        lewko_bytes = system.meter.bytes_between("server", "user")
        assert ours_bytes < lewko_bytes
