"""Owner-driven component updates (data mutation with fresh keys)."""

import pytest

from repro.ec.params import TOY80
from repro.errors import PolicyNotSatisfiedError, SchemeError
from repro.system.workflow import CloudStorageSystem


@pytest.fixture()
def system():
    deployment = CloudStorageSystem(TOY80, seed=2222)
    deployment.add_authority("aa", ["x", "y"])
    deployment.add_owner("alice")
    deployment.add_user("bob")
    deployment.add_user("eve")
    deployment.issue_keys("bob", "aa", ["x"], "alice")
    deployment.issue_keys("eve", "aa", ["y"], "alice")
    deployment.upload("alice", "rec", {"c": (b"version 1", "aa:x")})
    yield deployment
    deployment.close()


class TestComponentUpdate:
    def test_new_data_served(self, system):
        system.update_component("alice", "rec", "c", b"version 2", "aa:x")
        assert system.read("bob", "rec", "c") == b"version 2"

    def test_policy_can_change_with_update(self, system):
        system.update_component("alice", "rec", "c", b"version 2", "aa:y")
        assert system.read("eve", "rec", "c") == b"version 2"
        with pytest.raises(PolicyNotSatisfiedError):
            system.read("bob", "rec", "c")

    def test_repeated_updates_mint_fresh_ids(self, system):
        first = system.update_component("alice", "rec", "c", b"v2", "aa:x")
        second = system.update_component("alice", "rec", "c", b"v3", "aa:x")
        assert (
            first.abe_ciphertext.ciphertext_id
            != second.abe_ciphertext.ciphertext_id
        )
        assert system.read("bob", "rec", "c") == b"v3"

    def test_other_owner_cannot_update(self, system):
        system.add_owner("mallory")
        with pytest.raises(SchemeError, match="belongs"):
            system.update_component("mallory", "rec", "c", b"evil", "aa:x")

    def test_unknown_component_rejected(self, system):
        from repro.errors import StorageError

        with pytest.raises(StorageError):
            system.update_component("alice", "rec", "zz", b"x", "aa:x")

    def test_updated_component_survives_revocation(self, system):
        system.update_component("alice", "rec", "c", b"v2", "aa:x")
        system.add_user("carol")
        system.issue_keys("carol", "aa", ["x"], "alice")
        system.revoke("aa", "carol", ["x"])
        # bob survived the revocation; the updated data re-encrypted fine.
        assert system.read("bob", "rec", "c") == b"v2"

    def test_stale_ciphertext_index_entry_removed(self, system):
        from repro.errors import StorageError

        store = system.server.store
        old_ct_id = (
            store.get("rec").component("c").abe_ciphertext.ciphertext_id
        )
        system.update_component("alice", "rec", "c", b"v2", "aa:x")
        with pytest.raises(StorageError):
            store.locate_ciphertext(old_ct_id)
