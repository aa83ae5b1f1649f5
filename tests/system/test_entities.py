"""Unit tests for the Fig. 1 entities of a live deployment."""

import pytest

from repro.ec.params import TOY80
from repro.errors import SchemeError, StorageError
from repro.system.workflow import CloudStorageSystem


@pytest.fixture()
def system():
    deployment = CloudStorageSystem(TOY80, seed=31)
    deployment.add_authority("hospital", ["doctor"])
    deployment.add_owner("alice")
    deployment.add_user("bob")
    yield deployment
    deployment.close()


class TestUserEntity:
    def test_rejects_foreign_public_key(self, system):
        bob = system.users["bob"]
        system.add_user("eve")
        eve_pk = system.users["eve"].public_key
        with pytest.raises(SchemeError):
            bob.receive_public_key(eve_pk)

    def test_rejects_foreign_secret_key(self, system):
        system.add_user("eve")
        system.issue_keys("eve", "hospital", ["doctor"], "alice")
        eve_key = system.users["eve"].secret_keys_for("alice")["hospital"]
        with pytest.raises(SchemeError):
            system.users["bob"].receive_secret_key(eve_key)

    def test_key_bookkeeping(self, system):
        system.issue_keys("bob", "hospital", ["doctor"], "alice")
        bob = system.users["bob"]
        assert bob.has_keys_from("hospital")
        assert not bob.has_keys_from("trial")
        assert set(bob.secret_keys_for("alice")) == {"hospital"}
        bob.drop_keys("hospital", "alice")
        assert not bob.has_keys_from("hospital")


class TestServerEntity:
    def test_unknown_record(self, system):
        with pytest.raises(StorageError):
            system.server.store.get("nope")

    def test_record_ids(self, system):
        system.issue_keys("bob", "hospital", ["doctor"], "alice")
        system.upload("alice", "r1", {"c": (b"x", "hospital:doctor")})
        assert system.server.store.record_ids() == ["r1"]

    def test_duplicate_record_id_rejected(self, system):
        system.issue_keys("bob", "hospital", ["doctor"], "alice")
        system.upload("alice", "r1", {"c": (b"x", "hospital:doctor")})
        store = system.server.store
        record = store.get("r1")
        with pytest.raises(StorageError, match="already exists"):
            store.put(record)
        # Explicit replacement is allowed.
        store.put(record, replace=True)
        assert store.get("r1").to_bytes() == record.to_bytes()

    def test_reencrypt_unknown_ciphertext(self, system):
        system.issue_keys("bob", "hospital", ["doctor"], "alice")
        system.upload("alice", "r1", {"c": (b"x", "hospital:doctor")})
        with pytest.raises(StorageError, match="no ciphertext"):
            system.server.store.locate_ciphertext("ghost-ct")


class TestAuthorityEntity:
    def test_issue_key_routes_through_network(self, system):
        before = system.meter.messages_between("aa", "user")
        system.issue_keys("bob", "hospital", ["doctor"], "alice")
        assert system.meter.messages_between("aa", "user") == before + 1

    def test_entity_names_and_roles(self, system):
        assert system.authorities["hospital"].aid == "hospital"
        owner = system.owners["alice"].connection
        assert (owner.name, owner.role) == ("owner:alice", "owner")
        user = system.users["bob"].connection
        assert (user.name, user.role) == ("user:bob", "user")
        assert (system.server.name, system.server.role) == ("cloud", "server")
        assert owner.server_name == user.server_name == "cloud"
