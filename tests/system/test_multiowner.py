"""Multi-owner scenarios: one revocation must update every owner's world.

The update key carries one ``UK1`` component *per owner* (each owner has
its own β), and phase 2 must re-encrypt the affected ciphertexts of
every owner — these tests pin that down.
"""

import pytest

from repro.ec.params import TOY80
from repro.errors import (
    AuthorizationError,
    PolicyNotSatisfiedError,
    SchemeError,
)
from repro.system.workflow import CloudStorageSystem

DENIED = (PolicyNotSatisfiedError, SchemeError, AuthorizationError)


@pytest.fixture()
def system():
    deployment = CloudStorageSystem(TOY80, seed=515)
    deployment.add_authority("aa", ["x", "y"])
    deployment.add_owner("alice")
    deployment.add_owner("carol")
    deployment.add_user("bob")
    deployment.add_user("dan")
    for owner in ("alice", "carol"):
        deployment.issue_keys("bob", "aa", ["x"], owner)
        deployment.issue_keys("dan", "aa", ["x"], owner)
    deployment.upload("alice", "rec-a", {"c": (b"alice data", "aa:x")})
    deployment.upload("carol", "rec-c", {"c": (b"carol data", "aa:x")})
    yield deployment
    deployment.close()


class TestMultiOwnerRevocation:
    def test_update_key_covers_every_owner(self, system):
        result = system.revoke("aa", "bob", ["x"])
        assert set(result.update_key.uk1) == {"alice", "carol"}

    def test_revocation_hits_both_owners_data(self, system):
        system.revoke("aa", "bob", ["x"])
        for record in ("rec-a", "rec-c"):
            with pytest.raises(DENIED):
                system.read("bob", record, "c")

    def test_survivor_reads_both_owners_data(self, system):
        system.revoke("aa", "bob", ["x"])
        assert system.read("dan", "rec-a", "c") == b"alice data"
        assert system.read("dan", "rec-c", "c") == b"carol data"

    def test_both_owners_ledgers_advance(self, system):
        system.revoke("aa", "bob", ["x"])
        for owner_id, record in (("alice", "rec-a/c"), ("carol", "rec-c/c")):
            ledger = system.owners[owner_id].core.record(record)
            assert ledger.versions["aa"] == 1

    def test_user_key_scoping_is_per_owner(self, system):
        """bob's alice-scoped key never opens carol's data even though
        the attribute sets match."""
        bob = system.users["bob"]
        alice_keys = bob.secret_keys_for("alice")
        carol_keys = bob.secret_keys_for("carol")
        assert alice_keys["aa"].k != carol_keys["aa"].k
        # Attribute components are owner-independent (paper structure):
        assert (
            alice_keys["aa"].attribute_keys == carol_keys["aa"].attribute_keys
        )

    def test_new_owner_after_revocation(self, system):
        """An owner created after a revocation learns the current-version
        keys and interoperates with survivors immediately."""
        system.revoke("aa", "bob", ["x"])
        system.add_owner("erin")
        system.issue_keys("dan", "aa", ["x"], "erin")
        system.upload("erin", "rec-e", {"c": (b"erin data", "aa:x")})
        assert system.read("dan", "rec-e", "c") == b"erin data"
        with pytest.raises(DENIED):
            system.read("bob", "rec-e", "c")

    def test_hardened_multiowner(self, system):
        result = system.revoke("aa", "bob", ["x"], hardened=True)
        # dan re-issued for both owner scopes.
        assert ("dan", "alice") in result.reissued_keys
        assert ("dan", "carol") in result.reissued_keys
        assert system.read("dan", "rec-a", "c") == b"alice data"
        assert system.read("dan", "rec-c", "c") == b"carol data"
        with pytest.raises(DENIED):
            system.read("bob", "rec-c", "c")
