"""Dynamic attribute-universe growth (AAs "setting attributes" live)."""

import pytest

from repro.ec.params import TOY80
from repro.errors import PolicyNotSatisfiedError, SchemeError
from repro.system.workflow import CloudStorageSystem


@pytest.fixture()
def system():
    deployment = CloudStorageSystem(TOY80, seed=1207)
    deployment.add_authority("aa", ["x"])
    deployment.add_owner("alice")
    deployment.add_user("bob")
    deployment.issue_keys("bob", "aa", ["x"], "alice")
    deployment.upload("alice", "old", {"c": (b"old data", "aa:x")})
    yield deployment
    deployment.close()


class TestAddAttribute:
    def test_new_attribute_usable_end_to_end(self, system):
        qualified = system.add_attribute("aa", "y")
        assert qualified == "aa:y"
        system.issue_keys("bob", "aa", ["x", "y"], "alice")
        system.upload("alice", "new", {"c": (b"new data", "aa:y")})
        assert system.read("bob", "new", "c") == b"new data"

    def test_existing_data_unaffected(self, system):
        system.add_attribute("aa", "y")
        assert system.read("bob", "old", "c") == b"old data"

    def test_version_unchanged(self, system):
        before = system.authorities["aa"].version
        system.add_attribute("aa", "y")
        assert system.authorities["aa"].version == before

    def test_duplicate_rejected(self, system):
        with pytest.raises(SchemeError, match="already manages"):
            system.add_attribute("aa", "x")

    def test_invalid_name_rejected(self, system):
        from repro.errors import PolicyError

        with pytest.raises(PolicyError):
            system.add_attribute("aa", "bad name")

    def test_users_without_new_attribute_denied(self, system):
        system.add_attribute("aa", "y")
        system.upload("alice", "new", {"c": (b"secret", "aa:y")})
        with pytest.raises(PolicyNotSatisfiedError):
            system.read("bob", "new", "c")

    def test_interacts_with_revocation(self, system):
        system.add_attribute("aa", "y")
        system.issue_keys("bob", "aa", ["x", "y"], "alice")
        system.upload("alice", "new", {"c": (b"secret", "aa:y")})
        system.revoke("aa", "bob", ["y"])
        with pytest.raises((PolicyNotSatisfiedError, SchemeError)):
            system.read("bob", "new", "c")
        # x survives the revocation of y.
        assert system.read("bob", "old", "c") == b"old data"
