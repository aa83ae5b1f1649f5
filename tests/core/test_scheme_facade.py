"""Tests for the MultiAuthorityABE facade (the docstring example, etc.)."""

import pytest

from repro.core.scheme import MultiAuthorityABE
from repro.ec.params import TOY80
from repro.errors import SchemeError


class TestFacade:
    def test_docstring_example(self):
        scheme = MultiAuthorityABE(TOY80, seed=1)
        hospital = scheme.setup_authority("hospital", ["doctor", "nurse"])
        trial = scheme.setup_authority("trial", ["researcher"])
        owner = scheme.setup_owner("alice", [hospital, trial])
        bob_pk = scheme.register_user("bob")
        bob_keys = {
            "hospital": hospital.keygen(bob_pk, ["doctor"], "alice"),
            "trial": trial.keygen(bob_pk, ["researcher"], "alice"),
        }
        message = scheme.random_message()
        ct = owner.encrypt(message, "hospital:doctor AND trial:researcher")
        assert scheme.decrypt(ct, bob_pk, bob_keys) == message
        assert scheme.can_decrypt(ct, bob_keys)

    def test_authority_registry(self):
        scheme = MultiAuthorityABE(TOY80, seed=2)
        hospital = scheme.setup_authority("hospital", ["doctor"])
        assert scheme.authority("hospital") is hospital
        assert set(scheme.authorities) == {"hospital"}

    def test_duplicate_authority_rejected(self):
        scheme = MultiAuthorityABE(TOY80, seed=3)
        scheme.setup_authority("hospital", ["doctor"])
        with pytest.raises(SchemeError):
            scheme.setup_authority("hospital", ["nurse"])

    def test_setup_owner_defaults_to_all_authorities(self):
        scheme = MultiAuthorityABE(TOY80, seed=4)
        scheme.setup_authority("a", ["x"])
        scheme.setup_authority("b", ["y"])
        owner = scheme.setup_owner("o")
        assert owner.known_authorities() == {"a", "b"}

    def test_facade_revoke_roundtrip(self):
        scheme = MultiAuthorityABE(TOY80, seed=5)
        hospital = scheme.setup_authority("hospital", ["doctor", "nurse"])
        owner = scheme.setup_owner("alice")
        pk = scheme.register_user("u")
        keys = {"hospital": hospital.keygen(pk, ["doctor"], "alice")}
        message = scheme.random_message()
        ct = owner.encrypt(message, "hospital:doctor")
        result = scheme.revoke("hospital", "u", ["doctor"])
        ui = owner.update_info(ct, result.update_key)
        owner.apply_update_key(result.update_key)
        new_ct = scheme.reencrypt(ct, result.update_key, ui)
        assert new_ct.version_of("hospital") == 1
        # A fresh doctor reads the re-encrypted data.
        pk2 = scheme.register_user("u2")
        keys2 = {"hospital": hospital.keygen(pk2, ["doctor"], "alice")}
        assert scheme.decrypt(new_ct, pk2, keys2) == message

    def test_facade_hardened_revoke(self):
        scheme = MultiAuthorityABE(TOY80, seed=6)
        hospital = scheme.setup_authority("hospital", ["doctor"])
        scheme.setup_owner("alice")
        pk = scheme.register_user("u")
        hospital.keygen(pk, ["doctor"], "alice")
        pk2 = scheme.register_user("v")
        hospital.keygen(pk2, ["doctor"], "alice")
        result = scheme.revoke("hospital", "u", ["doctor"], hardened=True)
        assert result.is_hardened
        assert ("v", "alice") in result.reissued_keys
