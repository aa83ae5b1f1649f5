"""Encrypt/Decrypt round-trips, failure modes, and collusion resistance."""

import dataclasses

import pytest

from repro.core.decrypt import can_decrypt, decrypt
from repro.errors import PolicyError, PolicyNotSatisfiedError, SchemeError
from repro.fastpath import DecryptionSession


class TestRoundTrips:
    @pytest.mark.parametrize(
        "policy,hospital_attrs,trial_attrs",
        [
            ("hospital:doctor", ["doctor"], []),
            ("hospital:doctor AND hospital:nurse", ["doctor", "nurse"], []),
            ("hospital:doctor OR hospital:nurse", ["nurse"], []),
            (
                "hospital:doctor AND trial:researcher",
                ["doctor"],
                ["researcher"],
            ),
            # Note: the user still needs *a* key from every involved
            # authority (structural property of the scheme), even when
            # the satisfied branch does not use its attributes.
            (
                "(hospital:doctor AND trial:pi) OR hospital:admin",
                ["admin"],
                ["monitor"],
            ),
            (
                "hospital:surgeon AND (trial:researcher OR trial:monitor)",
                ["surgeon"],
                ["monitor"],
            ),
        ],
    )
    def test_authorized_roundtrip(self, deployment, policy, hospital_attrs,
                                  trial_attrs):
        deployment.add_user(
            "u", hospital_attrs=hospital_attrs, trial_attrs=trial_attrs
        )
        message = deployment.scheme.random_message()
        ciphertext = deployment.owner.encrypt(message, policy)
        assert deployment.decrypt(ciphertext, "u") == message

    def test_fast_decrypt_agrees(self, deployment):
        deployment.add_user("u", hospital_attrs=["doctor"],
                            trial_attrs=["researcher"])
        message = deployment.scheme.random_message()
        ciphertext = deployment.owner.encrypt(
            message, "hospital:doctor AND trial:researcher"
        )
        group = deployment.scheme.group
        slow = decrypt(group, ciphertext, deployment.user_public["u"],
                       deployment.user_keys["u"])
        fast = DecryptionSession(group, ciphertext,
                                 deployment.user_public["u"],
                                 deployment.user_keys["u"]).decrypt(ciphertext)
        assert slow.to_bytes() == fast.to_bytes()
        assert fast == message

    def test_threshold_policy_with_rho_reuse(self, deployment):
        deployment.add_user("u", hospital_attrs=["doctor", "nurse"])
        message = deployment.scheme.random_message()
        ciphertext = deployment.owner.encrypt(
            message,
            "2 of (hospital:doctor, hospital:nurse, hospital:admin)",
            require_injective_rho=False,
        )
        assert deployment.decrypt(ciphertext, "u") == message

    def test_extra_attributes_do_not_hurt(self, deployment):
        deployment.add_user(
            "u",
            hospital_attrs=["doctor", "nurse", "surgeon", "admin"],
            trial_attrs=["researcher", "pi", "monitor"],
        )
        message = deployment.scheme.random_message()
        ciphertext = deployment.owner.encrypt(
            message, "hospital:doctor AND trial:pi"
        )
        assert deployment.decrypt(ciphertext, "u") == message

    def test_multiple_ciphertexts_independent(self, deployment):
        deployment.add_user("u", hospital_attrs=["doctor"])
        m1 = deployment.scheme.random_message()
        m2 = deployment.scheme.random_message()
        c1 = deployment.owner.encrypt(m1, "hospital:doctor")
        c2 = deployment.owner.encrypt(m2, "hospital:doctor")
        assert deployment.decrypt(c1, "u") == m1
        assert deployment.decrypt(c2, "u") == m2
        assert c1.c != c2.c


class TestFailures:
    def test_unsatisfying_attributes_rejected(self, deployment):
        deployment.add_user("u", hospital_attrs=["nurse"],
                            trial_attrs=["researcher"])
        ciphertext = deployment.owner.encrypt(
            deployment.scheme.random_message(),
            "hospital:doctor AND trial:researcher",
        )
        with pytest.raises(PolicyNotSatisfiedError):
            deployment.decrypt(ciphertext, "u")

    def test_missing_authority_key_rejected(self, deployment):
        deployment.add_user("u", hospital_attrs=["doctor"])  # no trial key
        ciphertext = deployment.owner.encrypt(
            deployment.scheme.random_message(),
            "hospital:doctor AND trial:researcher",
        )
        with pytest.raises(SchemeError, match="missing"):
            deployment.decrypt(ciphertext, "u")

    def test_missing_authority_even_if_policy_satisfiable_without_it(
        self, deployment
    ):
        # OR policy across authorities: the numerator still runs over all
        # involved authorities, a structural property of the scheme.
        deployment.add_user("u", hospital_attrs=["doctor"])
        ciphertext = deployment.owner.encrypt(
            deployment.scheme.random_message(),
            "hospital:doctor OR trial:researcher",
        )
        with pytest.raises(SchemeError, match="missing"):
            deployment.decrypt(ciphertext, "u")

    def test_wrong_owner_scope_rejected(self, deployment):
        scheme = deployment.scheme
        other_owner = scheme.setup_owner(
            "mallory-owner", [deployment.hospital, deployment.trial]
        )
        pk = scheme.register_user("u")
        keys = {
            "hospital": deployment.hospital.keygen(
                pk, ["doctor"], "mallory-owner"
            ),
            "trial": deployment.trial.keygen(
                pk, ["researcher"], "mallory-owner"
            ),
        }
        ciphertext = deployment.owner.encrypt(
            scheme.random_message(), "hospital:doctor AND trial:researcher"
        )
        with pytest.raises(SchemeError, match="scoped to owner"):
            decrypt(scheme.group, ciphertext, pk, keys)

    def test_injective_rho_enforced_by_default(self, deployment):
        with pytest.raises(PolicyError, match="injective"):
            deployment.owner.encrypt(
                deployment.scheme.random_message(),
                "2 of (hospital:doctor, hospital:nurse, hospital:admin)",
            )

    def test_unknown_authority_in_policy(self, deployment):
        with pytest.raises(SchemeError, match="no public keys"):
            deployment.owner.encrypt(
                deployment.scheme.random_message(), "nasa:astronaut"
            )

    def test_wrong_plaintext_on_forced_decrypt(self, deployment):
        """Bypassing validation with a mismatched UID yields garbage, not
        the message (the algebraic collusion barrier)."""
        deployment.add_user("honest", hospital_attrs=["doctor"],
                            trial_attrs=["researcher"])
        deployment.add_user("evil", hospital_attrs=["nurse"],
                            trial_attrs=["researcher"])
        message = deployment.scheme.random_message()
        ciphertext = deployment.owner.encrypt(
            message, "hospital:doctor AND trial:researcher"
        )
        forged = dataclasses.replace(
            deployment.user_keys["honest"]["hospital"], uid="evil"
        )
        mixed = {
            "hospital": forged,
            "trial": deployment.user_keys["evil"]["trial"],
        }
        result = decrypt(
            deployment.scheme.group, ciphertext,
            deployment.user_public["evil"], mixed,
        )
        assert result != message


class TestCollusion:
    def test_two_users_cannot_pool_keys(self, deployment):
        """The validation layer rejects key bundles with mixed UIDs."""
        deployment.add_user("u1", hospital_attrs=["doctor"])
        deployment.add_user("u2", trial_attrs=["researcher"])
        ciphertext = deployment.owner.encrypt(
            deployment.scheme.random_message(),
            "hospital:doctor AND trial:researcher",
        )
        pooled = {
            "hospital": deployment.user_keys["u1"]["hospital"],
            "trial": deployment.user_keys["u2"]["trial"],
        }
        with pytest.raises(SchemeError, match="belongs"):
            decrypt(
                deployment.scheme.group, ciphertext,
                deployment.user_public["u1"], pooled,
            )

    def test_fast_path_also_validates(self, deployment):
        deployment.add_user("u1", hospital_attrs=["doctor"])
        deployment.add_user("u2", trial_attrs=["researcher"])
        ciphertext = deployment.owner.encrypt(
            deployment.scheme.random_message(),
            "hospital:doctor AND trial:researcher",
        )
        pooled = {
            "hospital": deployment.user_keys["u1"]["hospital"],
            "trial": deployment.user_keys["u2"]["trial"],
        }
        with pytest.raises(SchemeError):
            DecryptionSession(
                deployment.scheme.group, ciphertext,
                deployment.user_public["u2"], pooled,
            )


class TestCanDecrypt:
    def test_predicate(self, deployment):
        deployment.add_user("yes", hospital_attrs=["doctor"],
                            trial_attrs=["researcher"])
        deployment.add_user("no", hospital_attrs=["nurse"],
                            trial_attrs=["researcher"])
        deployment.add_user("partial", hospital_attrs=["doctor"])
        group = deployment.scheme.group
        ciphertext = deployment.owner.encrypt(
            deployment.scheme.random_message(),
            "hospital:doctor AND trial:researcher",
        )
        assert can_decrypt(group, ciphertext, deployment.user_keys["yes"])
        assert not can_decrypt(group, ciphertext, deployment.user_keys["no"])
        assert not can_decrypt(
            group, ciphertext, deployment.user_keys["partial"]
        )
