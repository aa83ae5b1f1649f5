"""Tests for DataOwner: master keys, ledger, and update information."""

import pytest

from repro.core.owner import DataOwner
from repro.core.revocation import rekey_standard
from repro.errors import RevocationError, SchemeError


class TestOwnerGen:
    def test_secret_key_structure(self, deployment):
        group = deployment.scheme.group
        owner = deployment.owner
        master = owner.master_key
        secret = owner.secret_key
        # g^{1/β} raised to β gives back g.
        assert secret.g_inv_beta ** master.beta == group.g
        # r/β times β gives r.
        assert (
            secret.r_over_beta * master.beta % group.order == master.r_exp
        )

    def test_distinct_owners_distinct_keys(self, group):
        a = DataOwner(group, "a")
        b = DataOwner(group, "b")
        assert a.master_key.beta != b.master_key.beta

    def test_known_authorities(self, deployment):
        assert deployment.owner.known_authorities() == {"hospital", "trial"}


class TestLedger:
    def test_record_created_per_ciphertext(self, deployment):
        ciphertext = deployment.owner.encrypt(
            deployment.scheme.random_message(), "hospital:doctor"
        )
        record = deployment.owner.record(ciphertext.ciphertext_id)
        assert record.policy == ciphertext.policy_string
        assert record.versions == {"hospital": 0}
        assert 1 <= record.s < deployment.scheme.group.order

    def test_explicit_ciphertext_id(self, deployment):
        ciphertext = deployment.owner.encrypt(
            deployment.scheme.random_message(), "hospital:doctor",
            ciphertext_id="my-ct",
        )
        assert ciphertext.ciphertext_id == "my-ct"
        assert deployment.owner.record("my-ct").ciphertext_id == "my-ct"

    def test_duplicate_id_rejected(self, deployment):
        deployment.owner.encrypt(
            deployment.scheme.random_message(), "hospital:doctor",
            ciphertext_id="dup",
        )
        with pytest.raises(SchemeError, match="already used"):
            deployment.owner.encrypt(
                deployment.scheme.random_message(), "hospital:nurse",
                ciphertext_id="dup",
            )

    def test_unknown_record_raises(self, deployment):
        with pytest.raises(SchemeError):
            deployment.owner.record("ghost")

    def test_records_involving(self, deployment):
        deployment.owner.encrypt(
            deployment.scheme.random_message(), "hospital:doctor",
            ciphertext_id="h-only",
        )
        deployment.owner.encrypt(
            deployment.scheme.random_message(),
            "hospital:doctor AND trial:pi",
            ciphertext_id="both",
        )
        assert set(deployment.owner.records_involving("hospital")) == {
            "h-only", "both"
        }
        assert deployment.owner.records_involving("trial") == ["both"]


class TestUpdateInfo:
    def test_record_and_ciphertext_paths_agree(self, deployment):
        deployment.add_user("victim", hospital_attrs=["doctor"])
        ciphertext = deployment.owner.encrypt(
            deployment.scheme.random_message(),
            "hospital:doctor AND trial:researcher",
        )
        result = rekey_standard(deployment.hospital, "victim", ["doctor"])
        from_ciphertext = deployment.owner.update_info(
            ciphertext, result.update_key
        )
        from_record = deployment.owner.update_info_for_record(
            ciphertext.ciphertext_id, result.update_key
        )
        assert from_ciphertext.elements == from_record.elements
        assert from_ciphertext.aid == from_record.aid == "hospital"

    def test_only_affected_attributes_included(self, deployment):
        deployment.add_user("victim", hospital_attrs=["doctor"])
        ciphertext = deployment.owner.encrypt(
            deployment.scheme.random_message(),
            "hospital:doctor AND trial:researcher",
        )
        result = rekey_standard(deployment.hospital, "victim", ["doctor"])
        info = deployment.owner.update_info(ciphertext, result.update_key)
        assert set(info.elements) == {"hospital:doctor"}

    def test_uninvolved_authority_rejected(self, deployment):
        deployment.add_user("victim", trial_attrs=["pi"])
        ciphertext = deployment.owner.encrypt(
            deployment.scheme.random_message(), "hospital:doctor"
        )
        result = rekey_standard(deployment.trial, "victim", ["pi"])
        with pytest.raises(RevocationError, match="not involved"):
            deployment.owner.update_info(ciphertext, result.update_key)

    def test_foreign_ciphertext_rejected(self, deployment):
        deployment.add_user("victim", hospital_attrs=["doctor"])
        other = deployment.scheme.setup_owner(
            "bob", [deployment.hospital, deployment.trial]
        )
        foreign = other.encrypt(
            deployment.scheme.random_message(), "hospital:doctor"
        )
        result = rekey_standard(deployment.hospital, "victim", ["doctor"])
        with pytest.raises(RevocationError, match="different owner"):
            deployment.owner.update_info(foreign, result.update_key)

    def test_note_reencrypted_updates_ledger(self, deployment):
        deployment.add_user("victim", hospital_attrs=["doctor"])
        ciphertext = deployment.owner.encrypt(
            deployment.scheme.random_message(), "hospital:doctor"
        )
        result = rekey_standard(deployment.hospital, "victim", ["doctor"])
        deployment.owner.note_reencrypted(
            ciphertext.ciphertext_id, result.update_key
        )
        record = deployment.owner.record(ciphertext.ciphertext_id)
        assert record.versions["hospital"] == 1
        with pytest.raises(RevocationError):
            deployment.owner.note_reencrypted(
                ciphertext.ciphertext_id, result.update_key
            )

    def test_apply_update_key_unknown_authority(self, deployment):
        deployment.add_user("victim", hospital_attrs=["doctor"])
        result = rekey_standard(deployment.hospital, "victim", ["doctor"])
        fresh_owner = DataOwner(deployment.scheme.group, "loner")
        with pytest.raises(RevocationError):
            fresh_owner.apply_update_key(result.update_key)


class TestLearnAuthority:
    def test_mismatched_bundle_rejected(self, deployment):
        apk = deployment.hospital.authority_public_key()
        pak = deployment.trial.public_attribute_keys()
        with pytest.raises(SchemeError, match="mismatched"):
            deployment.owner.learn_authority(apk, pak)
