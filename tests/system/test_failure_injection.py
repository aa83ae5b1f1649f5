"""Failure injection: tampering, stale state, and threat-model checks.

The server in the paper's model is honest-but-curious, but a *defensive*
implementation should fail loudly if the server (or the channel)
misbehaves anyway. These tests corrupt stored records, replay stale
keys, and verify the server's code path never handles key material.
"""

import dataclasses

import pytest

from repro.core.keys import (
    CaUserSecret,
    OwnerMasterKey,
    OwnerSecretKey,
    UserSecretKey,
    VersionKey,
)
from repro.crypto.symmetric import SymmetricCiphertext
from repro.ec.params import TOY80
from repro.errors import IntegrityError, SchemeError
from repro.system.records import StoredComponent
from repro.system.workflow import CloudStorageSystem


@pytest.fixture()
def system():
    deployment = CloudStorageSystem(TOY80, seed=616)
    deployment.add_authority("hospital", ["doctor"])
    deployment.add_owner("alice")
    deployment.add_user("bob")
    deployment.issue_keys("bob", "hospital", ["doctor"], "alice")
    deployment.upload(
        "alice", "rec", {"note": (b"confidential", "hospital:doctor")}
    )
    yield deployment
    deployment.close()


def _tamper_component(system, mutate):
    store = system.server.store
    record = store.get("rec")
    tampered = mutate(record.component("note"))
    store.put(record.with_component(tampered), replace=True)


class TestTampering:
    def test_flipped_symmetric_body_detected(self, system):
        def mutate(component):
            body = bytearray(component.data_ciphertext.body)
            body[0] ^= 0xFF
            return StoredComponent(
                name=component.name,
                abe_ciphertext=component.abe_ciphertext,
                data_ciphertext=SymmetricCiphertext(
                    nonce=component.data_ciphertext.nonce,
                    body=bytes(body),
                    tag=component.data_ciphertext.tag,
                ),
            )

        _tamper_component(system, mutate)
        with pytest.raises(IntegrityError):
            system.read("bob", "rec", "note")

    def test_swapped_abe_ciphertext_detected(self, system):
        """Serving the wrong ABE ciphertext yields the wrong content key,
        which the MAC of the symmetric layer rejects."""
        system.upload(
            "alice", "other", {"note": (b"different", "hospital:doctor")}
        )

        def mutate(component):
            other = system.server.store.get("other").component("note")
            return StoredComponent(
                name=component.name,
                abe_ciphertext=other.abe_ciphertext,
                data_ciphertext=component.data_ciphertext,
            )

        _tamper_component(system, mutate)
        with pytest.raises(IntegrityError):
            system.read("bob", "rec", "note")

    def test_truncated_tag_detected(self, system):
        def mutate(component):
            ct = component.data_ciphertext
            return StoredComponent(
                name=component.name,
                abe_ciphertext=component.abe_ciphertext,
                data_ciphertext=SymmetricCiphertext(
                    nonce=ct.nonce, body=ct.body, tag=b"\x00" * 32
                ),
            )

        _tamper_component(system, mutate)
        with pytest.raises(IntegrityError):
            system.read("bob", "rec", "note")


class TestStaleState:
    def test_replayed_old_ciphertext_unreadable_after_revocation(self, system):
        """A server that serves the PRE-re-encryption ciphertext to an
        updated user fails version validation (no silent wrong plaintext)."""
        store = system.server.store
        old_component = store.get("rec").component("note")
        system.add_user("carol")
        system.issue_keys("carol", "hospital", ["doctor"], "alice")
        system.revoke("hospital", "carol", ["doctor"])
        # Put the stale ciphertext back (malicious rollback).
        store.put(store.get("rec").with_component(old_component),
                  replace=True)
        with pytest.raises(SchemeError, match="version"):
            system.read("bob", "rec", "note")

    def test_stale_update_info_rejected_by_server_path(self, system):
        system.add_user("carol")
        system.issue_keys("carol", "hospital", ["doctor"], "alice")
        result = system.revoke("hospital", "carol", ["doctor"])
        # Replaying the same (now stale) update against the re-encrypted
        # ciphertext must fail version checks.
        owner = system.owners["alice"].core
        with pytest.raises(SchemeError):
            owner.update_info_for_record("rec/note", result.update_key)


class TestThreatModel:
    def test_server_holds_no_key_material(self, system):
        """No owner secret, user key or version key ever reaches the
        server: none was sent to it, and it holds none."""
        received = {entry.kind for entry in system.server.meter.log}
        assert received == {"store-record"}
        secrets = (CaUserSecret, OwnerMasterKey, OwnerSecretKey,
                   UserSecretKey, VersionKey)
        held = [*vars(system.server).values(),
                *vars(system.server.store).values()]
        assert not [value for value in held if isinstance(value, secrets)]

    def test_network_log_never_carries_owner_master_key(self, system):
        """MK_o = {β, r} must never travel; SK_o = {g^{1/β}, r/β} does
        (over the modeled secure channel) but the master key object is
        local-only."""
        for entry in system.meter.log:
            assert entry.kind != "owner-master-key"
        # And the size model refuses to measure one if it ever did:
        from repro.system.sizes import UnmeasurablePayload, measure

        master = system.owners["alice"].core.master_key
        assert isinstance(master, OwnerMasterKey)
        with pytest.raises(UnmeasurablePayload):
            measure(master, system.group)

    def test_replayed_update_key_with_wrong_version_rejected(self, system):
        """Update keys are delivered over authenticated channels (the
        paper's assumption), so forgery is out of scope — but *replay*
        and version confusion are caught by the version discipline."""
        system.add_user("carol")
        system.issue_keys("carol", "hospital", ["doctor"], "alice")
        result = system.revoke("hospital", "carol", ["doctor"])
        stale = dataclasses.replace(
            result.update_key, from_version=5, to_version=6
        )
        owner = system.owners["alice"].core
        with pytest.raises(SchemeError):
            owner.update_info_for_record("rec/note", stale)
        user_key = system.users["bob"].secret_keys_for("alice")["hospital"]
        from repro.core.authority import apply_update_key

        with pytest.raises(SchemeError):
            apply_update_key(user_key, stale)
