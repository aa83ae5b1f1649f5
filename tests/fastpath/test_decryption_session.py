"""Behavior of :class:`repro.fastpath.decrypt.DecryptionSession`."""

import pytest

from repro.core.decrypt import decrypt
from repro.errors import PolicyNotSatisfiedError, SchemeError
from repro.fastpath import DecryptionSession
from repro.system.meter import Meter

POLICY = "hospital:doctor AND trial:researcher"

POLICY_SHAPES = [
    POLICY,
    "hospital:doctor OR trial:researcher",
    "(hospital:doctor AND hospital:nurse) OR trial:pi",
    "hospital:surgeon AND (trial:researcher OR trial:pi)",
]


def _session_for(fabric, ciphertext, **kwargs):
    return DecryptionSession(
        fabric.scheme.group, ciphertext, fabric.bob_pk, fabric.bob_keys,
        **kwargs,
    )


class TestByteIdentity:
    @pytest.mark.parametrize("policy", POLICY_SHAPES)
    def test_identical_to_cold_path(self, fabric, policy):
        group = fabric.scheme.group
        messages = [fabric.scheme.random_message() for _ in range(3)]
        ciphertexts = [
            fabric.owner.encrypt(message, policy) for message in messages
        ]
        session = _session_for(fabric, ciphertexts[0])
        fast = session.decrypt_many(ciphertexts)
        for message, ciphertext, value in zip(messages, ciphertexts, fast):
            cold = decrypt(group, ciphertext, fabric.bob_pk,
                           fabric.bob_keys)
            assert value.to_bytes() == cold.to_bytes()
            assert value == message

    def test_single_decrypt_matches_batch(self, fabric):
        message = fabric.scheme.random_message()
        ciphertext = fabric.owner.encrypt(message, POLICY)
        session = _session_for(fabric, ciphertext)
        assert session.decrypt(ciphertext).to_bytes() \
            == session.decrypt_many([ciphertext])[0].to_bytes()

    def test_identical_to_naive_eq1(self, fabric):
        message = fabric.scheme.random_message()
        ciphertext = fabric.owner.encrypt(message, POLICY)
        naive = fabric.scheme.decrypt(ciphertext, fabric.bob_pk,
                                      fabric.bob_keys)
        session = _session_for(fabric, ciphertext)
        assert session.decrypt(ciphertext).to_bytes() == naive.to_bytes()


class TestAmortization:
    def test_two_pairings_per_ciphertext(self, fabric):
        group = fabric.scheme.group
        ciphertexts = [
            fabric.owner.encrypt(fabric.scheme.random_message(), POLICY)
            for _ in range(4)
        ]
        session = _session_for(fabric, ciphertexts[0])
        group.counter.reset()
        session.decrypt_many(ciphertexts)
        # Eq. (1) collapses to 3 pairings by bilinearity; the session
        # merges the two C'-side pairings into one prepared chain.
        assert group.counter.pairings == 2 * len(ciphertexts)

    def test_joint_replay_is_the_product_of_both_chains(self, fabric):
        group = fabric.scheme.group
        ciphertext = fabric.owner.encrypt(fabric.scheme.random_message(),
                                          POLICY)
        session = _session_for(fabric, ciphertext)
        group.counter.reset()
        raw = session._miller_raw(ciphertext)
        assert group.counter.pairings == 2
        c_combined = group.multiexp_g1(
            [ciphertext.c_rows[index] for index in session._row_indices],
            list(session._exponents),
        )
        assert raw == group.ext.mul(
            session._prepared_keys.miller(ciphertext.c_prime.point),
            session._prepared_pk.miller(c_combined.inverse().point),
        )

    def test_stats_and_meter(self, fabric):
        meter = Meter(fabric.scheme.group)
        ciphertexts = [
            fabric.owner.encrypt(fabric.scheme.random_message(), POLICY)
            for _ in range(3)
        ]
        session = _session_for(fabric, ciphertexts[0], meter=meter)
        session.decrypt_many(ciphertexts)
        session.decrypt(ciphertexts[0])
        assert session.stats == {"decrypted": 4, "batches": 2}
        assert meter.counters["decrypt.session.decrypt"] == 4
        assert meter.counters["decrypt.session.batch"] == 2


class TestValidation:
    def test_unsatisfied_policy_rejected_at_setup(self, fabric):
        ciphertext = fabric.owner.encrypt(
            fabric.scheme.random_message(), POLICY
        )
        poor_keys = {
            "hospital": fabric.bob_keys["hospital"],
        }
        with pytest.raises((PolicyNotSatisfiedError, SchemeError)):
            DecryptionSession(fabric.scheme.group, ciphertext,
                              fabric.bob_pk, poor_keys)

    def test_foreign_policy_shape_rejected(self, fabric):
        first = fabric.owner.encrypt(fabric.scheme.random_message(), POLICY)
        other = fabric.owner.encrypt(
            fabric.scheme.random_message(), "hospital:nurse"
        )
        session = _session_for(fabric, first)
        with pytest.raises(SchemeError, match="policy"):
            session.decrypt(other)

    def test_foreign_owner_rejected(self, fabric):
        first = fabric.owner.encrypt(fabric.scheme.random_message(), POLICY)
        session = _session_for(fabric, first)
        stranger = fabric.scheme.setup_owner(
            "mallory", [fabric.hospital, fabric.trial]
        )
        foreign = stranger.encrypt(fabric.scheme.random_message(), POLICY)
        with pytest.raises(SchemeError, match="owner"):
            session.decrypt(foreign)


class TestRevocationFreshness:
    def _roll_epoch(self, fabric, ciphertext):
        """Revoke a bystander so bob's keys roll without losing access."""
        eve_pk = fabric.scheme.register_user("eve")
        fabric.hospital.keygen(eve_pk, ["doctor"], "alice")
        result = fabric.scheme.revoke("hospital", "eve", ["doctor"])
        update_key = result.update_key
        update_info = fabric.owner.update_info(ciphertext, update_key)
        fabric.owner.apply_update_key(update_key)
        reencrypted = fabric.scheme.reencrypt(
            ciphertext, update_key, update_info
        )
        rolled_keys = dict(fabric.bob_keys)
        rolled_keys["hospital"] = fabric.scheme.apply_update_key(
            fabric.bob_keys["hospital"], update_key
        )
        return reencrypted, rolled_keys

    def test_stale_session_rejects_reencrypted_ciphertext(self, fabric):
        message = fabric.scheme.random_message()
        ciphertext = fabric.owner.encrypt(message, POLICY)
        session = _session_for(fabric, ciphertext)
        reencrypted, rolled_keys = self._roll_epoch(fabric, ciphertext)
        # Typed rejection, same class as the cold path — never garbage.
        with pytest.raises(SchemeError, match="version"):
            session.decrypt(reencrypted)
        with pytest.raises(SchemeError, match="version"):
            decrypt(fabric.scheme.group, reencrypted, fabric.bob_pk,
                    fabric.bob_keys)

    def test_matches_detects_rolled_keys(self, fabric):
        message = fabric.scheme.random_message()
        ciphertext = fabric.owner.encrypt(message, POLICY)
        session = _session_for(fabric, ciphertext)
        assert session.matches(fabric.bob_pk, fabric.bob_keys)
        reencrypted, rolled_keys = self._roll_epoch(fabric, ciphertext)
        assert not session.matches(fabric.bob_pk, rolled_keys)
        assert not session.matches(fabric.bob_pk, {})

    def test_rebuilt_session_decrypts_reencrypted(self, fabric):
        message = fabric.scheme.random_message()
        ciphertext = fabric.owner.encrypt(message, POLICY)
        reencrypted, rolled_keys = self._roll_epoch(fabric, ciphertext)
        fresh = DecryptionSession(fabric.scheme.group, reencrypted,
                                  fabric.bob_pk, rolled_keys)
        cold = decrypt(fabric.scheme.group, reencrypted,
                       fabric.bob_pk, rolled_keys)
        assert fresh.decrypt(reencrypted).to_bytes() == cold.to_bytes()
        assert fresh.decrypt(reencrypted) == message
