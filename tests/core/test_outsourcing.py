"""Tests for outsourced decryption."""

import pytest

from repro.core.decrypt import decrypt
from repro.core.outsourcing import (
    make_transform_key,
    server_transform_many,
    user_finalize,
)
from repro.errors import PolicyNotSatisfiedError, SchemeError

POLICY = "hospital:doctor AND trial:researcher"


def transform_one(group, ciphertext, transform):
    """A batch of one: the single-ciphertext transform."""
    (partial,) = server_transform_many(group, [ciphertext], transform)
    return partial


def reference_partial(group, ciphertext, transform):
    """The paper-literal Eq. (1) blinding under the transformed keys."""
    return ciphertext.c / decrypt(group, ciphertext,
                                  transform.transformed_public,
                                  transform.transformed_secret)


@pytest.fixture()
def world(deployment):
    public, keys = deployment.add_user(
        "u", hospital_attrs=["doctor"], trial_attrs=["researcher"]
    )
    message = deployment.scheme.random_message()
    ciphertext = deployment.owner.encrypt(message, POLICY)
    return deployment, public, keys, message, ciphertext


class TestCorrectness:
    def test_roundtrip(self, world):
        deployment, public, keys, message, ciphertext = world
        group = deployment.scheme.group
        transform, retrieval = make_transform_key(group, public, keys)
        partial = transform_one(group, ciphertext, transform)
        assert partial.to_bytes() == \
            reference_partial(group, ciphertext, transform).to_bytes()
        assert user_finalize(ciphertext, partial, retrieval) == message

    def test_matches_local_decryption(self, world):
        deployment, public, keys, message, ciphertext = world
        group = deployment.scheme.group
        local = deployment.scheme.decrypt(ciphertext, public, keys)
        transform, retrieval = make_transform_key(group, public, keys)
        outsourced = user_finalize(
            ciphertext, transform_one(group, ciphertext, transform),
            retrieval,
        )
        assert local == outsourced == message

    def test_user_does_zero_pairings(self, world):
        deployment, public, keys, message, ciphertext = world
        group = deployment.scheme.group
        transform, retrieval = make_transform_key(group, public, keys)
        partial = transform_one(group, ciphertext, transform)
        group.counter.reset()
        result = user_finalize(ciphertext, partial, retrieval)
        assert result == message
        assert group.counter.pairings == 0
        assert group.counter.gt_exponentiations == 1

    def test_server_does_all_pairings(self, world):
        deployment, public, keys, message, ciphertext = world
        group = deployment.scheme.group
        transform, retrieval = make_transform_key(group, public, keys)
        group.counter.reset()
        transform_one(group, ciphertext, transform)
        # The session form: the numerator and the key half of the
        # denominator share one prepared chain, the row half the other.
        assert group.counter.pairings == 2


class TestSecurity:
    def test_partial_alone_does_not_reveal_message(self, world):
        deployment, public, keys, message, ciphertext = world
        group = deployment.scheme.group
        transform, _ = make_transform_key(group, public, keys)
        partial = transform_one(group, ciphertext, transform)
        # The server's best guess without z: divide C by the partial.
        assert ciphertext.c / partial != message
        assert partial != ciphertext.c / message  # i.e. blinding ≠ B itself

    def test_wrong_retrieval_key_fails(self, world):
        deployment, public, keys, message, ciphertext = world
        group = deployment.scheme.group
        transform, retrieval = make_transform_key(group, public, keys)
        partial = transform_one(group, ciphertext, transform)
        from repro.core.outsourcing import RetrievalKey

        wrong = RetrievalKey(uid="u", z=retrieval.z + 1)
        assert user_finalize(ciphertext, partial, wrong) != message

    def test_transform_key_respects_policy(self, world):
        """The server cannot transform ciphertexts the underlying key
        does not satisfy."""
        deployment, public, keys, message, ciphertext = world
        group = deployment.scheme.group
        other_ct = deployment.owner.encrypt(
            deployment.scheme.random_message(),
            "hospital:nurse AND trial:researcher",
        )
        transform, _ = make_transform_key(group, public, keys)
        with pytest.raises(PolicyNotSatisfiedError):
            transform_one(group, other_ct, transform)


class TestApi:
    def test_empty_keys_rejected(self, world):
        deployment, public, keys, message, ciphertext = world
        with pytest.raises(SchemeError):
            make_transform_key(deployment.scheme.group, public, {})

    def test_foreign_key_rejected(self, world):
        deployment, public, keys, message, ciphertext = world
        other_public, other_keys = deployment.add_user(
            "w", hospital_attrs=["doctor"]
        )
        mixed = {"hospital": other_keys["hospital"], "trial": keys["trial"]}
        with pytest.raises(SchemeError):
            make_transform_key(deployment.scheme.group, public, mixed)

    def test_version_discipline_still_enforced(self, world):
        deployment, public, keys, message, ciphertext = world
        group = deployment.scheme.group
        transform, retrieval = make_transform_key(group, public, keys)
        result = deployment.scheme.revoke("hospital", "u", ["doctor"])
        ui = deployment.owner.update_info(ciphertext, result.update_key)
        deployment.owner.apply_update_key(result.update_key)
        updated = deployment.scheme.reencrypt(
            ciphertext, result.update_key, ui
        )
        with pytest.raises(SchemeError, match="version"):
            transform_one(group, updated, transform)


class TestBatchTransform:
    def test_batch_matches_per_ciphertext(self, world):
        deployment, public, keys, message, ciphertext = world
        group = deployment.scheme.group
        messages = [deployment.scheme.random_message() for _ in range(3)]
        # Two policy shapes in one batch: the batch path builds one
        # internal session per shape, never mixes them up.
        ciphertexts = [ciphertext] + [
            deployment.owner.encrypt(
                messages[0], "hospital:doctor OR trial:researcher"
            ),
            deployment.owner.encrypt(messages[1], POLICY),
        ]
        transform, retrieval = make_transform_key(group, public, keys)
        batched = server_transform_many(group, ciphertexts, transform)
        for one, many in zip(
            (reference_partial(group, c, transform) for c in ciphertexts),
            batched,
        ):
            assert one.to_bytes() == many.to_bytes()
        assert user_finalize(ciphertexts[0], batched[0], retrieval) \
            == message

    def test_stale_batch_rejected_before_any_pairing(self, world):
        deployment, public, keys, message, ciphertext = world
        group = deployment.scheme.group
        transform, _ = make_transform_key(group, public, keys)
        result = deployment.scheme.revoke("hospital", "u", ["doctor"])
        ui = deployment.owner.update_info(ciphertext, result.update_key)
        deployment.owner.apply_update_key(result.update_key)
        updated = deployment.scheme.reencrypt(
            ciphertext, result.update_key, ui
        )
        group.counter.reset()
        with pytest.raises(SchemeError, match="version"):
            server_transform_many(group, [updated], transform)
        assert group.counter.pairings == 0
