"""Property: session ciphertexts are indistinguishable from cold ones.

Every policy shape the repo's policy tests exercise must decrypt the
same whether the ciphertext came from ``DataOwner.encrypt`` or from an
:class:`EncryptionSession` — through the paper-literal Decrypt, the
decryption session, AND the outsourced transform/finalize pipeline —
and must serialize to the same size. The session outputs and transform
partials must equal the paper-literal reference byte for byte, also
when one transform batch mixes policy shapes. TOY-80 covers the full
shape matrix; SS512 cases smoke-check the paper-sized curve.
"""

import pytest

from repro.core.decrypt import decrypt
from repro.core.outsourcing import (
    make_transform_key,
    server_transform_many,
    user_finalize,
)
from repro.core.scheme import MultiAuthorityABE
from repro.ec.params import SS512, TOY80
from repro.fastpath import DecryptionSession

# The shapes from tests/policy (AND/OR nesting, thresholds), qualified
# over the two-fabric authorities. Thresholds use the injectivity-
# preserving insertion construction, as the core scheme requires.
POLICY_SHAPES = [
    ("hospital:doctor", "expand"),
    ("hospital:doctor AND trial:researcher", "expand"),
    ("hospital:doctor OR hospital:nurse", "expand"),
    ("hospital:doctor AND (trial:researcher OR trial:pi)", "expand"),
    ("(hospital:doctor AND hospital:nurse) OR (trial:researcher AND trial:pi)",
     "expand"),
    ("hospital:doctor AND hospital:nurse AND hospital:surgeon", "expand"),
    ("2 of (hospital:doctor, hospital:nurse, trial:researcher)", "insert"),
    ("2 of (hospital:doctor AND trial:pi, hospital:nurse, trial:researcher)",
     "insert"),
]


def _assert_equivalent(fabric, policy, threshold_method):
    scheme, owner = fabric.scheme, fabric.owner
    message = scheme.random_message()
    cold = owner.encrypt(
        message, policy, ciphertext_id="eq-cold",
        threshold_method=threshold_method,
    )
    session = owner.session_for(policy, threshold_method=threshold_method)
    fast = session.encrypt(message, ciphertext_id="eq-sess")
    assert len(fast.to_bytes()) == len(cold.to_bytes())

    group = scheme.group
    pair = [cold, fast]
    references = [
        scheme.decrypt(ciphertext, fabric.bob_pk, fabric.bob_keys)
        for ciphertext in pair
    ]
    assert references == [message, message]
    decryptor = DecryptionSession(group, cold, fabric.bob_pk,
                                  fabric.bob_keys)
    batched = decryptor.decrypt_many(pair)
    transform_key, retrieval_key = make_transform_key(
        group, fabric.bob_pk, fabric.bob_keys
    )
    partials = server_transform_many(group, pair, transform_key)
    for ciphertext, reference, value, partial in zip(
            pair, references, batched, partials):
        assert decryptor.decrypt(ciphertext).to_bytes() \
            == reference.to_bytes()
        assert value.to_bytes() == reference.to_bytes()
        assert partial.to_bytes() == _reference_partial(
            group, ciphertext, transform_key).to_bytes()
        assert user_finalize(ciphertext, partial, retrieval_key) == message


def _reference_partial(group, ciphertext, transform_key):
    """The paper-literal Eq. (1) blinding under the transformed keys."""
    return ciphertext.c / decrypt(group, ciphertext,
                                  transform_key.transformed_public,
                                  transform_key.transformed_secret)


def _assert_mixed_batch(fabric, shapes):
    """One transform batch over several policy shapes, interleaved."""
    scheme, owner = fabric.scheme, fabric.owner
    group = scheme.group
    ciphertexts = [
        owner.encrypt(scheme.random_message(), policy,
                      threshold_method=threshold_method)
        for policy, threshold_method in shapes
    ]
    ciphertexts += ciphertexts[::-1]
    transform_key, _ = make_transform_key(group, fabric.bob_pk,
                                          fabric.bob_keys)
    partials = server_transform_many(group, ciphertexts, transform_key)
    assert [partial.to_bytes() for partial in partials] == [
        _reference_partial(group, ciphertext, transform_key).to_bytes()
        for ciphertext in ciphertexts
    ]


@pytest.mark.parametrize("policy,threshold_method", POLICY_SHAPES)
def test_session_equals_cold_toy80(fabric, policy, threshold_method):
    _assert_equivalent(fabric, policy, threshold_method)


def test_mixed_shape_transform_batch_toy80(fabric):
    _assert_mixed_batch(fabric, POLICY_SHAPES)


def _ss512_fabric():
    scheme = MultiAuthorityABE(SS512, seed=512512)
    hospital = scheme.setup_authority("hospital", ["doctor", "nurse"])
    trial = scheme.setup_authority("trial", ["researcher"])
    owner = scheme.setup_owner("alice", [hospital, trial])
    bob = scheme.register_user("bob")
    keys = {
        "hospital": hospital.keygen(bob, ["doctor", "nurse"], "alice"),
        "trial": trial.keygen(bob, ["researcher"], "alice"),
    }

    class _Fabric:
        pass

    fabric = _Fabric()
    fabric.scheme, fabric.owner = scheme, owner
    fabric.bob_pk, fabric.bob_keys = bob, keys
    return fabric


def test_session_equals_cold_ss512():
    _assert_equivalent(
        _ss512_fabric(),
        "hospital:doctor AND (trial:researcher OR hospital:nurse)", "expand",
    )


def test_mixed_shape_transform_batch_ss512():
    _assert_mixed_batch(_ss512_fabric(), [
        ("hospital:doctor AND (trial:researcher OR hospital:nurse)", "expand"),
        ("2 of (hospital:doctor, hospital:nurse, trial:researcher)", "insert"),
    ])
