"""Outsourced decryption (extension; Green-Hohenberger-Waters style).

The paper's decryption costs ``2l + n_A`` pairings at the *user* —
painful on constrained devices, which is exactly the population cloud
storage serves. The standard remedy (GHW, USENIX Security 2011) adapts
cleanly to this scheme because every key-dependent term of Eq. (1) is
linear in the key exponents:

* the user picks a random ``z`` and hands the server a *transform key*:
  every secret-key component and its own ``PK_UID`` raised to ``1/z``;
* the server runs Eq. (1) (as a decryption session) with the
  transformed material, obtaining the blinding factor to the power
  ``1/z`` — it learns nothing, because recovering the message requires
  ``z``;
* the user finishes with a single GT exponentiation (and zero pairings),
  verified by the operation-counter tests.

Why it is safe to hand over: the transform key is a valid-looking key
for the "user" ``PK_UID^{1/z}``, which corresponds to the CA secret
``u/z`` — a uniformly random value the server cannot relate to ``u``
without ``z``. (As with GHW, this provides *recovery* security, not
verifiability: a malicious server can return garbage, which the hybrid
layer's MAC then rejects.)
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.ciphertext import Ciphertext
from repro.core.keys import UserPublicKey, UserSecretKey
from repro.errors import SchemeError
from repro.math.integers import invmod
from repro.pairing.group import GTElement, PairingGroup


@dataclass(frozen=True)
class TransformKey:
    """The server's view: all key material blinded by ``1/z``."""

    uid: str
    owner_id: str
    transformed_public: UserPublicKey       # PK_UID^{1/z}
    transformed_secret: dict                # aid -> UserSecretKey^{1/z}


@dataclass(frozen=True)
class RetrievalKey:
    """The user's private ``z`` (plus identifiers for sanity checks)."""

    uid: str
    z: int


def make_transform_key(group: PairingGroup, user_public_key: UserPublicKey,
                       secret_keys: dict) -> tuple:
    """Split decryption capability into (TransformKey, RetrievalKey)."""
    if not secret_keys:
        raise SchemeError("cannot outsource with no secret keys")
    owner_ids = {key.owner_id for key in secret_keys.values()}
    if len(owner_ids) != 1:
        raise SchemeError("all secret keys must be scoped to one owner")
    z = group.random_scalar()
    z_inv = invmod(z, group.order)
    transformed_secret = {}
    for aid, key in secret_keys.items():
        if key.uid != user_public_key.uid:
            raise SchemeError(f"key from {aid!r} belongs to another user")
        transformed_secret[aid] = UserSecretKey(
            uid=key.uid,
            aid=key.aid,
            owner_id=key.owner_id,
            k=key.k ** z_inv,
            attribute_keys={
                name: element ** z_inv
                for name, element in key.attribute_keys.items()
            },
            version=key.version,
        )
    transform = TransformKey(
        uid=user_public_key.uid,
        owner_id=next(iter(owner_ids)),
        transformed_public=UserPublicKey(
            uid=user_public_key.uid,
            element=user_public_key.element ** z_inv,
        ),
        transformed_secret=transformed_secret,
    )
    return transform, RetrievalKey(uid=user_public_key.uid, z=z)


def server_transform_many(group: PairingGroup, ciphertexts,
                          transform_key: TransformKey) -> list:
    """Server side: all the pairings, none of the plaintext.

    Returns, per ciphertext, the Eq. (1) blinding factor raised to
    ``1/z``: the transformed key bundle plays the user's keys in one
    :class:`~repro.fastpath.decrypt.DecryptionSession` per policy shape
    (valid because every Eq. (1) term is linear in the key exponents),
    and the whole batch goes through the session's one batch routine,
    :func:`repro.fastpath.decrypt.blinding_factors` — every ciphertext
    validated before any Miller replay, one shared final
    exponentiation. A batch of one is the single-ciphertext transform.

    Each partial is byte-identical to
    ``ciphertext.c / decrypt(group, ciphertext, transformed_public,
    transformed_secret)``: GT elements have one canonical F_p²
    representation.
    """
    from repro.fastpath.decrypt import DecryptionSession, blinding_factors

    public = transform_key.transformed_public
    keys = transform_key.transformed_secret
    sessions = {}
    jobs = []
    for ciphertext in ciphertexts:
        shape = (ciphertext.owner_id, id(ciphertext.matrix))
        session = sessions.get(shape)
        if session is None:
            session = DecryptionSession(group, ciphertext, public, keys)
            sessions[shape] = session
        jobs.append((session, ciphertext))
    return blinding_factors(group, jobs)


def user_finalize(ciphertext: Ciphertext, partial: GTElement,
                  retrieval_key: RetrievalKey) -> GTElement:
    """User side: one GT exponentiation, zero pairings."""
    return user_finalize_value(ciphertext.c, partial, retrieval_key)


def user_finalize_value(c: GTElement, partial: GTElement,
                        retrieval_key: RetrievalKey) -> GTElement:
    """:func:`user_finalize` from the ``C`` component alone.

    The ``TRANSFORM_FETCH`` reply carries only ``C`` and the partial —
    never the LSSS rows the server already consumed — so the wire
    client finalizes without re-decoding a full ciphertext.
    """
    return c / (partial ** retrieval_key.z)
