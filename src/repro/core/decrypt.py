"""Decryption (Phase 4) — the paper-literal reference.

:func:`decrypt` follows the paper's Eq. (1) literally: for each involved
authority one numerator pairing ``e(C', K_{UID,AID_k})``, and for each
used LSSS row the pair ``e(C_i, PK_UID) · e(C', K_{ρ(i)})`` raised to
``w_i · n_A``. This is the form whose cost profile Figures 3(b)/4(b)
and the Table III operation counts measure, and the byte-identity
reference for the one fast form,
:class:`repro.fastpath.decrypt.DecryptionSession` (by bilinearity the
denominator collapses to two pairings; a cold read is a one-shot
session). The benchmark ``bench_ablation_revocation`` quantifies what
that collapse buys.

Versions and ownership are validated eagerly so stale keys produce a
:class:`SchemeError` instead of silently wrong plaintext.
"""

from __future__ import annotations

from repro.core.attributes import authority_of
from repro.core.ciphertext import Ciphertext
from repro.core.keys import UserPublicKey, UserSecretKey
from repro.errors import PolicyNotSatisfiedError, SchemeError
from repro.pairing.group import GTElement, PairingGroup


def _validate_inputs(ciphertext: Ciphertext, user_public_key: UserPublicKey,
                     secret_keys: dict) -> None:
    for aid in ciphertext.involved_aids:
        key = secret_keys.get(aid)
        if key is None:
            raise SchemeError(
                f"decryption needs a secret key from every involved authority; "
                f"missing {aid!r}"
            )
        if key.uid != user_public_key.uid:
            raise SchemeError(
                f"secret key from {aid!r} belongs to {key.uid!r}, "
                f"not {user_public_key.uid!r}"
            )
        if key.owner_id != ciphertext.owner_id:
            raise SchemeError(
                f"secret key from {aid!r} is scoped to owner {key.owner_id!r}; "
                f"the ciphertext was produced by {ciphertext.owner_id!r}"
            )
        if key.version != ciphertext.version_of(aid):
            raise SchemeError(
                f"secret key from {aid!r} is at version {key.version}, "
                f"ciphertext expects {ciphertext.version_of(aid)}; "
                f"apply the pending update keys"
            )


def _held_attributes(ciphertext: Ciphertext, secret_keys: dict) -> set:
    held = set()
    for aid in ciphertext.involved_aids:
        held |= set(secret_keys[aid].attribute_keys)
    return held


def decrypt(group: PairingGroup, ciphertext: Ciphertext,
            user_public_key: UserPublicKey, secret_keys: dict) -> GTElement:
    """Recover the GT message exactly as in the paper's Eq. (1).

    ``secret_keys`` maps AID → :class:`UserSecretKey`; one key per
    authority involved in the ciphertext is required (the numerator
    product runs over *all* of I_A, a structural property of the scheme).
    Raises :class:`PolicyNotSatisfiedError` if the user's attributes do
    not satisfy the access structure.
    """
    _validate_inputs(ciphertext, user_public_key, secret_keys)
    return decrypt_unchecked(group, ciphertext, user_public_key, secret_keys)


def decrypt_unchecked(group: PairingGroup, ciphertext: Ciphertext,
                      user_public_key: UserPublicKey,
                      secret_keys: dict) -> GTElement:
    """Eq. (1) with the eager key/version validation *skipped*.

    This is the attacker's view of decryption: the adversarial
    harness (:mod:`repro.adversary`) uses it to prove that stale,
    pooled, or forged keys fail *cryptographically* — the pairing
    product recovers a wrong GT blinding and authenticated decryption
    rejects the session — rather than merely being turned away by
    :func:`_validate_inputs`' bookkeeping. Production callers must use
    :func:`decrypt`; skipping validation never recovers plaintext for
    an unauthorized key set, it just moves the failure from a typed
    :class:`SchemeError` to garbage output.

    Still raises :class:`PolicyNotSatisfiedError` when the pooled
    attribute set cannot reconstruct the LSSS secret at all, and
    :class:`KeyError`-free operation requires one key per involved
    authority (the numerator runs over all of I_A).
    """
    order = group.order
    matrix = ciphertext.matrix
    coefficients = matrix.reconstruction_coefficients(
        _held_attributes(ciphertext, secret_keys), order
    )
    n_involved = len(ciphertext.involved_aids)
    pk_uid = user_public_key.element

    # C' appears in every pairing of Eq. (1) and PK_UID in every row
    # term: cache their Miller-loop line coefficients once, so each of
    # the n_A + 2l pairings below replays stored lines instead of
    # walking the chain. Counters are unchanged — the work per pairing
    # shrinks, not the number of pairings.
    group.prepare_pairing(ciphertext.c_prime)
    group.prepare_pairing(pk_uid)

    # Numerator: ∏_k e(C', K_{UID,AID_k}) — one shared final exponentiation.
    numerator = group.pair_prod(
        [(ciphertext.c_prime, secret_keys[aid].k)
         for aid in ciphertext.involved_aids]
    )

    # Denominator: ∏_k ∏_i (e(C_i, PK_UID) · e(C', K_{ρ(i)}))^{w_i·n_A};
    # each row's two pairings share a final exponentiation before the
    # per-row GT exponentiation the paper's equation requires.
    denominator = group.identity_gt()
    for index, w in coefficients.items():
        label = matrix.row_labels[index]
        key = secret_keys[authority_of(label)]
        term = group.pair_prod(
            [
                (ciphertext.c_rows[index], pk_uid),
                (ciphertext.c_prime, key.attribute_keys[label]),
            ]
        )
        denominator = denominator * (term ** (w * n_involved % order))

    blinding = numerator / denominator
    return ciphertext.c / blinding


def can_decrypt(group: PairingGroup, ciphertext: Ciphertext,
                secret_keys: dict) -> bool:
    """Cheap predicate: does this key bundle satisfy the access structure?

    Ignores version mismatches (those raise at decryption); useful for
    the system layer to route requests.
    """
    if any(aid not in secret_keys for aid in ciphertext.involved_aids):
        return False
    held = set()
    for key in secret_keys.values():
        held |= set(key.attribute_keys)
    return ciphertext.matrix.is_satisfied_by(held, group.order)
