"""Server-side proxy re-encryption (Section V-C, Phase 2).

The cloud server receives the update key ``UK = (UK1, UK2)`` and the
owner's update information ``UI`` and rolls a ciphertext forward::

    C̃   = C · e(UK1_owner, C')           # folds (α̃-α)·s into the blinding
    C̃_i = C_i · UI_{ρ(i)}   if ρ(i) is managed by the re-keyed authority
    C̃_i = C_i               otherwise

Only the rows touching the revoked authority change — "our method only
need to re-encrypt part of the ciphertext", which is what the ablation
benchmark quantifies against re-encrypting every row. The server never
decrypts: both inputs are update tokens, not keys.
"""

from __future__ import annotations

from repro.core.attributes import authority_of
from repro.core.ciphertext import Ciphertext
from repro.core.keys import CiphertextUpdateInfo, UpdateKey
from repro.errors import RevocationError
from repro.pairing.group import PairingGroup


def check_reencrypt_inputs(ciphertext: Ciphertext, update_key: UpdateKey,
                           update_info: CiphertextUpdateInfo):
    """Validate one (ciphertext, UK, UI) triple; returns ``UK1_owner``.

    Shared by the sequential path and :mod:`repro.parallel.batch` so both
    reject exactly the same inputs with exactly the same errors.
    """
    aid = update_key.aid
    if update_info.aid != aid:
        raise RevocationError("update key and update information disagree on AID")
    if update_info.ciphertext_id != ciphertext.ciphertext_id:
        raise RevocationError(
            f"update information targets {update_info.ciphertext_id!r}, "
            f"not {ciphertext.ciphertext_id!r}"
        )
    if aid not in ciphertext.involved_aids:
        raise RevocationError(
            f"authority {aid!r} is not involved in this ciphertext"
        )
    if ciphertext.version_of(aid) != update_key.from_version:
        raise RevocationError(
            f"ciphertext at version {ciphertext.version_of(aid)} for {aid!r}; "
            f"update key expects {update_key.from_version}"
        )
    if (update_info.from_version, update_info.to_version) != (
        update_key.from_version, update_key.to_version
    ):
        raise RevocationError("update key and update information version mismatch")
    uk1 = update_key.uk1.get(ciphertext.owner_id)
    if uk1 is None:
        raise RevocationError(
            f"update key carries no UK1 for owner {ciphertext.owner_id!r}"
        )
    return uk1


def apply_update(ciphertext: Ciphertext, update_key: UpdateKey,
                 update_info: CiphertextUpdateInfo,
                 pairing_factor) -> Ciphertext:
    """Fold a precomputed ``e(UK1_owner, C')`` into a checked ciphertext.

    ``pairing_factor`` is the one expensive input; computing it once per
    owner (batched, with prepared Miller lines) is the whole point of
    :func:`repro.parallel.batch.batch_outcomes` — and because this
    function is shared, the batch output is bit-identical to the
    sequential one.
    """
    aid = update_key.aid
    new_c = ciphertext.c * pairing_factor
    new_rows = []
    for index, label in enumerate(ciphertext.matrix.row_labels):
        if authority_of(label) == aid:
            try:
                factor = update_info.elements[label]
            except KeyError:
                raise RevocationError(
                    f"update information is missing attribute {label!r}"
                ) from None
            new_rows.append(ciphertext.c_rows[index] * factor)
        else:
            new_rows.append(ciphertext.c_rows[index])

    versions = dict(ciphertext.versions)
    versions[aid] = update_key.to_version
    return Ciphertext(
        ciphertext_id=ciphertext.ciphertext_id,
        owner_id=ciphertext.owner_id,
        c=new_c,
        c_prime=ciphertext.c_prime,
        c_rows=tuple(new_rows),
        matrix=ciphertext.matrix,
        involved_aids=ciphertext.involved_aids,
        versions=versions,
    )


def reencrypt(group: PairingGroup, ciphertext: Ciphertext,
              update_key: UpdateKey,
              update_info: CiphertextUpdateInfo) -> Ciphertext:
    """The ReEncrypt algorithm; returns the version-bumped ciphertext."""
    uk1 = check_reencrypt_inputs(ciphertext, update_key, update_info)
    return apply_update(
        ciphertext, update_key, update_info,
        group.pair(uk1, ciphertext.c_prime),
    )


def rows_touched(ciphertext: Ciphertext, aid: str) -> int:
    """How many LSSS rows a re-key of ``aid`` forces the server to update.

    The paper's partial re-encryption cost is proportional to this count
    (plus one pairing), versus ``l`` rows for a full rewrite.
    """
    return sum(
        1 for label in ciphertext.matrix.row_labels if authority_of(label) == aid
    )
