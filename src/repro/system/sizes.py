"""Byte-size measurement of protocol payloads.

Every object that crosses a channel in the deployment gets a
size here, in the same units the paper's Tables II-IV use: group-element
payload bytes (identifiers and framing are bookkeeping both compared
schemes share equally, so they are counted at their UTF-8 length and
dwarfed by the crypto payload).

Unknown payload types raise instead of guessing — a silent 0 would
corrupt the communication-cost tables.
"""

from __future__ import annotations

from repro.baselines.bsw import BswCiphertext, BswPublicKey, BswUserKey
from repro.baselines.hur import AttributeGroupHeader, HurCiphertext
from repro.baselines.lewko import (
    LewkoAttributePublicKey,
    LewkoAuthorityPublicKey,
    LewkoCiphertext,
    LewkoUserKey,
)
from repro.core.ciphertext import Ciphertext
from repro.core.keys import (
    AuthorityPublicKey,
    CiphertextUpdateInfo,
    OwnerSecretKey,
    PublicAttributeKeys,
    UpdateKey,
    UserPublicKey,
    UserSecretKey,
    VersionKey,
)
from repro.core.outsourcing import TransformKey
from repro.crypto.symmetric import SymmetricCiphertext
from repro.errors import ReproError
from repro.pairing.group import G1Element, GTElement, PairingGroup


class UnmeasurablePayload(ReproError):
    """A payload type the size model does not know about."""


def measure(payload, group: PairingGroup) -> int:
    """Size in bytes of a payload as it would travel on the wire."""
    g1, gt, zr = group.g1_bytes, group.gt_bytes, group.scalar_bytes

    if payload is None:
        return 0
    if isinstance(payload, bool):
        return 1
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    if isinstance(payload, str):
        return len(payload.encode("utf-8"))
    if isinstance(payload, int):
        return zr
    if isinstance(payload, G1Element):
        return g1
    if isinstance(payload, GTElement):
        return gt
    if isinstance(payload, (list, tuple, set, frozenset)):
        return sum(measure(item, group) for item in payload)
    if isinstance(payload, dict):
        return sum(
            measure(key, group) + measure(value, group)
            for key, value in payload.items()
        )

    # --- core scheme payloads -------------------------------------------------
    if isinstance(payload, UserPublicKey):
        return g1 + measure(payload.uid, group)
    if isinstance(payload, OwnerSecretKey):
        return g1 + zr + measure(payload.owner_id, group)
    if isinstance(payload, AuthorityPublicKey):
        return gt
    if isinstance(payload, PublicAttributeKeys):
        return len(payload.elements) * g1
    if isinstance(payload, UserSecretKey):
        return (1 + len(payload.attribute_keys)) * g1
    if isinstance(payload, VersionKey):
        return zr
    if isinstance(payload, UpdateKey):
        return len(payload.uk1) * g1 + zr
    if isinstance(payload, CiphertextUpdateInfo):
        return len(payload.elements) * g1
    if isinstance(payload, Ciphertext):
        return payload.element_size_bytes(group)
    if isinstance(payload, TransformKey):
        return g1 + sum(
            measure(key, group)
            for key in payload.transformed_secret.values()
        )
    if isinstance(payload, SymmetricCiphertext):
        return len(payload)

    # --- baseline payloads --------------------------------------------------------
    if isinstance(payload, LewkoAttributePublicKey):
        return gt + g1
    if isinstance(payload, LewkoAuthorityPublicKey):
        return len(payload.elements) * (gt + g1)
    if isinstance(payload, LewkoUserKey):
        return len(payload.elements) * g1
    if isinstance(payload, LewkoCiphertext):
        return payload.element_size_bytes(group)
    if isinstance(payload, BswPublicKey):
        return g1 + gt
    if isinstance(payload, BswUserKey):
        return (1 + 2 * len(payload.components)) * g1
    if isinstance(payload, BswCiphertext):
        return gt + (1 + 2 * payload.n_leaves) * g1
    if isinstance(payload, HurCiphertext):
        return measure(payload.base, group)
    if isinstance(payload, AttributeGroupHeader):
        return sum(len(ct) for ct in payload.wrapped.values())

    # --- storage records (duck-typed to avoid an import cycle) ----------------------
    if hasattr(payload, "payload_size_bytes"):
        return payload.payload_size_bytes(group)

    raise UnmeasurablePayload(
        f"no size model for payload type {type(payload).__name__}"
    )
