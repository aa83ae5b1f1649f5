"""Wire formats for every key type of the scheme.

Ciphertexts serialize in :mod:`repro.core.ciphertext`; this module covers
the key material that actually travels between entities — user public
keys from the CA, owner secret keys to the AAs, public attribute keys
and authority public keys to owners, user secret keys to users, and
update keys / update information during revocation.

Format: a length-prefixed JSON header carrying identifiers, versions and
the attribute-name order, followed by fixed-width group elements in that
order. The byte counts agree exactly with :mod:`repro.system.sizes` up
to the header (identifiers), which both compared schemes share equally.
"""

from __future__ import annotations

import json

from repro.core.keys import (
    AuthorityPublicKey,
    CiphertextUpdateInfo,
    OwnerSecretKey,
    PublicAttributeKeys,
    UpdateKey,
    UserPublicKey,
    UserSecretKey,
)
from repro.errors import SchemeError
from repro.pairing.group import PairingGroup


def _pack(header: dict, body: bytes) -> bytes:
    raw = json.dumps(header, separators=(",", ":"), sort_keys=True).encode(
        "utf-8"
    )
    return len(raw).to_bytes(4, "big") + raw + body


def _unpack(data: bytes) -> tuple:
    """Split a length-prefixed JSON header from its binary body.

    Every failure mode of a hostile encoding — truncated prefix,
    oversized declared length, undecodable/invalid JSON, or a header
    that is valid JSON but not an object — raises :class:`SchemeError`;
    no stdlib exception ever escapes to the caller.
    """
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise SchemeError("key encodings must be bytes")
    data = bytes(data)
    if len(data) < 4:
        raise SchemeError("truncated key encoding")
    header_len = int.from_bytes(data[:4], "big")
    if header_len > len(data) - 4:
        raise SchemeError("truncated key header")
    try:
        header = json.loads(data[4:4 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SchemeError("malformed key header") from exc
    if not isinstance(header, dict):
        raise SchemeError("key header is not a JSON object")
    return header, data[4 + header_len:]


def _header_str(header: dict, key: str) -> str:
    value = header.get(key)
    if not isinstance(value, str):
        raise SchemeError(f"key header field {key!r} missing or not a string")
    return value


def _header_int(header: dict, key: str) -> int:
    value = header.get(key)
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemeError(f"key header field {key!r} missing or not an integer")
    return value


def _header_str_list(header: dict, key: str) -> list:
    value = header.get(key)
    if not isinstance(value, list) or not all(
        isinstance(item, str) for item in value
    ):
        raise SchemeError(
            f"key header field {key!r} missing or not a list of strings"
        )
    if len(set(value)) != len(value):
        raise SchemeError(f"key header field {key!r} has duplicate entries")
    return value


def _split_elements(group: PairingGroup, body: bytes, count: int, *,
                    check_subgroup: bool = True) -> list:
    width = group.g1_bytes
    if len(body) != count * width:
        raise SchemeError(
            f"key body has {len(body)} bytes; expected {count * width}"
        )
    return [
        group.decode_g1(body[i * width:(i + 1) * width],
                        check_subgroup=check_subgroup)
        for i in range(count)
    ]


# -- UserPublicKey ------------------------------------------------------------

def encode_user_public_key(key: UserPublicKey) -> bytes:
    return _pack({"kind": "upk", "uid": key.uid}, key.element.to_bytes())


def decode_user_public_key(group: PairingGroup, data: bytes) -> UserPublicKey:
    header, body = _unpack(data)
    if header.get("kind") != "upk":
        raise SchemeError("not a user public key encoding")
    (element,) = _split_elements(group, body, 1)
    return UserPublicKey(uid=_header_str(header, "uid"), element=element)


# -- OwnerSecretKey -------------------------------------------------------------

def encode_owner_secret_key(group: PairingGroup, key: OwnerSecretKey) -> bytes:
    body = key.g_inv_beta.to_bytes() + group.encode_scalar(key.r_over_beta)
    return _pack({"kind": "osk", "owner": key.owner_id}, body)


def decode_owner_secret_key(group: PairingGroup, data: bytes) -> OwnerSecretKey:
    header, body = _unpack(data)
    if header.get("kind") != "osk":
        raise SchemeError("not an owner secret key encoding")
    width = group.g1_bytes
    if len(body) != width + group.scalar_bytes:
        raise SchemeError("owner secret key body has the wrong length")
    return OwnerSecretKey(
        owner_id=_header_str(header, "owner"),
        g_inv_beta=group.decode_g1(body[:width]),
        r_over_beta=group.decode_scalar(body[width:]),
    )


# -- AuthorityPublicKey ------------------------------------------------------------

def encode_authority_public_key(key: AuthorityPublicKey) -> bytes:
    return _pack(
        {"kind": "apk", "aid": key.aid, "version": key.version},
        key.value.to_bytes(),
    )


def decode_authority_public_key(group: PairingGroup,
                                data: bytes) -> AuthorityPublicKey:
    header, body = _unpack(data)
    if header.get("kind") != "apk":
        raise SchemeError("not an authority public key encoding")
    if len(body) != group.gt_bytes:
        raise SchemeError("authority public key body has the wrong length")
    return AuthorityPublicKey(
        aid=_header_str(header, "aid"),
        value=group.decode_gt(body),
        version=_header_int(header, "version"),
    )


# -- PublicAttributeKeys --------------------------------------------------------------

def encode_public_attribute_keys(key: PublicAttributeKeys) -> bytes:
    names = sorted(key.elements)
    body = b"".join(key.elements[name].to_bytes() for name in names)
    return _pack(
        {"kind": "pak", "aid": key.aid, "version": key.version,
         "attrs": names},
        body,
    )


def decode_public_attribute_keys(group: PairingGroup,
                                 data: bytes) -> PublicAttributeKeys:
    header, body = _unpack(data)
    if header.get("kind") != "pak":
        raise SchemeError("not a public attribute key encoding")
    names = _header_str_list(header, "attrs")
    elements = dict(zip(names, _split_elements(group, body, len(names))))
    return PublicAttributeKeys(
        aid=_header_str(header, "aid"),
        elements=elements,
        version=_header_int(header, "version"),
    )


# -- UserSecretKey ---------------------------------------------------------------------

def encode_user_secret_key(key: UserSecretKey) -> bytes:
    names = sorted(key.attribute_keys)
    body = key.k.to_bytes() + b"".join(
        key.attribute_keys[name].to_bytes() for name in names
    )
    return _pack(
        {
            "kind": "usk",
            "uid": key.uid,
            "aid": key.aid,
            "owner": key.owner_id,
            "version": key.version,
            "attrs": names,
        },
        body,
    )


def decode_user_secret_key(group: PairingGroup, data: bytes) -> UserSecretKey:
    header, body = _unpack(data)
    if header.get("kind") != "usk":
        raise SchemeError("not a user secret key encoding")
    names = _header_str_list(header, "attrs")
    elements = _split_elements(group, body, 1 + len(names))
    return UserSecretKey(
        uid=_header_str(header, "uid"),
        aid=_header_str(header, "aid"),
        owner_id=_header_str(header, "owner"),
        k=elements[0],
        attribute_keys=dict(zip(names, elements[1:])),
        version=_header_int(header, "version"),
    )


# -- TransformKey ----------------------------------------------------------------------

def encode_transform_key(key) -> bytes:
    """Wire form of a :class:`repro.core.outsourcing.TransformKey`.

    One user-secret-key-shaped block per authority (sorted by AID),
    prefixed by the transformed public element; headers carry the
    per-authority versions so the server can index its transform-key
    cache without decoding any group element.
    """
    aids = sorted(key.transformed_secret)
    per_aid = {}
    body = key.transformed_public.element.to_bytes()
    for aid in aids:
        secret = key.transformed_secret[aid]
        names = sorted(secret.attribute_keys)
        per_aid[aid] = {"version": secret.version, "attrs": names}
        body += secret.k.to_bytes() + b"".join(
            secret.attribute_keys[name].to_bytes() for name in names
        )
    return _pack(
        {
            "kind": "tk",
            "uid": key.uid,
            "owner": key.owner_id,
            "aids": aids,
            "keys": per_aid,
        },
        body,
    )


def _transform_key_layout(header: dict) -> tuple:
    """Validated ``(aids, {aid: (version, attrs)})`` of a TK header."""
    aids = _header_str_list(header, "aids")
    per_aid_raw = header.get("keys")
    if not isinstance(per_aid_raw, dict) or set(per_aid_raw) != set(aids):
        raise SchemeError(
            "transform key header field 'keys' missing or inconsistent "
            "with 'aids'"
        )
    per_aid = {}
    for aid in aids:
        meta = per_aid_raw[aid]
        if not isinstance(meta, dict):
            raise SchemeError("transform key per-authority entry malformed")
        per_aid[aid] = (
            _header_int(meta, "version"),
            _header_str_list(meta, "attrs"),
        )
    return aids, per_aid


def decode_transform_key(group: PairingGroup, data: bytes, *,
                         check_subgroup: bool = True):
    from repro.core.outsourcing import TransformKey

    header, body = _unpack(data)
    if header.get("kind") != "tk":
        raise SchemeError("not a transform key encoding")
    uid = _header_str(header, "uid")
    owner_id = _header_str(header, "owner")
    aids, per_aid = _transform_key_layout(header)
    count = 1 + sum(1 + len(attrs) for _, attrs in per_aid.values())
    elements = iter(_split_elements(group, body, count,
                                    check_subgroup=check_subgroup))
    public = UserPublicKey(uid=uid, element=next(elements))
    transformed_secret = {}
    for aid in aids:
        version, names = per_aid[aid]
        k = next(elements)
        transformed_secret[aid] = UserSecretKey(
            uid=uid,
            aid=aid,
            owner_id=owner_id,
            k=k,
            attribute_keys={name: next(elements) for name in names},
            version=version,
        )
    return TransformKey(
        uid=uid,
        owner_id=owner_id,
        transformed_public=public,
        transformed_secret=transformed_secret,
    )


# -- UpdateKey ----------------------------------------------------------------------------

def encode_update_key(group: PairingGroup, key: UpdateKey) -> bytes:
    owners = sorted(key.uk1)
    body = b"".join(key.uk1[owner].to_bytes() for owner in owners)
    body += group.encode_scalar(key.uk2)
    return _pack(
        {
            "kind": "uk",
            "aid": key.aid,
            "owners": owners,
            "from": key.from_version,
            "to": key.to_version,
        },
        body,
    )


def decode_update_key(group: PairingGroup, data: bytes, *,
                      check_subgroup: bool = True) -> UpdateKey:
    header, body = _unpack(data)
    if header.get("kind") != "uk":
        raise SchemeError("not an update key encoding")
    owners = _header_str_list(header, "owners")
    width = group.g1_bytes
    expected = len(owners) * width + group.scalar_bytes
    if len(body) != expected:
        raise SchemeError("update key body has the wrong length")
    uk1 = {
        owner: group.decode_g1(body[i * width:(i + 1) * width],
                               check_subgroup=check_subgroup)
        for i, owner in enumerate(owners)
    }
    uk2 = group.decode_scalar(body[len(owners) * width:])
    return UpdateKey(
        aid=_header_str(header, "aid"),
        uk1=uk1,
        uk2=uk2,
        from_version=_header_int(header, "from"),
        to_version=_header_int(header, "to"),
    )


# -- CiphertextUpdateInfo ----------------------------------------------------------------------

def encode_update_info(info: CiphertextUpdateInfo) -> bytes:
    names = sorted(info.elements)
    body = b"".join(info.elements[name].to_bytes() for name in names)
    return _pack(
        {
            "kind": "ui",
            "aid": info.aid,
            "ct": info.ciphertext_id,
            "attrs": names,
            "from": info.from_version,
            "to": info.to_version,
        },
        body,
    )


def decode_update_info(group: PairingGroup, data: bytes, *,
                       check_subgroup: bool = True) -> CiphertextUpdateInfo:
    header, body = _unpack(data)
    if header.get("kind") != "ui":
        raise SchemeError("not an update information encoding")
    names = _header_str_list(header, "attrs")
    elements = dict(zip(names, _split_elements(
        group, body, len(names), check_subgroup=check_subgroup
    )))
    return CiphertextUpdateInfo(
        aid=_header_str(header, "aid"),
        ciphertext_id=_header_str(header, "ct"),
        elements=elements,
        from_version=_header_int(header, "from"),
        to_version=_header_int(header, "to"),
    )


def peek_update_info(data: bytes) -> dict:
    """Header fields of a UI encoding without decoding any group element.

    The bulk sweep uses this to match update information to the store's
    ciphertext-id index (and to meter it in Table II units) before the
    expensive element decode happens in a worker. Returns
    ``{"aid", "ct", "from", "to", "attrs"}``.
    """
    header, _ = _unpack(data)
    if header.get("kind") != "ui":
        raise SchemeError("not an update information encoding")
    return {
        "aid": _header_str(header, "aid"),
        "ct": _header_str(header, "ct"),
        "from": _header_int(header, "from"),
        "to": _header_int(header, "to"),
        "attrs": _header_str_list(header, "attrs"),
    }


def decode_update_infos(group: PairingGroup, blobs) -> list:
    """Decode many UI encodings in one pass.

    All element encodings across the batch go through
    :meth:`repro.pairing.group.PairingGroup.decode_g1_batch`, which
    subgroup-checks every point individually (a combined
    random-linear-combination check is unsound against the curve's
    small-order residuals — see that method). Malformed encodings raise
    :class:`SchemeError` exactly as :func:`decode_update_info` would.
    """
    parsed = []
    element_blobs = []
    width = group.g1_bytes
    for data in blobs:
        header, body = _unpack(data)
        if header.get("kind") != "ui":
            raise SchemeError("not an update information encoding")
        names = _header_str_list(header, "attrs")
        if len(body) != len(names) * width:
            raise SchemeError(
                f"key body has {len(body)} bytes; "
                f"expected {len(names) * width}"
            )
        parsed.append((header, names))
        element_blobs.extend(
            body[i * width:(i + 1) * width] for i in range(len(names))
        )
    elements = iter(group.decode_g1_batch(element_blobs))
    infos = []
    for header, names in parsed:
        infos.append(CiphertextUpdateInfo(
            aid=_header_str(header, "aid"),
            ciphertext_id=_header_str(header, "ct"),
            elements={name: next(elements) for name in names},
            from_version=_header_int(header, "from"),
            to_version=_header_int(header, "to"),
        ))
    return infos
