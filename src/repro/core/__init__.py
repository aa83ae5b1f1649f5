"""The paper's contribution: multi-authority CP-ABE with revocation."""

from repro.core.authority import (
    AttributeAuthority,
    apply_update_key,
    apply_update_to_authority_public_key,
    apply_update_to_public_keys,
)
from repro.core.ca import CertificateAuthority
from repro.core.ciphertext import Ciphertext
from repro.core.decrypt import can_decrypt, decrypt
from repro.core.keys import (
    AuthorityPublicKey,
    CiphertextUpdateInfo,
    OwnerMasterKey,
    OwnerSecretKey,
    PublicAttributeKeys,
    UpdateKey,
    UserPublicKey,
    UserSecretKey,
    VersionKey,
)
from repro.core.outsourcing import (
    RetrievalKey,
    TransformKey,
    make_transform_key,
    server_transform_many,
    user_finalize,
)
from repro.core.owner import DataOwner, EncryptionRecord
from repro.core.security_game import GameError, SecurityGame, empirical_advantage
from repro.core.reencrypt import reencrypt, rows_touched
from repro.core.revocation import (
    RekeyResult,
    rekey_hardened,
    rekey_standard,
    strip_uk2,
)
from repro.core.scheme import MultiAuthorityABE

__all__ = [
    "MultiAuthorityABE",
    "CertificateAuthority",
    "AttributeAuthority",
    "DataOwner",
    "Ciphertext",
    "decrypt",
    "can_decrypt",
    "reencrypt",
    "rows_touched",
    "apply_update_key",
    "apply_update_to_public_keys",
    "apply_update_to_authority_public_key",
    "rekey_standard",
    "rekey_hardened",
    "strip_uk2",
    "RekeyResult",
    "EncryptionRecord",
    "UserPublicKey",
    "UserSecretKey",
    "OwnerMasterKey",
    "OwnerSecretKey",
    "AuthorityPublicKey",
    "PublicAttributeKeys",
    "VersionKey",
    "UpdateKey",
    "CiphertextUpdateInfo",
    "make_transform_key",
    "server_transform_many",
    "user_finalize",
    "TransformKey",
    "RetrievalKey",
    "SecurityGame",
    "GameError",
    "empirical_advantage",
]
