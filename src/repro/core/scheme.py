"""Facade for the multi-authority access-control scheme (Definition 3).

:class:`MultiAuthorityABE` wires together the eight algorithms — Setup,
OwnerGen, AAGen, KeyGen, Encrypt, Decrypt, ReKey, ReEncrypt — over one
pairing group and one certificate authority, which is the shape most
callers want::

    scheme = MultiAuthorityABE(TOY80, seed=1)
    hospital = scheme.setup_authority("hospital", ["doctor", "nurse"])
    trial = scheme.setup_authority("trial", ["researcher"])
    owner = scheme.setup_owner("alice", [hospital, trial])
    bob_pk = scheme.register_user("bob")
    bob_keys = {
        "hospital": hospital.keygen(bob_pk, ["doctor"], "alice"),
        "trial": trial.keygen(bob_pk, ["researcher"], "alice"),
    }
    message = scheme.random_message()
    ct = owner.encrypt(message, "hospital:doctor AND trial:researcher")
    assert scheme.decrypt(ct, bob_pk, bob_keys) == message

The distributed deployment (message passing, storage, metering) lives in
:mod:`repro.system`; this class is the cryptographic core only.
"""

from __future__ import annotations

from repro.core.authority import AttributeAuthority, apply_update_key
from repro.core.ca import CertificateAuthority
from repro.core.ciphertext import Ciphertext
from repro.core.decrypt import can_decrypt, decrypt
from repro.core.keys import UserPublicKey
from repro.core.owner import DataOwner
from repro.core.reencrypt import reencrypt
from repro.core.revocation import RekeyResult, rekey_hardened, rekey_standard
from repro.ec.params import TOY80, TypeAParams
from repro.pairing.group import GTElement, PairingGroup


class MultiAuthorityABE:
    """One deployment of the scheme: group, CA, and convenience wiring."""

    def __init__(self, params: TypeAParams = TOY80, seed=None):
        self.group = PairingGroup(params, seed=seed)
        self.ca = CertificateAuthority(self.group)
        self._authorities = {}

    # -- Setup / AAGen / OwnerGen ------------------------------------------------

    def setup_authority(self, aid: str, attributes) -> AttributeAuthority:
        """AAGen: register an AA with the CA and create its version key."""
        self.ca.register_authority(aid)
        authority = AttributeAuthority(self.group, aid, attributes)
        self._authorities[aid] = authority
        return authority

    def authority(self, aid: str) -> AttributeAuthority:
        return self._authorities[aid]

    @property
    def authorities(self) -> dict:
        return dict(self._authorities)

    def setup_owner(self, owner_id: str, authorities=None) -> DataOwner:
        """OwnerGen: create the owner and exchange keys with the given AAs.

        Sends ``SK_o`` to each authority (secure channel) and caches each
        authority's public key material at the owner.
        """
        self.ca.register_owner(owner_id)
        owner = DataOwner(self.group, owner_id)
        for authority in authorities or self._authorities.values():
            authority.register_owner(owner.secret_key)
            owner.learn_authority(
                authority.authority_public_key(),
                authority.public_attribute_keys(),
            )
        return owner

    def register_user(self, uid: str) -> UserPublicKey:
        """Setup (user part): UID assignment and ``PK_UID`` generation."""
        return self.ca.register_user(uid)

    # -- message helpers ------------------------------------------------------------

    def random_message(self) -> GTElement:
        """A uniform GT element — the session element of the KEM/DEM hybrid."""
        return self.group.random_gt()

    # -- fast-path sessions (repro.fastpath) -----------------------------------------

    @staticmethod
    def encryption_session(owner: DataOwner, policy, **kwargs):
        """A cached per-policy encryption session (online/offline split).

        Convenience for :meth:`repro.core.owner.DataOwner.session_for`;
        see :class:`repro.fastpath.session.EncryptionSession`.
        """
        return owner.session_for(policy, **kwargs)

    def keygen_session(self, aid: str, owner_id: str, attributes):
        """A cached bulk-onboarding KeyGen session at the named AA.

        See :class:`repro.fastpath.keygen.KeyGenSession`.
        """
        return self._authorities[aid].keygen_session(owner_id, attributes)

    # -- Decrypt / ReEncrypt (thin wrappers keeping one import site) -----------------

    def decrypt(self, ciphertext: Ciphertext, user_public_key: UserPublicKey,
                secret_keys: dict) -> GTElement:
        return decrypt(self.group, ciphertext, user_public_key, secret_keys)

    def can_decrypt(self, ciphertext: Ciphertext, secret_keys: dict) -> bool:
        return can_decrypt(self.group, ciphertext, secret_keys)

    def reencrypt(self, ciphertext: Ciphertext, update_key, update_info) -> Ciphertext:
        return reencrypt(self.group, ciphertext, update_key, update_info)

    # -- ReKey -------------------------------------------------------------------------

    def revoke(self, aid: str, revoked_uid: str, revoked_attributes,
               hardened: bool = False) -> RekeyResult:
        """Run ReKey at the named authority (paper or hardened variant)."""
        authority = self._authorities[aid]
        if hardened:
            return rekey_hardened(authority, revoked_uid, revoked_attributes)
        return rekey_standard(authority, revoked_uid, revoked_attributes)

    @staticmethod
    def apply_update_key(secret_key, update_key):
        """Client-side key roll-forward for non-revoked users."""
        return apply_update_key(secret_key, update_key)
