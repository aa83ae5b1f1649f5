"""End-to-end orchestration of the multi-authority cloud-storage system.

:class:`CloudStorageSystem` assembles the five entity types over one
byte-metered network and exposes the lifecycle operations of the paper:

* setup — add authorities, owners (key exchange with every AA) and users;
* key issuance — an AA verifies a user's attributes and sends a key;
* upload — an owner hybrid-encrypts a record and stores it (Fig. 2);
* read — a user downloads a component and decrypts it;
* revocation — the full two-phase protocol of Section V-C: ReKey at the
  AA, key distribution (update keys to survivors in the paper's variant,
  re-issued keys in the hardened variant), owner update information, and
  server-side ReEncrypt of every affected ciphertext.

This is the object the integration tests and the communication-cost
benchmark (Table IV) drive.
"""

from __future__ import annotations

from repro.core.authority import AttributeAuthority
from repro.core.ca import CertificateAuthority
from repro.core.owner import DataOwner
from repro.core.revocation import RekeyResult, rekey_hardened, rekey_standard
from repro.ec.params import TOY80, TypeAParams
from repro.errors import SchemeError
from repro.pairing.group import PairingGroup
from repro.system.entities import (
    AuthorityEntity,
    CaEntity,
    OwnerEntity,
    ServerEntity,
    UserEntity,
)
from repro.system.network import Network


class CloudStorageSystem:
    """One deployment: CA + server + any number of AAs, owners, users."""

    def __init__(self, params: TypeAParams = TOY80, seed=None):
        self.group = PairingGroup(params, seed=seed)
        self.network = Network(self.group)
        self.ca = CaEntity("CA", self.network, CertificateAuthority(self.group))
        self.server = ServerEntity("cloud", self.network)
        self.authorities = {}   # aid -> AuthorityEntity
        self.owners = {}        # owner id -> OwnerEntity
        self.users = {}         # uid -> UserEntity

    # -- setup ------------------------------------------------------------------

    def add_authority(self, aid: str, attributes) -> AuthorityEntity:
        core = AttributeAuthority(self.group, aid, attributes)
        entity = AuthorityEntity(f"AA:{aid}", self.network, core)
        self.ca.register_authority(entity)
        self.authorities[aid] = entity
        # Existing owners exchange keys with the new authority too.
        for owner in self.owners.values():
            entity.accept_owner_secret(owner)
            entity.publish_to_owner(owner)
        return entity

    def add_owner(self, owner_id: str) -> OwnerEntity:
        entity = OwnerEntity(
            f"owner:{owner_id}", self.network, DataOwner(self.group, owner_id)
        )
        self.ca.register_owner(entity)
        for authority in self.authorities.values():
            authority.accept_owner_secret(entity)
            authority.publish_to_owner(entity)
        self.owners[owner_id] = entity
        return entity

    def add_user(self, uid: str) -> UserEntity:
        entity = UserEntity(f"user:{uid}", self.network, uid)
        self.ca.register_user(entity)
        self.users[uid] = entity
        return entity

    # -- key issuance ----------------------------------------------------------------

    def issue_keys(self, uid: str, aid: str, attributes, owner_id: str):
        """The AA authenticates the user's attributes and sends a key."""
        user = self._user(uid)
        authority = self._authority(aid)
        if owner_id not in self.owners:
            raise SchemeError(f"unknown owner {owner_id!r}")
        return authority.issue_key(user, attributes, owner_id)

    def add_attribute(self, aid: str, attribute: str) -> str:
        """Extend an authority's attribute universe and republish keys."""
        authority = self._authority(aid)
        qualified = authority.core.add_attribute(attribute)
        for owner in self.owners.values():
            authority.publish_to_owner(owner)
        return qualified

    # -- data path ---------------------------------------------------------------------

    def upload(self, owner_id: str, record_id: str, components: dict):
        """Owner-side hybrid encryption and upload; see OwnerEntity.upload."""
        return self._owner(owner_id).upload(self.server, record_id, components)

    def read(self, uid: str, record_id: str, component_name: str) -> bytes:
        """User-side download + decryption of one component."""
        return self._user(uid).read(self.server, record_id, component_name)

    def update_component(self, owner_id: str, record_id: str,
                         component_name: str, plaintext: bytes, policy):
        """Owner replaces one component's data (fresh keys throughout)."""
        return self._owner(owner_id).update_component(
            self.server, record_id, component_name, plaintext, policy
        )

    def read_own(self, owner_id: str, record_id: str,
                 component_name: str) -> bytes:
        """Owner reads its own data via the ledger (no ABE keys)."""
        return self._owner(owner_id).read_own(
            self.server, record_id, component_name
        )

    def delete_record(self, owner_id: str, record_id: str) -> None:
        """Owner removes one of its records from the cloud."""
        self._owner(owner_id).delete_record(self.server, record_id)

    # -- revocation -----------------------------------------------------------------------

    def revoke(self, aid: str, revoked_uid: str, revoked_attributes,
               hardened: bool = False) -> RekeyResult:
        """Run the complete attribute-revocation protocol.

        Phase 1 (key update): ReKey at the AA; the revoked user receives
        its reduced keys; every other key-holding user receives the
        update key (paper) or a re-issued key (hardened); owners receive
        the update key.

        Phase 2 (data re-encryption): every owner computes update
        information for each affected ciphertext and the server runs
        ReEncrypt. Owners roll their cached public keys forward.
        """
        authority = self._authority(aid)
        revoked_user = self._user(revoked_uid)
        if hardened:
            result = rekey_hardened(authority.core, revoked_uid,
                                    revoked_attributes)
        else:
            result = rekey_standard(authority.core, revoked_uid,
                                    revoked_attributes)
        update_key = result.update_key

        # Revoked user: new (reduced) secret keys, or loss of the key.
        for new_key in result.revoked_user_keys.values():
            authority.send(revoked_user, "user-secret-key", new_key)
        # Survivors: a re-issued key (hardened) or the update key.
        if hardened:
            for (uid, _), new_key in result.reissued_keys.items():
                authority.send(self._user(uid), "user-secret-key", new_key)
        else:
            for uid, user in self.users.items():
                if uid != revoked_uid and user.has_keys_from(aid):
                    authority.send(user, "update-key", update_key)
        for user in self.users.values():
            user.accept_rekey(result)

        # Owners + server (phase 2).
        for owner in self.owners.values():
            authority.send(owner, "update-key", update_key)
            owner.push_revocation_updates(
                self.server, update_key, include_uk2=not hardened
            )
        return result

    # -- lookups -------------------------------------------------------------------------------

    def _authority(self, aid: str) -> AuthorityEntity:
        try:
            return self.authorities[aid]
        except KeyError:
            raise SchemeError(f"unknown authority {aid!r}") from None

    def _owner(self, owner_id: str) -> OwnerEntity:
        try:
            return self.owners[owner_id]
        except KeyError:
            raise SchemeError(f"unknown owner {owner_id!r}") from None

    def _user(self, uid: str) -> UserEntity:
        try:
            return self.users[uid]
        except KeyError:
            raise SchemeError(f"unknown user {uid!r}") from None
