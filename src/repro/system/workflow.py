"""End-to-end orchestration of the multi-authority cloud-storage system.

:class:`CloudStorageSystem` runs the paper's Fig. 1 over one cloud
server: an in-process :class:`~repro.service.server.StorageService` on
``127.0.0.1`` (ephemeral port) over a :class:`~repro.service.store.
RecordStore` in a temporary directory. Owners are
:class:`~repro.service.client.OwnerClient`\\ s and users are
:class:`~repro.service.client.UserClient`\\ s; one private event loop
drives every call, so the API is synchronous and nothing runs between
calls. It exposes the lifecycle operations of the paper:

* setup — add authorities, owners (key exchange with every AA) and users;
* key issuance — an AA verifies a user's attributes and sends a key;
* upload — an owner hybrid-encrypts a record and stores it (Fig. 2);
* read — a user downloads a component and decrypts it;
* revocation — the full two-phase protocol of Section V-C: ReKey at the
  AA, key distribution (update keys to survivors in the paper's variant,
  re-issued keys in the hardened variant), owner update information, and
  server-side ReEncrypt of every affected ciphertext.

Every client connection meters on the system's one :attr:`meter`; the
CA↔user, AA↔user and AA↔owner transfers never touch the server and are
recorded on the same meter in-process. This is the object the
integration tests, the access-control models and the Table III/IV
benchmarks drive. Close it (or use it as a context manager) to stop the
server and remove its store.
"""

from __future__ import annotations

import asyncio
import tempfile

from repro.core.authority import AttributeAuthority
from repro.core.ca import CertificateAuthority
from repro.core.owner import DataOwner
from repro.core.revocation import RekeyResult, rekey_hardened, rekey_standard
from repro.ec.params import TOY80, TypeAParams
from repro.errors import SchemeError
from repro.pairing.group import PairingGroup
from repro.service.client import OwnerClient, ServiceConnection, UserClient
from repro.service.server import StorageService
from repro.service.store import RecordStore
from repro.system.meter import ROLE_AA, ROLE_CA, ROLE_OWNER, ROLE_USER, Meter


class CloudStorageSystem:
    """One deployment: CA + server + any number of AAs, owners, users."""

    def __init__(self, params: TypeAParams = TOY80, seed=None):
        self.group = PairingGroup(params, seed=seed)
        self.meter = Meter(self.group)
        self.ca = CertificateAuthority(self.group)
        self.authorities = {}   # aid -> AttributeAuthority
        self.owners = {}        # owner id -> OwnerClient
        self.users = {}         # uid -> UserClient
        self._root = tempfile.TemporaryDirectory(prefix="repro-system-")
        self._loop = asyncio.new_event_loop()
        # No idle timeout: the loop only runs inside a call, so the time
        # between two calls is not idleness the server should act on.
        self.server = StorageService(
            self.group, RecordStore(self._root.name, self.group),
            idle_timeout=None,
        )
        try:
            self._run(self.server.start())
        except BaseException:
            self.close()
            raise

    def _run(self, coro):
        return self._loop.run_until_complete(coro)

    def close(self) -> None:
        """Close every client, stop the server and remove its store."""
        if self._loop.is_closed():
            return
        try:
            for client in (*self.owners.values(), *self.users.values()):
                self._run(client.close())
            self._run(self.server.stop())
            self._run(self._loop.shutdown_default_executor())
        finally:
            self._loop.close()
            # stop() lets the offload thread exit on its own; nothing is
            # in flight here, so join it before returning.
            self.server._cpu.shutdown(wait=True)
            self._root.cleanup()

    def __enter__(self) -> "CloudStorageSystem":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- in-process transfers -------------------------------------------------

    def _aa_send(self, aid: str, recipient, role: str, kind: str,
                 payload) -> None:
        """Meter one authority → owner/user transfer (no server hop)."""
        self.meter.record(f"AA:{aid}", ROLE_AA, recipient.connection.name,
                          role, kind, payload)

    def _exchange_keys(self, authority: AttributeAuthority,
                       owner: OwnerClient) -> None:
        """``SK_o`` to the AA (secure channel), then the AA's public key
        material to the owner."""
        secret = owner.core.secret_key
        self.meter.record(owner.connection.name, ROLE_OWNER,
                          f"AA:{authority.aid}", ROLE_AA,
                          "owner-secret-key", secret)
        authority.register_owner(secret)
        self._publish(authority, owner)

    def _publish(self, authority: AttributeAuthority,
                 owner: OwnerClient) -> None:
        authority_public = authority.authority_public_key()
        attribute_public = authority.public_attribute_keys()
        self._aa_send(authority.aid, owner, ROLE_OWNER,
                      "authority-public-key", authority_public)
        self._aa_send(authority.aid, owner, ROLE_OWNER,
                      "public-attribute-keys", attribute_public)
        owner.core.learn_authority(authority_public, attribute_public)

    def _connect(self, role: str, name: str) -> ServiceConnection:
        return self._run(ServiceConnection(
            self.group, self.server.host, self.server.port, role=role,
            name=name, meter=self.meter,
        ).connect())

    # -- setup ------------------------------------------------------------------

    def add_authority(self, aid: str, attributes) -> AttributeAuthority:
        authority = AttributeAuthority(self.group, aid, attributes)
        self.ca.register_authority(aid)
        self.authorities[aid] = authority
        # Existing owners exchange keys with the new authority too.
        for owner in self.owners.values():
            self._exchange_keys(authority, owner)
        return authority

    def add_owner(self, owner_id: str) -> OwnerClient:
        self.ca.register_owner(owner_id)
        owner = OwnerClient(self._connect(ROLE_OWNER, f"owner:{owner_id}"),
                            DataOwner(self.group, owner_id))
        for authority in self.authorities.values():
            self._exchange_keys(authority, owner)
        self.owners[owner_id] = owner
        return owner

    def add_user(self, uid: str) -> UserClient:
        public_key = self.ca.register_user(uid)
        user = UserClient(self._connect(ROLE_USER, f"user:{uid}"), uid)
        self.meter.record("CA", ROLE_CA, user.connection.name, ROLE_USER,
                          "user-public-key", public_key)
        user.receive_public_key(public_key)
        self.users[uid] = user
        return user

    # -- key issuance ----------------------------------------------------------------

    def issue_keys(self, uid: str, aid: str, attributes, owner_id: str):
        """The AA authenticates the user's attributes and sends a key."""
        user = self._user(uid)
        authority = self._authority(aid)
        if owner_id not in self.owners:
            raise SchemeError(f"unknown owner {owner_id!r}")
        secret_key = authority.keygen(user.public_key, attributes, owner_id)
        self._aa_send(aid, user, ROLE_USER, "user-secret-key", secret_key)
        user.receive_secret_key(secret_key)
        return secret_key

    def add_attribute(self, aid: str, attribute: str) -> str:
        """Extend an authority's attribute universe and republish keys."""
        authority = self._authority(aid)
        qualified = authority.add_attribute(attribute)
        for owner in self.owners.values():
            self._publish(authority, owner)
        return qualified

    # -- data path ---------------------------------------------------------------------

    def upload(self, owner_id: str, record_id: str, components: dict):
        """Owner-side hybrid encryption and upload; see OwnerClient.upload."""
        return self._run(self._owner(owner_id).upload(record_id, components))

    def read(self, uid: str, record_id: str, component_name: str) -> bytes:
        """User-side download + decryption of one component."""
        return self._run(self._user(uid).read(record_id, component_name))

    def update_component(self, owner_id: str, record_id: str,
                         component_name: str, plaintext: bytes, policy):
        """Owner replaces one component's data (fresh keys throughout)."""
        return self._run(self._owner(owner_id).update_component(
            record_id, component_name, plaintext, policy
        ))

    def read_own(self, owner_id: str, record_id: str,
                 component_name: str) -> bytes:
        """Owner reads its own data via the ledger (no ABE keys)."""
        return self._run(self._owner(owner_id).read_own(record_id,
                                                        component_name))

    def delete_record(self, owner_id: str, record_id: str) -> None:
        """Owner removes one of its records from the cloud."""
        self._run(self._owner(owner_id).delete_record(record_id))

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
        rekey = rekey_hardened if hardened else rekey_standard
        result = rekey(authority, revoked_uid, revoked_attributes)
        update_key = result.update_key

        # Revoked user: new (reduced) secret keys, or loss of the key.
        for new_key in result.revoked_user_keys.values():
            self._aa_send(aid, revoked_user, ROLE_USER, "user-secret-key",
                          new_key)
        # Survivors: a re-issued key (hardened) or the update key.
        if hardened:
            for (uid, _), new_key in result.reissued_keys.items():
                self._aa_send(aid, self._user(uid), ROLE_USER,
                              "user-secret-key", new_key)
        else:
            for uid, user in self.users.items():
                if uid != revoked_uid and user.has_keys_from(aid):
                    self._aa_send(aid, user, ROLE_USER, "update-key",
                                  update_key)
        for user in self.users.values():
            user.accept_rekey(result)

        # Owners + server (phase 2).
        for owner in self.owners.values():
            self._aa_send(aid, owner, ROLE_OWNER, "update-key", update_key)
            self._run(owner.push_revocation_updates(
                update_key, include_uk2=not hardened
            ))
        return result

    # -- lookups -------------------------------------------------------------------------------

    def _authority(self, aid: str) -> AttributeAuthority:
        try:
            return self.authorities[aid]
        except KeyError:
            raise SchemeError(f"unknown authority {aid!r}") from None

    def _owner(self, owner_id: str) -> OwnerClient:
        try:
            return self.owners[owner_id]
        except KeyError:
            raise SchemeError(f"unknown owner {owner_id!r}") from None

    def _user(self, uid: str) -> UserClient:
        try:
            return self.users[uid]
        except KeyError:
            raise SchemeError(f"unknown user {uid!r}") from None
