"""The five entity types of the system model (Fig. 1), as simulation actors.

Each entity wraps its cryptographic state (from :mod:`repro.core`) and
talks to the others exclusively through the byte-metered
:class:`repro.system.network.Network`, so every protocol flow the paper
draws as an arrow in Fig. 1 shows up in the communication-cost counters.

The cloud server honors the paper's threat model: it stores records,
serves downloads and runs ReEncrypt, but its code path never receives a
decryption key or a content key — tests assert this stays true.
"""

from __future__ import annotations

from repro.core.authority import AttributeAuthority
from repro.core.ca import CertificateAuthority
from repro.core.decrypt import decrypt as abe_decrypt
from repro.core.keys import UpdateKey, UserPublicKey
from repro.core.owner import DataOwner
from repro.core.reencrypt import reencrypt as abe_reencrypt
from repro.core.wallet import UserWallet
from repro.crypto import symmetric
from repro.crypto.hybrid import open_sealed, seal
from repro.errors import SchemeError, StorageError
from repro.system.network import (
    ROLE_AA,
    ROLE_CA,
    ROLE_OWNER,
    ROLE_SERVER,
    ROLE_USER,
    Network,
)
from repro.system.records import StoredComponent, StoredRecord


class Entity:
    """Base simulation actor: a name, a role, and the shared network."""

    role = "entity"

    def __init__(self, name: str, network: Network):
        self.name = name
        self.network = network

    def send(self, recipient: "Entity", kind: str, payload):
        """Meter and deliver a payload to another entity."""
        return self.network.send(self, recipient, kind, payload)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class CaEntity(Entity):
    """The certificate authority actor."""

    role = ROLE_CA

    def __init__(self, name: str, network: Network, core: CertificateAuthority):
        super().__init__(name, network)
        self.core = core

    def register_user(self, user: "UserEntity") -> UserPublicKey:
        public_key = self.core.register_user(user.uid)
        self.send(user, "user-public-key", public_key)
        user.receive_public_key(public_key)
        return public_key

    def register_authority(self, authority: "AuthorityEntity") -> str:
        return self.core.register_authority(authority.aid)

    def register_owner(self, owner: "OwnerEntity") -> str:
        return self.core.register_owner(owner.owner_id)


class AuthorityEntity(Entity):
    """One attribute authority actor wrapping its crypto state."""

    role = ROLE_AA

    def __init__(self, name: str, network: Network, core: AttributeAuthority):
        super().__init__(name, network)
        self.core = core

    @property
    def aid(self) -> str:
        return self.core.aid

    def publish_to_owner(self, owner: "OwnerEntity") -> None:
        """Send the owner this AA's public key material (AA→Owner traffic)."""
        authority_public = self.core.authority_public_key()
        attribute_public = self.core.public_attribute_keys()
        self.send(owner, "authority-public-key", authority_public)
        self.send(owner, "public-attribute-keys", attribute_public)
        owner.core.learn_authority(authority_public, attribute_public)

    def accept_owner_secret(self, owner: "OwnerEntity") -> None:
        """Receive ``SK_o`` from the owner (Owner→AA, secure channel)."""
        secret = owner.send(self, "owner-secret-key", owner.core.secret_key)
        self.core.register_owner(secret)

    def issue_key(self, user: "UserEntity", attributes, owner_id: str):
        """KeyGen and delivery of ``SK_{UID,AID}`` (AA→User traffic)."""
        secret_key = self.core.keygen(user.public_key, attributes, owner_id)
        self.send(user, "user-secret-key", secret_key)
        user.receive_secret_key(secret_key)
        return secret_key


class OwnerEntity(Entity):
    """A data owner actor: hybrid encryption, uploads, revocation updates."""

    role = ROLE_OWNER

    def __init__(self, name: str, network: Network, core: DataOwner):
        super().__init__(name, network)
        self.core = core

    @property
    def owner_id(self) -> str:
        return self.core.owner_id

    def upload(self, server: "ServerEntity", record_id: str,
               components: dict) -> StoredRecord:
        """Encrypt and upload a record (Fig. 2 layout; Owner→Server traffic).

        ``components`` maps a component name to ``(plaintext_bytes,
        policy)``. Each component gets a fresh GT session element,
        CP-ABE-encrypted under its policy, and a derived content key for
        the symmetric body.
        """
        group = self.core.group
        stored = {}
        for component_name, (plaintext, policy) in components.items():
            ciphertext_id = f"{record_id}/{component_name}"
            session = group.random_gt()
            abe_ciphertext = self.core.encrypt(
                session, policy, ciphertext_id=ciphertext_id
            )
            stored[component_name] = StoredComponent(
                name=component_name,
                abe_ciphertext=abe_ciphertext,
                data_ciphertext=seal(session, ciphertext_id, plaintext),
            )
        record = StoredRecord(
            record_id=record_id, owner_id=self.owner_id, components=stored
        )
        self.send(server, "store-record", record)
        server.store(record)
        return record

    def read_own(self, server: "ServerEntity", record_id: str,
                 component_name: str) -> bytes:
        """Owner reads its own data back — no ABE keys involved.

        Uses the ledger's encryption exponent to strip the CP-ABE
        blinding directly (see :meth:`DataOwner.recover_session`).
        """
        self.send(server, "read-request", f"{record_id}/{component_name}")
        component = server.fetch_component(self, record_id, component_name)
        ciphertext = component.abe_ciphertext
        if ciphertext.owner_id != self.owner_id:
            raise SchemeError("not this owner's record")
        blinding = self.core.recover_session(ciphertext.ciphertext_id)
        session = ciphertext.c / blinding
        return open_sealed(
            session, ciphertext.ciphertext_id, component.data_ciphertext
        )

    def delete_record(self, server: "ServerEntity", record_id: str) -> None:
        """Remove a record from the server and retire its ledger entries."""
        record = server.record(record_id)
        if record.owner_id != self.owner_id:
            raise SchemeError(
                f"record {record_id!r} belongs to {record.owner_id!r}"
            )
        self.send(server, "delete-record", record_id)
        server.delete_record(record_id)
        self.core.retire_stored_record(record_id)

    def update_component(self, server: "ServerEntity", record_id: str,
                         component_name: str, plaintext: bytes,
                         policy) -> StoredComponent:
        """Replace one component's data (and optionally its policy).

        A fresh session element and content key are drawn — content keys
        are never reused across versions of the data — and the server
        swaps the component in place. The old ciphertext id is retired
        and a versioned id minted, keeping the owner's ledger append-only.
        """
        group = self.core.group
        existing = server.record(record_id)
        if existing.owner_id != self.owner_id:
            raise SchemeError(
                f"record {record_id!r} belongs to {existing.owner_id!r}"
            )
        existing.component(component_name)  # raises if absent
        suffix = 0
        while True:
            ciphertext_id = f"{record_id}/{component_name}#v{suffix}"
            if ciphertext_id not in self.core.ciphertext_ids:
                break
            suffix += 1
        session = group.random_gt()
        abe_ciphertext = self.core.encrypt(
            session, policy, ciphertext_id=ciphertext_id
        )
        component = StoredComponent(
            name=component_name,
            abe_ciphertext=abe_ciphertext,
            data_ciphertext=seal(session, ciphertext_id, plaintext),
        )
        old_id = existing.component(component_name).abe_ciphertext.ciphertext_id
        if old_id in self.core.ciphertext_ids:
            self.core.retire_record(old_id)
        self.send(server, "update-component", component)
        server.replace_component(record_id, component)
        return component

    def push_revocation_updates(self, server: "ServerEntity",
                                update_key: UpdateKey,
                                include_uk2: bool = True) -> list:
        """Owner side of re-encryption (Section V-C, Phase 2).

        For every owned ciphertext involving the re-keyed authority:
        compute the update information from the ledger, send it with the
        update key to the server, and let the server re-encrypt. Returns
        the updated ids, settled through ``DataOwner.settle_update``.

        ``include_uk2=False`` models the hardened protocol where the
        server only ever sees ``UK1`` (ReEncrypt needs nothing more).
        """
        from repro.core.revocation import strip_uk2

        server_key = update_key if include_uk2 else strip_uk2(update_key)
        updated = []
        try:
            for ciphertext_id in self.core.records_for_update(update_key):
                update_info = self.core.update_info_for_record(
                    ciphertext_id, update_key
                )
                self.send(server, "update-key", server_key)
                self.send(server, "update-info", update_info)
                server.reencrypt(ciphertext_id, server_key, update_info)
                updated.append(ciphertext_id)
        finally:
            self.core.settle_update(update_key, updated)
        return updated


class UserEntity(Entity, UserWallet):
    """A data consumer actor: holds keys, downloads and decrypts."""

    role = ROLE_USER

    def __init__(self, name: str, network: Network, uid: str):
        Entity.__init__(self, name, network)
        UserWallet.__init__(self, network.group, uid)

    def read(self, server: "ServerEntity", record_id: str,
             component_name: str) -> bytes:
        """Download one component and decrypt it end-to-end.

        Raises :class:`PolicyNotSatisfiedError` (wrong attributes),
        :class:`SchemeError` (missing/stale keys) or
        :class:`AuthorizationError` via those, mirroring real failures.
        """
        self.send(server, "read-request", f"{record_id}/{component_name}")
        component = server.fetch_component(self, record_id, component_name)
        abe_ciphertext = component.abe_ciphertext
        keys = self.keys_for_owner(abe_ciphertext.owner_id)
        session = abe_decrypt(self.group, abe_ciphertext, self.public_key,
                              keys)
        return open_sealed(
            session, abe_ciphertext.ciphertext_id, component.data_ciphertext
        )


class ServerEntity(Entity):
    """The honest-but-curious cloud server: storage plus proxy ReEncrypt."""

    role = ROLE_SERVER

    def __init__(self, name: str, network: Network):
        super().__init__(name, network)
        self._records = {}          # record id -> StoredRecord
        self._ciphertext_index = {}  # ciphertext id -> (record id, component)

    def store(self, record: StoredRecord, replace: bool = False) -> None:
        if record.record_id in self._records and not replace:
            raise StorageError(
                f"record {record.record_id!r} already exists "
                f"(pass replace=True to overwrite)"
            )
        self._records[record.record_id] = record
        for name, component in record.components.items():
            self._ciphertext_index[
                component.abe_ciphertext.ciphertext_id
            ] = (record.record_id, name)

    def record(self, record_id: str) -> StoredRecord:
        try:
            return self._records[record_id]
        except KeyError:
            raise StorageError(f"no record {record_id!r}") from None

    @property
    def record_ids(self) -> frozenset:
        return frozenset(self._records)

    def fetch_component(self, user: UserEntity, record_id: str,
                        component_name: str) -> StoredComponent:
        """Serve a download (Server→User traffic)."""
        component = self.record(record_id).component(component_name)
        self.send(user, "component-download", component)
        return component

    def delete_record(self, record_id: str) -> None:
        """Drop a record and its ciphertext index entries."""
        record = self.record(record_id)
        for component in record.components.values():
            self._ciphertext_index.pop(
                component.abe_ciphertext.ciphertext_id, None
            )
        del self._records[record_id]

    def replace_component(self, record_id: str,
                          component: StoredComponent) -> None:
        """Swap one component (owner-driven data update)."""
        record = self.record(record_id)
        old = record.component(component.name)
        self._ciphertext_index.pop(
            old.abe_ciphertext.ciphertext_id, None
        )
        self._records[record_id] = record.with_component(component)
        self._ciphertext_index[
            component.abe_ciphertext.ciphertext_id
        ] = (record_id, component.name)

    def reencrypt(self, ciphertext_id: str, update_key: UpdateKey,
                  update_info) -> None:
        """Run ReEncrypt on one stored ciphertext, in place."""
        try:
            record_id, component_name = self._ciphertext_index[ciphertext_id]
        except KeyError:
            raise StorageError(f"no ciphertext {ciphertext_id!r}") from None
        record = self._records[record_id]
        component = record.components[component_name]
        updated = abe_reencrypt(
            self.network.group, component.abe_ciphertext, update_key,
            update_info
        )
        self._records[record_id] = record.with_component(
            StoredComponent(
                name=component_name,
                abe_ciphertext=updated,
                data_ciphertext=component.data_ciphertext,
            )
        )

    def storage_bytes(self) -> int:
        """Total stored payload — the Table III 'server' row, measured."""
        return sum(
            record.payload_size_bytes(self.network.group)
            for record in self._records.values()
        )

    # -- persistence -----------------------------------------------------------

    def export_state(self) -> bytes:
        """Serialize every stored record (server restart / migration)."""
        blobs = [
            self._records[record_id].to_bytes()
            for record_id in sorted(self._records)
        ]
        out = len(blobs).to_bytes(4, "big")
        for blob in blobs:
            out += len(blob).to_bytes(4, "big") + blob
        return out

    def import_state(self, data: bytes) -> int:
        """Restore records exported by :meth:`export_state`.

        Replaces the in-memory store; returns the record count. The
        ciphertext index is rebuilt from the decoded records.
        """
        if len(data) < 4:
            raise StorageError("truncated server state")
        count = int.from_bytes(data[:4], "big")
        offset = 4
        records = []
        for _ in range(count):
            if offset + 4 > len(data):
                raise StorageError("truncated server state")
            length = int.from_bytes(data[offset:offset + 4], "big")
            offset += 4
            if offset + length > len(data):
                raise StorageError("truncated server state")
            records.append(
                StoredRecord.from_bytes(
                    self.network.group, data[offset:offset + length]
                )
            )
            offset += length
        if offset != len(data):
            raise StorageError("trailing bytes after server state")
        self._records = {}
        self._ciphertext_index = {}
        for record in records:
            self.store(record)
        return len(records)
