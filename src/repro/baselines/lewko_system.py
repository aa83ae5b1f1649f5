"""A minimal cloud deployment of the Lewko-Waters baseline.

The reproduced paper measures its own scheme inside a full system model;
to make the Table IV comparison apples-to-apples, this module wires the
Lewko-Waters scheme through the *same* role-pair byte meter and the same
Fig-2 hybrid layout (ABE ciphertext of a GT session element + symmetric
body). The bench can then report measured bytes for both schemes.

Deliberately minimal: Lewko-Waters has no owner-scoped keys (any
encryptor uses the public attribute keys) and no revocation protocol —
"they did not consider attribute revocation, which is one of the major
challenges" — so this system exposes only enrolment, issuance, upload
and read.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines import lewko
from repro.crypto import symmetric
from repro.crypto.hybrid import open_sealed, seal
from repro.errors import AuthorizationError, SchemeError, StorageError
from repro.pairing.group import PairingGroup
from repro.system.meter import (
    ROLE_AA,
    ROLE_OWNER,
    ROLE_SERVER,
    ROLE_USER,
    Meter,
)


@dataclass(frozen=True)
class LewkoStoredComponent:
    """Fig-2 pair for the baseline: (Lewko CT, symmetric body)."""

    name: str
    abe_ciphertext: lewko.LewkoCiphertext
    data_ciphertext: symmetric.SymmetricCiphertext

    def payload_size_bytes(self, group: PairingGroup) -> int:
        return self.abe_ciphertext.element_size_bytes(group) + len(
            self.data_ciphertext
        )


@dataclass(frozen=True)
class LewkoStoredRecord:
    record_id: str
    owner_id: str
    components: dict

    def component(self, name: str) -> LewkoStoredComponent:
        try:
            return self.components[name]
        except KeyError:
            raise StorageError(
                f"record {self.record_id!r} has no component {name!r}"
            ) from None

    def payload_size_bytes(self, group: PairingGroup) -> int:
        return sum(
            component.payload_size_bytes(group)
            for component in self.components.values()
        )


class _Party:
    """One role of the deployment: a name, a role, and the shared meter."""

    role = None

    def __init__(self, name: str, meter: Meter):
        self.name = name
        self.meter = meter

    def send(self, recipient: "_Party", kind: str, payload) -> None:
        self.meter.record(self.name, self.role, recipient.name,
                          recipient.role, kind, payload)


class LewkoAuthorityEntity(_Party):
    role = ROLE_AA

    def __init__(self, name, meter, core: lewko.LewkoAuthority):
        super().__init__(name, meter)
        self.core = core

    def publish_to_owner(self, owner: "LewkoOwnerEntity") -> None:
        public = self.core.public_key()
        self.send(owner, "public-attribute-keys", public)
        owner.learn_public_keys(public)

    def issue_key(self, user: "LewkoUserEntity", attributes):
        key = self.core.keygen(user.gid, attributes)
        self.send(user, "user-secret-key", key)
        user.receive_key(key)
        return key


class LewkoOwnerEntity(_Party):
    role = ROLE_OWNER

    def __init__(self, name, meter, owner_id: str):
        super().__init__(name, meter)
        self.owner_id = owner_id
        self._public_keys = {}

    def learn_public_keys(self, public: lewko.LewkoAuthorityPublicKey):
        self._public_keys.update(public.elements)
        # Every upload exponentiates each policy attribute's e(g,g)^{α_i}
        # and g^{y_i}: precompute fixed-base tables once per learned key
        # so the per-ciphertext cost drops to table lookups.
        group = self.meter.group
        for pk in public.elements.values():
            group.register_gt_base(pk.e_alpha)
            group.register_g1_base(pk.g_y)

    def upload(self, server: "LewkoServerEntity", record_id: str,
               components: dict) -> LewkoStoredRecord:
        group = self.meter.group
        stored = {}
        for component_name, (plaintext, policy) in components.items():
            session = group.random_gt()
            abe_ciphertext = lewko.encrypt(
                group, session, policy, self._public_keys
            )
            stored[component_name] = LewkoStoredComponent(
                name=component_name,
                abe_ciphertext=abe_ciphertext,
                data_ciphertext=seal(
                    session, f"{record_id}/{component_name}", plaintext
                ),
            )
        record = LewkoStoredRecord(
            record_id=record_id, owner_id=self.owner_id, components=stored
        )
        self.send(server, "store-record", record)
        server.store(record)
        return record


class LewkoUserEntity(_Party):
    role = ROLE_USER

    def __init__(self, name, meter, gid: str):
        super().__init__(name, meter)
        self.gid = gid
        self._keys = {}   # aid -> LewkoUserKey

    def receive_key(self, key: lewko.LewkoUserKey):
        if key.gid != self.gid:
            raise SchemeError("received a key for a different GID")
        self._keys[key.aid] = key

    def read(self, server: "LewkoServerEntity", record_id: str,
             component_name: str) -> bytes:
        group = self.meter.group
        self.send(server, "read-request", f"{record_id}/{component_name}")
        component = server.fetch_component(self, record_id, component_name)
        if not self._keys:
            raise AuthorizationError(f"user {self.gid!r} holds no keys")
        session = lewko.decrypt(
            group, component.abe_ciphertext, self.gid, self._keys
        )
        return open_sealed(
            session, f"{record_id}/{component_name}",
            component.data_ciphertext,
        )


class LewkoServerEntity(_Party):
    role = ROLE_SERVER

    def __init__(self, name, meter):
        super().__init__(name, meter)
        self._records = {}

    def store(self, record: LewkoStoredRecord) -> None:
        self._records[record.record_id] = record

    def record(self, record_id: str) -> LewkoStoredRecord:
        try:
            return self._records[record_id]
        except KeyError:
            raise StorageError(f"no record {record_id!r}") from None

    def fetch_component(self, user, record_id, component_name):
        component = self.record(record_id).component(component_name)
        self.send(user, "component-download", component)
        return component

    def storage_bytes(self) -> int:
        return sum(
            record.payload_size_bytes(self.meter.group)
            for record in self._records.values()
        )


class LewkoCloudSystem:
    """The baseline deployment: authorities, one server, owners, users."""

    def __init__(self, params, seed=None):
        self.group = PairingGroup(params, seed=seed)
        self.meter = Meter(self.group)
        self.server = LewkoServerEntity("cloud", self.meter)
        self.authorities = {}
        self.owners = {}
        self.users = {}

    def add_authority(self, aid: str, attributes) -> LewkoAuthorityEntity:
        entity = LewkoAuthorityEntity(
            f"AA:{aid}", self.meter,
            lewko.LewkoAuthority(self.group, aid, attributes),
        )
        self.authorities[aid] = entity
        for owner in self.owners.values():
            entity.publish_to_owner(owner)
        return entity

    def add_owner(self, owner_id: str) -> LewkoOwnerEntity:
        entity = LewkoOwnerEntity(
            f"owner:{owner_id}", self.meter, owner_id
        )
        for authority in self.authorities.values():
            authority.publish_to_owner(entity)
        self.owners[owner_id] = entity
        return entity

    def add_user(self, gid: str) -> LewkoUserEntity:
        entity = LewkoUserEntity(f"user:{gid}", self.meter, gid)
        self.users[gid] = entity
        return entity

    def issue_keys(self, gid: str, aid: str, attributes):
        return self.authorities[aid].issue_key(self.users[gid], attributes)

    def upload(self, owner_id: str, record_id: str, components: dict):
        return self.owners[owner_id].upload(
            self.server, record_id, components
        )

    def read(self, gid: str, record_id: str, component_name: str) -> bytes:
        return self.users[gid].read(self.server, record_id, component_name)
