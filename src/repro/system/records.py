"""The on-server data format of the paper's Fig. 2.

A record is a sequence of data components, each stored as the pair
``(CT_i, E_{k_i}(m_i))``: the CP-ABE ciphertext of the component's
content key next to the symmetrically-encrypted component body. Users
with different attributes decrypt different subsets of the content keys
and therefore see different granularities of the data — the
fine-grained-access story of Section V-A.

The content key never exists as raw bytes inside a group element:
the owner encrypts a random GT *session element* with CP-ABE and both
sides derive ``k_i = KDF(session)`` (KEM/DEM). This is the standard way
to instantiate "the message m is the content keys" with a group-element
message space.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.ciphertext import Ciphertext
from repro.crypto.symmetric import SymmetricCiphertext
from repro.errors import SchemeError, StorageError
from repro.pairing.group import PairingGroup


@dataclass(frozen=True)
class StoredComponent:
    """One ``(CT_i, E_{k_i}(m_i))`` pair of Fig. 2."""

    name: str
    abe_ciphertext: Ciphertext
    data_ciphertext: SymmetricCiphertext

    def payload_size_bytes(self, group: PairingGroup) -> int:
        return self.abe_ciphertext.element_size_bytes(group) + len(
            self.data_ciphertext
        )

    def to_bytes(self) -> bytes:
        """length-prefixed: name | ABE ciphertext | symmetric body."""
        name = self.name.encode("utf-8")
        abe = self.abe_ciphertext.to_bytes()
        data = self.data_ciphertext.to_bytes()
        return b"".join(
            len(part).to_bytes(4, "big") + part for part in (name, abe, data)
        )

    @classmethod
    def from_bytes(cls, group: PairingGroup, blob: bytes, *,
                   validate: bool = True) -> "StoredComponent":
        parts = []
        offset = 0
        for _ in range(3):
            if offset + 4 > len(blob):
                raise StorageError("truncated stored component")
            length = int.from_bytes(blob[offset:offset + 4], "big")
            offset += 4
            if offset + length > len(blob):
                raise StorageError("truncated stored component")
            parts.append(blob[offset:offset + length])
            offset += length
        if offset != len(blob):
            raise StorageError("trailing bytes after stored component")
        name, abe, data = parts
        return cls(
            name=name.decode("utf-8"),
            abe_ciphertext=Ciphertext.from_bytes(group, abe,
                                                 validate=validate),
            data_ciphertext=SymmetricCiphertext.from_bytes(data),
        )


def _take(blob: bytes, offset: int) -> tuple:
    """One length-prefixed field of a stored record, and the offset
    past it."""
    if offset + 4 > len(blob):
        raise StorageError("truncated stored record")
    length = int.from_bytes(blob[offset:offset + 4], "big")
    offset += 4
    if offset + length > len(blob):
        raise StorageError("truncated stored record")
    return blob[offset:offset + length], offset + length


@dataclass(frozen=True)
class StoredRecord:
    """A full record: ordered components keyed by logical name."""

    record_id: str
    owner_id: str
    components: dict  # name -> StoredComponent

    def component(self, name: str) -> StoredComponent:
        try:
            return self.components[name]
        except KeyError:
            raise StorageError(
                f"record {self.record_id!r} has no component {name!r}"
            ) from None

    def component_names(self) -> tuple:
        return tuple(self.components)

    def payload_size_bytes(self, group: PairingGroup) -> int:
        return sum(
            component.payload_size_bytes(group)
            for component in self.components.values()
        )

    def check_owner(self, owner_id: str) -> None:
        """Refuse a write to this record by anyone but its owner."""
        if owner_id != self.owner_id:
            raise SchemeError(
                f"record {self.record_id!r} belongs to {self.owner_id!r}"
            )

    def with_component(self, component: StoredComponent) -> "StoredRecord":
        """A copy with one component replaced (a replace or a
        re-encryption); the component must be the record owner's."""
        self.check_owner(component.abe_ciphertext.owner_id)
        if component.name not in self.components:
            raise StorageError(
                f"record {self.record_id!r} has no component {component.name!r}"
            )
        updated = dict(self.components)
        updated[component.name] = component
        return StoredRecord(
            record_id=self.record_id,
            owner_id=self.owner_id,
            components=updated,
        )

    def to_bytes(self) -> bytes:
        """Durable on-disk form: ids then length-prefixed components."""
        record_id = self.record_id.encode("utf-8")
        owner_id = self.owner_id.encode("utf-8")
        blob = (
            len(record_id).to_bytes(4, "big") + record_id
            + len(owner_id).to_bytes(4, "big") + owner_id
            + len(self.components).to_bytes(4, "big")
        )
        for name in sorted(self.components):
            encoded = self.components[name].to_bytes()
            blob += len(encoded).to_bytes(4, "big") + encoded
        return blob

    @classmethod
    def from_bytes(cls, group: PairingGroup, blob: bytes, *,
                   validate: bool = True) -> "StoredRecord":
        """Decode a record; ``validate=False`` (trusted, store-internal
        bytes only) skips the per-element subgroup checks, which dominate
        decode time for multi-row policies."""
        record_id, offset = _take(blob, 0)
        owner_id, offset = _take(blob, offset)
        if offset + 4 > len(blob):
            raise StorageError("truncated stored record")
        count = int.from_bytes(blob[offset:offset + 4], "big")
        offset += 4
        components = {}
        for _ in range(count):
            encoded, offset = _take(blob, offset)
            component = StoredComponent.from_bytes(group, encoded,
                                                   validate=validate)
            components[component.name] = component
        if offset != len(blob):
            raise StorageError("trailing bytes after stored record")
        return cls(
            record_id=record_id.decode("utf-8"),
            owner_id=owner_id.decode("utf-8"),
            components=components,
        )

    @staticmethod
    def peek_record_id(blob: bytes) -> str:
        """The record id an encoding names, without decoding the rest
        (a malformed id raises :class:`StorageError`)."""
        record_id, _ = _take(blob, 0)
        try:
            return record_id.decode("utf-8")
        except UnicodeDecodeError:
            raise StorageError("stored record id is not UTF-8") from None
