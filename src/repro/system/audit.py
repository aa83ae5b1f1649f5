"""Audit queries over a meter's message log.

Cloud-storage deployments need an answer to "who transferred what,
when": this module provides the query layer over
:class:`repro.system.meter.Meter`'s append-only log — filtering by
entity, role and message kind, per-entity traffic summaries, and a JSONL
export suitable for shipping to an external audit store.

The log records *metadata only* (entities, kinds, byte counts) — never
payloads — so exporting it cannot leak key material or ciphertexts.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass

from repro.system.meter import MessageLogEntry, Meter


@dataclass(frozen=True)
class TrafficSummary:
    """Aggregate view of one entity's traffic."""

    entity: str
    sent_messages: int
    sent_bytes: int
    received_messages: int
    received_bytes: int

    @property
    def total_bytes(self) -> int:
        return self.sent_bytes + self.received_bytes


class AuditLog:
    """Read-only query interface over a meter's message log."""

    def __init__(self, meter: Meter):
        self._meter = meter

    @property
    def entries(self) -> tuple:
        return tuple(self._meter.log)

    def __len__(self) -> int:
        return len(self._meter.log)

    # -- filters ---------------------------------------------------------------

    def by_kind(self, kind: str) -> list:
        return [entry for entry in self._meter.log if entry.kind == kind]

    def by_entity(self, name: str) -> list:
        """Entries where the named entity is sender or recipient."""
        return [
            entry for entry in self._meter.log
            if name in (entry.sender, entry.recipient)
        ]

    def between_roles(self, role_a: str, role_b: str) -> list:
        wanted = {role_a, role_b}
        return [
            entry for entry in self._meter.log
            if {entry.sender_role, entry.recipient_role} == wanted
        ]

    def kinds(self) -> frozenset:
        return frozenset(entry.kind for entry in self._meter.log)

    # -- summaries ------------------------------------------------------------------

    def summary(self, entity: str) -> TrafficSummary:
        sent_messages = sent_bytes = received_messages = received_bytes = 0
        for entry in self._meter.log:
            if entry.sender == entity:
                sent_messages += 1
                sent_bytes += entry.size_bytes
            if entry.recipient == entity:
                received_messages += 1
                received_bytes += entry.size_bytes
        return TrafficSummary(
            entity=entity,
            sent_messages=sent_messages,
            sent_bytes=sent_bytes,
            received_messages=received_messages,
            received_bytes=received_bytes,
        )

    def top_talkers(self, limit: int = 5) -> list:
        """Entities ranked by total traffic, descending."""
        totals = defaultdict(int)
        for entry in self._meter.log:
            totals[entry.sender] += entry.size_bytes
            totals[entry.recipient] += entry.size_bytes
        ranked = sorted(totals.items(), key=lambda item: -item[1])
        return [self.summary(entity) for entity, _ in ranked[:limit]]

    # -- export ------------------------------------------------------------------------

    def to_jsonl(self) -> str:
        """One JSON object per line, in transfer order."""
        lines = []
        for index, entry in enumerate(self._meter.log):
            lines.append(json.dumps(
                {
                    "seq": index,
                    "sender": entry.sender,
                    "sender_role": entry.sender_role,
                    "recipient": entry.recipient,
                    "recipient_role": entry.recipient_role,
                    "kind": entry.kind,
                    "bytes": entry.size_bytes,
                },
                separators=(",", ":"), sort_keys=True,
            ))
        return "\n".join(lines) + ("\n" if lines else "")

    @staticmethod
    def parse_jsonl(text: str) -> list:
        """Inverse of :meth:`to_jsonl` (returns MessageLogEntry objects)."""
        entries = []
        for line in text.splitlines():
            if not line.strip():
                continue
            raw = json.loads(line)
            entries.append(MessageLogEntry(
                sender=raw["sender"],
                sender_role=raw["sender_role"],
                recipient=raw["recipient"],
                recipient_role=raw["recipient_role"],
                kind=raw["kind"],
                size_bytes=int(raw["bytes"]),
            ))
        return entries
