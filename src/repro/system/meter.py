"""Role-pair byte metering for the service and the system around it.

The paper's communication-cost analysis (Table IV) counts the bytes that
travel between role pairs — AA↔User, AA↔Owner, Server↔User,
Server↔Owner. :class:`Meter` is the accounting object: every client
connection (:mod:`repro.service.client`) records the payloads it sends
and receives through one, the server (:mod:`repro.service.server`)
records the same payloads on receipt and reply through its own, and
:class:`repro.system.workflow.CloudStorageSystem` records the transfers
that never touch the server (CA/AA → user, AA ↔ owner) on its clients'
meter — so both ends of the socket tell the same Table IV story.

Payloads are measured with :mod:`repro.system.sizes`, i.e. in the
group-element byte units of Tables II–IV, not in raw frame bytes (frame
headers are transport bookkeeping, tracked separately as
``wire_bytes``).
"""

from __future__ import annotations

import threading
from collections import defaultdict
from dataclasses import dataclass

from repro.pairing.group import PairingGroup
from repro.system.sizes import measure

# Canonical role names used by the Table IV aggregation.
ROLE_CA = "ca"
ROLE_AA = "aa"
ROLE_OWNER = "owner"
ROLE_USER = "user"
ROLE_SERVER = "server"


@dataclass(frozen=True)
class MessageLogEntry:
    """One recorded transfer."""

    sender: str
    sender_role: str
    recipient: str
    recipient_role: str
    kind: str
    size_bytes: int


@dataclass
class ChannelStats:
    """Aggregate traffic between one (unordered) pair of roles."""

    messages: int = 0
    bytes: int = 0

    def add(self, size: int) -> None:
        self.messages += 1
        self.bytes += size


def role_pair(role_a: str, role_b: str) -> tuple:
    """Unordered, canonical key for a role pair (AA↔User == User↔AA)."""
    return tuple(sorted((role_a, role_b)))


class Meter:
    """Append-only transfer log plus per-role-pair aggregates.

    Thread-safe: the service records transfers from the event loop, its
    offload thread, and benchmark harnesses concurrently, so every
    counter update (and every snapshot read) happens under one lock —
    ``log.append`` alone is atomic in CPython, but the log/channel/
    wire-byte triple must move together or aggregates drift from the
    log under contention.
    """

    def __init__(self, group: PairingGroup):
        self.group = group
        self.log = []
        self.channels = defaultdict(ChannelStats)
        self.wire_bytes = 0  # raw frame bytes (frame headers included)
        self.counters = defaultdict(int)  # named event tallies (bump)
        self._lock = threading.Lock()

    def bump(self, name: str, n: int = 1) -> None:
        """Count one named event (cache hits, pool refills, …).

        The byte channels above model the paper's Table IV; these
        free-form counters carry implementation telemetry — e.g. the
        policy layer's ``lsss-cache-hit``/``lsss-cache-miss`` — through
        the same thread-safe object the stats endpoints already expose.
        """
        with self._lock:
            self.counters[name] += n

    def counter(self, name: str) -> int:
        with self._lock:
            # .get, not [] — reading must not materialize a zero entry
            # in the defaultdict (keeps counter_summary() clean).
            return self.counters.get(name, 0)

    def counter_summary(self, prefix: str = None) -> dict:
        """Every named counter — or, with ``prefix``, just the ones
        under it (the cluster client names its per-node shard and
        replication counters ``cluster.<event>.<node>``, so
        ``counter_summary("cluster.")`` is the fleet's shard/replication
        story in one call)."""
        with self._lock:
            if prefix is None:
                return dict(self.counters)
            return {name: count for name, count in self.counters.items()
                    if name.startswith(prefix)}

    def record(self, sender: str, sender_role: str, recipient: str,
               recipient_role: str, kind: str, payload) -> int:
        """Measure one payload transfer and fold it into the counters.

        Returns the measured size so callers can reuse it.
        """
        return self.record_sized(sender, sender_role, recipient,
                                 recipient_role, kind,
                                 measure(payload, self.group))

    def record_sized(self, sender: str, sender_role: str, recipient: str,
                     recipient_role: str, kind: str, size: int) -> int:
        """Fold an already-measured transfer into the counters.

        For callers that know a payload's Table II size without holding
        the decoded object (the sweep meters update information from
        encoding headers; its elements only ever decode inside workers).
        """
        entry = MessageLogEntry(
            sender=sender,
            sender_role=sender_role,
            recipient=recipient,
            recipient_role=recipient_role,
            kind=kind,
            size_bytes=size,
        )
        with self._lock:
            self.log.append(entry)
            self.channels[role_pair(sender_role, recipient_role)].add(size)
        return size

    def record_wire(self, n_bytes: int) -> None:
        """Count raw transport bytes (frame headers included)."""
        with self._lock:
            self.wire_bytes += n_bytes

    # -- reporting -------------------------------------------------------------

    def bytes_between(self, role_a: str, role_b: str) -> int:
        with self._lock:
            return self.channels[role_pair(role_a, role_b)].bytes

    def messages_between(self, role_a: str, role_b: str) -> int:
        with self._lock:
            return self.channels[role_pair(role_a, role_b)].messages

    def bytes_by_kind(self) -> dict:
        totals = defaultdict(int)
        with self._lock:
            for entry in self.log:
                totals[entry.kind] += entry.size_bytes
        return dict(totals)

    def total_bytes(self) -> int:
        with self._lock:
            return sum(entry.size_bytes for entry in self.log)

    def channel_summary(self) -> dict:
        """JSON-friendly dump: ``"a<->b" -> {"messages": n, "bytes": n}``."""
        with self._lock:
            return {
                "<->".join(pair): {"messages": stats.messages,
                                   "bytes": stats.bytes}
                for pair, stats in sorted(self.channels.items())
            }

    def reset(self) -> None:
        """Clear counters (e.g. after setup, before the measured phase)."""
        with self._lock:
            self.log.clear()
            self.channels.clear()
            self.wire_bytes = 0
            self.counters.clear()


class LatencyRecorder:
    """A thread-safe sample sink with exact percentile readout.

    The adversarial harness uses one per traffic class (honest pings
    vs. spam uploads) to render graceful-degradation invariants —
    "honest p99 stays under the bound while the flood runs" — as
    machine-checkable numbers. Exact nearest-rank percentiles over the
    full sample set: scenario sample counts are small (hundreds), so
    there is no need for the usual streaming sketches.
    """

    def __init__(self, name: str = ""):
        self.name = name
        self._samples = []
        self._lock = threading.Lock()

    def record(self, seconds: float) -> None:
        with self._lock:
            self._samples.append(float(seconds))

    def __len__(self) -> int:
        with self._lock:
            return len(self._samples)

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile (``q`` in [0, 100]) of the samples."""
        with self._lock:
            if not self._samples:
                raise ValueError(f"no samples recorded ({self.name!r})")
            ordered = sorted(self._samples)
        rank = max(1, -(-len(ordered) * q // 100))  # ceil without math
        return ordered[min(len(ordered), int(rank)) - 1]

    def summary(self) -> dict:
        with self._lock:
            samples = sorted(self._samples)
        if not samples:
            return {"name": self.name, "count": 0}
        return {
            "name": self.name,
            "count": len(samples),
            "min": samples[0],
            "max": samples[-1],
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }
