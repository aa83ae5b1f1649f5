"""The cloud-storage deployment (Fig. 1) with role-pair byte metering."""

from repro.system.audit import AuditLog, TrafficSummary
from repro.system.meter import (
    ROLE_AA,
    ROLE_CA,
    ROLE_OWNER,
    ROLE_SERVER,
    ROLE_USER,
    Meter,
)
from repro.system.records import StoredComponent, StoredRecord
from repro.system.sizes import measure

__all__ = [
    "CloudStorageSystem",
    "AuditLog",
    "TrafficSummary",
    "Meter",
    "StoredRecord",
    "StoredComponent",
    "measure",
    "ROLE_CA",
    "ROLE_AA",
    "ROLE_OWNER",
    "ROLE_USER",
    "ROLE_SERVER",
]


def __getattr__(name):
    # CloudStorageSystem runs over repro.service, which imports this
    # package's meter and records: import it on first use, not here.
    if name == "CloudStorageSystem":
        from repro.system.workflow import CloudStorageSystem

        return CloudStorageSystem
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
