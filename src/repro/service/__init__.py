"""A real networked deployment of the paper's cloud-storage framework.

This package runs the cloud-server role on an actual asyncio TCP socket
with a persistent content-addressed record store, and provides client
wrappers for the owner / user / authority roles that drive the
upload → read → revoke → re-encrypt lifecycle over the wire
(:class:`repro.system.workflow.CloudStorageSystem` runs the whole
Fig. 1 deployment over one in-process server):

* :mod:`repro.service.protocol` — length-prefixed framed wire protocol
  (version-negotiating hello, typed error frames); message bodies reuse
  the byte formats of :mod:`repro.core.serialize`,
  :mod:`repro.core.ciphertext` and :mod:`repro.system.records`.
* :mod:`repro.service.store` — SHA-256-keyed blob store with two-level
  sharded directories, atomic tmp-file-then-rename writes and a bounded
  LRU read cache, plus the record/ciphertext index on top of it.
* :mod:`repro.service.server` — the asyncio server hosting the paper's
  server role (Fig. 1): store/fetch records, serve public keys, proxy
  ReEncrypt (Section V-C), per-connection timeouts, graceful shutdown.
* :mod:`repro.service.client` — ``OwnerClient`` / ``UserClient`` /
  ``AuthorityClient`` wrappers over one connection each.
* :mod:`repro.service.retry` — ``RetryPolicy`` (exponential backoff +
  jitter), ``RetryLog``, and the server-side ``IdempotencyTable`` that
  makes retried mutations apply exactly once.
* :mod:`repro.service.faults` — ``ChaosProxy``, a deterministic seeded
  fault injector (drops, delays, corruption, truncation, duplication)
  for reproducing every failure mode in tests.

Every payload-bearing frame is metered through a
:class:`repro.system.meter.Meter` on each end, so Table IV
communication costs are measured on real traffic.
"""

from repro.service.client import (
    AuthorityClient,
    OwnerClient,
    ServiceConnection,
    UserClient,
)
from repro.service.faults import ChaosProxy, FaultSpec
from repro.service.retry import IdempotencyTable, RetryLog, RetryPolicy
from repro.service.server import StorageService
from repro.service.store import BlobStore, RecordStore

__all__ = [
    "AuthorityClient",
    "BlobStore",
    "ChaosProxy",
    "FaultSpec",
    "IdempotencyTable",
    "OwnerClient",
    "RecordStore",
    "RetryLog",
    "RetryPolicy",
    "ServiceConnection",
    "StorageService",
    "UserClient",
]
