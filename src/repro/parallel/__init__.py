"""Process-pool execution engine for pairing-heavy bulk operations.

The paper's revocation story (Section V-C) makes the cloud server do the
heavy lifting: one attribute revocation re-encrypts *every* ciphertext
involving the authority. :mod:`repro.parallel` turns that from a
one-at-a-time loop into a batch engine:

* :class:`repro.parallel.pool.CryptoPool` — a thin
  ``ProcessPoolExecutor`` wrapper whose size-0 configuration runs
  inline (same code path, no processes), so callers write one code path
  and tests can pin determinism;
* :mod:`repro.parallel.batch` — batch ReEncrypt with amortized pairing,
  the worker of the service's revocation sweep: the Miller lines of
  each owner's fixed ``UK1`` are prepared once and replayed across all
  of that owner's ciphertexts, final exponentiations share one modular
  inversion, and wire-sourced update information is subgroup-checked
  point by point inside the workers.

Workers never receive pickled precomputation tables: a
:class:`repro.pairing.group.PairingGroup` pickles as its parameter
integers and is rebuilt (once, cached) per process.
"""

from repro.parallel.batch import ReencryptOutcome
from repro.parallel.fanout import gather_bounded
from repro.parallel.pool import CryptoPool, chunked

__all__ = [
    "CryptoPool",
    "ReencryptOutcome",
    "chunked",
    "gather_bounded",
]
