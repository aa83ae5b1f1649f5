"""repro — reproduction of Yang & Jia (ICDCS 2012).

Multi-authority ciphertext-policy attribute-based encryption (CP-ABE)
access control for cloud storage, with efficient server-side attribute
revocation, plus the baselines and the cloud-storage substrate the
paper's evaluation depends on.

Public entry points:

* :mod:`repro.pairing` — bilinear pairing groups (type-A curves).
* :mod:`repro.policy` — access-policy language and LSSS machinery.
* :mod:`repro.core` — the paper's multi-authority access-control scheme.
* :mod:`repro.baselines` — Lewko-Waters, BSW, and Hur-Noh comparators.
* :mod:`repro.system` — the cloud-storage deployment (Fig. 1).
* :mod:`repro.analysis` — cost models regenerating Tables I-IV.
"""

__version__ = "1.0.0"
