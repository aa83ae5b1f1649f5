"""Encryption/decryption/keygen session engine (online/offline split).

``repro.fastpath`` amortizes the per-attribute exponentiation cost that
dominates the paper's Figs. 3–4 across the many calls a cloud-storage
deployment actually makes:

* :class:`EncryptionSession` — one per (policy, authority-key-version)
  pair; caches the parsed AST/LSSS matrix and all fixed-base material,
  precomputes message-independent ciphertext skeletons offline, and
  reduces the online Encrypt to one GT multiplication;
* :class:`DecryptionSession` — one per (user key bundle, policy shape)
  pair; caches the LSSS reconstruction coefficients, the combined key
  products, and the Miller-loop line coefficients of every fixed
  pairing argument, then batch-decrypts N ciphertexts behind one
  shared final exponentiation — byte-identical to cold decryption;
* :class:`KeyGenSession` — one per (owner, attribute-set, key-version)
  triple at an AA; shared-NAF-chain batch exponentiation makes bulk
  user onboarding ~2.5× cheaper while issuing byte-identical keys.

All are version-snapshotted: the instant revocation rolls a key version
forward, a stale session refuses to operate (typed errors, never wrong
plaintext), and the caching entry points
(:meth:`repro.core.owner.DataOwner.session_for`,
:meth:`repro.core.authority.AttributeAuthority.keygen_session`,
:meth:`repro.core.wallet.UserWallet.decryption_session_for`)
transparently rebuild against the new version.
"""

from repro.fastpath.decrypt import DecryptionSession
from repro.fastpath.keygen import KeyGenSession, issue_joint
from repro.fastpath.session import DEFAULT_POOL_TARGET, EncryptionSession, OfflineBundle

__all__ = [
    "DEFAULT_POOL_TARGET",
    "DecryptionSession",
    "EncryptionSession",
    "KeyGenSession",
    "OfflineBundle",
    "issue_joint",
]
