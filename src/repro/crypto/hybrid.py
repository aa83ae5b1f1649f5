"""The KEM/DEM glue: GT session element → content key → sealed payload.

Both deployments (the reproduced scheme's and the Lewko baseline's)
store data as ``(ABE-encrypted session, sealed body)``; this module owns
the two steps every reader/writer shares so the derivation logic exists
exactly once:

* ``seal(session, context, plaintext)`` — derive the content key from
  the serialized session element bound to ``context`` (the ciphertext
  id) and produce the authenticated body;
* ``open(session, context, body)`` — the reverse; raises
  :class:`repro.errors.IntegrityError` on any mismatch, which is also
  what a wrong session element (wrong ABE decryption) produces.
"""

from __future__ import annotations

from repro.crypto import symmetric
from repro.crypto.kdf import derive_content_key
from repro.pairing.group import GTElement


def content_key_for(session: GTElement, context: str) -> bytes:
    """The symmetric content key for one (session, ciphertext id) pair."""
    return derive_content_key(
        session.to_bytes(), context=context.encode("utf-8")
    )


def seal(session: GTElement, context: str,
         plaintext: bytes) -> symmetric.SymmetricCiphertext:
    """Encrypt one data component under a session element."""
    return symmetric.encrypt(content_key_for(session, context), plaintext)


def encrypt_with_session(encryption_session, ciphertext_id: str,
                         plaintext: bytes) -> tuple:
    """The full KEM/DEM write path through one encryption session.

    Draws a fresh GT session element, ABE-encrypts it via the
    per-policy :class:`repro.fastpath.session.EncryptionSession` (no
    re-parse, no per-call LSSS conversion — the historical hybrid path
    re-parsed the policy string on every component), and seals the
    plaintext under the derived content key. Returns
    ``(abe_ciphertext, sealed_body)``.
    """
    session_element = encryption_session.group.random_gt()
    abe_ciphertext = encryption_session.encrypt(
        session_element, ciphertext_id=ciphertext_id
    )
    return abe_ciphertext, seal(session_element, ciphertext_id, plaintext)


def open_sealed(session: GTElement, context: str,
                body: symmetric.SymmetricCiphertext) -> bytes:
    """Decrypt one data component; IntegrityError on any mismatch."""
    return symmetric.decrypt(content_key_for(session, context), body)


def decrypt_with_session(decryption_session, abe_ciphertext,
                         body: symmetric.SymmetricCiphertext) -> bytes:
    """The full KEM/DEM read path through one decryption session.

    The read-side mirror of :func:`encrypt_with_session`: recover the
    GT session element via a per-policy-shape
    :class:`repro.fastpath.decrypt.DecryptionSession` (no re-parse, no
    per-call coefficient solve, prepared Miller loops — the historical
    hybrid read path re-derived all of that on every component), then
    open the sealed body under the derived content key.
    """
    session_element = decryption_session.decrypt(abe_ciphertext)
    return open_sealed(
        session_element, abe_ciphertext.ciphertext_id, body
    )

