"""Per-(user, policy) decryption sessions — the one fast form of Eq. (1).

The paper-literal :func:`repro.core.decrypt.decrypt` pays ``n_A + 2l``
pairings per ciphertext and is kept as the reference the cost model and
Figs. 3(b)/4(b) measure. Every other decryption — cold reads, session
batches, and the server's outsourced transform — runs through
:class:`DecryptionSession`, which splits the work the way
:class:`repro.fastpath.session.EncryptionSession` does for Encrypt:

* **setup (once per (user keys, policy shape))** — validate the key
  bundle, solve the LSSS reconstruction ``{w_i}`` once, fix the
  per-row exponents ``w_i·n_A``, fold the numerator key product
  ``∏_k K_{UID,AID_k}`` and the combined attribute key
  ``∏ K_{ρ(i)}^{w_i·n_A}`` — then MERGE the two key-side pairing
  arguments (both paired against the varying ``C'``) into one point by
  bilinearity, and cache :class:`~repro.pairing.prepared.
  PreparedPairing` line coefficients for the two pairing arguments
  that never change across ciphertexts (the pairing is symmetric, so
  the *varying* arguments — ``C'`` and the combined row point — ride
  the cached chains as second arguments);
* **per ciphertext** — one multi-exponentiation over the used rows and
  one *joint* replay of the two cached chains (they share the bit
  schedule of ``r``, so the accumulator is squared once per step for
  both), no fresh line-coefficient chains;
* **batch** — :func:`blinding_factors` validates every ciphertext of a
  batch (sessions of mixed policy shapes included), then reduces all
  their raw Miller products through ONE
  :func:`repro.pairing.miller.final_exponentiation_many` call, sharing
  a single modular inversion. :meth:`DecryptionSession.decrypt_many`
  and :func:`repro.core.outsourcing.server_transform_many` are both
  thin wrappers over it.

A cold read is a one-shot session: build, decrypt, drop.

Outputs are byte-identical to the paper-literal path: the session's
raw Miller product differs from Eq. (1)'s only by a factor the final
exponentiation annihilates (the reduced pairing is bilinear), and the
batched final exponentiation is bit-identical per entry to the
per-value reduction (modular inverses are unique).

**Revocation safety**: the session snapshots every secret key's version
at setup and re-runs the paper path's eager validation per ciphertext —
a ciphertext re-encrypted past the session's key versions raises the
same typed :class:`~repro.errors.SchemeError` :func:`~repro.core.decrypt.
decrypt` raises (REJECTED, never silently-wrong plaintext), and
:meth:`DecryptionSession.matches` lets callers drop cached sessions the
moment an update key rolls any underlying secret key forward.
"""

from __future__ import annotations

from repro.core.attributes import authority_of
from repro.core.ciphertext import Ciphertext
from repro.core.decrypt import _validate_inputs
from repro.core.keys import UserPublicKey
from repro.errors import SchemeError
from repro.pairing.group import GTElement, PairingGroup
from repro.pairing.miller import final_exponentiation_many


class DecryptionSession:
    """Amortized Decrypt for one (user key bundle, policy shape) pair.

    Build from any ciphertext of the target policy class::

        session = DecryptionSession(group, ciphertext, public_key, keys)
        message = session.decrypt(ciphertext)          # one ciphertext
        messages = session.decrypt_many(ciphertexts)   # shared final exp

    ``secret_keys`` maps AID → :class:`~repro.core.keys.UserSecretKey`;
    as with the paper path, one key per involved authority is required
    and the bundle must satisfy the policy
    (:class:`~repro.errors.PolicyNotSatisfiedError` at setup otherwise).
    """

    def __init__(self, group: PairingGroup, ciphertext: Ciphertext,
                 user_public_key: UserPublicKey, secret_keys: dict, *,
                 meter=None):
        _validate_inputs(ciphertext, user_public_key, secret_keys)
        self.group = group
        self.user_public_key = user_public_key
        self.secret_keys = dict(secret_keys)
        self.owner_id = ciphertext.owner_id
        self.matrix = ciphertext.matrix
        self.involved_aids = ciphertext.involved_aids
        #: aid -> secret key version this session was built against.
        self.versions = {
            aid: secret_keys[aid].version for aid in ciphertext.involved_aids
        }
        self.meter = meter
        order = group.order
        held = set()
        for aid in ciphertext.involved_aids:
            held |= set(secret_keys[aid].attribute_keys)
        coefficients = self.matrix.reconstruction_coefficients(held, order)
        n_involved = len(ciphertext.involved_aids)
        # By bilinearity Eq. (1)'s denominator collapses to
        # e(∏C_i^{w_i·n_A}, PK_UID) · e(C', ∏K_ρ(i)^{w_i·n_A}); the row
        # set and exponents are fixed for the session's life.
        used = sorted(coefficients.items())
        self._row_indices = tuple(index for index, _ in used)
        self._exponents = tuple(w * n_involved % order for _, w in used)
        k_product = group.identity_g1()
        for aid in ciphertext.involved_aids:
            k_product = k_product * secret_keys[aid].k
        key_combined = group.multiexp_g1(
            [
                secret_keys[authority_of(self.matrix.row_labels[index])]
                .attribute_keys[self.matrix.row_labels[index]]
                for index, _ in used
            ],
            list(self._exponents),
        )
        # The numerator e(∏K_k, C') and the key half of the denominator
        # share the varying argument C', so both fixed sides fold into
        # ONE prepared Miller chain: e(∏K_k · (∏K_ρ(i)^{w_i·n_A})^{-1}, C').
        # The per-ciphertext arguments (C', combined row point) replay
        # the cached chains by pairing symmetry.
        self._prepared_keys = group.prepare_pairing(
            k_product * key_combined.inverse()
        )
        self._prepared_pk = group.prepare_pairing(user_public_key.element)
        self.stats = {"decrypted": 0, "batches": 0}

    # -- freshness ---------------------------------------------------------

    def matches(self, user_public_key: UserPublicKey,
                secret_keys: dict) -> bool:
        """True iff a live key bundle is the one this session embeds.

        Used by session caches: an update key rolls a secret key's
        version forward (a *new* key object), so a session built before
        the roll stops matching and must be rebuilt — it can never
        silently decrypt with superseded key material.
        """
        if user_public_key is None or (
            user_public_key is not self.user_public_key
            and user_public_key.uid != self.user_public_key.uid
        ):
            return False
        for aid, key in self.secret_keys.items():
            live = secret_keys.get(aid)
            if live is None:
                return False
            if live is not key and live.version != key.version:
                return False
        return True

    def _check(self, ciphertext: Ciphertext) -> None:
        """Refuse a ciphertext of another owner, another policy shape,
        or another key epoch (the paper path's typed errors)."""
        if ciphertext.owner_id != self.owner_id:
            raise SchemeError(
                f"decryption session is scoped to owner {self.owner_id!r}; "
                f"the ciphertext was produced by {ciphertext.owner_id!r}"
            )
        matrix = ciphertext.matrix
        if matrix is not self.matrix and (
            matrix.rows != self.matrix.rows
            or matrix.row_labels != self.matrix.row_labels
        ):
            raise SchemeError(
                "ciphertext policy differs from this session's; build one "
                "session per policy shape"
            )
        _validate_inputs(ciphertext, self.user_public_key, self.secret_keys)

    # -- decryption --------------------------------------------------------

    def _miller_raw(self, ciphertext: Ciphertext):
        """The raw Miller product of one ciphertext's blinding: the
        session's two prepared chains, replayed jointly against ``C'``
        and the inverted combined row point."""
        group = self.group
        c_combined = group.multiexp_g1(
            [ciphertext.c_rows[index] for index in self._row_indices],
            list(self._exponents),
        )
        group.counter.pairings += 2
        return self._prepared_keys.miller(
            ciphertext.c_prime.point,
            (self._prepared_pk, c_combined.inverse().point),
        )

    def decrypt_many(self, ciphertexts) -> list:
        """Decrypt N ciphertexts with one shared final exponentiation.

        Each ciphertext is validated exactly like the paper path (stale
        versions raise its :class:`SchemeError`), and each recovered
        message is byte-identical to :func:`repro.core.decrypt.decrypt`
        of the same ciphertext.
        """
        ciphertexts = list(ciphertexts)
        blindings = blinding_factors(
            self.group, [(self, ciphertext) for ciphertext in ciphertexts]
        )
        self.stats["decrypted"] += len(ciphertexts)
        self.stats["batches"] += 1
        if self.meter is not None:
            self.meter.bump("decrypt.session.decrypt", len(ciphertexts))
            self.meter.bump("decrypt.session.batch")
        return [
            ciphertext.c / blinding
            for ciphertext, blinding in zip(ciphertexts, blindings)
        ]

    def decrypt(self, ciphertext: Ciphertext) -> GTElement:
        """Recover one GT message (byte-identical to ``decrypt``)."""
        return self.decrypt_many([ciphertext])[0]

    def __repr__(self) -> str:
        return (
            f"DecryptionSession(uid={self.user_public_key.uid!r}, "
            f"owner={self.owner_id!r}, rows={len(self._row_indices)}, "
            f"decrypted={self.stats['decrypted']})"
        )


def blinding_factors(group: PairingGroup, jobs) -> list:
    """Eq. (1) blinding factors of ``(session, ciphertext)`` jobs.

    Every ciphertext is checked against its session before any Miller
    replay runs, so one stale or foreign ciphertext raises its typed
    :class:`SchemeError` with no pairing work spent. The jobs may mix
    sessions (policy shapes); all raw Miller products then share ONE
    :func:`final_exponentiation_many` call.
    """
    jobs = list(jobs)
    for session, ciphertext in jobs:
        session._check(ciphertext)
    raws = [session._miller_raw(ciphertext) for session, ciphertext in jobs]
    return [
        GTElement(group, value)
        for value in final_exponentiation_many(group.ext, raws, group.order)
    ]
