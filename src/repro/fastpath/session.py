"""Per-policy encryption sessions with an online/offline split.

A cloud-storage owner encrypts *many* data items under the *same*
policy (one policy per record class, thousands of records), yet the
cold :meth:`repro.core.owner.DataOwner.encrypt` re-derives everything —
parse, LSSS conversion, authority lookups, blinding product — per call,
and pays every `s`-dependent exponentiation on the critical path.

:class:`EncryptionSession` splits the work the way the online/offline
ABE literature does:

* **setup (once per policy × key-version)** — parse + LSSS matrix
  (memoized in :mod:`repro.policy.lsss`), the row→attribute public-key
  resolution, the ``∏ e(g,g)^{α_k}`` blinding product with its GT
  fixed-base table, and fixed-base tables for ``g`` and every involved
  ``PK_x``;
* **offline (per future ciphertext, message-independent)** — draw the
  share vector, compute ``C' = g^{βs}``, every LSSS row
  ``C_i = g^{r·λ_i}·PK_{ρ(i)}^{-βs}`` and the blinding power
  ``(∏ e(g,g)^{α_k})^s``, bundled into an :class:`OfflineBundle` pool;
* **online (per message)** — ONE GT multiplication
  ``C = m · blinding^s`` plus ledger bookkeeping.

In this scheme the *entire* ciphertext skeleton is message-independent,
so the online phase is constant-time in the policy size — the whole
Fig. 3/4 per-attribute cost moves off the request path.

Bundles can be refilled in the background on a
:class:`repro.parallel.pool.CryptoPool`; the session draws every scalar
from the owner's (seeded) group RNG up front and ships only the
deterministic group arithmetic to workers, so inline and pooled refills
produce bit-identical bundles.

**Revocation safety**: the session snapshots each involved authority's
key version at setup. Every :meth:`EncryptionSession.encrypt` re-checks
the snapshot against the owner's live key cache and raises
:class:`repro.errors.RevocationError` the moment any authority has
rolled forward — a stale session can never emit a ciphertext under a
revoked key version. :meth:`repro.core.owner.DataOwner.session_for`
keys its session cache the same way and transparently rebuilds.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.core.ciphertext import Ciphertext
from repro.ec.batch_affine import batch_table_walks
from repro.ec.fixed_base import FixedBaseTable
from repro.errors import RevocationError
from repro.pairing.group import G1Element, GTElement, PairingGroup
from repro.policy.lsss import LsssMatrix, lsss_from_policy

#: Default number of bundles a refill tops the pool up to.
DEFAULT_POOL_TARGET = 16


@dataclass(frozen=True)
class OfflineBundle:
    """One precomputed, message-independent ciphertext skeleton."""

    s: int                 # the encryption exponent
    c_blind: GTElement     # (∏_k e(g,g)^{α_k})^s — C = m · c_blind
    c_prime: G1Element     # g^{βs}
    rows: tuple            # C_i per LSSS row, in row order


def _bundle_job(group: PairingGroup, blinding: GTElement,
                pk_elements: tuple, matrix_rows: tuple,
                beta: int, r_exp: int, scalars: tuple) -> OfflineBundle:
    """Compute one offline bundle from a pre-drawn scalar vector.

    Module-level (picklable by reference) and deterministic in its
    arguments, so inline and :class:`CryptoPool` worker execution give
    bit-identical bundles — the randomness is drawn by the session
    before dispatch, never inside a worker.
    """
    order = group.order
    vector = [value % order for value in scalars]
    s = vector[0]
    shares = [
        sum(m * v for m, v in zip(row, vector)) % order
        for row in matrix_rows
    ]
    c_blind = blinding ** s
    beta_s = beta * s % order
    neg_beta_s = -beta_s % order
    c_prime = group.g ** beta_s
    rows = tuple(
        group.multiexp_g1(
            (group.g, pk_x), (r_exp * lam % order, neg_beta_s)
        )
        for pk_x, lam in zip(pk_elements, shares)
    )
    return OfflineBundle(s=s, c_blind=c_blind, c_prime=c_prime, rows=rows)


class EncryptionSession:
    """Amortized Encrypt for one (policy, authority-key-version) pair.

    Create via :meth:`repro.core.owner.DataOwner.session_for` (which
    caches and invalidates sessions) or directly::

        session = EncryptionSession(owner, "a:x AND b:y")
        session.refill(32)                  # offline, off the request path
        ct = session.encrypt(message)       # online: one GT multiplication

    The session holds no secrets beyond what the owner already holds;
    bundles embed ``s``-dependent elements only, never ``β`` or ``r``.
    """

    def __init__(self, owner, policy, *, threshold_method: str = "expand",
                 require_injective_rho: bool = True, pool=None,
                 matrix: LsssMatrix = None):
        self.owner = owner
        self.group: PairingGroup = owner.group
        self.pool = pool
        if matrix is None:
            matrix = lsss_from_policy(policy, threshold_method=threshold_method)
        involved = owner.encryption_authorities(matrix, require_injective_rho)
        self.matrix = matrix
        self.involved = involved
        #: aid -> authority key version this session was built against.
        self.versions = {
            aid: owner.authority_version(aid) for aid in involved
        }
        # Setup-phase precomputation: blinding product (+ its GT table),
        # generator table, and one fixed-base table per row base.
        self.blinding = owner.authority_blinding(involved)
        self.group.generator_table()
        pk_elements = []
        for label in matrix.row_labels:
            pk_x = owner.public_attribute_key(label)
            self.group.register_g1_base(pk_x)
            pk_elements.append(pk_x)
        self._pk_elements = tuple(pk_elements)
        #: Window-8 generator table, composed lazily from the group's
        #: window-4 table on the first batch refill (offline-phase
        #: work, amortized across every later refill). The generator
        #: backs 11 of the 21 walks per bundle (C' plus every row's
        #: ``g^{r·λ_i}`` leg), so halving its digit count pays for the
        #: one-inversion build within a fraction of one refill.
        self._g_table_wide = None
        self._bundles = deque()
        self._pending = []   # in-flight futures from refill_background
        self.stats = {"offline": 0, "online": 0, "pool_misses": 0}

    # -- freshness ---------------------------------------------------------

    def is_current(self) -> bool:
        """True iff no involved authority has rolled its key version."""
        try:
            return all(
                self.owner.authority_version(aid) == version
                for aid, version in self.versions.items()
            )
        except RevocationError:
            return False

    def _check_current(self) -> None:
        for aid, version in self.versions.items():
            live = self.owner.authority_version(aid)
            if live != version:
                raise RevocationError(
                    f"encryption session is stale: authority {aid!r} rolled "
                    f"from version {version} to {live}; create a fresh "
                    f"session (DataOwner.session_for does this transparently)"
                )

    # -- offline phase -----------------------------------------------------

    def _draw_scalars(self) -> tuple:
        """``(s, y_2, …, y_n)`` — the LSSS share vector for one bundle.

        ``s`` is nonzero (matching ``random_scalar``); the padding
        coordinates come from one batched RNG call.
        """
        group = self.group
        s = group.random_scalar()
        ys = group.random_scalars(self.matrix.n_cols - 1, nonzero=False)
        return tuple([s] + ys)

    def _job_args(self) -> tuple:
        return (
            self.group, self.blinding, self._pk_elements,
            self.matrix.rows, self.owner.master_key.beta,
            self.owner.master_key.r_exp, self._draw_scalars(),
        )

    def refill(self, count: int = DEFAULT_POOL_TARGET) -> int:
        """Top the offline pool up to ``count`` bundles, inline.

        Multi-bundle refills run as ONE shared-randomness batch build:
        every fixed-base table walk of the whole refill (each bundle's
        ``C'`` plus a two-leg walk per LSSS row) advances
        level-synchronized through
        :func:`repro.ec.batch_affine.batch_table_walks`, replacing
        ~11M Jacobian mixed additions with ~7M batched affine ones;
        generator legs ride the session's lazily-built window-8 table
        (:meth:`repro.ec.fixed_base.FixedBaseTable.doubled_window`).
        Scalars are drawn in the exact per-bundle order of
        :func:`_bundle_job`, and the affine group sums are the same
        points, so the bundles — and the ciphertexts built from them —
        are bit-identical to the sequential path.

        Returns the number of bundles computed. Raises
        :class:`RevocationError` instead of precomputing under a stale
        key version.
        """
        self._check_current()
        self._harvest()
        need = count - len(self._bundles) - len(self._pending)
        if need <= 0:
            return 0
        batch = self._refill_batch(need)
        if batch is None:  # a row base lost its table (cache eviction)
            computed = 0
            while len(self._bundles) + len(self._pending) < count:
                self._bundles.append(_bundle_job(*self._job_args()))
                computed += 1
            self.stats["offline"] += computed
            return computed
        self._bundles.extend(batch)
        self.stats["offline"] += need
        return need

    def _refill_batch(self, count: int):
        """``count`` bundles via one level-synchronized batch build.

        Returns ``None`` when a row base has no fixed-base table (the
        group's bounded table cache evicted it), in which case the
        caller falls back to per-bundle jobs.
        """
        group = self.group
        g_table = self._g_table_wide
        if g_table is None:
            g_table = FixedBaseTable.doubled_window(group.generator_table())
            self._g_table_wide = g_table
        pk_tables = [
            group._g1_table_for(pk.point) for pk in self._pk_elements
        ]
        if any(table is None for table in pk_tables):
            return None
        order = group.order
        matrix_rows = self.matrix.rows
        n_rows = len(matrix_rows)
        beta = self.owner.master_key.beta
        r_exp = self.owner.master_key.r_exp
        # All randomness first, in _bundle_job's per-bundle draw order.
        drawn = [self._draw_scalars() for _ in range(count)]
        walks = []
        meta = []
        for scalars in drawn:
            vector = [value % order for value in scalars]
            s = vector[0]
            shares = [
                sum(m * v for m, v in zip(row, vector)) % order
                for row in matrix_rows
            ]
            beta_s = beta * s % order
            neg_beta_s = -beta_s % order
            walks.append(((g_table, beta_s),))  # C'
            for pk_table, lam in zip(pk_tables, shares):
                walks.append((
                    (g_table, r_exp * lam % order),
                    (pk_table, neg_beta_s),
                ))
            meta.append((s, shares))
        points = batch_table_walks(group.curve, walks)
        # Mirror the sequential path's counters: one g^x per C' plus a
        # 2-element multiexp per row (multiexp counts its input size).
        group.counter.g1_exponentiations += count * (1 + 2 * n_rows)
        bundles = []
        index = 0
        for s, shares in meta:
            c_blind = self.blinding ** s  # counts the GT exponentiation
            c_prime = G1Element(group, points[index])
            index += 1
            rows = tuple(
                G1Element(group, points[index + offset])
                for offset in range(n_rows)
            )
            index += n_rows
            bundles.append(OfflineBundle(
                s=s, c_blind=c_blind, c_prime=c_prime, rows=rows,
            ))
        return bundles

    def refill_background(self, count: int = DEFAULT_POOL_TARGET) -> int:
        """Top the pool up to ``count`` bundles on the crypto pool.

        With no pool (or an inline ``workers=0`` pool) this is
        :meth:`refill`; otherwise bundle jobs are submitted to the
        pool's executor and harvested lazily by later
        :meth:`encrypt`/:meth:`refill` calls, so refills overlap the
        caller's I/O. Returns the number of bundles scheduled.
        """
        if self.pool is None or self.pool.inline:
            return self.refill(count)
        self._check_current()
        self._harvest()
        scheduled = 0
        while len(self._bundles) + len(self._pending) < count:
            self._pending.append(
                self.pool.executor.submit(_bundle_job, *self._job_args())
            )
            scheduled += 1
        self.stats["offline"] += scheduled
        return scheduled

    def _harvest(self, need_one: bool = False) -> None:
        """Fold completed background bundles into the ready pool."""
        if not self._pending:
            return
        if need_one and not self._bundles:
            # Block on the oldest in-flight bundle rather than paying
            # a full inline recompute while one is nearly done.
            self._bundles.append(self._pending.pop(0).result())
        still_pending = []
        for future in self._pending:
            if future.done():
                self._bundles.append(future.result())
            else:
                still_pending.append(future)
        self._pending = still_pending

    def _next_bundle(self) -> OfflineBundle:
        self._harvest(need_one=True)
        if self._bundles:
            return self._bundles.popleft()
        self.stats["pool_misses"] += 1
        return _bundle_job(*self._job_args())

    # -- online phase ------------------------------------------------------

    def encrypt(self, message: GTElement, *,
                ciphertext_id: str = None) -> Ciphertext:
        """Encrypt a GT message using one precomputed bundle.

        Online cost: one GT multiplication (``C = m · blinding^s``)
        plus ledger bookkeeping — constant in the policy size. An empty
        pool falls back to computing a bundle inline (identical
        output, cold-path latency). Raises
        :class:`repro.errors.RevocationError` if any involved
        authority's key version rolled since the session was built.
        """
        self._check_current()
        bundle = self._next_bundle()
        c = message * bundle.c_blind
        ciphertext_id = self.owner.note_encryption(
            ciphertext_id, bundle.s, str(self.matrix.policy),
            dict(self.versions),
        )
        self.stats["online"] += 1
        return Ciphertext(
            ciphertext_id=ciphertext_id,
            owner_id=self.owner.owner_id,
            c=c,
            c_prime=bundle.c_prime,
            c_rows=bundle.rows,
            matrix=self.matrix,
            involved_aids=self.involved,
            versions=dict(self.versions),
        )
