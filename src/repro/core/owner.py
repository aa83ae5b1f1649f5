"""Data owners: OwnerGen, Encrypt, and revocation update information.

An owner holds the master key ``MK_o = {β, r}``, publishes nothing, and
hands ``SK_o = {g^{1/β}, r/β}`` to each authority so that KeyGen can bind
user keys to this owner without the owner staying online.

Encryption (Phase 3) shares the exponent ``s`` over the policy's LSSS
matrix and produces the ciphertext of :mod:`repro.core.ciphertext`.

For revocation, the paper has the owner compute per-ciphertext update
information ``UI_x = (PK_x / PK̃_x)^{βs}``; that requires remembering the
encryption exponent ``s`` of every ciphertext, which the paper leaves
implicit — :class:`DataOwner` keeps an explicit ``EncryptionRecord``
ledger (see DESIGN.md §3).
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from dataclasses import dataclass

from repro.core.attributes import authority_of, involved_authorities
from repro.core.authority import (
    apply_update_to_authority_public_key,
    apply_update_to_public_keys,
)
from repro.core.ciphertext import Ciphertext
from repro.core.keys import (
    AuthorityPublicKey,
    CiphertextUpdateInfo,
    OwnerMasterKey,
    OwnerSecretKey,
    PublicAttributeKeys,
    UpdateKey,
)
from repro.crypto.hybrid import open_sealed
from repro.ec.batch_affine import batch_affine_sums, table_entries
from repro.errors import (UNKNOWN_OUTCOME, PolicyError, RevocationError,
                          SchemeError)
from repro.math.integers import invmod
from repro.pairing.group import G1Element, GTElement, PairingGroup
from repro.policy.lsss import lsss_from_policy


@dataclass(frozen=True)
class EncryptionRecord:
    """Owner-side ledger entry for one ciphertext (needed by revocation)."""

    ciphertext_id: str
    s: int                 # the encryption exponent
    policy: str
    versions: dict         # aid -> version used at encryption time


class DataOwner:
    """One data owner: master key, cached authority keys, ciphertext ledger."""

    def __init__(self, group: PairingGroup, owner_id: str):
        self.group = group
        self.owner_id = owner_id
        beta = group.random_scalar()
        r_exp = group.random_scalar()
        self._master = OwnerMasterKey(owner_id=owner_id, beta=beta, r_exp=r_exp)
        inv_beta = invmod(beta, group.order)
        self._secret = OwnerSecretKey(
            owner_id=owner_id,
            g_inv_beta=group.g ** inv_beta,
            r_over_beta=r_exp * inv_beta % group.order,
        )
        self._authority_keys = {}   # aid -> AuthorityPublicKey
        self._attribute_keys = {}   # aid -> PublicAttributeKeys
        self._blinding_cache = {}   # ((aid, version), ...) -> GTElement
        self._ui_ratio_cache = {}   # (aid, from, to) -> (update_key, ratios)
        self._policy_label_cache = {}  # policy string -> frozenset(labels)
        self._sessions = {}         # (policy, method, injective) -> session
        self._records = {}          # ciphertext id -> EncryptionRecord
        self._retired = set()       # ciphertext ids no longer stored
        self._counter = itertools.count()

    # -- key material -------------------------------------------------------------

    @property
    def master_key(self) -> OwnerMasterKey:
        return self._master

    @property
    def secret_key(self) -> OwnerSecretKey:
        """``SK_o`` — what gets sent to each AA over a secure channel."""
        return self._secret

    def learn_authority(self, authority_public_key: AuthorityPublicKey,
                        public_attribute_keys: PublicAttributeKeys) -> None:
        """Cache an authority's current public key material."""
        if authority_public_key.aid != public_attribute_keys.aid:
            raise SchemeError("authority key bundle has mismatched AIDs")
        if authority_public_key.version != public_attribute_keys.version:
            raise SchemeError("authority key bundle has mismatched versions")
        self._authority_keys[authority_public_key.aid] = authority_public_key
        self._attribute_keys[public_attribute_keys.aid] = public_attribute_keys
        # Every Encrypt exponentiates each policy attribute's PK_x; a
        # fixed-base table per public attribute key amortizes that across
        # this owner's lifetime of ciphertexts.
        for element in public_attribute_keys.elements.values():
            self.group.register_g1_base(element)

    def known_authorities(self) -> frozenset:
        return frozenset(self._authority_keys)

    def authority_version(self, aid: str) -> int:
        """The version of this owner's cached public key for ``aid``."""
        if aid not in self._authority_keys:
            raise RevocationError(
                f"owner {self.owner_id!r} knows no authority {aid!r}"
            )
        return self._authority_keys[aid].version

    def _blinding_for(self, involved) -> GTElement:
        """``∏_k e(g,g)^{α_k}`` over the involved authorities, cached per
        (authority, version) set with a GT fixed-base table — the product
        and its table survive across every Encrypt under the same policy
        authorities until one of them re-keys."""
        cache_key = tuple(sorted(
            (aid, self._authority_keys[aid].version) for aid in involved
        ))
        blinding = self._blinding_cache.get(cache_key)
        if blinding is None:
            blinding = self.group.identity_gt()
            for aid, _ in cache_key:
                blinding = blinding * self._authority_keys[aid].value
            self.group.register_gt_base(blinding)
            if len(self._blinding_cache) >= 64:
                self._blinding_cache.pop(next(iter(self._blinding_cache)))
            self._blinding_cache[cache_key] = blinding
        return blinding

    def authority_blinding(self, involved) -> GTElement:
        """``∏_k e(g,g)^{α_k}`` at the current key versions (cached)."""
        missing = set(involved) - set(self._authority_keys)
        if missing:
            raise SchemeError(
                f"owner {self.owner_id!r} has no public keys for authorities "
                f"{sorted(missing)}"
            )
        return self._blinding_for(involved)

    def public_attribute_key(self, label: str):
        """The cached ``PK_x`` for one qualified attribute label."""
        aid = authority_of(label)
        keys = self._attribute_keys.get(aid)
        if keys is None:
            raise SchemeError(
                f"owner {self.owner_id!r} has no public keys for "
                f"authority {aid!r}"
            )
        return keys[label]

    # -- Encrypt (Phase 3) ------------------------------------------------------------

    def encrypt(self, message: GTElement, policy, *,
                ciphertext_id: str = None,
                require_injective_rho: bool = True,
                threshold_method: str = "expand") -> Ciphertext:
        """Encrypt a GT message (a content key) under an access policy.

        The policy's attributes must be fully qualified (``aid:attr``)
        and every referenced authority must have been cached via
        :meth:`learn_authority`. ``require_injective_rho`` enforces the
        paper's "we limit ρ to be an injective function"; pass False to
        allow attribute reuse (the algebra still works, only the security
        proof's hypothesis changes). ``threshold_method="insert"`` embeds
        k-of-n gates via the Vandermonde construction (n rows instead of
        C(n, k)·k, and ρ stays injective for distinct attributes) — see
        :func:`repro.policy.lsss.lsss_from_policy`.
        """
        matrix = lsss_from_policy(policy, threshold_method=threshold_method)
        involved = self.encryption_authorities(matrix, require_injective_rho)
        group = self.group
        order = group.order
        s = group.random_scalar()
        shares = matrix.share(s, order, group.rng)

        # C = m · (∏_k e(g,g)^{α_k})^s — the product is cached with a GT
        # fixed-base table across ciphertexts (same involved authorities).
        blinding = self._blinding_for(involved)
        c = message * (blinding ** s)
        # C' = g^{βs}
        beta_s = self._master.beta * s % order
        c_prime = group.g ** beta_s
        # C_i = g^{r·λ_i} · PK_{ρ(i)}^{-βs} as one two-term multiexp per
        # row: the shared doubling chain plus the fixed-base tables for g
        # and PK_x replace two full scalar multiplications and a point
        # addition. Still counted as 2 G exponentiations per row.
        neg_beta_s = -beta_s % order
        rows = []
        for index, label in enumerate(matrix.row_labels):
            aid = authority_of(label)
            pk_x = self._attribute_keys[aid][label]
            rows.append(group.multiexp_g1(
                (group.g, pk_x),
                (self._master.r_exp * shares[index] % order, neg_beta_s),
            ))

        versions = {aid: self._authority_keys[aid].version for aid in involved}
        ciphertext_id = self.note_encryption(
            ciphertext_id, s, str(matrix.policy), dict(versions)
        )
        return Ciphertext(
            ciphertext_id=ciphertext_id,
            owner_id=self.owner_id,
            c=c,
            c_prime=c_prime,
            c_rows=tuple(rows),
            matrix=matrix,
            involved_aids=involved,
            versions=versions,
        )

    def encryption_authorities(self, matrix,
                               require_injective_rho: bool = True):
        """Encrypt's input check, shared by :meth:`encrypt` and
        :class:`repro.fastpath.session.EncryptionSession`.

        Returns the authorities a policy's LSSS matrix involves. Raises
        :class:`PolicyError` for a non-injective ρ the caller forbids
        and :class:`SchemeError` for an involved authority whose public
        keys this owner has not cached.
        """
        if require_injective_rho and not matrix.is_injective():
            raise PolicyError(
                "policy maps one attribute to several LSSS rows; the paper "
                "limits rho to be injective (pass require_injective_rho=False "
                "to override)"
            )
        involved = involved_authorities(matrix.row_labels)
        missing = involved - set(self._authority_keys)
        if missing:
            raise SchemeError(
                f"owner {self.owner_id!r} has no public keys for authorities "
                f"{sorted(missing)}"
            )
        return involved

    def note_encryption(self, ciphertext_id, s: int, policy: str,
                        versions: dict) -> str:
        """Reserve a ciphertext id and ledger one encryption exponent.

        The single ledger entry point shared by the cold
        :meth:`encrypt` path and :class:`repro.fastpath.session.
        EncryptionSession` — revocation (which replays ``s`` from the
        ledger) sees identical records whichever path produced the
        ciphertext. Returns the (possibly auto-assigned) id.
        """
        if ciphertext_id is None:
            ciphertext_id = f"{self.owner_id}/ct{next(self._counter)}"
        if ciphertext_id in self._records:
            raise SchemeError(f"ciphertext id {ciphertext_id!r} already used")
        self._records[ciphertext_id] = EncryptionRecord(
            ciphertext_id=ciphertext_id,
            s=s,
            policy=policy,
            versions=dict(versions),
        )
        return ciphertext_id

    def session_for(self, policy, *, threshold_method: str = "expand",
                    require_injective_rho: bool = True, pool=None):
        """An :class:`~repro.fastpath.session.EncryptionSession` for a
        policy, cached per (policy, threshold method, injectivity) and
        keyed to the involved authorities' key versions.

        Repeated calls under one policy return the same live session
        (its offline pool included). The moment revocation rolls any
        involved authority's key version forward the cached session
        goes stale and is rebuilt here against the new public keys —
        the cache can never hand back a session that would encrypt
        under a revoked version (the session itself re-checks on every
        ``encrypt`` as a second line of defense).
        """
        from repro.fastpath.session import EncryptionSession

        matrix = lsss_from_policy(policy, threshold_method=threshold_method)
        cache_key = (
            str(matrix.policy), threshold_method, require_injective_rho
        )
        session = self._sessions.get(cache_key)
        if session is not None and session.is_current():
            if pool is not None:
                session.pool = pool
            return session
        session = EncryptionSession(
            self, policy, threshold_method=threshold_method,
            require_injective_rho=require_injective_rho, pool=pool,
            matrix=matrix,
        )
        if len(self._sessions) >= 32:
            self._sessions.pop(next(iter(self._sessions)))
        self._sessions[cache_key] = session
        return session

    def record(self, ciphertext_id: str) -> EncryptionRecord:
        try:
            return self._records[ciphertext_id]
        except KeyError:
            raise SchemeError(
                f"owner {self.owner_id!r} has no record of ciphertext "
                f"{ciphertext_id!r}"
            ) from None

    # -- the record ledger: ids and writes ---------------------------------------

    def _component_ids(self, record_id: str, name: str) -> list:
        """One component's ledger ids in minting order — ``record/name``,
        then ``#v0``, ``#v1``, … — followed by the first id not minted."""
        ids = [f"{record_id}/{name}"]
        while ids[-1] in self._records:
            ids.append(f"{record_id}/{name}#v{len(ids) - 1}")
        return ids

    def next_component_id(self, record_id: str, name: str) -> str:
        """The id a replace of one component is sealed under (an upload
        seals under ``record/name``); the ledger is append-only, so an id
        is never reused."""
        return self._component_ids(record_id, name)[-1]

    @contextmanager
    def minted(self, ciphertext_ids):
        """Scope one write that seals and stores ``ciphertext_ids``.

        If it fails, the ids it added to the ledger are retired (a live
        id the server lacks would hold the epoch forever); ids held on
        entry are not this write's. After an :data:`~repro.errors.
        UNKNOWN_OUTCOME` failure the write may have applied, so the ids
        stay live and a sweep reports them ``missing`` if it did not.
        """
        fresh = [ciphertext_id for ciphertext_id in ciphertext_ids
                 if ciphertext_id not in self._records]
        try:
            yield
        except UNKNOWN_OUTCOME:
            raise
        except Exception:
            self._retired.update(ciphertext_id for ciphertext_id in fresh
                                 if ciphertext_id in self._records)
            raise

    # -- revocation (Section V-C, owner side) ---------------------------------------

    def apply_update_key(self, update_key: UpdateKey) -> None:
        """Roll this owner's cached public keys forward by one version.

        Must be called *after* any :meth:`update_info` computations for
        ciphertexts encrypted under the old version — the old keys are
        needed to form ``PK_x / PK̃_x``. :meth:`update_info` therefore
        accepts the update key itself and does both sides internally; this
        method only advances the cache.
        """
        aid = update_key.aid
        if aid not in self._authority_keys:
            raise RevocationError(
                f"owner {self.owner_id!r} knows no authority {aid!r}"
            )
        self._authority_keys[aid] = apply_update_to_authority_public_key(
            self._authority_keys[aid], update_key
        )
        self._attribute_keys[aid] = apply_update_to_public_keys(
            self._attribute_keys[aid], update_key
        )

    def update_info(self, ciphertext: Ciphertext,
                    update_key: UpdateKey) -> CiphertextUpdateInfo:
        """``UI_x = (PK_x / PK̃_x)^{βs}`` for each affected attribute.

        Uses the ledger entry for the ciphertext's encryption exponent.
        Only attributes managed by the re-keyed authority *and* appearing
        in the ciphertext's policy get an entry — the partial-update
        property the paper credits for revocation efficiency.
        """
        if ciphertext.owner_id != self.owner_id:
            raise RevocationError("ciphertext belongs to a different owner")
        return self.update_info_for_record(ciphertext.ciphertext_id, update_key)

    def update_info_for_record(self, ciphertext_id: str,
                               update_key: UpdateKey) -> CiphertextUpdateInfo:
        """:meth:`update_info` from the ledger alone — no ciphertext needed.

        The ledger stores the policy string and encryption exponent, which
        determine the affected attribute labels; the owner never has to
        download its ciphertexts back from the server to revoke.
        """
        ratios, beta_s, labels = self._ui_plan(ciphertext_id, update_key)
        elements = {label: ratios[label] ** beta_s for label in labels}
        return CiphertextUpdateInfo(
            aid=update_key.aid,
            ciphertext_id=ciphertext_id,
            elements=elements,
            from_version=update_key.from_version,
            to_version=update_key.to_version,
        )

    def update_infos_for_records(self, ciphertext_ids,
                                 update_key: UpdateKey) -> list:
        """Bulk :meth:`update_info_for_record` with shared inversions.

        Element-identical to the per-record method (same validation,
        same points), but the fixed-base walks of every
        ``UI_x = (PK_x / PK̃_x)^{βs}`` across the batch advance
        level-synchronized through
        :func:`repro.ec.batch_affine.batch_affine_sums`, so each affine
        addition round shares ONE modular inversion across the whole
        revocation sweep instead of paying it per element.
        """
        ciphertext_ids = list(ciphertext_ids)
        plans = [
            self._ui_plan(ciphertext_id, update_key)
            for ciphertext_id in ciphertext_ids
        ]
        group = self.group
        element_maps = [{} for _ in plans]
        entry_lists = []
        slots = []  # (plan index, label) aligned with entry_lists
        for index, (ratios, beta_s, labels) in enumerate(plans):
            for label in labels:
                ratio = ratios[label]
                table = group._g1_table_for(ratio.point)
                if table is None:  # table evicted: per-element fallback
                    element_maps[index][label] = ratio ** beta_s
                    continue
                entry_lists.append(table_entries(table, beta_s))
                slots.append((index, label))
        if entry_lists:
            points = batch_affine_sums(group.curve, entry_lists)
            group.counter.g1_exponentiations += len(entry_lists)
            for (index, label), point in zip(slots, points):
                element_maps[index][label] = G1Element(group, point)
        return [
            CiphertextUpdateInfo(
                aid=update_key.aid,
                ciphertext_id=ciphertext_id,
                elements=elements,
                from_version=update_key.from_version,
                to_version=update_key.to_version,
            )
            for ciphertext_id, elements in zip(ciphertext_ids, element_maps)
        ]

    def _ui_plan(self, ciphertext_id: str, update_key: UpdateKey):
        """Validate one record against an update key; returns the
        ``(ratios, βs, affected labels)`` its update information needs."""
        aid = update_key.aid
        record = self.record(ciphertext_id)
        if aid not in record.versions:
            raise RevocationError(
                f"authority {aid!r} is not involved in ciphertext "
                f"{ciphertext_id!r}"
            )
        if record.versions[aid] != update_key.from_version:
            raise RevocationError(
                f"ciphertext at version {record.versions[aid]} for "
                f"{aid!r}; update key expects {update_key.from_version}"
            )
        old_keys = self._attribute_keys[aid]
        if old_keys.version != update_key.from_version:
            raise RevocationError(
                "owner's cached public keys are not at the update key's "
                "source version; apply updates in order"
            )
        ratios = self._ui_ratios(aid, update_key, old_keys)
        beta_s = self._master.beta * record.s % self.group.order
        labels = self._policy_label_cache.get(record.policy)
        if labels is None:
            labels = frozenset(lsss_from_policy(record.policy).row_labels)
            self._policy_label_cache[record.policy] = labels
        affected = [
            label for label in labels if authority_of(label) == aid
        ]
        return ratios, beta_s, affected

    def _ui_ratios(self, aid: str, update_key: UpdateKey,
                   old_keys) -> dict:
        """``{x: PK_x / PK̃_x}`` for one update key, computed once.

        A bulk revocation calls :meth:`update_info_for_record` for every
        ciphertext under the same update key; the ratio bases depend only
        on the key epoch, so they (and their fixed-base tables — each
        ciphertext exponentiates the same bases by its own ``βs``) are
        shared across the whole sweep instead of being rebuilt per
        ciphertext.
        """
        cache_key = (aid, update_key.from_version, update_key.to_version)
        cached = self._ui_ratio_cache.get(cache_key)
        if cached is not None and cached[0] is update_key:
            return cached[1]
        new_keys = apply_update_to_public_keys(old_keys, update_key)
        ratios = {}
        for label in old_keys.elements:
            ratio = old_keys[label] / new_keys[label]
            self.group.register_g1_base(ratio)
            ratios[label] = ratio
        self._ui_ratio_cache[cache_key] = (update_key, ratios)
        return ratios

    def records_involving(self, aid: str) -> list:
        """Ids of this owner's *live* ciphertexts involving the authority."""
        return [
            record.ciphertext_id
            for record in self._records.values()
            if aid in record.versions
            and record.ciphertext_id not in self._retired
        ]

    def records_for_update(self, update_key: UpdateKey) -> list:
        """Ids of live ciphertexts this update key re-encrypts: those
        involving its authority and still at its ``from_version`` (a
        ciphertext already past it is skipped, so a rerun resumes)."""
        return [
            ciphertext_id
            for ciphertext_id in self.records_involving(update_key.aid)
            if self._records[ciphertext_id].versions[update_key.aid]
            == update_key.from_version
        ]

    def recover_session(self, ciphertext_id: str) -> GTElement:
        """Recompute the encrypted GT session element from the ledger.

        Owners never need ABE keys for their own data: the ledger holds
        the encryption exponent ``s``, and the blinding factor is
        ``(∏_k e(g,g)^{α_k})^s`` — recomputable from the cached authority
        public keys, provided they are still at the ciphertext's version
        (a version mismatch raises; re-fetch the ciphertext's C component
        after re-encryption instead of relying on stale cache).

        Returns the *blinding* complement: callers divide the stored
        ``C`` by nothing — this returns ``(∏ PK_{o,AID})^s`` so that
        ``session = C / recover_session(...)``.
        """
        record = self.record(ciphertext_id)
        blinding = self.group.identity_gt()
        for aid, version in record.versions.items():
            cached = self._authority_keys.get(aid)
            if cached is None:
                raise SchemeError(
                    f"owner {self.owner_id!r} no longer knows authority {aid!r}"
                )
            if cached.version != version:
                raise RevocationError(
                    f"cached key for {aid!r} is at version {cached.version}, "
                    f"ciphertext {ciphertext_id!r} is at {version}"
                )
            blinding = blinding * cached.value
        return blinding ** record.s

    def open_own(self, component) -> bytes:
        """The owner's self-read of one downloaded component, with no ABE
        keys: the ledger's exponent strips the blinding
        (:meth:`recover_session`) and the AEAD opens the body."""
        ciphertext = component.abe_ciphertext
        if ciphertext.owner_id != self.owner_id:
            raise SchemeError("not this owner's record")
        session = ciphertext.c / self.recover_session(
            ciphertext.ciphertext_id
        )
        return open_sealed(session, ciphertext.ciphertext_id,
                           component.data_ciphertext)

    def retire_replaced(self, record_id: str, name: str,
                        current: str) -> None:
        """After a replace stored ``current``, retire every other id of
        the component. A retired entry survives for audit and stays
        reserved, but revocation no longer targets it. Callers serialize
        replaces of one component."""
        self._retired.update(
            ciphertext_id
            for ciphertext_id in self._component_ids(record_id, name)[:-1]
            if ciphertext_id != current
        )

    def retire_stored_record(self, record_id: str) -> None:
        """Retire every ciphertext id of one deleted record.

        A record's ids are ``record/component`` and the versioned
        ``record/component#vN`` ids its replacements minted. A component
        name is one path segment, so ``a/b/note`` belongs to record
        ``a/b`` and deleting ``a`` leaves it live.
        """
        prefix = f"{record_id}/"
        self._retired.update(
            ciphertext_id for ciphertext_id in self._records
            if ciphertext_id.startswith(prefix)
            and "/" not in ciphertext_id[len(prefix):]
        )

    def is_retired(self, ciphertext_id: str) -> bool:
        return ciphertext_id in self._retired

    def settle_update(self, update_key: UpdateKey, confirmed) -> list:
        """The one epoch rule: note each ``confirmed`` id still at the
        key's ``from_version``, then roll the cached authority keys only
        if no live ciphertext is left there (the revoked key still opens
        it). Returns the ids still pending; rerunning the same update
        key resumes them."""
        aid = update_key.aid
        for ciphertext_id in confirmed:
            if self.record(ciphertext_id).versions.get(aid) \
                    == update_key.from_version:
                self.note_reencrypted(ciphertext_id, update_key)
        pending = self.records_for_update(update_key)
        if not pending and self.authority_version(aid) \
                == update_key.from_version:
            self.apply_update_key(update_key)
        return pending

    def note_reencrypted(self, ciphertext_id: str, update_key: UpdateKey) -> None:
        """Record that the server re-encrypted a ciphertext to a new version."""
        record = self.record(ciphertext_id)
        versions = dict(record.versions)
        if versions.get(update_key.aid) != update_key.from_version:
            raise RevocationError("ledger version mismatch during re-encryption")
        versions[update_key.aid] = update_key.to_version
        self._records[ciphertext_id] = EncryptionRecord(
            ciphertext_id=record.ciphertext_id,
            s=record.s,
            policy=record.policy,
            versions=versions,
        )
