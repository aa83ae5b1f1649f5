"""Batch ReEncrypt with amortized pairing, inline or across a pool.

One attribute revocation makes the server re-encrypt every ciphertext of
every involved owner. The sequential path pays, per ciphertext, one full
pairing ``e(UK1_owner, C')`` plus per-element decode validation. This
module amortizes all of it:

* ``UK1_owner`` is *fixed per owner* across the whole batch, so its
  Miller line coefficients are prepared once
  (:meth:`repro.pairing.group.PairingGroup.prepare_pairing`) and
  replayed against every ciphertext's ``C'`` — ~2/3 of each pairing
  gone;
* the final exponentiations of a whole owner-batch share one modular
  inversion (:meth:`repro.pairing.prepared.PreparedPairing.pair_many`);
* wire-sourced update information is subgroup-validated **per element**
  (:func:`repro.core.serialize.decode_update_infos`) — the cofactor has
  small even factors, so no combined random-linear-combination check is
  sound against small-order residuals — but that validation runs inside
  the workers, off the service's event loop.

Failures stay **per-item**: a version-mismatched or malformed entry
becomes an ``error`` outcome with the library's typed exception; the
rest of the batch is unaffected. A ciphertext already at the update
key's target version reports ``already-current`` — that is what makes a
retried sweep chunk idempotent.

The object-level core, :func:`batch_outcomes`, and the service sweep's
pooled worker, :func:`reencrypt_records_raw`, funnel through the same
:func:`repro.core.reencrypt.check_reencrypt_inputs` /
:func:`repro.core.reencrypt.apply_update` pair as the sequential path,
so outputs are bit-identical regardless of pool or chunk size.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

from repro.core.ciphertext import Ciphertext
from repro.core.keys import CiphertextUpdateInfo, UpdateKey
from repro.core.reencrypt import apply_update, check_reencrypt_inputs
from repro.core.serialize import (
    decode_update_info,
    decode_update_infos,
    decode_update_key,
)
from repro.errors import (
    ReproError,
    SchemeError,
    StorageError,
    code_for_exception,
)
from repro.pairing.group import GTElement, PairingGroup
from repro.system.records import StoredRecord

#: Outcome statuses.
UPDATED = "updated"
ALREADY_CURRENT = "already-current"
ERROR = "error"


@dataclass(frozen=True)
class ReencryptOutcome:
    """Per-item result of a batch re-encryption."""

    ciphertext_id: str
    status: str                       # updated | already-current | error
    ciphertext: Ciphertext = None     # the updated ciphertext (if updated)
    error: ReproError = None          # the typed failure (if error)

    @property
    def error_codename(self) -> str:
        return None if self.error is None else code_for_exception(self.error)


def _outcome_error(ciphertext_id: str, exc: ReproError) -> ReencryptOutcome:
    return ReencryptOutcome(ciphertext_id=ciphertext_id, status=ERROR,
                            error=exc)


def _is_already_current(ciphertext: Ciphertext, update_key: UpdateKey,
                        update_info: CiphertextUpdateInfo) -> bool:
    """True when the ciphertext already sits at the key's target version.

    Only an exact match of ciphertext id and version window counts — a
    UI addressed at the wrong ciphertext must surface as an error, not a
    silent skip.
    """
    aid = update_key.aid
    return (
        update_info.aid == aid
        and update_info.ciphertext_id == ciphertext.ciphertext_id
        and ciphertext.versions.get(aid) == update_key.to_version
        and (update_info.from_version, update_info.to_version)
        == (update_key.from_version, update_key.to_version)
    )


def batch_outcomes(group: PairingGroup, ciphertexts, update_key: UpdateKey,
                   update_infos) -> list:
    """The object-level batch core: amortized pairing, per-item errors.

    ``ciphertexts`` and ``update_infos`` are aligned sequences. Returns
    one :class:`ReencryptOutcome` per input, in input order.
    """
    ciphertexts = list(ciphertexts)
    update_infos = list(update_infos)
    if len(ciphertexts) != len(update_infos):
        raise SchemeError(
            "need exactly one update information per ciphertext"
        )
    outcomes = [None] * len(ciphertexts)
    by_owner = {}  # owner id -> [(index, ciphertext, update_info)]
    for index, (ciphertext, update_info) in enumerate(
        zip(ciphertexts, update_infos)
    ):
        if _is_already_current(ciphertext, update_key, update_info):
            outcomes[index] = ReencryptOutcome(
                ciphertext_id=ciphertext.ciphertext_id,
                status=ALREADY_CURRENT,
            )
            continue
        try:
            check_reencrypt_inputs(ciphertext, update_key, update_info)
        except ReproError as exc:
            outcomes[index] = _outcome_error(ciphertext.ciphertext_id, exc)
            continue
        by_owner.setdefault(ciphertext.owner_id, []).append(
            (index, ciphertext, update_info)
        )
    for owner_id, entries in by_owner.items():
        # The fixed first argument of every pairing in this owner-batch:
        # prepare its Miller lines once, replay per ciphertext, and
        # share one inversion across the final exponentiations.
        prepared = group.prepare_pairing(update_key.uk1[owner_id])
        factors = prepared.pair_many(
            [ciphertext.c_prime.point for _, ciphertext, _ in entries]
        )
        group.counter.pairings += len(entries)
        for (index, ciphertext, update_info), factor in zip(entries, factors):
            try:
                updated = apply_update(
                    ciphertext, update_key, update_info,
                    GTElement(group, factor),
                )
            except ReproError as exc:
                outcomes[index] = _outcome_error(
                    ciphertext.ciphertext_id, exc
                )
            else:
                outcomes[index] = ReencryptOutcome(
                    ciphertext_id=ciphertext.ciphertext_id,
                    status=UPDATED,
                    ciphertext=updated,
                )
    return outcomes


# -- raw (bytes-level) jobs: what actually crosses the process boundary ------

# Per-process cache of decoded update keys: group -> {uk raw: UpdateKey}.
# A sweep ships the same UK with every chunk; decoding it once per
# process keeps the per-chunk overhead at a dict lookup. Keyed weakly by
# the group *instance* — never by id(), whose values are reused after
# garbage collection — so a cached key can neither outlive the group its
# elements belong to nor leak into a lookalike group at the same address.
_UK_CACHE = weakref.WeakKeyDictionary()
_UK_CACHE_LIMIT = 8


def _cached_update_key(group: PairingGroup, uk_raw: bytes) -> UpdateKey:
    per_group = _UK_CACHE.get(group)
    if per_group is None:
        per_group = _UK_CACHE[group] = {}
    update_key = per_group.get(uk_raw)
    if update_key is None:
        # Trusted decode: the sweep dispatcher validated these bytes
        # before fanning them out.
        update_key = decode_update_key(group, uk_raw, check_subgroup=False)
        if len(per_group) >= _UK_CACHE_LIMIT:
            per_group.pop(next(iter(per_group)))
        per_group[uk_raw] = update_key
    return update_key


def _decode_ui_batch(group: PairingGroup, ui_raws) -> list:
    """Decode and validate UIs; returns aligned ``[(info | None, exc | None)]``.

    The batch decodes in one call that subgroup-checks every point
    (:func:`repro.core.serialize.decode_update_infos`); if it fails
    (one malformed entry), each UI is re-decoded individually so only
    the offending items turn into errors.
    """
    ui_raws = list(ui_raws)
    try:
        return [(info, None) for info in decode_update_infos(group, ui_raws)]
    except ReproError:
        pass  # isolate the culprit(s) below
    results = []
    for raw in ui_raws:
        try:
            results.append((decode_update_info(group, raw), None))
        except ReproError as exc:
            results.append((None, exc))
    return results


def reencrypt_records_raw(group: PairingGroup, uk_raw: bytes, tasks) -> list:
    """One pooled chunk of the service sweep: whole records in, out.

    ``tasks`` is ``[(record_bytes, [(component_name, ui_bytes), ...])]``.
    Returns one ``(new_record_bytes_or_None, item_results)`` per task,
    where ``item_results`` is ``[(ciphertext_id, status, code, message)]``
    (``code``/``message`` are ``None`` unless ``status == "error"``).
    ``new_record_bytes`` is ``None`` when no component changed.

    Record bytes come from the digest-verified store and decode trusted;
    update information arrived over the wire and is validated here, point
    by point (off the server's event loop). The update key must have been
    validated by the caller before fan-out.
    """
    update_key = _cached_update_key(group, uk_raw)
    records = [
        StoredRecord.from_bytes(group, record_raw, validate=False)
        for record_raw, _ in tasks
    ]
    ui_raws = [ui_raw for _, targets in tasks for _, ui_raw in targets]
    uis = iter(_decode_ui_batch(group, ui_raws))
    # entry: (task index, component, decoded UI) per targeted ciphertext
    entries = []
    item_results = [[] for _ in tasks]
    for task_index, (record, (_, targets)) in enumerate(zip(records, tasks)):
        for component_name, _ in targets:
            info, exc = next(uis)
            component = record.components.get(component_name)
            if component is None:
                exc = StorageError(
                    f"record {record.record_id!r} has no component "
                    f"{component_name!r}"
                )
            if exc is not None:
                ciphertext_id = (
                    "?" if info is None and component is None
                    else (info.ciphertext_id if info is not None
                          else component.abe_ciphertext.ciphertext_id)
                )
                item_results[task_index].append(
                    (ciphertext_id, ERROR, code_for_exception(exc), str(exc))
                )
                continue
            entries.append((task_index, component, info))
    outcomes = batch_outcomes(
        group,
        [component.abe_ciphertext for _, component, _ in entries],
        update_key,
        [info for _, _, info in entries],
    )
    updated_records = {}  # task index -> evolving StoredRecord
    for (task_index, component, _), outcome in zip(entries, outcomes):
        if outcome.status == UPDATED:
            record = updated_records.get(task_index, records[task_index])
            updated_records[task_index] = record.with_component(
                type(component)(
                    name=component.name,
                    abe_ciphertext=outcome.ciphertext,
                    data_ciphertext=component.data_ciphertext,
                )
            )
            item_results[task_index].append(
                (outcome.ciphertext_id, UPDATED, None, None)
            )
        elif outcome.status == ALREADY_CURRENT:
            item_results[task_index].append(
                (outcome.ciphertext_id, ALREADY_CURRENT, None, None)
            )
        else:
            item_results[task_index].append(
                (outcome.ciphertext_id, ERROR, outcome.error_codename,
                 str(outcome.error))
            )
    return [
        (
            updated_records[task_index].to_bytes()
            if task_index in updated_records else None,
            item_results[task_index],
        )
        for task_index in range(len(tasks))
    ]
