"""Batch ReEncrypt: bit-identity with the sequential path, per-item
typed errors, and already-current triage — inline and pooled through
the service sweep's worker, :func:`reencrypt_records_raw`."""

import pytest

from repro.core.reencrypt import reencrypt
from repro.core.serialize import encode_update_info, encode_update_key
from repro.crypto.hybrid import seal
from repro.errors import SchemeError
from repro.parallel.batch import (
    ALREADY_CURRENT,
    ERROR,
    UPDATED,
    batch_outcomes,
    reencrypt_records_raw,
)
from repro.parallel.pool import CryptoPool, chunked
from repro.system.records import StoredComponent, StoredRecord

COMPONENT = "body"


def _sequential_expected(batch):
    """The reference: the paper's one-at-a-time ReEncrypt."""
    return [
        reencrypt(batch.group, ct, batch.update_key, ui).to_bytes()
        for ct, ui in zip(batch.ciphertexts, batch.update_infos)
    ]


def _record(batch, ciphertext) -> StoredRecord:
    """One ciphertext wrapped as a one-component stored record (the
    sealed body is opaque to ReEncrypt, so any session element does)."""
    return StoredRecord(
        record_id=ciphertext.ciphertext_id,
        owner_id=ciphertext.owner_id,
        components={COMPONENT: StoredComponent(
            name=COMPONENT,
            abe_ciphertext=ciphertext,
            data_ciphertext=seal(batch.group.identity_gt(),
                                 ciphertext.ciphertext_id, b"payload"),
        )},
    )


def _sweep(batch, ciphertexts, update_infos, *, workers, chunk_size):
    """Run one record per ciphertext through the pooled sweep worker.

    Returns one ``(new_record_bytes_or_None, (ciphertext_id, status,
    code, message))`` per input, in input order.
    """
    uk_raw = encode_update_key(batch.group, batch.update_key)
    tasks = [
        (_record(batch, ct).to_bytes(),
         [(COMPONENT, encode_update_info(ui))])
        for ct, ui in zip(ciphertexts, update_infos)
    ]
    with CryptoPool(workers) as pool:
        chunks = pool.map_jobs(
            reencrypt_records_raw,
            [(batch.group, uk_raw, chunk)
             for chunk in chunked(tasks, chunk_size)],
        )
    results = []
    for new_record, item_results in (task for chunk in chunks
                                     for task in chunk):
        (item,) = item_results
        results.append((new_record, item))
    return results


@pytest.mark.parametrize("workers", [0, 1, 4])
@pytest.mark.parametrize("chunk_size", [1, 2, 5])
def test_bit_identical_across_pool_and_chunk_sizes(batch, workers,
                                                   chunk_size):
    expected = _sequential_expected(batch)
    results = _sweep(batch, batch.ciphertexts, batch.update_infos,
                     workers=workers, chunk_size=chunk_size)
    assert [item[1] for _, item in results] == [UPDATED] * len(expected)
    assert [
        StoredRecord.from_bytes(batch.group, new_record)
        .component(COMPONENT).abe_ciphertext.to_bytes()
        for new_record, _ in results
    ] == expected
    assert [item[0] for _, item in results] \
        == [ct.ciphertext_id for ct in batch.ciphertexts]


def test_amortized_pairing_still_bumps_versions(batch):
    outcomes = batch_outcomes(batch.group, batch.ciphertexts,
                              batch.update_key, batch.update_infos)
    to_version = batch.update_key.to_version
    for outcome in outcomes:
        assert outcome.ciphertext.version_of("hospital") == to_version


@pytest.mark.parametrize("workers", [0, 1])
def test_wrong_target_rejected_per_item_rest_unaffected(batch, workers):
    """One mismatched update-info poisons only its own slot."""
    expected = _sequential_expected(batch)
    bad_infos = list(batch.update_infos)
    bad_infos[2] = batch.update_infos[3]  # UI for a different ciphertext
    results = _sweep(batch, batch.ciphertexts, bad_infos,
                     workers=workers, chunk_size=2)
    new_record, (_, status, code, _) = results[2]
    assert status == ERROR
    assert new_record is None
    assert code == "revocation"
    for index in (0, 1, 3, 4, 5):
        new_record, (_, status, _, _) = results[index]
        assert status == UPDATED
        assert StoredRecord.from_bytes(batch.group, new_record).component(
            COMPONENT
        ).abe_ciphertext.to_bytes() == expected[index]


@pytest.mark.parametrize("workers", [0, 1])
def test_version_mismatch_rejected_per_item(batch, workers):
    """An already-rolled ciphertext fails the next epoch's check when its
    update information still targets the old epoch."""
    rolled = reencrypt(batch.group, batch.ciphertexts[1], batch.update_key,
                       batch.update_infos[1])
    cts = list(batch.ciphertexts)
    cts[1] = rolled  # at to_version, but ui[1] says from_version
    bad_infos = list(batch.update_infos)
    bad_infos[1] = batch.update_infos[1]

    # With its own (matching) UI the rolled ciphertext is already-current,
    # not an error: the sweep can be replayed harmlessly.
    results = _sweep(batch, cts, bad_infos, workers=workers, chunk_size=2)
    new_record, (_, status, _, _) = results[1]
    assert status == ALREADY_CURRENT
    assert new_record is None
    assert all(item[1] == UPDATED for i, (_, item) in enumerate(results)
               if i != 1)

    # But a UI for a *different* version pair is a typed per-item error.
    doubled = reencrypt(batch.group, rolled, *_next_epoch(batch, rolled))
    cts[1] = doubled  # two versions ahead of ui[1]
    results = _sweep(batch, cts, bad_infos, workers=workers, chunk_size=2)
    _, (_, status, code, _) = results[1]
    assert status == ERROR
    assert code == "revocation"
    assert all(item[1] == UPDATED for i, (_, item) in enumerate(results)
               if i != 1)


def _next_epoch(batch, ciphertext):
    """A second rekey (version 1 -> 2) plus matching update info."""
    from repro.core.revocation import rekey_standard

    if not hasattr(batch, "_epoch2"):
        batch.owner.apply_update_key(batch.update_key)
        batch.owner.note_reencrypted(ciphertext.ciphertext_id,
                                     batch.update_key)
        victim2 = batch.scheme.register_user("victim2")
        batch.hospital.keygen(victim2, ["doctor"], "alice")
        batch._epoch2 = rekey_standard(
            batch.hospital, "victim2", ["doctor"]
        ).update_key
    update_key = batch._epoch2
    return update_key, batch.owner.update_info(ciphertext, update_key)


def test_length_mismatch_is_a_scheme_error(batch):
    with pytest.raises(SchemeError):
        batch_outcomes(batch.group, batch.ciphertexts, batch.update_key,
                       batch.update_infos[:-1])


def test_uk_cache_binds_to_the_group_instance(batch):
    """Regression: the per-process UpdateKey cache must die with its
    group. Keying by id(group) let a freshly-built group alias a dead
    group's recycled id and pick up elements bound to the old instance;
    the weak per-instance keying decodes anew for every new group."""
    import gc

    from repro.ec.params import TOY80
    from repro.pairing.group import PairingGroup
    from repro.parallel.batch import _UK_CACHE, _cached_update_key

    uk_raw = encode_update_key(batch.group, batch.update_key)
    group_a = PairingGroup(TOY80)
    cached_a = _cached_update_key(group_a, uk_raw)
    assert _cached_update_key(group_a, uk_raw) is cached_a
    assert group_a in _UK_CACHE
    del cached_a, group_a
    gc.collect()
    group_b = PairingGroup(TOY80)
    assert group_b not in _UK_CACHE
    cached_b = _cached_update_key(group_b, uk_raw)
    assert all(el.group is group_b for el in cached_b.uk1.values())
