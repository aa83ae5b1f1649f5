"""One server ReEncrypt path and one owner epoch rule.

``REENCRYPT`` is a sweep of one through the sweep's chunk routine, and
the owner rolls its epoch (``DataOwner.settle_update``) only once no
live ciphertext is left at the old version: a per-item failure, a
replace racing the sweep, or a crypto pool breaking mid-sweep all leave
a state the same update key resumes.
"""

from concurrent.futures import BrokenExecutor

import pytest

from repro.core.serialize import encode_update_info, encode_update_key
from repro.errors import RevocationError, StorageError, UnavailableError
from repro.parallel.batch import ERROR
from repro.service import protocol, server as server_module
from repro.service.client import seal_component
from repro.service.protocol import MessageType

from .conftest import run, start_service
from .test_sweep import make_owner, populate, revoke_bob


async def send_reencrypt(owner, ciphertext_id, update_key, update_info):
    """One raw REENCRYPT frame (a fresh idempotency key per call)."""
    await owner.connection.request(
        MessageType.REENCRYPT,
        protocol.pack_parts(
            ciphertext_id.encode("utf-8"),
            encode_update_key(owner.group, update_key),
            encode_update_info(update_info),
        ),
        expect=MessageType.OK,
    )


# -- the owner's epoch rule -----------------------------------------------------

def test_per_item_sweep_error_holds_the_epoch_until_a_rerun(
        group, scenario, store_root, monkeypatch):
    victim = "rec-001/note"
    original = server_module.reencrypt_records_raw
    fault = {"on": True}

    def failing_one(group, uk_raw, tasks):
        results = original(group, uk_raw, tasks)
        if not fault["on"]:
            return results
        return [
            (None, [(victim, ERROR, "scheme", "injected fault")])
            if any(ciphertext_id == victim
                   for ciphertext_id, *_ in item_results)
            else (new_blob, item_results)
            for new_blob, item_results in results
        ]

    monkeypatch.setattr(server_module, "reencrypt_records_raw", failing_one)

    async def flow():
        service = await start_service(group, store_root, sweep_chunk=2)
        owner = await make_owner(scenario, service.host, service.port)
        try:
            await populate(owner, 3)
            update_key = revoke_bob(scenario)
            first = await owner.sweep_revocation(update_key)
            held_at = scenario.owner_core.authority_version("hospital")
            fault["on"] = False
            second = await owner.sweep_revocation(update_key)
            component = await owner._fetch_component("rec-001", "note")
        finally:
            await owner.close()
            await service.stop()
        return update_key, first, held_at, second, component

    update_key, first, held_at, second, component = run(flow())
    assert list(first["errors"]) == [victim]
    assert sorted(first["updated"]) == ["rec-000/note", "rec-002/note"]
    assert first["pending"] == [victim]
    assert first["epoch_rolled"] is False
    assert held_at == update_key.from_version
    # The rerun resumes: only the held ciphertext is re-sent.
    assert second["requested"] == 1 and second["updated"] == [victim]
    assert second["pending"] == [] and second["epoch_rolled"] is True
    assert scenario.owner_core.authority_version("hospital") \
        == update_key.to_version
    assert component.abe_ciphertext.version_of("hospital") \
        == update_key.to_version


# -- REENCRYPT is a sweep of one -------------------------------------------------

def test_replayed_reencrypt_answers_ok_and_changes_nothing(
        group, scenario, store_root):
    async def flow():
        service = await start_service(group, store_root)
        owner = await make_owner(scenario, service.host, service.port)
        try:
            await populate(owner, 1)
            update_key = revoke_bob(scenario)
            update_info = scenario.owner_core.update_info_for_record(
                "rec-000/note", update_key
            )
            updated = await owner.push_revocation_updates(update_key)
            before = service.store.get_record_bytes("rec-000")
            await send_reencrypt(owner, "rec-000/note", update_key,
                                 update_info)
            after = service.store.get_record_bytes("rec-000")
        finally:
            await owner.close()
            await service.stop()
        return update_key, updated, before, after

    update_key, updated, before, after = run(flow())
    assert updated == ["rec-000/note"]
    assert scenario.owner_core.authority_version("hospital") \
        == update_key.to_version
    assert after == before


def test_reencrypt_of_unknown_or_mismatched_ciphertext_is_refused(
        group, scenario, store_root):
    async def flow():
        service = await start_service(group, store_root)
        owner = await make_owner(scenario, service.host, service.port)
        try:
            await populate(owner, 2)
            update_key = revoke_bob(scenario)
            other_info = scenario.owner_core.update_info_for_record(
                "rec-001/note", update_key
            )
            before = service.store.get_record_bytes("rec-000")
            with pytest.raises(StorageError):
                await send_reencrypt(owner, "rec-404/note", update_key,
                                     other_info)
            # A UI computed for another ciphertext fails the ReEncrypt
            # input check instead of being applied.
            with pytest.raises(RevocationError):
                await send_reencrypt(owner, "rec-000/note", update_key,
                                     other_info)
            after = service.store.get_record_bytes("rec-000")
        finally:
            await owner.close()
            await service.stop()
        return before, after

    before, after = run(flow())
    assert after == before


# -- a replace racing the sweep ------------------------------------------------

def test_replace_between_read_and_write_back_is_not_lost(
        group, scenario, store_root):
    """A REPLACE_COMPONENT landing between a chunk's read and its
    write-back must survive: the sweep skips the changed record, reports
    its targeted id as a ``storage`` error, and holds the epoch until a
    rerun re-encrypts the replacement."""
    victim = "rec-001"

    async def flow():
        service = await start_service(group, store_root, sweep_chunk=2)
        owner = await make_owner(scenario, service.host, service.port)
        core = scenario.owner_core
        original = service._sweep_apply_chunk
        replacement = {}

        def replace_then(*args):
            # Runs on the offload thread, where REPLACE_COMPONENT runs.
            component = replacement.pop("component", None)
            if component is not None:
                service.store.replace_component(victim, component)
            return original(*args)

        try:
            await populate(owner, 4)
            update_key = revoke_bob(scenario)
            replacement["component"] = seal_component(
                core, "note", f"{victim}/note#v0", b"replaced body",
                "hospital:doctor",
            )
            service._sweep_apply_chunk = replace_then
            first = await owner.sweep_revocation(update_key)
            held_at = core.authority_version("hospital")
            located = service.store.locate_ciphertext(f"{victim}/note#v0")
            stored = service.store.get(victim).component("note")
            # What update_component does once its REPLACE returns.
            core.retire_replaced(victim, "note", f"{victim}/note#v0")
            second = await owner.sweep_revocation(update_key)
            plaintext = await owner.read_own(victim, "note")
            audit = service.store.check()
        finally:
            await owner.close()
            await service.stop()
        return (update_key, first, held_at, located, stored, second,
                plaintext, audit)

    (update_key, first, held_at, located, stored, second, plaintext,
     audit) = run(flow())
    assert first["errors"][f"{victim}/note"]["code"] == "storage"
    assert sorted(first["updated"]) == [
        "rec-000/note", "rec-002/note", "rec-003/note"
    ]
    assert f"{victim}/note#v0" in first["pending"]
    assert not first["epoch_rolled"]
    assert held_at == update_key.from_version
    # The replace survived the sweep, and the index agrees with it.
    assert located == (victim, "note")
    assert stored.abe_ciphertext.ciphertext_id == f"{victim}/note#v0"
    assert second["updated"] == [f"{victim}/note#v0"]
    assert second["epoch_rolled"] and not second["pending"]
    assert plaintext == b"replaced body"
    assert audit["ok"], audit


# -- a crypto pool breaking mid-sweep -------------------------------------------

def test_failed_sweep_commits_the_chunks_it_applied(
        group, scenario, store_root, monkeypatch):
    original = server_module.reencrypt_records_raw
    calls = []

    def breaks_second_chunk(group, uk_raw, tasks):
        calls.append(len(tasks))
        if len(calls) == 2:
            raise BrokenExecutor("worker died")
        return original(group, uk_raw, tasks)

    monkeypatch.setattr(server_module, "reencrypt_records_raw",
                        breaks_second_chunk)

    async def flow():
        service = await start_service(group, store_root, sweep_chunk=2)
        owner = await make_owner(scenario, service.host, service.port)
        commits = []
        commit = service.store.commit_replacements

        def counted_commit():
            commits.append(len(service.store._pending_collect))
            return commit()

        try:
            await populate(owner, 4)
            update_key = revoke_bob(scenario)
            service.store.commit_replacements = counted_commit
            with pytest.raises(UnavailableError):
                await owner.sweep_revocation(update_key)
            failed_commits = list(commits)
            held_at = scenario.owner_core.authority_version("hospital")
            rerun = await owner.sweep_revocation(update_key)
            audit = service.store.check()
        finally:
            await owner.close()
            await service.stop()
        return update_key, failed_commits, held_at, rerun, audit

    update_key, failed_commits, held_at, rerun, audit = run(flow())
    # The failed sweep committed the first chunk's two write-backs.
    assert failed_commits == [2]
    assert held_at == update_key.from_version
    assert rerun["already_current"] == ["rec-000/note", "rec-001/note"]
    assert rerun["updated"] == ["rec-002/note", "rec-003/note"]
    assert rerun["epoch_rolled"]
    assert audit["ok"], audit
