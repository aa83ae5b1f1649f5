"""Sweeps racing uploads and replaces under load never leave a
ciphertext behind the owner's epoch, in the ledger or on the server.

A ciphertext written during a sweep is sealed at the old version; the
owner's one epoch rule (``DataOwner.settle_update``) holds the epoch
until a rerun of the same update key re-encrypts it. Churn records are
stored and deleted through the owner, so every ciphertext the server
holds is a live ledger id that the sweeps target.
"""

import asyncio
import tempfile

from repro.loadgen import LoadHarness, OpMix
from repro.loadgen.runner import start_local_service

MIX = "fetch=0.4,decrypt=0.2,upload=0.2,replace=0.1,sweep=0.1"


def _stored_versions(store) -> dict:
    """``ciphertext id -> hospital version`` of every stored ciphertext
    involving the authority."""
    versions = {}
    for record_id in store.record_ids():
        for component in store.get(record_id).components.values():
            ciphertext = component.abe_ciphertext
            if "hospital" in ciphertext.versions:
                versions[ciphertext.ciphertext_id] = \
                    ciphertext.versions["hospital"]
    return versions


def test_no_live_ciphertext_falls_behind_the_epoch(group):
    async def flow():
        with tempfile.TemporaryDirectory() as root:
            service = await start_local_service(group, root)
            harness = LoadHarness(group, service.host, service.port,
                                  seed=1)
            try:
                await harness.setup()
                result = await harness.run_closed(8, 12,
                                                  mix=OpMix.parse(MIX))
                stored = _stored_versions(service.store)
            finally:
                await harness.close()
                await service.stop()
        return harness.fabric.owner_core, result, stored

    core, result, stored = asyncio.run(flow())
    epoch = core.authority_version("hospital")
    behind = [
        ciphertext_id for ciphertext_id in core.records_involving("hospital")
        if core.record(ciphertext_id).versions["hospital"] < epoch
    ]
    assert result["per_class"]["sweep"]["count"] > 0 and epoch > 0
    assert result["per_class"]["upload"]["count"] > 0
    assert behind == []
    assert sorted(
        ciphertext_id for ciphertext_id, version in stored.items()
        if version < epoch
    ) == []
    assert sorted(stored) == sorted(core.records_involving("hospital"))
