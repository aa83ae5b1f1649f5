"""Sweeps racing uploads and replaces under load never leave a live
ciphertext behind the owner's epoch.

A ciphertext written during a sweep is sealed at the old version; the
owner's one epoch rule (``DataOwner.settle_update``) holds the epoch
until a rerun of the same update key re-encrypts it, and a delete
retires its ledger entries so stale churn bytes are no target.
"""

import asyncio
import tempfile

from repro.loadgen import LoadHarness, OpMix
from repro.loadgen.runner import start_local_service

MIX = "fetch=0.4,decrypt=0.2,upload=0.2,replace=0.1,sweep=0.1"


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
            finally:
                await harness.close()
                await service.stop()
        return harness.fabric.owner_core, result

    core, result = asyncio.run(flow())
    epoch = core.authority_version("hospital")
    behind = [
        ciphertext_id for ciphertext_id in core.records_involving("hospital")
        if core.record(ciphertext_id).versions["hospital"] < epoch
    ]
    assert result["per_class"]["sweep"]["count"] > 0 and epoch > 0
    assert behind == []
