"""``UserClient.read_many`` over real localhost sockets.

The batch read downloads every component through one pipeline window
and decrypts each policy shape with one ``DecryptionSession``: it must
return exactly what per-item ``read`` returns, and build one session
per shape rather than one per component.
"""

from repro.service.client import OwnerClient, ServiceConnection, UserClient

from .conftest import run, start_service

SHAPES = ("hospital:doctor", "hospital:doctor OR hospital:nurse")


def test_read_many_matches_per_item_reads(group, scenario, store_root):
    components = {
        f"part-{index}": (f"body {index}".encode(), SHAPES[index % 2])
        for index in range(6)
    }
    items = [("record-a", name) for name in components] \
        + [("record-b", name) for name in list(components)[:3]]

    async def body():
        service = await start_service(group, store_root)
        try:
            owner = OwnerClient(await ServiceConnection(
                group, service.host, service.port, role="owner",
                name="owner:alice").connect(), scenario.owner_core)
            await owner.upload("record-a", components)
            await owner.upload("record-b", components)
            carol = UserClient(await ServiceConnection(
                group, service.host, service.port, role="user",
                name="user:carol", max_inflight=8).connect(), "carol")
            carol.receive_public_key(scenario.carol_pk)
            carol.receive_secret_key(scenario.carol_sk)
            meter = carol.connection.meter
            batch = await carol.read_many(items)
            after_batch = meter.counter_summary("decrypt.session.")
            sessions = len(carol.decrypt_sessions)
            single = [await carol.read(record_id, name)
                      for record_id, name in items]
            after_single = meter.counter_summary("decrypt.session.")
            await owner.close()
            await carol.close()
            return batch, single, after_batch, sessions, after_single
        finally:
            await service.stop()

    batch, single, after_batch, sessions, after_single = run(body())
    expected = [components[name][0] for _, name in items]
    assert single == expected
    assert batch == single
    # One session per policy shape: a miss each, every other item a hit,
    # and one batched decrypt_many call per shape.
    assert sessions == len(SHAPES)
    assert after_batch["decrypt.session.miss"] == len(SHAPES)
    assert after_batch["decrypt.session.hit"] == len(items) - len(SHAPES)
    assert after_batch["decrypt.session.batch"] == len(SHAPES)
    assert after_batch["decrypt.session.decrypt"] == len(items)
    # Per-item reads reuse the same two sessions.
    assert after_single["decrypt.session.miss"] == len(SHAPES)
    assert after_single["decrypt.session.hit"] \
        == 2 * len(items) - len(SHAPES)
