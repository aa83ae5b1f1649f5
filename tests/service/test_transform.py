"""Server-side transform offload over real localhost sockets.

``PUT_TRANSFORM_KEY`` / ``TRANSFORM_FETCH`` end to end: registration,
pairing-free client reads, and the revocation discipline — both
re-encryption paths (per-ciphertext ``REENCRYPT`` and the bulk sweep)
must evict every registered transform key the epoch roll outran, and a
replayed stale token must be version-rejected with a typed error, never
served as a garbage partial.
"""

import asyncio

import pytest

from repro.core.decrypt import decrypt
from repro.core.outsourcing import make_transform_key
from repro.core.reencrypt import reencrypt
from repro.core.revocation import rekey_standard
from repro.errors import AuthorizationError, SchemeError
from repro.pairing.group import PairingGroup
from repro.service.client import OwnerClient, ServiceConnection, UserClient

from .conftest import run, start_service

PLAINTEXT = b"transformed body \x00\xff"
POLICY = "hospital:doctor OR hospital:nurse"


async def connect(group, service, role, name) -> ServiceConnection:
    conn = ServiceConnection(
        group, service.host, service.port, role=role, name=name
    )
    return await conn.connect()


async def make_user(scenario, service, uid, *, client_group=None):
    """A UserClient on its own group, so client-side op counters never
    absorb the in-process server's pairing work."""
    if client_group is None:
        client_group = PairingGroup(
            scenario.group.params, seed=f"client:{uid}"
        )
    user = UserClient(
        await connect(client_group, service, "user", f"user:{uid}"), uid
    )
    user.receive_public_key(getattr(scenario, f"{uid}_pk"))
    user.receive_secret_key(getattr(scenario, f"{uid}_sk"))
    return user


async def upload(scenario, service) -> OwnerClient:
    owner = OwnerClient(
        await connect(scenario.group, service, "owner", "owner:alice"),
        scenario.owner_core,
    )
    await owner.upload("record", {"note": (PLAINTEXT, POLICY)})
    return owner


def test_outsourced_read_is_pairing_free(group, scenario, store_root):
    async def body():
        service = await start_service(group, store_root)
        try:
            owner = await upload(scenario, service)
            bob = await make_user(scenario, service, "bob")
            await bob.register_transform_key("alice")
            before = bob.group.op_counts()["pairings"]
            got = await bob.read_outsourced("record", "note")
            client_pairings = bob.group.op_counts()["pairings"] - before
            stats = await bob.stats()
            await owner.close()
            await bob.close()
            return got, client_pairings, stats
        finally:
            await service.stop()

    got, client_pairings, stats = run(body())
    assert got == PLAINTEXT
    assert client_pairings == 0
    assert stats["transform_keys"] == 1
    assert stats["counters"]["transform.cache.hit"] == 1


def test_fetch_without_registration_fails(group, scenario, store_root):
    async def body():
        service = await start_service(group, store_root)
        try:
            owner = await upload(scenario, service)
            bob = await make_user(scenario, service, "bob")
            with pytest.raises(AuthorizationError, match="transform key"):
                await bob.read_outsourced("record", "note")
            await owner.close()
            await bob.close()
        finally:
            await service.stop()

    run(body())


def _revoke_bob(scenario):
    """ReKey bob out of 'doctor'; carol rolls forward."""
    result = rekey_standard(scenario.aa, "bob", ["doctor"])
    update_key = result.update_key
    from repro.core.authority import apply_update_key

    scenario.carol_sk = apply_update_key(scenario.carol_sk, update_key)
    return update_key


@pytest.mark.parametrize("via_sweep", [False, True],
                         ids=["reencrypt", "sweep"])
def test_epoch_roll_evicts_transform_keys(group, scenario, store_root,
                                          via_sweep):
    async def body():
        service = await start_service(group, store_root)
        try:
            owner = await upload(scenario, service)
            bob = await make_user(scenario, service, "bob")
            carol = await make_user(scenario, service, "carol")
            # Keep bob's pre-revocation token for the replay below.
            stale_token, _ = make_transform_key(
                bob.group, scenario.bob_pk, {"hospital": scenario.bob_sk}
            )
            await bob.put_transform_key(stale_token)
            await carol.register_transform_key("alice")
            assert (await bob.stats())["transform_keys"] == 2

            update_key = _revoke_bob(scenario)
            carol.apply_update_key(update_key)
            if via_sweep:
                await owner.sweep_revocation(update_key)
            else:
                await owner.push_revocation_updates(update_key)

            stats = await bob.stats()
            # Conservative eviction: survivors' tokens embed the old
            # version too, so the roll drops every registered token.
            assert stats["transform_keys"] == 0
            assert stats["counters"]["transform.cache.evict"] >= 2
            with pytest.raises(AuthorizationError, match="transform key"):
                await bob.read_outsourced("record", "note")

            # Replaying the stale token re-registers it (the UID still
            # checks out), but the fetch is version-REJECTED server-side
            # before any pairing — a typed SchemeError, never a garbage
            # partial that dies at the AEAD layer.
            await bob.put_transform_key(stale_token)
            with pytest.raises(SchemeError, match="version"):
                await bob.read_outsourced("record", "note")

            # The survivor re-registers over rolled keys and reads on.
            await carol.register_transform_key("alice")
            assert await carol.read_outsourced("record", "note") \
                == PLAINTEXT
            await owner.close()
            await bob.close()
            await carol.close()
        finally:
            await service.stop()

    run(body())


def test_stale_ciphertext_in_transform_batch_fails_alone(group, scenario,
                                                         store_root):
    """A micro-batch holding one stale ciphertext: only its request gets
    the typed error; its siblings get reference-identical partials from
    the per-item fallback, at the session form's 2 pairings each."""
    owner = scenario.owner_core
    siblings = [
        owner.encrypt(group.random_gt(), POLICY, ciphertext_id=f"ct-{index}")
        for index in range(3)
    ]
    transform_key, _ = make_transform_key(
        group, scenario.bob_pk, {"hospital": scenario.bob_sk}
    )
    update_key = _revoke_bob(scenario)
    info = owner.update_info(siblings[0], update_key)
    owner.apply_update_key(update_key)
    stale = reencrypt(group, siblings[0], update_key, info)
    batch = [siblings[0], stale, siblings[1], siblings[2]]

    async def body():
        service = await start_service(group, store_root)
        try:
            group.counter.reset()
            # gather queues all four before the drain task first runs,
            # so they form one micro-batch.
            results = await asyncio.gather(
                *(service._transform_partial(ciphertext, transform_key)
                  for ciphertext in batch),
                return_exceptions=True,
            )
            return (results, group.counter.pairings,
                    service.meter.counter("transform.batch.amortized"))
        finally:
            await service.stop()

    results, pairings, amortized = run(body())
    assert amortized == len(batch) - 1
    assert isinstance(results[1], SchemeError)
    assert "version" in str(results[1])
    for ciphertext, partial in zip(batch, results):
        if ciphertext is stale:
            continue
        reference = ciphertext.c / decrypt(
            group, ciphertext, transform_key.transformed_public,
            transform_key.transformed_secret,
        )
        assert partial.to_bytes() == reference.to_bytes()
    # The failed batch call spent no pairing; the fallback re-ran each
    # sibling through the one transform at 2 pairings apiece.
    assert pairings == 2 * len(siblings)
