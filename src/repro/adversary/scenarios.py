"""The built-in adversarial scenarios (see :mod:`repro.adversary.engine`).

Seven semantic adversaries, each driving the *real* stack — live
:class:`~repro.service.server.StorageService` sockets, real key
material, the real :class:`~repro.service.faults.ChaosProxy` — and each
paired with a control run that disables exactly the defense under test:

==========================  ==================================================
scenario                    paper claim exercised
==========================  ==================================================
``revoked-key-replay``      Section V-C: after ReKey + server ReEncrypt a
                            pre-revocation key is cryptographically dead
                            (control: the owner never pushes ReEncrypt)
``collusion-pooling``       Section VI: keys from different UIDs cannot be
                            pooled to satisfy a policy neither meets alone
                            (control: the CA's UID binding is broken)
``rogue-authority``         ``PK_UID`` pinning: an AA cannot mint usable
                            out-of-version or wrong-UID keys
                            (control: the verifier accepts attacker PKs)
``sweep-withholding``       sweep atomicity: withheld/reordered progress and
                            a dropped SWEEP_DONE never leave the ledger and
                            the store telling different epoch stories
                            (control: the owner's retry layer is removed)
``spam-flood``              graceful degradation: a flooding owner cannot
                            starve honest traffic or lose honest mutations
                            (control: the offload executor is bypassed)
``stale-replica``           fleet revocation: a healed replica must converge
                            before the epoch rolls — no node serves
                            pre-sweep ciphertexts behind a rolled epoch
                            (control: the epoch is force-rolled, no resume)
``stale-transform-token``   transform offload inherits Section V-C: the
                            epoch roll evicts registered transform keys, a
                            replayed stale token is version-REJECTED and a
                            forged-forward one is cryptographically dead
                            (control: transform-key eviction is disabled)
==========================  ==================================================

Scenario code favors explicitness over reuse: each function reads as the
attack transcript it is.
"""

from __future__ import annotations

import asyncio
import random
import time

from repro.adversary.drivers import (
    REJECTED,
    UNSATISFIED,
    attempt_component_decrypt,
    forge_key_version,
    forge_public_key,
    pool_secret_keys,
    relabel_key,
    snapshot_keys,
)
from repro.adversary.engine import scenario
from repro.adversary.invariants import (
    all_at_version,
    ledger_versions,
    replicas_identical,
    server_ciphertext_versions,
    versions_agree,
)
from repro.cluster.client import (
    ClusterAuthority,
    ClusterClient,
    ClusterOwner,
    ClusterUser,
)
from repro.cluster.topology import ClusterMap, ClusterNode
from repro.core.outsourcing import TransformKey
from repro.core.revocation import rekey_standard
from repro.errors import (
    IntegrityError,
    ReproError,
    SchemeError,
    TransportError,
)
from repro.pairing.group import PairingGroup
from repro.service.client import (
    AuthorityClient,
    BaseClient,
    OwnerClient,
    ServiceConnection,
    UserClient,
    seal_record,
)
from repro.service.faults import ChaosFleet, ChaosProxy, FaultSpec
from repro.service.protocol import MessageType
from repro.service.retry import RetryPolicy
from repro.service.server import StorageService
from repro.service.smoke import TrustFabric
from repro.service.store import RecordStore
from repro.system.meter import LatencyRecorder
from repro.system.records import StoredRecord


async def _start_service(ctx, name: str, **kwargs) -> StorageService:
    """One live node on its own seeded group (server-side decode draws
    must never advance the scenario world's RNG — same isolation as the
    cluster smoke)."""
    node_group = PairingGroup(ctx.group.params, seed=f"{ctx.seed}:{name}")
    service = StorageService(node_group,
                             RecordStore(ctx.root / name, node_group),
                             name=name, **kwargs)
    await service.start()
    return service


async def _connect(ctx, host: str, port: int, role: str, name: str, *,
                   retry: RetryPolicy = None,
                   timeout: float = 10.0) -> ServiceConnection:
    conn = ServiceConnection(ctx.group, host, port, role=role, name=name,
                             timeout=timeout, retry=retry)
    await conn.connect()
    return conn


async def _close_all(clients) -> None:
    for client in clients:
        await client.close()


async def _check_read(ctx, name, reader, expected, detail="") -> None:
    """A read that must recover ``expected`` bit-identically."""
    try:
        got = await reader()
    except ReproError as exc:
        ctx.check(name, False, f"{detail}read raised {exc!r}")
        return
    ctx.check(name, got == expected, detail + (
        "bit-identical" if got == expected else f"got {got!r}"
    ))


async def _check_read_fails(ctx, name, reader, detail="") -> None:
    """A read that must raise (any typed scheme/policy error)."""
    try:
        await reader()
    except ReproError as exc:
        ctx.check(name, True, f"{detail}{exc!r}")
        return
    ctx.check(name, False, f"{detail}read succeeded")


# ---------------------------------------------------------------------------
# 1. revoked key replay
# ---------------------------------------------------------------------------

@scenario(
    "revoked-key-replay",
    title="Revoked user replays pre-revocation keys",
    claim="Section V-C: ReKey + server-side ReEncrypt makes a "
          "pre-revocation secret key cryptographically useless against "
          "post-sweep ciphertexts; before ReEncrypt lands, the stale key "
          "still works — the paper's explicit in-flight window.",
    control="the owner never pushes the re-encryption updates (ReKey "
            "happens at the AA, the server keeps serving old-version "
            "ciphertexts, the careless owner rolls the epoch anyway)",
    control_invariant="stale-key-rejected",
)
async def revoked_key_replay(ctx) -> None:
    group = ctx.group
    service = await _start_service(ctx, "store")
    fabric = TrustFabric(group)
    aa, owner_core = fabric.aa, fabric.owner_core
    clients = []
    try:
        aa_client = AuthorityClient(await _connect(
            ctx, service.host, service.port, "aa", "AA:hospital"), aa)
        clients.append(aa_client)
        owner = OwnerClient(await _connect(
            ctx, service.host, service.port, "owner", "owner:alice"),
            owner_core)
        clients.append(owner)
        bob = UserClient(await _connect(
            ctx, service.host, service.port, "user", "user:bob"), "bob")
        clients.append(bob)
        carol = UserClient(await _connect(
            ctx, service.host, service.port, "user", "user:carol"), "carol")
        clients.append(carol)

        await aa_client.publish_keys()
        await owner.learn_authorities("hospital")
        fabric.issue_user_keys(bob, carol)

        note = b"MRI shows nothing acute."
        await owner.upload("record", {"note": (note, "hospital:doctor")})
        await _check_read(ctx, "pre-revocation-read",
                          lambda: bob.read("record", "note"), note)

        # The adversary saves its key material BEFORE being revoked.
        stale_keys = snapshot_keys(bob.secret_keys_for("alice"))
        result = rekey_standard(aa, "bob", ["doctor"])
        update_key = result.update_key

        # In-flight window: ReKey has run at the AA but the server has
        # not re-encrypted yet — the paper accepts that the stale key
        # still opens the old-version ciphertext in this window.
        component = await bob._fetch_component("record", "note")
        window = attempt_component_decrypt(group, component, fabric.bob_pk,
                                           stale_keys)
        ctx.check("in-flight-window-exists",
                  window.recovered and window.plaintext == note,
                  f"pre-ReEncrypt outcome {window.outcome}")

        bob.accept_rekey(result)
        carol.accept_rekey(result)

        if ctx.control:
            ctx.note("control: skipping push_revocation_updates — the "
                     "epoch rolls with the store never re-encrypted")
            owner_core.apply_update_key(update_key)
        else:
            updated = await owner.push_revocation_updates(update_key)
            ctx.note(f"server proxy-re-encrypted {len(updated)} "
                     f"ciphertexts")

        component = await bob._fetch_component("record", "note")
        ctx.check(
            "ciphertext-at-new-version",
            component.abe_ciphertext.versions.get("hospital")
            == update_key.to_version,
            f"store serves hospital v"
            f"{component.abe_ciphertext.versions.get('hospital')}, "
            f"expected v{update_key.to_version}",
        )

        # The replay proper: the honest client path must refuse with the
        # right error class (SchemeError/RevocationError)...
        replay = attempt_component_decrypt(group, component, fabric.bob_pk,
                                           stale_keys)
        ctx.check("stale-key-rejected", replay.outcome == REJECTED,
                  f"outcome {replay.outcome}: {replay.detail}")
        # ...and bypassing validation must still yield only garbage —
        # the failure is cryptographic, not bookkeeping.
        forced = attempt_component_decrypt(group, component, fabric.bob_pk,
                                           stale_keys, validate=False)
        ctx.check("stale-key-cryptographically-dead",
                  forced.cryptographically_dead,
                  f"forced outcome {forced.outcome}")

        await _check_read_fails(ctx, "revoked-read-fails",
                                lambda: bob.read("record", "note"))
        await _check_read(ctx, "survivor-read-bit-identical",
                          lambda: carol.read("record", "note"), note)
    finally:
        await _close_all(clients)
        await service.stop()


# ---------------------------------------------------------------------------
# 2. collusion by key pooling
# ---------------------------------------------------------------------------

@scenario(
    "collusion-pooling",
    title="Two users pool attribute keys across UIDs",
    claim="Section VI: every attribute key embeds the CA-chosen exponent "
          "u of its UID, so keys pooled from different users cannot "
          "reconstruct the blinding factor of a policy neither user "
          "satisfies alone.",
    control="the CA's UID binding is broken — eve's keys are issued over "
            "bob's public-key element, so the pooled wallet shares one u",
    control_invariant="pooled-keys-rejected",
)
async def collusion_pooling(ctx) -> None:
    group = ctx.group
    service = await _start_service(ctx, "store")
    fabric = TrustFabric(group)
    aa = fabric.aa
    eve_pk = fabric.ca.register_user("eve")
    policy = "hospital:doctor AND hospital:nurse"
    secret = b"dual-control pharmacy safe combination"
    clients = []
    try:
        aa_client = AuthorityClient(await _connect(
            ctx, service.host, service.port, "aa", "AA:hospital"), aa)
        clients.append(aa_client)
        owner = OwnerClient(await _connect(
            ctx, service.host, service.port, "owner", "owner:alice"),
            fabric.owner_core)
        clients.append(owner)
        eve_fetch = BaseClient(await _connect(
            ctx, service.host, service.port, "user", "user:eve"))
        clients.append(eve_fetch)

        await aa_client.publish_keys()
        await owner.learn_authorities("hospital")

        bob_keys = {"hospital": aa.keygen(fabric.bob_pk, ["doctor"],
                                          "alice")}
        if ctx.control:
            issue_pk = forge_public_key("eve", fabric.bob_pk.element)
            ctx.note("control: CA binding broken — eve's keys are issued "
                     "over bob's PK element")
        else:
            issue_pk = eve_pk
        eve_keys = {"hospital": aa.keygen(issue_pk, ["nurse"], "alice")}

        await owner.upload("vault", {"combo": (secret, policy)})
        # Downloading ciphertext bytes requires no authorization — the
        # scheme's security must not depend on withholding them.
        component = await eve_fetch._fetch_component("vault", "combo")

        alone_bob = attempt_component_decrypt(group, component,
                                              fabric.bob_pk, bob_keys)
        ctx.check("bob-alone-unsatisfied",
                  alone_bob.outcome == UNSATISFIED,
                  f"outcome {alone_bob.outcome}")
        alone_eve = attempt_component_decrypt(group, component, issue_pk,
                                              eve_keys)
        ctx.check("eve-alone-unsatisfied",
                  alone_eve.outcome == UNSATISFIED,
                  f"outcome {alone_eve.outcome}")

        pooled = pool_secret_keys(bob_keys, eve_keys)
        ctx.check(
            "pooled-attrs-span-policy",
            {"hospital:doctor", "hospital:nurse"}
            <= pooled["hospital"].attributes,
            f"pooled attributes {sorted(pooled['hospital'].attributes)}",
        )
        attack = attempt_component_decrypt(group, component, fabric.bob_pk,
                                           pooled, validate=False)
        ctx.check(
            "pooled-keys-rejected",
            not attack.recovered and attack.cryptographically_dead,
            f"outcome {attack.outcome}"
            + (" — plaintext recovered!" if attack.recovered else ""),
        )
    finally:
        await _close_all(clients)
        await service.stop()


# ---------------------------------------------------------------------------
# 3. rogue authority
# ---------------------------------------------------------------------------

@scenario(
    "rogue-authority",
    title="Compromised AA mints wrong-UID and out-of-version keys",
    claim="A compromised AA can only bind keys to the CA-certified "
          "PK_UID: relabeling another user's key or forging the version "
          "counter forward yields keys whose pairing products cannot "
          "cancel against the ciphertext.",
    control="the verifier accepts an attacker-chosen PK_UID instead of "
            "the CA-certified one (PK pinning disabled)",
    control_invariant="wrong-uid-key-rejected",
)
async def rogue_authority(ctx) -> None:
    group = ctx.group
    service = await _start_service(ctx, "store")
    fabric = TrustFabric(group)
    aa, owner_core = fabric.aa, fabric.owner_core
    eve_pk = fabric.ca.register_user("eve")
    note = b"Prescription: 20mg, once daily."
    clients = []
    try:
        aa_client = AuthorityClient(await _connect(
            ctx, service.host, service.port, "aa", "AA:hospital"), aa)
        clients.append(aa_client)
        owner = OwnerClient(await _connect(
            ctx, service.host, service.port, "owner", "owner:alice"),
            owner_core)
        clients.append(owner)
        bob = UserClient(await _connect(
            ctx, service.host, service.port, "user", "user:bob"), "bob")
        clients.append(bob)

        await aa_client.publish_keys()
        await owner.learn_authorities("hospital")
        bob.receive_public_key(fabric.bob_pk)
        bob.receive_secret_key(aa.keygen(fabric.bob_pk, ["doctor"],
                                         "alice"))
        eve_doctor = aa.keygen(eve_pk, ["doctor"], "alice")

        await owner.upload("record", {"note": (note, "hospital:doctor")})
        await _check_read(ctx, "legit-key-works",
                          lambda: bob.read("record", "note"), note)

        # Attack 1: the rogue AA relabels eve's key to bob's UID. The
        # label matches, but the elements embed eve's exponent.
        component = await bob._fetch_component("record", "note")
        rogue_key = {"hospital": relabel_key(eve_doctor, "bob")}
        probe_pk = fabric.bob_pk
        if ctx.control:
            probe_pk = forge_public_key("bob", eve_pk.element)
            ctx.note("control: verifier accepts the attacker's PK_UID — "
                     "the relabeled key now pairs against its own u")
        wrong_uid = attempt_component_decrypt(group, component, probe_pk,
                                              rogue_key, validate=False)
        ctx.check("wrong-uid-key-rejected", not wrong_uid.recovered,
                  f"outcome {wrong_uid.outcome}")

        # Attack 2: after a ReKey epoch, the rogue AA stamps an old key
        # with the new version number — without the UK's alpha ratio
        # ever touching the attribute elements. The forged counter
        # slips past the validation gate (uid, owner and version all
        # read correct), so only the pairing algebra can refuse.
        stale_bob = snapshot_keys(bob.secret_keys_for("alice"))
        result = rekey_standard(aa, "eve", ["doctor"])
        update_key = result.update_key
        bob.accept_rekey(result)
        updated = await owner.push_revocation_updates(update_key)
        ctx.note(f"eve revoked; {len(updated)} ciphertexts re-encrypted")
        await _check_read(ctx, "updated-key-works",
                          lambda: bob.read("record", "note"), note)

        component = await bob._fetch_component("record", "note")
        forged = {"hospital": forge_key_version(stale_bob["hospital"],
                                                update_key.to_version)}
        forgery = attempt_component_decrypt(group, component,
                                            fabric.bob_pk, forged)
        ctx.check("stale-version-forgery-rejected",
                  forgery.cryptographically_dead,
                  f"outcome {forgery.outcome}")
    finally:
        await _close_all(clients)
        await service.stop()


# ---------------------------------------------------------------------------
# 4. sweep frame withholding
# ---------------------------------------------------------------------------

@scenario(
    "sweep-withholding",
    title="Server-side proxy withholds and reorders sweep frames",
    claim="Sweep atomicity: a storage path that withholds or reorders "
          "SWEEP_PROGRESS frames and drops SWEEP_DONE cannot leave "
          "ciphertexts straddling revocation epochs — the owner's ledger "
          "and the store agree, and the epoch rolls exactly once.",
    control="the owner's retry layer is removed, so the dropped "
            "SWEEP_DONE is never recovered: the server has re-encrypted "
            "but the ledger never learns it",
    control_invariant="ledger-store-agree",
)
async def sweep_withholding(ctx) -> None:
    group = ctx.group
    records = int(ctx.param("records", 8))
    service = await _start_service(ctx, "store", sweep_chunk=2)
    fabric = TrustFabric(group)
    aa, owner_core = fabric.aa, fabric.owner_core
    # Deterministic semantic faults on the owner's reply stream: swallow
    # the first progress frame, hold the second past its successor, and
    # sever the connection on the final summary.
    proxy = ChaosProxy(
        service.host, service.port, spec=FaultSpec(), seed=ctx.seed,
        type_schedule={
            int(MessageType.SWEEP_PROGRESS): ["withhold", "reorder"],
            int(MessageType.SWEEP_DONE): ["drop"],
        },
    )
    await proxy.start()
    retry = None if ctx.control else RetryPolicy(
        max_attempts=8, rng=random.Random(ctx.seed)
    )
    if ctx.control:
        ctx.note("control: owner connection has no retry policy")
    clients = []
    try:
        aa_client = AuthorityClient(await _connect(
            ctx, service.host, service.port, "aa", "AA:hospital"), aa)
        clients.append(aa_client)
        owner = OwnerClient(await _connect(
            ctx, proxy.host, proxy.port, "owner", "owner:alice",
            retry=retry, timeout=3.0), owner_core)
        clients.append(owner)
        bob = UserClient(await _connect(
            ctx, service.host, service.port, "user", "user:bob"), "bob")
        clients.append(bob)
        carol = UserClient(await _connect(
            ctx, service.host, service.port, "user", "user:carol"),
            "carol")
        clients.append(carol)
        probe = BaseClient(await _connect(
            ctx, service.host, service.port, "user", "auditor"))
        clients.append(probe)

        await aa_client.publish_keys()
        await owner.learn_authorities("hospital")
        fabric.issue_user_keys(bob, carol)

        policies = ("hospital:doctor",
                    "hospital:doctor OR hospital:nurse")
        for index in range(records):
            await owner.upload(f"rec-{index:04d}", {
                "note": (f"note {index}".encode("utf-8"),
                         policies[index % 2]),
            })

        result = rekey_standard(aa, "bob", ["doctor"])
        update_key = result.update_key
        bob.accept_rekey(result)
        carol.accept_rekey(result)

        progress = []
        summary = None
        try:
            summary = await owner.sweep_revocation(
                update_key, on_progress=progress.append
            )
        except (TransportError, EOFError, OSError) as exc:
            # Without a retry layer the severed reply stream surfaces
            # as a raw transport error — the control's whole point.
            ctx.note(f"sweep aborted client-side: {exc!r}")

        swept = set()
        if summary is not None:
            swept = set(summary.get("updated", ())) | set(
                summary.get("already_current", ())
            )
        ctx.check(
            "sweep-covers-all",
            summary is not None and len(swept) == records
            and not (summary and summary.get("errors")),
            f"{len(swept)}/{records} swept, "
            f"{len(progress)} progress frames seen",
        )
        ctx.check(
            "epoch-rolled-once",
            owner_core.authority_version("hospital")
            == update_key.to_version,
            f"owner epoch v{owner_core.authority_version('hospital')}, "
            f"expected v{update_key.to_version}",
        )

        server_view = await server_ciphertext_versions(probe, "hospital")
        ok, detail = all_at_version(server_view, update_key.to_version)
        ctx.check("no-epoch-straddle", ok, detail)
        ok, detail = versions_agree(server_view,
                                    ledger_versions(owner_core, "hospital"))
        ctx.check("ledger-store-agree", ok, detail)
        ctx.check("faults-injected", len(proxy.injected) >= 2,
                  f"injected {proxy.fault_counts()}")

        await _check_read_fails(ctx, "revoked-read-fails",
                                lambda: bob.read("rec-0000", "note"))
        await _check_read(ctx, "survivor-read-bit-identical",
                          lambda: carol.read("rec-0001", "note"),
                          b"note 1")
    finally:
        await _close_all(clients)
        await proxy.stop()
        await service.stop()


# ---------------------------------------------------------------------------
# 5. spam flood
# ---------------------------------------------------------------------------

@scenario(
    "spam-flood",
    title="Spammy owner floods the blob store",
    claim="Graceful degradation: a flooding owner pushing decode-heavy "
          "records cannot starve honest traffic (honest p99 stays "
          "bounded) and cannot make the store lose an honest mutation "
          "landing mid-flood.",
    control="the server's offload executor is bypassed "
            "(inline_crypto=True): record decoding runs on the event "
            "loop, so every spam record blocks every honest frame",
    control_invariant="honest-latency-bounded",
)
async def spam_flood(ctx) -> None:
    group = ctx.group
    spam_records = int(ctx.param("spam_records", 3))
    decode_target = float(ctx.param("spam_decode_target", 0.45))
    service = await _start_service(ctx, "store",
                                   inline_crypto=ctx.control)
    if ctx.control:
        ctx.note("control: inline_crypto=True — decode blocks the loop")
    fabric = TrustFabric(group)
    aa, owner_core = fabric.aa, fabric.owner_core
    owner_core.learn_authority(aa.authority_public_key(),
                               aa.public_attribute_keys())
    carol_keys = {"hospital": aa.keygen(fabric.carol_pk,
                                        ["doctor", "nurse"], "alice")}

    # Calibrate the flood off-line: measure per-component decode cost on
    # a server-like group, then size the spam records so each one costs
    # the server ~decode_target seconds of CPU to take apart.
    policy = "hospital:nurse"

    def make_components(count, prefix):
        return seal_record(owner_core, prefix, {
            f"part-{index:04d}": (b"spam payload", policy)
            for index in range(count)
        }).components

    probe_group = PairingGroup(ctx.group.params, seed=f"{ctx.seed}:probe")
    probe_blob = StoredRecord(record_id="probe", owner_id="alice",
                              components=make_components(8, "probe")
                              ).to_bytes()
    started = time.perf_counter()
    StoredRecord.from_bytes(probe_group, probe_blob)
    per_component = (time.perf_counter() - started) / 8
    count = int(min(max(decode_target / max(per_component, 1e-6), 12),
                    320))
    ctx.note(f"calibrated: {per_component * 1000:.2f} ms/component "
             f"decode, {count} components per spam record")
    spam_components = make_components(count, "spam-0")
    spam_blobs = [
        StoredRecord(record_id=f"spam-{index}", owner_id="alice",
                     components=spam_components).to_bytes()
        for index in range(spam_records)
    ]
    decode_seconds = per_component * count
    # Honest traffic must stay well under the time one spam record
    # costs; inline decode necessarily blows through this bound.
    bound = max(0.2, 0.5 * decode_seconds)

    # The honest mutation that must land mid-flood, pre-encrypted so
    # the measurement loop spends no client-side CPU on it.
    honest_note = b"Allergy alert: penicillin."
    honest_blob = seal_record(owner_core, "mid-flood", {
        "note": (honest_note, policy),
    }).to_bytes()

    clients = []
    try:
        spam_conn = await _connect(ctx, service.host, service.port,
                                   "owner", "owner:spammer",
                                   timeout=30.0)
        clients.append(BaseClient(spam_conn))
        honest_conn = await _connect(ctx, service.host, service.port,
                                     "owner", "owner:alice",
                                     timeout=30.0)
        clients.append(BaseClient(honest_conn))
        pinger = BaseClient(await _connect(
            ctx, service.host, service.port, "user", "user:pinger",
            timeout=30.0))
        clients.append(pinger)

        latencies = LatencyRecorder("honest-ping")
        flood_done = asyncio.Event()

        async def flood():
            for blob in spam_blobs:
                await spam_conn.request(MessageType.STORE_RECORD, blob,
                                        expect=MessageType.OK)
            flood_done.set()

        async def ping_loop():
            while not flood_done.is_set():
                started = time.perf_counter()
                await pinger.ping()
                latencies.record(time.perf_counter() - started)
                await asyncio.sleep(0.02)

        flood_task = asyncio.create_task(flood())
        ping_task = asyncio.create_task(ping_loop())
        # Land the honest mutation while the flood is in full swing.
        await asyncio.sleep(0.01)
        await honest_conn.request(MessageType.STORE_RECORD, honest_blob,
                                  expect=MessageType.OK)
        await flood_task
        await ping_task

        summary = latencies.summary()
        ctx.note(f"honest pings: {summary['count']} samples, "
                 f"p50 {summary['p50'] * 1000:.1f} ms, "
                 f"p99 {summary['p99'] * 1000:.1f} ms "
                 f"(bound {bound * 1000:.0f} ms)")
        ctx.check(
            "honest-latency-bounded",
            len(latencies) >= 5 and latencies.percentile(99) <= bound,
            f"p99 {latencies.percentile(99) * 1000:.1f} ms vs bound "
            f"{bound * 1000:.0f} ms over {len(latencies)} samples",
        )

        stored = set(await pinger.list_records())
        spam_ids = {f"spam-{index}" for index in range(spam_records)}
        ctx.check("spam-stored", spam_ids <= stored,
                  f"stored {sorted(stored)}")
        component = await pinger._fetch_component("mid-flood", "note")
        outcome = attempt_component_decrypt(group, component,
                                            fabric.carol_pk, carol_keys)
        ctx.check(
            "no-lost-mutations",
            outcome.recovered and outcome.plaintext == honest_note,
            f"mid-flood mutation outcome {outcome.outcome}",
        )
    finally:
        await _close_all(clients)
        await service.stop()


# ---------------------------------------------------------------------------
# 6. stale replica after partition heal
# ---------------------------------------------------------------------------

@scenario(
    "stale-replica",
    title="Partitioned replica serves pre-sweep ciphertexts after heal",
    claim="Fleet revocation holds the epoch open while any replica is "
          "unreachable; rerunning the same sweep after the partition "
          "heals converges every replica byte-identically before the "
          "epoch rolls — no node ever serves a pre-sweep ciphertext "
          "behind a rolled epoch.",
    control="the owner force-rolls the revocation epoch past the "
            "partitioned replica and never reruns the sweep",
    control_invariant="stale-replica-rejected",
)
async def stale_replica(ctx) -> None:
    group = ctx.group
    records = int(ctx.param("records", 5))
    names = [f"node-{index}" for index in range(3)]
    services = {}
    fleet = None
    roles = []
    probes = []
    try:
        for name in names:
            services[name] = await _start_service(ctx, name)
        # Every client dialogue crosses the fleet's proxies, so one
        # partition() call severs exactly one node from everyone.
        fleet = ChaosFleet(
            {name: (service.host, service.port)
             for name, service in services.items()},
            seed=ctx.seed,
        )
        await fleet.start()
        cluster_map = ClusterMap(
            [ClusterNode(name, *fleet.address(name)) for name in names],
            replication=2,
        )

        def cluster_client(role, cname):
            return ClusterClient(group, cluster_map, role=role,
                                 name=cname, timeout=5.0,
                                 retry_seed=ctx.seed, max_attempts=2)

        fabric = TrustFabric(group)
        aa, owner_core = fabric.aa, fabric.owner_core
        authority = ClusterAuthority(cluster_client("aa", "AA:hospital"),
                                     aa)
        owner = ClusterOwner(cluster_client("owner", "owner:alice"),
                             owner_core)
        bob = ClusterUser(cluster_client("user", "user:bob"), "bob")
        carol = ClusterUser(cluster_client("user", "user:carol"), "carol")
        roles = [authority, owner, bob, carol]

        await authority.publish_keys()
        await owner.learn_authorities("hospital")
        fabric.issue_user_keys(bob, carol)

        record_ids = [f"rec-{index:03d}" for index in range(records)]
        for index, record_id in enumerate(record_ids):
            await owner.upload(record_id, {
                "note": (f"note {index}".encode("utf-8"),
                         "hospital:doctor"),
            })
        await _check_read(ctx, "pre-revocation-read",
                          lambda: bob.read(record_ids[0], "note"),
                          b"note 0")
        stale_keys = snapshot_keys(bob.secret_keys_for("alice"))

        result = rekey_standard(aa, "bob", ["doctor"])
        update_key = result.update_key

        victim = cluster_map.replicas_for(record_ids[0])[0].name
        fleet.partition(victim)
        ctx.note(f"partitioned {victim} (primary replica of "
                 f"{record_ids[0]})")
        # Before any keys roll: availability must survive the dead
        # primary via replica failover.
        await _check_read(ctx, "read-survives-partition",
                          lambda: carol.read(record_ids[0], "note"),
                          b"note 0")

        bob.accept_rekey(result)
        carol.accept_rekey(result)

        sweep_one = await owner.sweep_revocation(update_key)
        ctx.check(
            "partial-sweep-holds-epoch",
            bool(sweep_one["pending"])
            and not sweep_one["epoch_rolled"]
            and owner_core.authority_version("hospital")
            == update_key.from_version,
            f"{len(sweep_one['pending'])} pending, epoch_rolled="
            f"{sweep_one['epoch_rolled']}",
        )

        if ctx.control:
            ctx.note("control: force-rolling the epoch with "
                     f"{len(sweep_one['pending'])} ciphertexts pending; "
                     "the sweep is never rerun")
            owner_core.apply_update_key(update_key)
            fleet.heal(victim)
        else:
            fleet.heal(victim)
            sweep_two = await owner.sweep_revocation(update_key)
            ctx.check(
                "resume-converges",
                not sweep_two["pending"] and sweep_two["epoch_rolled"],
                f"rerun converged {len(sweep_two['converged'])} "
                f"ciphertexts, pending {sweep_two['pending']}",
            )

        cluster = owner.cluster
        convergence = []
        for record_id in record_ids:
            digests = await cluster.replica_digests(record_id,
                                                    verify=True)
            ok, detail = replicas_identical(digests)
            if not ok:
                convergence.append(f"{record_id}: {detail}")
        ctx.check("replicas-byte-identical", not convergence,
                  "; ".join(convergence) or
                  f"{len(record_ids)} records converged")

        # Interrogate the healed victim directly: whatever it serves,
        # the revoked user's pre-sweep keys must be useless against it.
        victim_probe = BaseClient(await _connect(
            ctx, *fleet.address(victim), "user", "user:bob",
            timeout=5.0))
        probes.append(victim_probe)
        component = await victim_probe._fetch_component(record_ids[0],
                                                        "note")
        validated = attempt_component_decrypt(group, component,
                                              fabric.bob_pk, stale_keys)
        forced = attempt_component_decrypt(group, component,
                                           fabric.bob_pk, stale_keys,
                                           validate=False)
        ctx.check(
            "stale-replica-rejected",
            validated.outcome == REJECTED and not forced.recovered,
            f"validated {validated.outcome}, forced {forced.outcome}",
        )

        await _check_read_fails(ctx, "revoked-cluster-read-fails",
                                lambda: bob.read(record_ids[0], "note"))
        await _check_read(ctx, "survivor-read-bit-identical",
                          lambda: carol.read(record_ids[1], "note"),
                          b"note 1")
    finally:
        for probe in probes:
            await probe.close()
        for role in roles:
            await role.close()
        if fleet is not None:
            await fleet.stop()
        for service in services.values():
            await service.stop()


# ---------------------------------------------------------------------------
# 7. stale transform token
# ---------------------------------------------------------------------------

@scenario(
    "stale-transform-token",
    title="Revoked user replays a pre-revocation transform key",
    claim="Outsourced decryption inherits Section V-C revocation: a "
          "sweep's epoch roll evicts every registered transform key it "
          "outran, a replayed stale token is version-rejected (typed "
          "SchemeError, before any pairing runs) exactly like a cold "
          "stale-key decrypt, and forging its version counters forward "
          "yields only a cryptographically dead partial the AEAD layer "
          "refuses — never plaintext.",
    control="the server's transform-key eviction is disabled "
            "(evict_transform_keys=False): pre-revocation tokens stay "
            "registered across the sweep",
    control_invariant="stale-token-evicted",
)
async def stale_transform_token(ctx) -> None:
    group = ctx.group
    service = await _start_service(ctx, "store",
                                   evict_transform_keys=not ctx.control)
    if ctx.control:
        ctx.note("control: evict_transform_keys=False — the sweep's "
                 "epoch roll leaves registered tokens in place")
    fabric = TrustFabric(group)
    aa, owner_core = fabric.aa, fabric.owner_core
    note = b"Bloodwork panel: all values nominal."
    clients = []
    try:
        aa_client = AuthorityClient(await _connect(
            ctx, service.host, service.port, "aa", "AA:hospital"), aa)
        clients.append(aa_client)
        owner = OwnerClient(await _connect(
            ctx, service.host, service.port, "owner", "owner:alice"),
            owner_core)
        clients.append(owner)
        bob = UserClient(await _connect(
            ctx, service.host, service.port, "user", "user:bob"), "bob")
        clients.append(bob)
        carol = UserClient(await _connect(
            ctx, service.host, service.port, "user", "user:carol"),
            "carol")
        clients.append(carol)

        await aa_client.publish_keys()
        await owner.learn_authorities("hospital")
        fabric.issue_user_keys(bob, carol)

        await owner.upload("record", {
            "note": (note, "hospital:doctor OR hospital:nurse"),
        })

        # Bob mints his outsourcing token by hand so the scenario can
        # keep the TransformKey object for the replay; the private z
        # stays client-side exactly as in register_transform_key.
        stale_token, retrieval = bob.mint_transform_key("alice")
        await bob.put_transform_key(stale_token)
        bob.retrieval_keys["alice"] = retrieval
        await carol.register_transform_key("alice")
        await _check_read(ctx, "pre-revocation-outsourced-read",
                          lambda: bob.read_outsourced("record", "note"),
                          note)
        registered = (await bob.stats())["transform_keys"]
        ctx.check("tokens-registered", registered == 2,
                  f"{registered} transform keys registered")

        # Bob is revoked; the owner sweeps, which re-encrypts the store
        # AND (defense under test) evicts every transform key whose
        # embedded version the epoch roll outran — survivors' included,
        # since their tokens are equally stale.
        result = rekey_standard(aa, "bob", ["doctor"])
        update_key = result.update_key
        bob.accept_rekey(result)
        carol.accept_rekey(result)
        summary = await owner.sweep_revocation(update_key)
        ctx.note(f"sweep re-encrypted {len(summary.get('updated', ()))} "
                 f"ciphertexts")

        stats = await bob.stats()
        evictions = stats["counters"].get("transform.cache.evict", 0)
        ctx.check(
            "stale-token-evicted",
            stats["transform_keys"] == 0 and evictions >= registered,
            f"{stats['transform_keys']} tokens registered after the "
            f"sweep, {evictions} evictions",
        )
        await _check_read_fails(ctx, "revoked-outsourced-read-fails",
                                lambda: bob.read_outsourced("record",
                                                            "note"))

        # The replay proper: re-registering the saved pre-revocation
        # token succeeds (registration validates the UID, not the
        # epoch), but TRANSFORM_FETCH must refuse with the *version*
        # gate — the same typed SchemeError a cold stale-key decrypt
        # raises, never an AEAD failure on a garbage partial.
        await bob.put_transform_key(stale_token)
        try:
            await bob.read_outsourced("record", "note")
            ctx.check("replayed-token-version-rejected", False,
                      "outsourced read succeeded")
        except SchemeError as exc:
            ctx.check("replayed-token-version-rejected", True, repr(exc))
        except ReproError as exc:
            ctx.check("replayed-token-version-rejected", False,
                      f"wrong error class: {exc!r}")

        # Forgery: stamp the stale token's version counters forward so
        # it slips the validation gate — only the pairing algebra can
        # refuse now, and it must: the partial is garbage, so the AEAD
        # open fails client-side. Never plaintext, never silent.
        forged = TransformKey(
            uid=stale_token.uid,
            owner_id=stale_token.owner_id,
            transformed_public=stale_token.transformed_public,
            transformed_secret={
                aid: forge_key_version(key, update_key.to_version)
                for aid, key in stale_token.transformed_secret.items()
            },
        )
        await bob.put_transform_key(forged)
        try:
            await bob.read_outsourced("record", "note")
            ctx.check("forged-token-cryptographically-dead", False,
                      "plaintext recovered!")
        except IntegrityError as exc:
            ctx.check("forged-token-cryptographically-dead", True,
                      f"AEAD refused the garbage partial: {exc!r}")
        except ReproError as exc:
            ctx.check("forged-token-cryptographically-dead", False,
                      f"refused before the pairing algebra: {exc!r}")

        # The survivor's recovery path: mint a fresh token over the
        # rolled keys and read outsourced, bit-identical.
        await carol.register_transform_key("alice")
        await _check_read(ctx, "survivor-outsourced-bit-identical",
                          lambda: carol.read_outsourced("record", "note"),
                          note)
    finally:
        await _close_all(clients)
        await service.stop()
