"""The self-contained cluster smoke cycle (``repro cluster smoke``).

Boots N in-process :class:`repro.service.StorageService` nodes on
temporary stores, places records over them with replication factor R,
and drives the acceptance story of the sharded fabric end to end:

1. authority keys publish to **every** node; replicated uploads land on
   R replicas each (quorum-acked);
2. a replica's blob is corrupted on disk — the next read digest-detects
   it server-side, fails over, serves intact bytes from a peer, and
   repairs the corrupt copy back to digest-identical;
3. one node is **killed** — every record stays fetchable through the
   surviving replicas;
4. a revocation sweep with the node still dead converges everywhere it
   can and reports the rest ``pending`` (the epoch does *not* roll);
   the node restarts on its old store, the *same* sweep reruns as the
   resume, already-swept replicas answer ``already_current``, and the
   epoch rolls with **no node left stale**;
5. the revoked read fails, surviving reads stay bit-identical, every
   replica of every record is digest-identical, and a scrub finds
   nothing left to repair;
6. finally an identically seeded **single-node world** replays the same
   logical operations, and every re-encrypted ABE ciphertext in the
   cluster must be byte-identical to its single-node counterpart —
   sharding and the dead-node detour changed *where* the ciphertexts
   live, never *which* bytes ``ReEncrypt`` produced.

With ``chaos`` set, one node (``node-0``) sits behind a
:class:`repro.service.faults.ChaosFleet` proxy injecting seeded faults
while the other nodes forward faithfully — the cycle must survive the
same way the single-node chaos smoke does, through per-node retrying
connections with decorrelated jitter.

Every server runs on its *own* seeded :class:`PairingGroup`, so
server-side verification draws never perturb the client world's
randomness — that isolation is what makes step 6's byte comparison
exact.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

from repro.cluster.client import (
    ClusterAuthority,
    ClusterClient,
    ClusterOwner,
    ClusterUser,
)
from repro.cluster.topology import ClusterMap, ClusterNode
from repro.core.revocation import rekey_standard
from repro.errors import ReproError
from repro.pairing.group import PairingGroup
from repro.service.faults import ChaosFleet, FaultSpec
from repro.service.server import StorageService
from repro.service.smoke import SmokeFailure, TrustFabric, connect_fabric
from repro.service.store import RecordStore
from repro.system.meter import Meter


def _policies():
    return ("hospital:doctor", "hospital:doctor OR hospital:nurse")


def _abe_digests(record) -> dict:
    """component name -> digest of its ABE ciphertext bytes.

    The cross-world identity check targets the ABE ciphertexts — the
    part ``ReEncrypt`` rewrites — because the sealed DEM body carries a
    fresh OS-random nonce per encryption, so *whole-record* identity
    only holds within one world (where replicas share literal bytes).
    """
    return {
        name: hashlib.sha256(
            component.abe_ciphertext.to_bytes()
        ).hexdigest()
        for name, component in record.components.items()
    }


def _record_ids(records: int) -> list:
    return [f"rec-{index:03d}" for index in range(records)]


async def _start_node(params, seed, name: str, root: Path) -> StorageService:
    # Each node gets a private group: its verification/decode draws must
    # never advance the client world's RNG (byte-identity depends on it).
    node_group = PairingGroup(params, seed=f"{seed}:{name}")
    service = StorageService(node_group, RecordStore(root, node_group),
                             name=name, workers=0)
    await service.start()
    return service


async def run_cluster_smoke(params, *, nodes: int = 3, replication: int = 2,
                            records: int = 6, out=None, seed=1,
                            chaos: FaultSpec = None, chaos_seed: int = 0,
                            ring_seed=0, timeout: float = 30.0,
                            verify_single: bool = True,
                            report: dict = None) -> int:
    """Run the full cluster acceptance cycle; returns a process exit code."""
    out = out or sys.stdout
    group = PairingGroup(params, seed=seed)

    def step(label: str) -> None:
        print(f"ok: {label}", file=out, flush=True)

    services = {}
    fleet = None
    clients = []
    single_service = None
    with tempfile.TemporaryDirectory(prefix="repro-cluster-") as tmp:
        tmp_root = Path(tmp)
        try:
            names = [f"node-{index}" for index in range(nodes)]
            for name in names:
                services[name] = await _start_node(
                    params, seed, name, tmp_root / name
                )
            addresses = {name: (services[name].host, services[name].port)
                         for name in names}
            max_attempts = 3
            if chaos is not None:
                # Faults in front of node-0 only: the other proxies
                # forward faithfully, which pins down (via the fleet's
                # per-name seeding) that one node's chaos never shifts
                # another node's stream.
                fleet = ChaosFleet(addresses, specs={names[0]: chaos},
                                   seed=chaos_seed)
                await fleet.start()
                addresses = {name: fleet.address(name) for name in names}
                max_attempts = 8
                step(f"chaos fleet up: faults on {names[0]}, "
                     f"{nodes - 1} faithful proxies (seed {chaos_seed})")

            cluster_map = ClusterMap(
                [ClusterNode(name, *addresses[name]) for name in names],
                replication=replication, ring_seed=ring_seed,
            )
            meter = Meter(group)

            def cluster_client(role, name):
                return ClusterClient(
                    group, cluster_map, role=role, name=name, meter=meter,
                    timeout=timeout, retry_seed=chaos_seed,
                    max_attempts=max_attempts,
                )

            fabric = TrustFabric(group)
            authority = ClusterAuthority(
                cluster_client("aa", "AA:hospital"), fabric.aa
            )
            owner = ClusterOwner(
                cluster_client("owner", "owner:alice"), fabric.owner_core
            )
            bob = ClusterUser(cluster_client("user", "user:bob"), "bob")
            carol = ClusterUser(cluster_client("user", "user:carol"),
                                "carol")
            clients = [authority, owner, bob, carol]

            await authority.publish_keys()
            await owner.learn_authorities("hospital")
            step(f"authority keys published to all {nodes} nodes")

            fabric.issue_user_keys(bob, carol)
            step("user keys issued (out-of-band, as in the paper)")

            policies = _policies()
            record_ids = _record_ids(records)
            for index, record_id in enumerate(record_ids):
                await owner.upload(record_id, {
                    "note": (f"note {index}".encode("utf-8"),
                             policies[index % len(policies)]),
                })
            shards = {
                name: len(held)
                for name, held in cluster_map.placement_summary(
                    record_ids
                ).items()
            }
            step(f"{records} records replicated {replication}x, "
                 f"quorum {cluster_map.write_quorum}; shards {shards}")

            for index, record_id in enumerate(record_ids):
                if await carol.read(record_id, "note") \
                        != f"note {index}".encode("utf-8"):
                    raise SmokeFailure(f"{record_id} read is not "
                                       f"bit-identical")
            if await owner.read_own(record_ids[0], "note") != b"note 0":
                raise SmokeFailure("owner self-read failed")
            step("reads are bit-identical from the fleet "
                 "(user + owner paths)")

            # -- corrupt one replica; the next read must repair it ------
            victim_record = record_ids[0]
            primary = cluster_map.replicas_for(victim_record)[0].name
            primary_store = services[primary].store
            digest = primary_store.digest(victim_record)
            blob_path = primary_store.blobs._path(digest)
            blob_path.write_bytes(b"bit rot" + blob_path.read_bytes()[7:])
            primary_store.blobs._cache_drop(digest)  # force the disk read
            if await carol.read(victim_record, "note") != b"note 0":
                raise SmokeFailure("read through a corrupt primary did "
                                   "not serve intact bytes")
            if not primary_store.verify_record(victim_record):
                raise SmokeFailure(f"{primary}'s corrupt copy of "
                                   f"{victim_record} was not repaired")
            if primary_store.digest(victim_record) != digest:
                raise SmokeFailure("repair changed the record's bytes")
            repairs = meter.counter(f"cluster.repair.{primary}")
            if not repairs:
                raise SmokeFailure("no repair was recorded for the "
                                   "corrupted replica")
            step(f"corrupt replica on {primary} digest-detected, served "
                 f"from a peer, repaired in place ({repairs} repair)")

            # -- kill a node; every record must stay fetchable ----------
            victim_node = names[1]
            await services[victim_node].stop()
            for index, record_id in enumerate(record_ids):
                if await carol.read(record_id, "note") \
                        != f"note {index}".encode("utf-8"):
                    raise SmokeFailure(
                        f"{record_id} unreadable with {victim_node} dead"
                    )
            step(f"{victim_node} killed: all {records} records still "
                 f"fetchable via surviving replicas")

            # -- revoke; sweep around the dead node, then resume --------
            result = rekey_standard(fabric.aa, "bob", ["doctor"])
            update_key = result.update_key
            bob.accept_rekey(result)
            carol.accept_rekey(result)

            progress_frames = []

            def on_progress(frame):
                progress_frames.append(frame)
                print(f"  sweep progress [{frame['node']}]: "
                      f"{frame['done']}/{frame['total']} records",
                      file=out, flush=True)

            partial = await owner.sweep_revocation(update_key,
                                                   on_progress=on_progress)
            dead_shard = sum(
                victim_node in [node.name for node in
                                cluster_map.replicas_for(record_id)]
                for record_id in record_ids
            )
            if dead_shard and victim_node not in partial["errors"]:
                raise SmokeFailure(
                    f"sweep did not report the dead node: "
                    f"{partial['errors']}"
                )
            if dead_shard and (partial["epoch_rolled"]
                               or len(partial["pending"]) != dead_shard):
                raise SmokeFailure(
                    f"sweep with a dead node holding {dead_shard} records "
                    f"left {len(partial['pending'])} pending, epoch_rolled="
                    f"{partial['epoch_rolled']}"
                )
            step(f"sweep with {victim_node} dead: "
                 f"{len(partial['converged'])} converged, "
                 f"{len(partial['pending'])} pending, epoch held back")

            services[victim_node] = await _start_node(
                params, seed, f"{victim_node}:restarted",
                tmp_root / victim_node,
            )
            # Same name, same store, new port: rebind the address so
            # placement (keyed on the name) is untouched. Direct — the
            # restarted node is not behind the chaos fleet.
            cluster_map.with_address(victim_node,
                                     services[victim_node].host,
                                     services[victim_node].port)
            resumed = await owner.sweep_revocation(update_key,
                                                   on_progress=on_progress)
            if resumed["pending"] or resumed["errors"] \
                    or not (resumed["epoch_rolled"]
                            or partial["epoch_rolled"]):
                raise SmokeFailure(f"resumed sweep did not converge: "
                                   f"{resumed['errors']} / "
                                   f"{resumed['pending']} pending")
            step(f"{victim_node} restarted on its old store; resumed sweep "
                 f"converged everywhere and rolled the epoch "
                 f"({len(progress_frames)} progress frames)")

            # -- no stale node, no divergent replica --------------------
            for record_id in record_ids:
                digests = set()
                for node in cluster_map.replicas_for(record_id):
                    store = services[node.name].store
                    digests.add(store.digest(record_id))
                    stored = store.get(record_id)
                    for component in stored.components.values():
                        version = component.abe_ciphertext.version_of(
                            "hospital"
                        )
                        if version != update_key.to_version:
                            raise SmokeFailure(
                                f"{node.name} serves {record_id} at stale "
                                f"version {version}"
                            )
                if len(digests) != 1:
                    raise SmokeFailure(
                        f"{record_id} replicas diverged after the sweep"
                    )
            step("every replica of every record is digest-identical at "
                 "the new version")

            try:
                await bob.read(record_ids[0], "note")
                raise SmokeFailure("revoked user still decrypts")
            except ReproError as exc:
                if isinstance(exc, SmokeFailure):
                    raise
            if await carol.read(record_ids[1], "note") != b"note 1":
                raise SmokeFailure("surviving user lost access after the "
                                   "sweep")
            step("revoked read fails; surviving read is bit-identical")

            health = await owner.health()
            if health["status"] != "ok":
                raise SmokeFailure(f"fleet not healthy after recovery: "
                                   f"{health['status']}")
            scrub = await owner.cluster.scrub()
            if scrub["repaired"] or scrub["lost"] or scrub["unreachable"]:
                raise SmokeFailure(f"post-recovery scrub found damage: "
                                   f"{scrub}")
            step(f"fleet healthy; scrub of {scrub['checked']} records "
                 f"found nothing to repair")

            if verify_single:
                single_digests, single_service = await _single_node_world(
                    params, seed, records, tmp_root / "single"
                )
                for record_id in record_ids:
                    primary_name = cluster_map.replicas_for(
                        record_id
                    )[0].name
                    stored = services[primary_name].store.get(record_id)
                    if _abe_digests(stored) != single_digests[record_id]:
                        raise SmokeFailure(
                            f"{record_id}: re-encrypted ciphertexts "
                            f"diverge from the single-node world"
                        )
                step(f"all {records} re-encrypted ciphertexts "
                     f"byte-identical to an identically seeded "
                     f"single-node sweep")

            if fleet is not None:
                step(f"chaos survived: {fleet.fault_counts()} across the "
                     f"fleet; retry events "
                     f"{dict(owner.cluster.retry_log.counts())}")
            if report is not None:
                report["partial_sweep"] = partial
                report["resumed_sweep"] = resumed
                report["counters"] = meter.counter_summary("cluster.")
                report["health"] = health
                report["scrub"] = scrub
                if fleet is not None:
                    report["fault_counts"] = fleet.fault_counts()
        except SmokeFailure as exc:
            print(f"FAIL: {exc}", file=out, flush=True)
            return 1
        except (ReproError, OSError) as exc:
            print(f"FAIL: cluster cycle died with {exc!r}", file=out,
                  flush=True)
            return 1
        finally:
            for client in clients:
                await client.close()
            for service in services.values():
                await service.stop()
            if single_service is not None:
                await single_service.stop()
            if fleet is not None:
                await fleet.stop()
    print("cluster smoke passed", file=out, flush=True)
    return 0


async def _single_node_world(params, seed, records: int, root: Path):
    """Replay the smoke's draw-bearing operations against ONE node.

    Built on a client group seeded exactly like the cluster world's, and
    replaying the same randomness-consuming operations in the same order
    (fabric, key issuance, uploads, one rekey) — reads and sweeps draw
    nothing, so the resulting post-sweep records must be byte-identical
    to the cluster's. Returns ``(record id -> digest, service)``.
    """
    group = PairingGroup(params, seed=seed)
    service = await _start_node(params, seed, "single", root)
    fabric = TrustFabric(group)
    clients = []
    try:
        aa_client, owner_client, _, _ = await connect_fabric(
            fabric, service.host, service.port, clients, timeout=30.0,
            retry=None,
        )
        await aa_client.publish_keys()
        await owner_client.learn_authorities("hospital")
        policies = _policies()
        for index, record_id in enumerate(_record_ids(records)):
            await owner_client.upload(record_id, {
                "note": (f"note {index}".encode("utf-8"),
                         policies[index % len(policies)]),
            })
        result = rekey_standard(fabric.aa, "bob", ["doctor"])
        await owner_client.sweep_revocation(result.update_key)
        digests = {record_id: _abe_digests(service.store.get(record_id))
                   for record_id in _record_ids(records)}
        return digests, service
    finally:
        for client in clients:
            await client.close()
