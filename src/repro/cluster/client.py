"""The cluster-aware client: replicated writes, failover reads, repair.

:class:`ClusterClient` is the fleet counterpart of one
:class:`repro.service.client.ServiceConnection`: it holds a lazily
connected, retrying connection per node (each with its *own*
independently seeded decorrelated-jitter
:class:`~repro.service.retry.RetryPolicy`, so a fleet of clients
failing over from a dead node never thunders back in phase), places
every record through the :class:`~repro.cluster.topology.ClusterMap`,
and implements the three cluster primitives:

* **replicated writes** — a mutation is fanned to all R replicas
  through :func:`repro.parallel.gather_bounded`; each per-node request
  rides the existing idempotency envelope (one key per node, stable
  across that node's retries), so a node is mutated exactly once no
  matter how many reconnects its chaos costs. The write succeeds when
  W (the map's write quorum) replicas ack, and reports who missed.
* **failover reads with read-repair** — reads walk the preference list;
  a replica that answers :class:`~repro.errors.StorageError` (corrupt
  or missing copy — the server verifies blob digests on every fetch) is
  remembered, and once a healthy replica serves the bytes, the damaged
  ones are repaired from them via ``REPAIR_RECORD`` (byte-preserving,
  so all replicas stay digest-identical). A replica that is simply
  *down* is skipped and left for :meth:`ClusterClient.scrub`.
* **scrub** — a full-fleet digest audit: every record's replicas are
  probed with verified digests; corrupt/missing copies are repaired
  from the first healthy replica in preference order, and
  divergent-but-intact copies converge primary-wins.

Per-node shard and replication telemetry lands in the shared
:class:`repro.system.meter.Meter` as ``cluster.<event>.<node>``
counters (``counter_summary("cluster.")`` is the fleet story), and
:meth:`ClusterClient.health_all` folds them into one aggregate health
view.

The role wrappers mirror the single-node roles and build no per-node
client: each holds its one core (the owner's
:class:`~repro.core.owner.DataOwner`, the AA, or — for
:class:`ClusterUser` — itself, a :class:`~repro.core.wallet.UserWallet`)
and runs the single-node request routines of
:mod:`repro.service.client` over each node's connection, so crypto
behaves identically no matter which replica serves.
"""

from __future__ import annotations

import asyncio
import random

from repro.cluster.topology import ClusterMap
from repro.core.owner import DataOwner
from repro.core.wallet import UserWallet
from repro.errors import (
    ProtocolError,
    SchemeError,
    StorageError,
    UnavailableError,
)
from repro.pairing.group import PairingGroup
from repro.parallel import gather_bounded
from repro.service import protocol
from repro.service.client import (
    BaseClient,
    ServiceConnection,
    fetch_component,
    learn_authorities,
    open_components,
    publish_keys,
    put_transform_key,
    read_transformed,
    seal_record,
)
from repro.service.protocol import MessageType
from repro.service.retry import RetryLog, RetryPolicy, is_retryable
from repro.system.meter import Meter
from repro.system.records import StoredComponent, StoredRecord


class ClusterClient:
    """Placement, replication, failover and repair over one ClusterMap."""

    def __init__(self, group: PairingGroup, cluster_map: ClusterMap, *,
                 role: str, name: str, meter: Meter = None,
                 timeout: float = 30.0, retry_seed=0, max_attempts: int = 3,
                 fanout_limit: int = 8, max_inflight: int = 8):
        self.group = group
        self.map = cluster_map
        self.role = role
        self.name = name
        self.meter = meter if meter is not None else Meter(group)
        self.timeout = timeout
        self.retry_seed = retry_seed
        self.max_attempts = max_attempts
        self.fanout_limit = fanout_limit
        #: In-flight window per node connection: quorum fan-out sends a
        #: record's replica writes concurrently, and with pipelining the
        #: repair/scrub traffic to one node rides the same connection
        #: instead of serializing behind it.
        self.max_inflight = max_inflight
        self.retry_log = RetryLog()  # one shared trail for the whole fleet
        self._connections = {}  # node name -> ServiceConnection

    # -- connections -------------------------------------------------------

    def _policy(self, node_name: str) -> RetryPolicy:
        """One decorrelated-jitter policy per node, independently seeded
        so concurrent failovers from the same dead node de-phase."""
        return RetryPolicy(
            max_attempts=self.max_attempts, decorrelated=True,
            rng=random.Random(f"{self.retry_seed}:{node_name}"),
        )

    async def connection(self, node_name: str) -> ServiceConnection:
        """The live connection to one node (dialing it if needed).

        Re-dials when the map's address for the node changed — a node
        that restarted elsewhere keeps its name, so placement holds
        while the transport follows the new address.
        """
        node = self.map.node(node_name)
        conn = self._connections.get(node_name)
        if conn is not None and (conn.host, conn.port) != (node.host,
                                                           node.port):
            await conn.close()
            conn = None
        if conn is None:
            conn = ServiceConnection(
                self.group, node.host, node.port, role=self.role,
                name=self.name, meter=self.meter, timeout=self.timeout,
                retry=self._policy(node_name), retry_log=self.retry_log,
                max_inflight=self.max_inflight,
            )
            self._connections[node_name] = conn
        if not conn.connected:
            await conn.connect()
        return conn

    async def close(self) -> None:
        for conn in self._connections.values():
            await conn.close()

    def _bump(self, event: str, node_name: str) -> None:
        self.meter.bump(f"cluster.{event}.{node_name}")

    # -- replicated writes -------------------------------------------------

    async def _replicate(self, record_id: str, msg_type: MessageType,
                         body: bytes, *, event: str, kind: str = None,
                         payload=None) -> dict:
        """Fan one mutation to every replica; succeed at write quorum.

        Each node's request carries its own idempotency key (stable
        across that node's retries), so replay after a reconnect is
        deduplicated per node — the mutation applies exactly once
        everywhere it applies at all.
        """
        replicas = self.map.replicas_for(record_id)

        async def send(node):
            conn = await self.connection(node.name)
            if kind is not None:
                conn.meter_send(kind, payload)
            await conn.request(msg_type, body, expect=MessageType.OK)
            return node.name

        outcomes = await gather_bounded(
            [lambda node=node: send(node) for node in replicas],
            limit=self.fanout_limit,
        )
        acks, failed = [], {}
        for node, outcome in zip(replicas, outcomes):
            if isinstance(outcome, Exception):
                failed[node.name] = repr(outcome)
                self._bump(f"{event}-miss", node.name)
            else:
                acks.append(node.name)
                self._bump(f"{event}-ack", node.name)
        if len(acks) < self.map.write_quorum:
            # An owner refusal is the write's answer, not an outage.
            for outcome in outcomes:
                if isinstance(outcome, SchemeError):
                    raise outcome
            raise UnavailableError(
                f"{event} of {record_id!r} reached {len(acks)} of "
                f"{self.map.write_quorum} required replicas "
                f"(failures: {failed})"
            )
        return {"acks": acks, "failed": failed}

    async def store_record(self, record: StoredRecord) -> dict:
        """Write one record to its full replica set (quorum-acked)."""
        return await self._replicate(
            record.record_id, MessageType.STORE_RECORD, record.to_bytes(),
            event="store", kind="store-record", payload=record,
        )

    async def delete_record(self, record_id: str, owner_id: str) -> dict:
        """Delete one record on its replica set; each node refuses it
        unless ``owner_id`` owns the record."""
        return await self._replicate(
            record_id, MessageType.DELETE_RECORD,
            protocol.encode_json({"record": record_id, "owner": owner_id}),
            event="delete", kind="delete-record", payload=record_id,
        )

    # -- failover reads & repair -------------------------------------------

    async def read_with_failover(self, record_id: str, op):
        """Run ``await op(node_name)`` against replicas in preference
        order until one serves.

        A replica whose copy is damaged (:class:`StorageError` — the
        server digest-verifies every blob read) is recorded and, once a
        healthy replica answers, repaired from the healthy bytes; a
        replica that is down (transport failure after its own retries)
        is skipped. Application errors other than storage — wrong keys,
        protocol violations — propagate immediately: failing over
        cannot fix those.
        """
        damaged, last_error = [], None
        for node in self.map.replicas_for(record_id):
            try:
                result = await op(node.name)
            except StorageError as exc:
                damaged.append(node.name)
                last_error = exc
                self._bump("damaged", node.name)
            except ProtocolError:
                raise
            except Exception as exc:
                if not is_retryable(exc):
                    raise
                last_error = exc
                self._bump("failover", node.name)
            else:
                self._bump("read", node.name)
                if damaged:
                    await self.repair_from(record_id, node.name, damaged)
                return result
        raise last_error

    async def repair_from(self, record_id: str, source_node: str,
                          targets) -> list:
        """Copy one record's bytes from a healthy node onto damaged ones.

        The raw served bytes travel verbatim (no decode/re-encode
        round-trip), so the repaired replicas land digest-identical to
        the source. A target that is unreachable stays damaged — the
        next read or scrub retries. Returns the nodes actually repaired.
        """
        conn = await self.connection(source_node)
        conn.meter_send("read-request", record_id)
        _, blob = await conn.request(
            MessageType.FETCH_RECORD,
            protocol.encode_json({"record": record_id}),
            expect=MessageType.RECORD,
        )
        repaired = []
        for name in targets:
            try:
                target = await self.connection(name)
                await target.request(MessageType.REPAIR_RECORD, blob,
                                     expect=MessageType.OK)
            except Exception as exc:
                if not is_retryable(exc):
                    raise
                self._bump("repair-miss", name)
            else:
                repaired.append(name)
                self._bump("repair", name)
        return repaired

    async def replica_digests(self, record_id: str, *,
                              verify: bool = False) -> dict:
        """Each assigned replica's digest report for one record.

        ``node name -> {"digest": ..., "ok": ...}`` (or ``{"error":
        repr}`` for an unreachable/empty replica). The adversarial
        scenarios use this as their convergence invariant: after a
        healed partition plus a resumed sweep, every replica of every
        record must be byte-identical — one digest across the set.
        """
        replicas = self.map.replicas_for(record_id)

        async def probe(node):
            conn = await self.connection(node.name)
            return await BaseClient(conn).record_digest(record_id,
                                                        verify=verify)

        outcomes = await gather_bounded(
            [lambda node=node: probe(node) for node in replicas],
            limit=self.fanout_limit,
        )
        return {
            node.name: (outcome if not isinstance(outcome, Exception)
                        else {"error": repr(outcome)})
            for node, outcome in zip(replicas, outcomes)
        }

    async def fetch_record(self, record_id: str) -> StoredRecord:
        """Download one whole record, failing over and repairing."""
        async def op(node_name):
            conn = await self.connection(node_name)
            return await BaseClient(conn).fetch_record(record_id)

        return await self.read_with_failover(record_id, op)

    async def fetch_component(self, record_id: str,
                              component_name: str) -> StoredComponent:
        async def op(node_name):
            return await fetch_component(await self.connection(node_name),
                                         record_id, component_name)

        return await self.read_with_failover(record_id, op)

    # -- fleet-wide views --------------------------------------------------

    async def _each_node(self, op) -> dict:
        """``await op(name)`` on every node; name -> result or exception."""
        names = self.map.node_names
        outcomes = await gather_bounded(
            [lambda name=name: op(name) for name in names],
            limit=self.fanout_limit,
        )
        return dict(zip(names, outcomes))

    async def list_records(self) -> list:
        """The union of record ids across every reachable node."""
        async def op(name):
            conn = await self.connection(name)
            return await BaseClient(conn).list_records()

        union, reachable = set(), 0
        last_error = None
        for outcome in (await self._each_node(op)).values():
            if isinstance(outcome, Exception):
                last_error = outcome
                continue
            reachable += 1
            union.update(outcome)
        if not reachable:
            raise UnavailableError(
                f"no cluster node answered a record listing "
                f"(last error: {last_error!r})"
            )
        return sorted(union)

    async def health_all(self) -> dict:
        """Every node's heartbeat plus one fleet aggregate.

        ``status`` is ``ok`` (every node healthy), ``degraded`` (some
        node down or read-only), or ``down`` (no node healthy); the
        ``counters`` block carries the per-node shard/replication
        tallies accumulated in this client's meter.
        """
        async def op(name):
            conn = await self.connection(name)
            return await BaseClient(conn).health()

        nodes = {}
        healthy = 0
        for name, outcome in (await self._each_node(op)).items():
            if isinstance(outcome, Exception):
                nodes[name] = {"status": "down", "error": repr(outcome)}
            else:
                nodes[name] = outcome
                healthy += outcome.get("status") == "ok"
        status = ("ok" if healthy == len(nodes)
                  else "down" if healthy == 0 else "degraded")
        return {
            "status": status,
            "nodes": nodes,
            "replication": self.map.replication,
            "write_quorum": self.map.write_quorum,
            "counters": self.meter.counter_summary("cluster."),
        }

    async def stats_all(self) -> dict:
        """Per-node server stats plus this client's placement view."""
        async def op(name):
            conn = await self.connection(name)
            return await BaseClient(conn).stats()

        nodes = {
            name: (outcome if not isinstance(outcome, Exception)
                   else {"error": repr(outcome)})
            for name, outcome in (await self._each_node(op)).items()
        }
        return {
            "nodes": nodes,
            "shards": {name: stats.get("records")
                       for name, stats in nodes.items()},
            "counters": self.meter.counter_summary("cluster."),
        }

    # -- scrub -------------------------------------------------------------

    async def scrub(self) -> dict:
        """Digest-audit every record's replica set and repair the fleet.

        For each record, every assigned replica is probed with a
        *verified* digest (the node re-reads its blob bytes and checks
        them). The first replica in preference order that verifies is
        authoritative — primary-wins, so divergent-but-intact copies
        converge on the primary's version — and every copy that is
        corrupt, missing, or divergent is repaired from it.
        """
        summary = {"checked": 0, "repaired": {}, "diverged": {},
                   "unreachable": {}, "lost": []}
        for record_id in await self.list_records():
            summary["checked"] += 1
            replicas = self.map.replicas_for(record_id)

            async def probe(node, record_id=record_id):
                conn = await self.connection(node.name)
                return await BaseClient(conn).record_digest(
                    record_id, verify=True
                )

            outcomes = await gather_bounded(
                [lambda node=node: probe(node) for node in replicas],
                limit=self.fanout_limit,
            )
            source = None
            damaged, down = [], []
            for node, outcome in zip(replicas, outcomes):
                if isinstance(outcome, StorageError):
                    damaged.append(node.name)  # missing copy: repairable
                elif isinstance(outcome, Exception):
                    down.append(node.name)
                elif not outcome.get("ok"):
                    damaged.append(node.name)  # corrupt copy: repairable
                elif source is None:
                    source = (node.name, outcome.get("digest"))
                elif outcome.get("digest") != source[1]:
                    # Intact but divergent: the preference-order winner
                    # (the primary, when healthy) dictates the bytes.
                    damaged.append(node.name)
                    summary["diverged"].setdefault(record_id, []).append(
                        node.name
                    )
                    self._bump("scrub-diverged", node.name)
            if down:
                summary["unreachable"][record_id] = down
            if source is None:
                summary["lost"].append(record_id)
                continue
            if damaged:
                repaired = await self.repair_from(record_id, source[0],
                                                  damaged)
                if repaired:
                    summary["repaired"][record_id] = repaired
        return summary


class ClusterOwner:
    """The data-owner role against the fleet (cf. ``OwnerClient``)."""

    def __init__(self, cluster: ClusterClient, core: DataOwner):
        self.cluster = cluster
        self.core = core

    async def close(self) -> None:
        await self.cluster.close()

    async def health(self) -> dict:
        return await self.cluster.health_all()

    async def learn_authorities(self, aid: str) -> None:
        """Fetch an authority's keys from any node's directory."""
        last_error = None
        for name in self.cluster.map.node_names:
            try:
                return await learn_authorities(
                    await self.cluster.connection(name), self.core, aid
                )
            except Exception as exc:  # down, or it missed the publish
                if not (isinstance(exc, StorageError) or is_retryable(exc)):
                    raise
                last_error = exc
        raise last_error

    async def upload(self, record_id: str, components: dict) -> StoredRecord:
        """Encrypt once, store on every replica (quorum-acked).

        The single-node sealer (:func:`~repro.service.client.
        seal_record`) builds the ciphertext exactly once, so every
        replica holds byte-identical copies. Only a failed seal retires
        its ids (:meth:`DataOwner.minted`): a store short of quorum keeps
        them live, since some replicas may hold them.
        """
        with self.core.minted(f"{record_id}/{name}" for name in components):
            record = seal_record(self.core, record_id, components)
        await self.cluster.store_record(record)
        return record

    async def read_own(self, record_id: str, component_name: str) -> bytes:
        """Failover download (with read-repair), then the ledger's
        self-read (:meth:`DataOwner.open_own`)."""
        return self.core.open_own(
            await self.cluster.fetch_component(record_id, component_name)
        )

    async def delete_record(self, record_id: str) -> dict:
        result = await self.cluster.delete_record(record_id,
                                                  self.core.owner_id)
        self.core.retire_stored_record(record_id)
        return result

    async def sweep_revocation(self, update_key, *, include_uk2: bool = True,
                               on_progress=None) -> dict:
        """Fleet-wide Section V-C sweep; see :func:`repro.cluster.sweep.
        sweep_cluster`."""
        from repro.cluster.sweep import sweep_cluster

        return await sweep_cluster(self.cluster, self.core, update_key,
                                   include_uk2=include_uk2,
                                   on_progress=on_progress)


class ClusterUser(UserWallet):
    """The data-consumer role against the fleet (cf. ``UserClient``).

    One wallet for the whole fleet: a key update applied here is
    visible no matter which replica the next read lands on, a
    decryption session built reading from one replica keeps serving
    after a failover to another, and one retrieval key finalizes
    transforms no matter which node computed them. Reads run the
    single-node request and decrypt routines over the cluster's
    failover connections; session counters land on the cluster meter.
    """

    def __init__(self, cluster: ClusterClient, uid: str):
        super().__init__(cluster.group, uid)
        self.cluster = cluster

    async def close(self) -> None:
        await self.cluster.close()

    async def health(self) -> dict:
        return await self.cluster.health_all()

    async def read(self, record_id: str, component_name: str) -> bytes:
        """Failover download (with read-repair), then a local decrypt."""
        component = await self.cluster.fetch_component(record_id,
                                                       component_name)
        return open_components(self, [component], self.cluster.meter)[0]

    async def read_many(self, items) -> list:
        """Batch read across shards: gathered per-item failover
        downloads, then one batched decrypt (:func:`open_components`)."""
        components = await asyncio.gather(*(
            self.cluster.fetch_component(record_id, component_name)
            for record_id, component_name in items
        ))
        return open_components(self, components, self.cluster.meter)

    async def register_transform_key(self, owner_id: str) -> dict:
        """Mint ONE blinded bundle and register it fleet-wide.

        One ``z`` for the whole fleet: every node holds the same
        transform key, so the single retained retrieval key finalizes a
        transform served by any replica. Succeeds if at least one node
        took the key (an outsourced read fails over past the others).
        """
        transform_key, retrieval_key = self.mint_transform_key(owner_id)

        async def op(name):
            await put_transform_key(await self.cluster.connection(name),
                                    self.uid, transform_key)
            return name

        outcomes = await self.cluster._each_node(op)
        acks = [name for name, outcome in outcomes.items()
                if not isinstance(outcome, Exception)]
        failed = {name: repr(outcome)
                  for name, outcome in outcomes.items()
                  if isinstance(outcome, Exception)}
        if not acks:
            raise UnavailableError(
                f"no cluster node accepted the transform key for "
                f"{self.uid!r} (failures: {failed})"
            )
        self.retrieval_keys[owner_id] = retrieval_key
        return {"acks": acks, "failed": failed}

    async def read_outsourced(self, record_id: str,
                              component_name: str) -> bytes:
        """Server-transformed read with replica failover.

        Zero pairings on this client regardless of which replica
        serves; a node missing the registration answers a typed
        authorization error, which propagates (failing over cannot
        mint keys)."""
        async def op(node_name):
            return await read_transformed(
                await self.cluster.connection(node_name), self, record_id,
                component_name,
            )

        return await self.cluster.read_with_failover(record_id, op)


class ClusterAuthority:
    """An attribute authority publishing into *every* node's directory."""

    def __init__(self, cluster: ClusterClient, core):
        self.cluster = cluster
        self.core = core

    async def close(self) -> None:
        await self.cluster.close()

    async def publish_keys(self) -> dict:
        """Push this AA's public keys to all nodes; all must take them
        (a node that missed the publish could not serve its shard)."""
        async def op(name):
            await publish_keys(await self.cluster.connection(name),
                               self.core)
            return name

        failed = {
            name: repr(outcome)
            for name, outcome in (await self.cluster._each_node(op)).items()
            if isinstance(outcome, Exception)
        }
        if failed:
            raise UnavailableError(
                f"authority {self.core.aid!r} failed to publish on: {failed}"
            )
        return {"acks": self.cluster.map.node_names}
