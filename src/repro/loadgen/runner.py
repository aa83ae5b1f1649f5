"""The load harness: drive a workload mix against a live service.

:class:`LoadHarness` points a simulated fleet at one server (in-process
or remote) and runs either of two arrival disciplines:

* **closed-loop** (:meth:`LoadHarness.run_closed`) — ``concurrency``
  workers each issue operations back-to-back, one outstanding op per
  worker. Offered load adapts to service speed, so this measures
  *capacity*: ops/sec the service sustains at a given worker count.
* **open-loop** (:meth:`LoadHarness.run_open`) — operations arrive on a
  Poisson process at a configured rate regardless of how the service is
  doing, bounded by ``max_outstanding`` (arrivals past the bound are
  *shed* and counted, never silently dropped). Offered load does not
  adapt, so this measures behaviour *under* a load level — the
  coordinated-omission-free view a closed loop cannot give.

Both disciplines separate a warmup window from the measure window,
record per-op-class latency into exact-percentile
:class:`~repro.system.meter.LatencyRecorder` sinks, and sample the
process RSS from ``/proc/self/status`` while the run is in flight.

Operation classes (see :mod:`repro.loadgen.workload`):

* ``fetch`` — raw ``FETCH_RECORD`` of a Zipf-popular record; the reply
  body's SHA-256 is recorded when digest capture is on, which is what
  the serial-vs-pipelined byte-identity check compares.
* ``decrypt`` — the full user read path on a Zipf-popular record:
  component download plus ABE decryption through the surviving user's
  :class:`~repro.core.wallet.UserWallet` (one wallet and one
  per-policy-shape decryption-session cache shared across workers,
  like a real client's), ending in the AEAD open — so the measured
  latency is what a data consumer sees, not just the server's fetch.
* ``upload`` — per worker, alternately an owner upload of a churn
  record under a fresh id and the owner delete of it, so every stored
  ciphertext is a live ledger id (a sweep target). The serial and
  pipelined harnesses of one seed use disjoint churn ids.
* ``replace`` — a component replacement through the owner's session
  cache (cheap online encrypt); per-record locks serialize workers that
  land on the same record so ledger version suffixes never race.
* ``sweep`` — a Section V-C bulk revocation sweep; rare, heavyweight,
  and serialized by a global lock (two concurrent sweeps would race the
  authority version). Uploads and replaces racing a sweep leave
  ciphertexts at the old version, which hold the owner's epoch (see
  :meth:`~repro.core.owner.DataOwner.settle_update`), so the op reruns
  the same update key up to ``SWEEP_RERUNS`` times; a sweep still
  pending then fails the op, and the next sweep op resumes it before
  issuing a new ReKey. Once the epoch rolls, the reader wallet's keys
  roll forward with the update key (the reader is *not* the revoked
  user), which also invalidates every cached decryption session — the
  next decrypt op transparently rebuilds against the new version.
  Errors in decrypt/sweep/replace under concurrent version churn are
  tolerated and *counted* by exception type
  (``per_class[cls]["error_types"]``), never hidden.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import random
import time
from collections import Counter, deque

from repro.core.revocation import rekey_standard
from repro.core.wallet import UserWallet
from repro.errors import RevocationError
from repro.pairing.group import PairingGroup
from repro.parallel import gather_bounded
from repro.service import protocol
from repro.service.client import (
    OwnerClient,
    ServiceConnection,
    fetch_component,
    open_components,
)
from repro.service.protocol import MessageType
from repro.service.retry import RetryPolicy
from repro.service.smoke import TrustFabric
from repro.system.meter import LatencyRecorder

from repro.loadgen.workload import OP_CLASSES, OpMix, ZipfPopularity

#: Policy every harness record is encrypted under.
POLICY = "hospital:doctor"

#: Sweeps of one update key per ``sweep`` op while ciphertexts written
#: during the previous pass keep the epoch pending. Measured at TOY80 on
#: 2 vCPUs (8 workers, 10% replace, 481 sweeps): 54% settle in one
#: pass, 0.2% need 8, none more.
SWEEP_RERUNS = 12


async def start_local_service(group: PairingGroup, root, *,
                              max_inflight: int = 32,
                              cache_entries: int = 128,
                              cache_bytes: int = 32 * 1024 * 1024,
                              workers=0, sweep_chunk: int = 16):
    """A running in-process server on an ephemeral localhost port.

    The bench and the ``repro load`` CLI default to this self-hosted
    target; pass an external ``--host/--port`` to measure a real
    deployment instead.
    """
    from repro.service.server import StorageService
    from repro.service.store import RecordStore

    service = StorageService(
        group,
        RecordStore(root, group, cache_entries=cache_entries,
                    cache_bytes=cache_bytes),
        host="127.0.0.1", port=0, max_inflight=max_inflight,
        workers=workers, sweep_chunk=sweep_chunk,
    )
    await service.start()
    return service


def rss_kb():
    """The process's resident set size in kB, or ``None`` off-Linux."""
    try:
        with open("/proc/self/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return None


class _Slot:
    """One connection a worker issues ops through.

    Workers sharing a slot share its connection's ``max_inflight``
    window; a window of one serializes them.
    """

    __slots__ = ("connection", "owner")

    def __init__(self, connection: ServiceConnection, owner: OwnerClient):
        self.connection = connection
        self.owner = owner


class _Collector:
    """Per-run sink: latencies, counts, errors by exception type,
    optional fetch digests."""

    def __init__(self, capture_digests: bool = False):
        self.latency = {cls: LatencyRecorder(cls) for cls in OP_CLASSES}
        self.counts = Counter()
        self.error_types = {cls: Counter() for cls in OP_CLASSES}
        self.digests = [] if capture_digests else None

    def note(self, op_class: str, seconds: float, error=None) -> None:
        """Record one op; ``error`` is the exception a failed op raised."""
        self.counts[op_class] += 1
        if error is None:
            self.latency[op_class].record(seconds)
        else:
            self.error_types[op_class][type(error).__name__] += 1

    def note_digest(self, worker: int, op_index: int, digest: str) -> None:
        if self.digests is not None:
            self.digests.append((worker, op_index, digest))


class _RssSampler:
    """Background RSS sampling for the duration of one run."""

    def __init__(self, interval: float = 0.2):
        self.interval = interval
        self.samples = []
        self._task = None

    async def _run(self) -> None:
        while True:
            value = rss_kb()
            if value is not None:
                self.samples.append(value)
            await asyncio.sleep(self.interval)

    def start(self) -> None:
        value = rss_kb()
        if value is not None:
            self.samples.append(value)
        self._task = asyncio.get_running_loop().create_task(self._run())

    async def stop(self) -> dict:
        if self._task is not None:
            self._task.cancel()
            await asyncio.gather(self._task, return_exceptions=True)
            self._task = None
        if not self.samples:
            return {"samples": 0}
        return {
            "samples": len(self.samples),
            "max_kb": max(self.samples),
            "mean_kb": round(sum(self.samples) / len(self.samples), 1),
        }


class LoadHarness:
    """One simulated fleet against one server address.

    ``users`` is the registered-population scale being simulated
    (10⁴–10⁶): it shapes the record-id namespace and is reported in
    every result, while ``records`` bounds the physical pool so setup
    cost stays proportional to the benchmark, not the fleet.
    """

    def __init__(self, group: PairingGroup, host: str, port: int, *,
                 users: int = 10_000, records: int = 48,
                 replace_records: int = 16, alpha: float = 1.1,
                 payload_bytes: int = 512, seed: int = 0,
                 timeout: float = 30.0, connections: int = 4,
                 max_inflight: int = 32, retry_attempts: int = 4):
        if users < 1 or records < 1 or replace_records < 1:
            raise ValueError("users/records/replace_records must be >= 1")
        if connections < 1:
            raise ValueError("need at least one connection")
        self.group = group
        self.host = host
        self.port = port
        self.users = users
        self.records = records
        self.replace_records = replace_records
        self.alpha = alpha
        self.payload_bytes = payload_bytes
        self.seed = seed
        self.timeout = timeout
        self.n_connections = connections
        self.max_inflight = max_inflight
        self.retry_attempts = retry_attempts
        self.fabric = None
        self.popularity = ZipfPopularity(records, alpha)
        self.fetch_pool = []
        self.replace_pool = []
        self._slots = []
        self.reader = None        # the one simulated reader's UserWallet
        self._churn = {}          # worker index -> its stored churn record
        self._churn_ids = itertools.count()
        self._replace_locks = {}  # record id -> asyncio.Lock
        self._sweep_lock = None
        self._sweep_round = 0
        self._pending_update_key = None  # a sweep left pending, resumed next

    # -- lifecycle ---------------------------------------------------------

    def _record_id(self, kind: str, index: int) -> str:
        # Knuth-hash the index across the simulated user namespace so
        # record ids look like a real fleet's, not an enumeration. The
        # seed namespaces the pool: same-seed harnesses share records
        # (the serial-vs-pipelined pair), different-seed harnesses
        # against one server stay disjoint.
        user = (index * 2654435761) % self.users
        return f"u{user:07d}/{kind}-{self.seed}-{index:05d}"

    async def setup(self, populate: bool = True) -> "LoadHarness":
        """Connect, build the trust fabric, populate the record pools.

        ``populate=False`` skips the uploads: a second harness with the
        same seed/users/records derives the identical pool ids, so it
        can reuse records an earlier harness already put on the server
        (which is how the serial-vs-pipelined comparison shares state).
        """
        self.fabric = TrustFabric(self.group)
        self.fabric.owner_core.learn_authority(
            self.fabric.aa.authority_public_key(),
            self.fabric.aa.public_attribute_keys(),
        )
        self._sweep_lock = asyncio.Lock()
        # One simulated reader (carol — sweeps revoke bob, so her keys
        # roll forward rather than away) reading through every slot.
        self.reader = UserWallet(self.group, "carol")
        self.reader.receive_public_key(self.fabric.carol_pk)
        self.reader.receive_secret_key(self.fabric.aa.keygen(
            self.fabric.carol_pk, ["doctor", "nurse"], "alice"
        ))
        for index in range(self.n_connections):
            conn = ServiceConnection(
                self.group, self.host, self.port,
                role="owner", name=f"load-{index}",
                timeout=self.timeout, max_inflight=self.max_inflight,
                retry=RetryPolicy(
                    max_attempts=self.retry_attempts,
                    rng=random.Random(f"load:{self.seed}:{index}"),
                ),
            )
            await conn.connect()
            self._slots.append(_Slot(
                conn, OwnerClient(conn, self.fabric.owner_core),
            ))
        self.fetch_pool = [self._record_id("hot", i)
                           for i in range(self.records)]
        self.replace_pool = [self._record_id("mut", i)
                             for i in range(self.replace_records)]
        if not populate:
            return self
        rng = random.Random(f"payload:{self.seed}")
        payloads = {}
        for record_id in self.fetch_pool + self.replace_pool:
            payloads[record_id] = rng.randbytes(self.payload_bytes)

        async def populate(index, record_id):
            slot = self._slots[index % len(self._slots)]
            await slot.owner.upload(record_id, {
                "note": (payloads[record_id], POLICY),
            })

        outcomes = await gather_bounded(
            [lambda i=i, rid=rid: populate(i, rid)
             for i, rid in enumerate(self.fetch_pool + self.replace_pool)],
            limit=max(8, self.max_inflight),
        )
        for outcome in outcomes:
            if isinstance(outcome, BaseException):
                raise outcome
        return self

    async def close(self) -> None:
        for slot in self._slots:
            await slot.connection.close()
        self._slots = []

    @property
    def pipelined(self) -> bool:
        """Whether a slot admits more than one request at a time."""
        return self.max_inflight > 1

    # -- the five op classes ----------------------------------------------

    async def _op_fetch(self, slot: _Slot, rng: random.Random) -> str:
        record_id = self.fetch_pool[self.popularity.sample(rng)]
        _, body = await slot.connection.request(
            MessageType.FETCH_RECORD,
            protocol.encode_json({"record": record_id}),
            expect=MessageType.RECORD,
        )
        return hashlib.sha256(body).hexdigest()

    async def _op_decrypt(self, slot: _Slot, rng: random.Random) -> str:
        record_id = self.fetch_pool[self.popularity.sample(rng)]
        component = await fetch_component(slot.connection, record_id,
                                          "note")
        plaintext = open_components(self.reader, [component],
                                    slot.connection.meter)[0]
        return hashlib.sha256(plaintext).hexdigest()

    async def _op_upload(self, slot: _Slot, worker: int) -> None:
        record_id = self._churn.pop(worker, None)
        if record_id is not None:
            await slot.owner.delete_record(record_id)
            return
        record_id = self._record_id(
            "pchurn" if self.pipelined else "churn", next(self._churn_ids)
        )
        await slot.owner.upload(record_id, {
            "note": (f"churn payload for worker {worker}".encode("utf-8"),
                     POLICY),
        })
        self._churn[worker] = record_id

    async def _op_replace(self, slot: _Slot, worker: int,
                          rng: random.Random) -> None:
        record_id = self.replace_pool[worker % len(self.replace_pool)]
        lock = self._replace_locks.setdefault(record_id, asyncio.Lock())
        async with lock:
            await slot.owner.update_component(
                record_id, "note", rng.randbytes(self.payload_bytes), POLICY
            )

    async def _op_sweep(self, slot: _Slot) -> None:
        async with self._sweep_lock:
            if self._pending_update_key is None:
                self._sweep_round += 1
                # Give bob a fresh key to revoke each round: every sweep
                # models one real revocation (issue → revoke →
                # re-encrypt), repeatable for as long as the run lasts.
                self.fabric.aa.keygen(self.fabric.bob_pk, ["doctor"],
                                      "alice")
                self._pending_update_key = rekey_standard(
                    self.fabric.aa, "bob", ["doctor"]
                ).update_key
            update_key = self._pending_update_key
            for _ in range(SWEEP_RERUNS):
                summary = await slot.owner.sweep_revocation(update_key)
                if summary["epoch_rolled"]:
                    break
            else:
                raise RevocationError(
                    f"{len(summary['pending'])} ciphertexts still at "
                    f"version {update_key.from_version} after "
                    f"{SWEEP_RERUNS} sweeps; the next sweep resumes them"
                )
            self._pending_update_key = None
            # Roll the (non-revoked) reader wallet forward so decrypt
            # ops keep succeeding against re-encrypted ciphertexts.
            # Decrypt ops racing the sweep itself may still observe a
            # version mismatch — counted as errors, never hidden.
            self.reader.apply_update_key(update_key)

    async def _one_op(self, op_class: str, slot: _Slot, worker: int,
                      rng: random.Random):
        if op_class == "fetch":
            return await self._op_fetch(slot, rng)
        if op_class == "decrypt":
            return await self._op_decrypt(slot, rng)
        if op_class == "upload":
            return await self._op_upload(slot, worker)
        if op_class == "replace":
            return await self._op_replace(slot, worker, rng)
        return await self._op_sweep(slot)

    # -- closed loop -------------------------------------------------------

    async def run_closed(self, concurrency: int, ops_per_worker: int, *,
                         warmup_ops: int = 0, mix: OpMix = None,
                         capture_digests: bool = False) -> dict:
        """``concurrency`` workers, back-to-back ops, fixed op counts.

        Schedules are deterministic per worker (seeded by the harness
        seed and the worker index), so two runs against servers in the
        same state issue the *same* op sequence — the property the
        serial-vs-pipelined byte-identity comparison stands on.
        """
        if concurrency < 1 or ops_per_worker < 1:
            raise ValueError("concurrency and ops_per_worker must be >= 1")
        mix = mix if mix is not None else OpMix.default()
        collector = _Collector(capture_digests)

        async def phase(worker: int, rng: random.Random, ops: int,
                        recorded: bool) -> None:
            slot = self._slots[worker % len(self._slots)]
            for op_index in range(ops):
                op_class = mix.sample(rng)
                started = time.perf_counter()
                try:
                    outcome = await self._one_op(op_class, slot, worker, rng)
                except Exception as exc:
                    if recorded:
                        collector.note(op_class,
                                       time.perf_counter() - started, exc)
                    continue
                if recorded:
                    collector.note(op_class, time.perf_counter() - started)
                    if op_class == "fetch" and isinstance(outcome, str):
                        collector.note_digest(worker, op_index, outcome)

        rngs = [random.Random(f"worker:{self.seed}:{w}")
                for w in range(concurrency)]
        if warmup_ops:
            await asyncio.gather(*(
                phase(w, rngs[w], warmup_ops, False)
                for w in range(concurrency)
            ))
        sampler = _RssSampler()
        sampler.start()
        started = time.perf_counter()
        await asyncio.gather(*(
            phase(w, rngs[w], ops_per_worker, True)
            for w in range(concurrency)
        ))
        wall = time.perf_counter() - started
        rss = await sampler.stop()
        return self._result("closed", collector, wall, rss,
                            concurrency=concurrency,
                            ops_per_worker=ops_per_worker,
                            warmup_ops=warmup_ops, mix=mix)

    # -- open loop ---------------------------------------------------------

    async def run_open(self, rate: float, duration: float, *,
                       warmup: float = 0.0, max_outstanding: int = 256,
                       mix: OpMix = None) -> dict:
        """Poisson arrivals at ``rate`` ops/sec for ``duration`` seconds.

        Arrivals landing while ``max_outstanding`` ops are already in
        flight are shed and counted — an open-loop generator must never
        queue unboundedly inside itself, or it silently turns into a
        closed loop with extra steps.
        """
        if rate <= 0 or duration <= 0:
            raise ValueError("rate and duration must be positive")
        mix = mix if mix is not None else OpMix.default()
        collector = _Collector()
        rng = random.Random(f"open:{self.seed}")
        inflight = set()
        # Worker identities come from a free list over a bounded space,
        # so per-worker state (churn records) stays bounded and no two
        # in-flight ops ever share a worker (and so a churn record id).
        free_workers = deque(range(max_outstanding))
        shed = 0
        arrivals = 0

        async def fire(op_class: str, worker: int, recorded: bool) -> None:
            slot = self._slots[worker % len(self._slots)]
            started = time.perf_counter()
            try:
                await self._one_op(op_class, slot, worker, rng)
            except Exception as exc:
                if recorded:
                    collector.note(op_class,
                                   time.perf_counter() - started, exc)
                return
            finally:
                free_workers.append(worker)
            if recorded:
                collector.note(op_class, time.perf_counter() - started)

        sampler = _RssSampler()
        sampler.start()
        start = time.monotonic()
        measure_from = start + warmup
        deadline = measure_from + duration
        next_at = start
        while True:
            next_at += rng.expovariate(rate)
            now = time.monotonic()
            if next_at > deadline:
                break
            if next_at > now:
                await asyncio.sleep(next_at - now)
                now = time.monotonic()
            arrivals += 1
            if not free_workers:
                shed += 1
                continue
            task = asyncio.get_running_loop().create_task(
                fire(mix.sample(rng), free_workers.popleft(),
                     now >= measure_from)
            )
            inflight.add(task)
            task.add_done_callback(inflight.discard)
        if inflight:
            await asyncio.gather(*list(inflight), return_exceptions=True)
        wall = time.monotonic() - measure_from
        rss = await sampler.stop()
        result = self._result("open", collector, wall, rss,
                              rate=rate, duration=duration, warmup=warmup,
                              max_outstanding=max_outstanding, mix=mix)
        result["arrivals"] = arrivals
        result["shed"] = shed
        return result

    # -- result assembly ---------------------------------------------------

    def _result(self, mode: str, collector: _Collector, wall: float,
                rss: dict, *, mix: OpMix, **extra) -> dict:
        wall = max(wall, 1e-9)
        measured = sum(collector.counts.values())
        failed = sum(sum(types.values())
                     for types in collector.error_types.values())
        per_class = {}
        for op_class in OP_CLASSES:
            count = collector.counts.get(op_class, 0)
            if not count:
                continue
            summary = collector.latency[op_class].summary()
            summary["throughput_ops"] = round(
                len(collector.latency[op_class]) / wall, 2
            )
            error_types = collector.error_types[op_class]
            summary["errors"] = sum(error_types.values())
            summary["error_types"] = dict(sorted(error_types.items()))
            per_class[op_class] = summary
        result = {
            "mode": mode,
            "users": self.users,
            "records": self.records,
            "connections": len(self._slots),
            "max_inflight": self.max_inflight,
            "pipelined": self.pipelined,
            "mix": mix.as_dict(),
            "wall_seconds": round(wall, 4),
            "measured_ops": measured,
            "failed_ops": failed,
            "throughput_ops": round((measured - failed) / wall, 2),
            "per_class": per_class,
            "rss": rss,
        }
        result.update(extra)
        if collector.digests is not None:
            result["fetch_digests"] = sorted(collector.digests)
        return result
