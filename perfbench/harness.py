"""The benchmark harness: one live SS512 service, closed-loop clients.

Each run starts a real :class:`repro.service.StorageService` in its own
process (``perfbench/server.py``, ``workers=0``) and drives it from this
process over at most two connections through the public client API
(``ServiceConnection``, ``OwnerClient``, ``UserClient``,
``AttributeAuthority``, ``rekey_standard``). Every output is checked:

* each ``read``/``offload_read`` returns the exact plaintext written;
* each raw ``FETCH_RECORD`` body hashes to the server's record digest;
* each sweep lists the owner's whole live set as ``updated``, with no
  ``missing`` and no ``errors``;
* after each epoch the revoked user's pre-epoch keys fail on a swept
  record (and decrypted it before the epoch);
* ``read`` and ``offload_read`` of one record are byte-identical.

A failed check raises :class:`CheckFailed`; failed operations are
counted per op class and exception type in :class:`OpLog`.
"""

from __future__ import annotations

import asyncio
import hashlib
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

from workloads import PAYLOAD_BYTES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space of this process (stores, span files); removed at exit.
WORK = ROOT / ".perfbench_work" / str(os.getpid())
#: Span files of traced runs, kept for inspection.
TRACES = ROOT / ".perfbench_work" / "traces"

#: Closed-loop warm-up before the measure window, seconds.
WARMUP_S = 1.0
#: Records read twice (plain and offloaded) after the window.
CROSS_CHECKS = 4


class CheckFailed(Exception):
    """An output the benchmark verifies came back wrong."""


def proc_cpu_seconds(pid: int) -> float:
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


class ServerProcess:
    """One ``perfbench/server.py`` child, stopped by closing its stdin."""

    def __init__(self, root: Path, trace_out: Path = None):
        self.root = root
        self.trace_out = trace_out
        command = [sys.executable, str(HERE / "server.py"),
                   "--src", str(SRC), "--root", str(root)]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        self.proc = subprocess.Popen(command, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        if not line.startswith("PORT "):
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.split()[1])

    @property
    def pid(self) -> int:
        return self.proc.pid

    def signal(self, signum: int) -> None:
        os.kill(self.proc.pid, signum)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class OpLog:
    """Latencies, attempts and typed failures per op class."""

    def __init__(self):
        self.recording = False
        self.latency = defaultdict(list)
        self.attempted = Counter()
        self.failed = Counter()      # (op class, exception type) -> count
        self.violations = []
        self.first_traceback = {}
        self.completed = 0           # ops (not epochs) ended without error

    def ok(self, op_class: str, seconds: float) -> None:
        if op_class != "epoch":
            self.completed += 1
        if self.recording:
            self.attempted[op_class] += 1
            self.latency[op_class].append(seconds)

    def fail(self, op_class: str, exc: BaseException) -> None:
        name = type(exc).__name__
        if isinstance(exc, CheckFailed):
            self.violations.append(f"{op_class}: {exc}")
        self.first_traceback.setdefault(name, "".join(
            traceback.format_exception(exc)))
        if self.recording:
            self.attempted[op_class] += 1
            self.failed[(op_class, name)] += 1

    def total(self) -> tuple:
        return sum(self.attempted.values()), sum(self.failed.values())


class EpochGate:
    """Decrypting reads wait out a revocation epoch in progress."""

    def __init__(self):
        self.open = asyncio.Event()
        self.open.set()
        self.idle = asyncio.Event()
        self.idle.set()
        self.busy = 0

    async def enter(self) -> None:
        await self.open.wait()
        self.busy += 1
        self.idle.clear()

    def leave(self) -> None:
        self.busy -= 1
        if not self.busy:
            self.idle.set()

    async def close(self) -> None:
        self.open.clear()
        await self.idle.wait()

    def reopen(self) -> None:
        self.open.set()


def _sealed_plaintext(group, component, public_key, keys) -> bytes:
    from repro.crypto.hybrid import open_sealed
    from repro.fastpath import DecryptionSession

    ciphertext = component.abe_ciphertext
    session = DecryptionSession(group, ciphertext, public_key, keys)
    return open_sealed(session.decrypt(ciphertext), ciphertext.ciphertext_id,
                       component.data_ciphertext)


class OwnerStream:
    """One owner's writes and revocation epochs, issued by one worker.

    Uploads and deletes keep ``plan.live`` churn records alive on
    average; ``replace`` rewrites a churn record's component. An epoch
    issues keys to a fresh user, revokes one of its attributes with
    ``rekey_standard``, sweeps the owner's live set and rolls the
    readers' keys forward. Deletes never overlap a sweep: this worker
    issues every write.
    """

    def __init__(self, bench, client, policies, plan, prefix, readers):
        self.bench = bench
        self.client = client
        self.policies = policies
        self.plan = plan
        self.prefix = prefix
        self.readers = readers
        self.rng = random.Random(f"owner:{bench.seed}:{prefix}")
        self.churn = {}          # record id -> plaintext, oldest first
        self.serial = 0
        self.rotation = 0
        self.writes = 0
        self.epochs = 0

    async def populate(self, count: int) -> None:
        uploads = [self._new_record() for _ in range(count)]
        await asyncio.gather(*(
            self.client.upload(record_id, {"c": (payload, policy)})
            for record_id, policy, payload in uploads
        ))
        for record_id, _, payload in uploads:
            self.churn[record_id] = payload

    def _policy(self) -> str:
        # Round-robin, so every run writes the same mix of row counts.
        policy = self.policies[self.rotation % len(self.policies)]
        self.rotation += 1
        return policy

    def _new_record(self) -> tuple:
        record_id = f"{self.prefix}{self.serial:05d}"
        self.serial += 1
        return record_id, self._policy(), self.rng.randbytes(PAYLOAD_BYTES)

    def _choose(self) -> str:
        cycle = self.plan.cycle
        kind = cycle[self.writes % len(cycle)]
        self.writes += 1
        return kind

    async def write(self) -> None:
        log = self.bench.log
        kind = self._choose()
        op_class = "delete" if kind == "delete" else "write"
        started = time.perf_counter()
        try:
            if kind == "upload":
                record_id, policy, payload = self._new_record()
                await self.client.upload(record_id, {"c": (payload, policy)})
                self.churn[record_id] = payload
            elif kind == "replace":
                record_id = self.rng.choice(sorted(self.churn))
                payload = self.rng.randbytes(PAYLOAD_BYTES)
                await self.client.update_component(record_id, "c", payload,
                                                   self._policy())
                self.churn[record_id] = payload
            else:
                record_id = next(iter(self.churn))  # the oldest
                await self.client.delete_record(record_id)
                del self.churn[record_id]
        except Exception as exc:
            log.fail(op_class, exc)
            return
        log.ok(op_class, time.perf_counter() - started)

    async def epoch(self) -> None:
        try:
            seconds = await self._epoch()
        except Exception as exc:
            self.bench.log.fail("epoch", exc)
            return
        self.bench.log.ok("epoch", seconds)

    async def _epoch(self) -> float:
        from repro.core import revocation
        from repro.errors import ReproError
        from workloads import ATTRIBUTES, REKEYED

        bench, world = self.bench, self.bench.world
        core = self.client.core
        self.epochs += 1
        uid = f"{self.prefix}revoked{self.epochs}"
        public_key = world.ca.register_user(uid)
        keys = {aid: world.aas[aid].keygen(public_key, ATTRIBUTES,
                                           core.owner_id)
                for aid in world.authorities}
        probe = self.rng.choice(sorted(self.churn))
        before = (await self.client.fetch_record(probe)).component("c")
        if _sealed_plaintext(world.group, before, public_key, keys) \
                != self.churn[probe]:
            raise CheckFailed(f"fresh keys misread {probe} before the epoch")
        expected = set(core.records_involving(REKEYED))
        await bench.gate.close()
        bench.flux = True
        try:
            started = time.perf_counter()
            result = revocation.rekey_standard(world.aas[REKEYED], uid,
                                               ["a0"])
            summary = await self.client.sweep_revocation(result.update_key)
            seconds = time.perf_counter() - started
            for reader in self.readers:
                reader.apply_update_key(result.update_key)
                await reader.register_transform_key(core.owner_id)
        finally:
            bench.gate.reopen()
        if set(summary["updated"]) != expected or summary["missing"] \
                or summary["errors"] or summary["already_current"]:
            raise CheckFailed(
                f"sweep covered {len(summary['updated'])}/{len(expected)} "
                f"live ciphertexts (missing {summary['missing']}, errors "
                f"{summary['errors']})")
        if self.readers:
            await bench.refresh_digests()
        after = (await self.client.fetch_record(probe)).component("c")
        try:
            _sealed_plaintext(world.group, after, public_key, keys)
        except ReproError:
            pass
        else:
            raise CheckFailed(f"revoked pre-epoch keys still open {probe}")
        return seconds


class World:
    """One set-up: server process, trust fabric, connections, records."""

    def __init__(self):
        self.server = None
        self.group = None
        self.connections = []
        self.readers = []
        self.owner = None      # OwnerClient of the readers' data owner
        self.stream = None     # OwnerStream writing during window/epilogue

    async def close(self) -> None:
        for connection in self.connections:
            await connection.close()
        if self.server is not None:
            self.server.stop()
            shutil.rmtree(self.server.root, ignore_errors=True)


class Bench:
    def __init__(self, args, workload):
        self.args = args
        self.seed = args.seed
        self.workload = workload
        self.traced = bool(args.trace)
        self.log = OpLog()
        self.gate = None
        self.flux = False
        self.world = None
        self.expected = {}    # record id -> plaintext (readers' records)
        self.digests = {}     # record id -> sha256 hex of its stored bytes
        self.record_ids = []
        self.shape_of = {}    # record id -> policy
        self.popular = []     # record ids, most popular first
        self.popularity = None
        self.tracer = None

    # -- set-up --------------------------------------------------------

    async def build_world(self, index: int) -> World:
        from repro.core.authority import AttributeAuthority
        from repro.core.ca import CertificateAuthority
        from repro.core.owner import DataOwner
        from repro.pairing import SS512
        from repro.pairing.group import PairingGroup
        from repro.service import (AuthorityClient, OwnerClient, RetryPolicy,
                                   ServiceConnection, UserClient)
        from workloads import ATTRIBUTES, REKEYED, Popularity, make_policies

        wl = self.workload
        world = World()
        self.world = world
        trace_out = WORK / "server-spans.json" if self.traced else None
        world.server = ServerProcess(WORK / f"store-{index}", trace_out)
        group = PairingGroup(SS512, seed=f"group:{self.seed}")
        world.group = group
        world.authorities = tuple(sorted(set(wl.authorities) | {REKEYED}))
        world.ca = CertificateAuthority(group)
        world.aas = {}
        for aid in world.authorities:
            world.ca.register_authority(aid)
            world.aas[aid] = AttributeAuthority(group, aid, ATTRIBUTES)
        max_inflight = max(8, wl.workers * 2)
        n_connections = 2
        for position in range(n_connections):
            connection = ServiceConnection(
                group, "127.0.0.1", world.server.port,
                role="owner" if position == 0 else "user",
                name=f"perfbench-{position}", timeout=120.0,
                max_inflight=max_inflight,
                retry=RetryPolicy(max_attempts=3, rng=random.Random(
                    f"retry:{self.seed}:{position}")),
            )
            await connection.connect()
            world.connections.append(connection)
        control = world.connections[0]
        for aa in world.aas.values():
            await AuthorityClient(control, aa).publish_keys()

        async def new_owner(owner_id):
            core = DataOwner(group, owner_id)
            world.ca.register_owner(owner_id)
            for aa in world.aas.values():
                aa.register_owner(core.secret_key)
            client = OwnerClient(control, core)
            for aid in world.authorities:
                await client.learn_authorities(aid)
            return client

        world.owner = await new_owner("alice")
        rng = random.Random(f"inputs:{self.seed}")
        # Reader i rides connection i (owner-revoke: the second one).
        reader_connections = world.connections[-wl.connections:]
        for position, connection in enumerate(reader_connections):
            uid = f"reader{position}"
            reader = UserClient(connection, uid)
            reader.receive_public_key(world.ca.register_user(uid))
            for aid in world.authorities:
                reader.receive_secret_key(world.aas[aid].keygen(
                    reader.public_key, ATTRIBUTES, "alice"))
            await reader.register_transform_key("alice")
            world.readers.append(reader)

        policies = make_policies(rng, wl.authorities, wl.rows)
        self.record_ids = [f"r{number:04d}" for number in range(wl.records)]
        self.expected = {record_id: rng.randbytes(PAYLOAD_BYTES)
                         for record_id in self.record_ids}
        # Shapes follow popularity rank, so every seed puts the same row
        # counts at the head of the Zipf curve.
        self.popular = list(self.record_ids)
        rng.shuffle(self.popular)
        self.shape_of = {record_id: policies[rank % len(policies)]
                         for rank, record_id in enumerate(self.popular)}
        self.popularity = Popularity(wl.records, wl.zipf_alpha)
        records = await asyncio.gather(*(
            world.owner.upload(record_id, {
                "c": (self.expected[record_id], self.shape_of[record_id])})
            for record_id in self.record_ids
        ))
        self.digests = {
            record.record_id: hashlib.sha256(record.to_bytes()).hexdigest()
            for record in records
        }
        await self.refresh_digests(strict=True)

        owner_policies = make_policies(rng, wl.authorities, wl.owner.rows)
        if wl.owner_in_window:
            world.stream = OwnerStream(self, world.owner, owner_policies,
                                       wl.owner, "w", world.readers)
        else:
            epilogue_owner = await new_owner("dave")
            world.stream = OwnerStream(self, epilogue_owner, owner_policies,
                                       wl.owner, "e", [])
        await world.stream.populate(wl.owner.live)
        return world

    async def refresh_digests(self, strict: bool = False) -> None:
        """Learn the server's digest of every reader record.

        ``strict`` (after population) also demands that it matches the
        bytes this process uploaded.
        """
        client = self.world.readers[0]
        replies = await asyncio.gather(*(
            client.record_digest(record_id) for record_id in self.record_ids
        ))
        for reply in replies:
            record_id, digest = reply["record"], reply["digest"]
            if strict and self.digests[record_id] != digest:
                raise CheckFailed(f"server digest of {record_id} differs "
                                  f"from the uploaded bytes")
            self.digests[record_id] = digest
        self.flux = False

    # -- operations ----------------------------------------------------

    async def reader_op(self, reader, rng) -> None:
        from repro.service import protocol
        from repro.service.protocol import MessageType
        from workloads import pick

        op_class = pick(rng, self.workload.mix)
        record_id = self.popular[self.popularity.sample(rng)]
        try:
            if op_class == "fetch":
                flux = self.flux
                earlier = (await reader.record_digest(record_id))["digest"] \
                    if flux else None
                started = time.perf_counter()
                _, body = await reader.connection.request(
                    MessageType.FETCH_RECORD,
                    protocol.encode_json({"record": record_id}),
                    expect=MessageType.RECORD)
                seconds = time.perf_counter() - started
                digest = hashlib.sha256(body).hexdigest()
                valid = digest == self.digests[record_id]
                if not valid and (flux or self.flux):
                    later = (await reader.record_digest(record_id))["digest"]
                    valid = digest in (earlier, later)
                if not valid:
                    raise CheckFailed(f"fetched {record_id} does not match "
                                      f"the server's record digest")
            else:
                started = time.perf_counter()
                await self.gate.enter()
                try:
                    if op_class == "read":
                        plaintext = await reader.read(record_id, "c")
                    else:
                        plaintext = await reader.read_outsourced(record_id,
                                                                 "c")
                finally:
                    self.gate.leave()
                seconds = time.perf_counter() - started
                if plaintext != self.expected[record_id]:
                    raise CheckFailed(f"{op_class} of {record_id} returned "
                                      f"other plaintext than was written")
        except Exception as exc:
            self.log.fail(op_class, exc)
            return
        self.log.ok(op_class, seconds)

    async def run_readers(self, deadline: float, worker_seed: str) -> None:
        async def worker(reader, number):
            rng = random.Random(f"{worker_seed}:{self.seed}:{number}")
            op = 0
            while time.perf_counter() < deadline:
                if self.tracer is not None:
                    self.tracer.set_op(f"r{number}.{op}")
                op += 1
                await self.reader_op(reader, rng)

        tasks = [
            worker(reader, position * self.workload.workers + slot)
            for position, reader in enumerate(self.world.readers)
            for slot in range(self.workload.workers)
        ]
        await asyncio.gather(*tasks)

    async def run_owner(self, deadline: float) -> None:
        stream = self.world.stream
        while time.perf_counter() < deadline:
            for _ in range(stream.plan.writes_per_epoch):
                if time.perf_counter() >= deadline:
                    return
                await stream.write()
            await stream.epoch()

    async def window(self, seconds: float, label: str) -> tuple:
        """One closed-loop window: ``(wall seconds, ops completed)``.

        Ops issued before the deadline run to completion, and the
        window lasts until the last of them ends.
        """
        before = self.log.completed
        started = time.perf_counter()
        deadline = started + seconds
        jobs = [self.run_readers(deadline, label)]
        if self.workload.owner_in_window:
            jobs.append(self.run_owner(deadline))
        await asyncio.gather(*jobs)
        return time.perf_counter() - started, self.log.completed - before

    async def epilogue(self) -> None:
        stream = self.world.stream
        for _ in range(self.workload.epilogue_writes):
            await stream.write()
        for _ in range(self.workload.epilogue_epochs):
            await stream.epoch()

    async def cross_check(self) -> None:
        """``read`` and ``offload_read`` agree byte for byte on a sample."""
        reader = self.world.readers[0]
        rng = random.Random(f"cross:{self.seed}")
        for record_id in rng.sample(self.record_ids, CROSS_CHECKS):
            plain = await reader.read(record_id, "c")
            offloaded = await reader.read_outsourced(record_id, "c")
            if plain != offloaded or plain != self.expected[record_id]:
                raise CheckFailed(f"read and offload_read of {record_id} "
                                  f"differ")

    def inject(self) -> None:
        target = self.popular[0]
        if self.args.inject == "plaintext":
            value = bytearray(self.expected[target])
            value[0] ^= 1
            self.expected[target] = bytes(value)
        elif self.args.inject == "digest":
            self.digests[target] = hashlib.sha256(b"corrupt").hexdigest()

    # -- the untraced run ----------------------------------------------

    async def setup(self, count: int) -> list:
        """Set up ``count`` times from scratch; keep the last world.

        Returns each set-up's seconds, from spawning the server to the
        first op the run may issue.
        """
        seconds = []
        for index in range(count):
            if self.world is not None:
                await self.world.close()
            started = time.perf_counter()
            await self.build_world(index)
            self.gate = EpochGate()
            seconds.append(time.perf_counter() - started)
        return seconds

    async def untraced(self) -> dict:
        setup_times = await self.setup(self.workload.setups)
        self.inject()
        await self.window(WARMUP_S, "warmup")
        self.log.recording = True
        elapsed, completed = await self.window(self.args.seconds, "measure")
        await self.cross_check()
        if not self.workload.owner_in_window:
            await self.epilogue()
        self.log.recording = False
        latency = self.log.latency
        return {
            "setup_s": (statistics.median(setup_times), "s"),
            "ops_per_s": (completed / elapsed, "ops/s"),
            "read_p50_ms": (_median(latency, "read") * 1000.0, "ms"),
            "offload_read_p50_ms": (_median(latency, "offload_read") * 1000.0,
                                    "ms"),
            "write_p50_ms": (_median(latency, "write") * 1000.0, "ms"),
            "revoke_s": (_median(latency, "epoch"), "s"),
            "server_rss_mb": (proc_peak_rss_mb(self.world.server.pid),
                              "MiB"),
        }


def _median(latency, op_class: str) -> float:
    if not latency[op_class]:
        raise CheckFailed(f"no {op_class} op completed; the metrics need one")
    return statistics.median(latency[op_class])
