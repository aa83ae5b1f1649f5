"""The end-to-end smoke cycle against a live server.

Drives the full lifecycle of the paper over a real socket: an authority
publishes keys into the server's directory, an owner learns them from
the server and uploads a multi-component record, users download and
decrypt, an attribute is revoked, the owner pushes update keys so the
server proxy-re-encrypts, and finally the revoked user's read fails
while a surviving user still decrypts bit-identical plaintext.

With ``chaos`` set, the whole cycle runs through a seeded
:class:`repro.service.faults.ChaosProxy` with retrying connections: the
cycle must complete *despite* injected connection drops, delays past
the client timeout, corrupted/truncated/duplicated frames — and the
transcript ends with the injected-fault and retry-log tallies so every
recovery is visible.

Used by ``repro client smoke`` (plus the CI ``chaos`` job) and returns
a process exit code (0 = every step behaved).

:func:`run_sweep_cycle` is the bulk-revocation counterpart used by
``repro client sweep``: it populates many records, revokes once, pushes
the whole revocation through a single ``REENCRYPT_SWEEP`` request
(streamed progress included) and verifies every ciphertext version
bumped — optionally through the same chaos proxy.

Each run names its records under a fresh fixed-length prefix
(:func:`run_prefix`), so any number of runs share one server; the fixed
length keeps every frame the same size from run to run.
"""

from __future__ import annotations

import random
import secrets
import sys

from repro.core.authority import AttributeAuthority
from repro.core.ca import CertificateAuthority
from repro.core.owner import DataOwner
from repro.core.revocation import rekey_standard
from repro.errors import ReproError
from repro.pairing.group import PairingGroup
from repro.service.client import (
    AuthorityClient,
    OwnerClient,
    ServiceConnection,
    UserClient,
)
from repro.service.faults import ChaosProxy, FaultSpec
from repro.service.retry import RetryPolicy


class SmokeFailure(ReproError):
    """A smoke step did not behave as the protocol requires."""


def run_prefix() -> str:
    """A fresh record-id prefix for one run: 8 hex digits and a dash."""
    return f"{secrets.token_hex(4)}-"


class TrustFabric:
    """The local trust fabric every smoke cycle shares.

    CA, one AA (``hospital`` with ``doctor``/``nurse``), owner
    ``alice``, users ``bob``/``carol`` — everything that stays
    *off* the server path, exactly as in the paper: only the
    cloud-server role ever lives across a socket. The cluster smoke
    (:mod:`repro.cluster.smoke`) builds the identical fabric, which is
    what makes its byte-identity comparison against a single-node world
    meaningful.
    """

    def __init__(self, group: PairingGroup):
        self.group = group
        self.ca = CertificateAuthority(group)
        self.aa = AttributeAuthority(group, "hospital", ["doctor", "nurse"])
        self.ca.register_authority("hospital")
        self.owner_core = DataOwner(group, "alice")
        self.ca.register_owner("alice")
        self.aa.register_owner(self.owner_core.secret_key)
        self.bob_pk = self.ca.register_user("bob")
        self.carol_pk = self.ca.register_user("carol")

    def issue_user_keys(self, bob, carol) -> None:
        """Out-of-band key issue to two user wallets: bob holds
        ``doctor``, carol ``doctor`` and ``nurse``, both for alice."""
        bob.receive_public_key(self.bob_pk)
        carol.receive_public_key(self.carol_pk)
        bob.receive_secret_key(self.aa.keygen(self.bob_pk, ["doctor"],
                                              "alice"))
        carol.receive_secret_key(
            self.aa.keygen(self.carol_pk, ["doctor", "nurse"], "alice")
        )


async def _start_chaos(host: str, port: int, step, *, chaos: FaultSpec,
                       chaos_seed: int, chaos_schedule: dict,
                       chaos_replay: dict, retry: RetryPolicy,
                       show_rates: bool) -> tuple:
    """Front the server with a seeded :class:`ChaosProxy` when asked.

    ``chaos_replay`` replays a recorded fault trace (same faults, same
    frames, zeroed dice; see ChaosProxy.trace / --chaos-trace);
    ``chaos`` draws fresh faults. Returns ``(proxy, host, port,
    retry)``: the proxy (``None`` without chaos), the address to dial
    and a retry policy that outlasts the injected faults.
    """
    if chaos_replay is not None:
        proxy = ChaosProxy.from_trace(host, port, chaos_replay)
        detail = (f"replaying a trace of {len(proxy.schedule)} "
                  "scheduled faults")
    elif chaos is not None:
        proxy = ChaosProxy(host, port, spec=chaos, seed=chaos_seed,
                           schedule=chaos_schedule)
        rates = ", ".join(f"{k}={v}" for k, v in chaos.rates().items() if v)
        detail = (f"(seed {chaos_seed}, {rates})" if show_rates
                  else f"(seed {chaos_seed})")
    else:
        return None, host, port, retry
    await proxy.start()
    if retry is None:
        retry = RetryPolicy(max_attempts=8, rng=random.Random(chaos_seed))
    step(f"chaos proxy on {proxy.host}:{proxy.port} {detail}")
    return proxy, proxy.host, proxy.port, retry


async def connect_fabric(fabric: TrustFabric, host: str, port: int,
                          clients: list, *, timeout: float,
                          retry: RetryPolicy) -> tuple:
    """Connect the AA, owner, bob and carol clients and issue the users'
    keys out of band. Every client is appended to ``clients`` as it
    connects, for the caller to close. Returns ``(aa, owner, bob,
    carol)``."""
    async def connect(role, name):
        return await ServiceConnection(
            fabric.group, host, port, role=role, name=name,
            timeout=timeout, retry=retry,
        ).connect()

    aa_client = AuthorityClient(await connect("aa", "AA:hospital"),
                                fabric.aa)
    clients.append(aa_client)
    owner_client = OwnerClient(await connect("owner", "owner:alice"),
                               fabric.owner_core)
    clients.append(owner_client)
    bob = UserClient(await connect("user", "user:bob"), "bob")
    clients.append(bob)
    carol = UserClient(await connect("user", "user:carol"), "carol")
    clients.append(carol)
    fabric.issue_user_keys(bob, carol)
    return aa_client, owner_client, bob, carol


async def run_smoke(params, host: str, port: int, *, out=None, seed=None,
                    chaos: FaultSpec = None, chaos_seed: int = 0,
                    chaos_schedule: dict = None, chaos_replay: dict = None,
                    retry: RetryPolicy = None,
                    timeout: float = 30.0, report: dict = None) -> int:
    """Run upload → read → revoke → re-encrypt → revoked-read-fails."""
    out = out or sys.stdout
    group = PairingGroup(params, seed=seed)

    def step(label: str) -> None:
        print(f"ok: {label}", file=out, flush=True)

    proxy, host, port, retry = await _start_chaos(
        host, port, step, chaos=chaos, chaos_seed=chaos_seed,
        chaos_schedule=chaos_schedule, chaos_replay=chaos_replay,
        retry=retry, show_rates=True,
    )
    fabric = TrustFabric(group)
    clients = []
    try:
        aa_client, owner_client, bob, carol = await connect_fabric(
            fabric, host, port, clients, timeout=timeout, retry=retry
        )
        if not await owner_client.ping():
            raise SmokeFailure("server did not answer the ping")
        step(f"connected to {owner_client.connection.server_name} "
             f"at {host}:{port}")

        await aa_client.publish_keys()
        await owner_client.learn_authorities("hospital")
        step("authority keys published and fetched via the server")
        step("user keys issued (out-of-band, as in the paper)")

        note = b"MRI shows nothing acute."
        plan = b"Rest, fluids, follow-up in two weeks."
        record = f"{run_prefix()}record"
        await owner_client.upload(record, {
            "doctor-note": (note, "hospital:doctor"),
            "care-plan": (plan, "hospital:doctor OR hospital:nurse"),
        })
        step("owner uploaded a 2-component record")

        if await bob.read(record, "doctor-note") != note:
            raise SmokeFailure("bob's decryption is not bit-identical")
        if await carol.read(record, "care-plan") != plan:
            raise SmokeFailure("carol's decryption is not bit-identical")
        if await owner_client.read_own(record, "care-plan") != plan:
            raise SmokeFailure("owner self-read failed")
        step("authorized reads recovered bit-identical plaintext")

        result = rekey_standard(fabric.aa, "bob", ["doctor"])
        bob.accept_rekey(result)
        carol.accept_rekey(result)
        updated = await owner_client.push_revocation_updates(
            result.update_key
        )
        if not updated:
            raise SmokeFailure("no ciphertexts were re-encrypted")
        step(f"revoked bob's 'doctor'; server re-encrypted "
             f"{len(updated)} ciphertexts")

        try:
            await bob.read(record, "doctor-note")
            raise SmokeFailure("revoked user still decrypts")
        except (ReproError) as exc:
            if isinstance(exc, SmokeFailure):
                raise
        step("revoked user's read now fails")

        if await carol.read(record, "doctor-note") != note:
            raise SmokeFailure("surviving user lost access after ReEncrypt")
        step("surviving user still decrypts bit-identical plaintext")

        stats = await owner_client.stats()
        step(f"server stats: {stats['records']} records, "
             f"{stats['storage_bytes']} payload bytes, "
             f"{stats['wire_bytes']} wire bytes")

        if proxy is not None:
            entries = [entry for client in clients
                       for entry in client.connection.retry_log]
            counts = {}
            for entry in entries:
                counts[entry["event"]] = counts.get(entry["event"], 0) + 1
            for fault in proxy.injected:
                print(f"  fault: conn {fault['conn']} frame "
                      f"{fault['frame']} {fault['fault']} "
                      f"(type 0x{fault['frame_type'] or 0:02x})",
                      file=out, flush=True)
            for entry in entries:
                print(f"  {entry['event']}: {entry['request']} "
                      f"attempt {entry['attempt']} — {entry['cause']}",
                      file=out, flush=True)
            step(f"chaos survived: {len(proxy.injected)} injected faults "
                 f"{proxy.fault_counts()}, retry log {counts or '{}'}")
            if report is not None:
                report["injected"] = list(proxy.injected)
                report["fault_counts"] = proxy.fault_counts()
                report["retry_entries"] = entries
                report["retry_counts"] = counts
                report["chaos_trace"] = proxy.trace()
            if stats["dedup_hits"]:
                step(f"idempotent replay: {stats['dedup_hits']} retried "
                     f"mutations deduplicated server-side")
    except SmokeFailure as exc:
        print(f"FAIL: {exc}", file=out, flush=True)
        return 1
    except (ReproError, OSError) as exc:
        print(f"FAIL: cycle died with {exc!r}", file=out, flush=True)
        return 1
    finally:
        for client in clients:
            await client.close()
        if proxy is not None:
            await proxy.stop()
    print("smoke cycle passed", file=out, flush=True)
    return 0


async def run_sweep_cycle(params, host: str, port: int, *,
                          records: int = 12, out=None, seed=None,
                          chaos: FaultSpec = None, chaos_seed: int = 0,
                          chaos_schedule: dict = None,
                          chaos_replay: dict = None,
                          retry: RetryPolicy = None, timeout: float = 30.0,
                          report: dict = None) -> int:
    """Populate → revoke → one bulk sweep → verify every version bumped."""
    out = out or sys.stdout
    group = PairingGroup(params, seed=seed)

    def step(label: str) -> None:
        print(f"ok: {label}", file=out, flush=True)

    proxy, host, port, retry = await _start_chaos(
        host, port, step, chaos=chaos, chaos_seed=chaos_seed,
        chaos_schedule=chaos_schedule, chaos_replay=chaos_replay,
        retry=retry, show_rates=False,
    )
    fabric = TrustFabric(group)
    clients = []
    progress_frames = []
    try:
        aa_client, owner_client, bob, carol = await connect_fabric(
            fabric, host, port, clients, timeout=timeout, retry=retry
        )
        await aa_client.publish_keys()
        await owner_client.learn_authorities("hospital")
        step("trust fabric up (1 AA, 1 owner, 2 users)")

        policies = ("hospital:doctor", "hospital:doctor OR hospital:nurse")
        prefix = run_prefix()
        record_ids = [f"{prefix}rec-{index:04d}" for index in range(records)]
        for index, record_id in enumerate(record_ids):
            await owner_client.upload(record_id, {
                "note": (f"note {index}".encode("utf-8"),
                         policies[index % len(policies)]),
            })
        step(f"owner uploaded {records} records")

        result = rekey_standard(fabric.aa, "bob", ["doctor"])
        update_key = result.update_key
        bob.accept_rekey(result)
        carol.accept_rekey(result)

        def on_progress(frame: dict) -> None:
            progress_frames.append(frame)
            print(f"  sweep progress: {frame['done']}/{frame['total']} "
                  f"records ({frame['updated']} updated)",
                  file=out, flush=True)

        summary = await owner_client.sweep_revocation(
            update_key, on_progress=on_progress
        )
        swept = set(summary.get("updated", ())) | set(
            summary.get("already_current", ())
        )
        if len(swept) != records or summary.get("errors"):
            raise SmokeFailure(
                f"sweep covered {len(swept)}/{records} ciphertexts "
                f"(errors: {summary.get('errors')})"
            )
        step(f"one sweep re-encrypted {len(summary['updated'])} ciphertexts "
             f"across {summary['records']} records "
             f"({len(progress_frames)} progress frames)")

        for index in (0, records // 2, records - 1):
            component = await owner_client._fetch_component(
                record_ids[index], "note"
            )
            if component.abe_ciphertext.version_of("hospital") != \
                    update_key.to_version:
                raise SmokeFailure(
                    f"{record_ids[index]} was not rolled to version "
                    f"{update_key.to_version}"
                )
        step("sampled records verified at the new version")

        try:
            await bob.read(record_ids[0], "note")
            raise SmokeFailure("revoked user still decrypts after the sweep")
        except ReproError as exc:
            if isinstance(exc, SmokeFailure):
                raise
        if await carol.read(record_ids[1], "note") != b"note 1":
            raise SmokeFailure("surviving user lost access after the sweep")
        step("revoked read fails; surviving read is bit-identical")

        if proxy is not None:
            step(f"chaos survived: {len(proxy.injected)} injected faults "
                 f"{proxy.fault_counts()}")
        if report is not None:
            report["summary"] = summary
            report["progress_frames"] = list(progress_frames)
            if proxy is not None:
                report["injected"] = list(proxy.injected)
                report["chaos_trace"] = proxy.trace()
    except SmokeFailure as exc:
        print(f"FAIL: {exc}", file=out, flush=True)
        return 1
    except (ReproError, OSError) as exc:
        print(f"FAIL: sweep cycle died with {exc!r}", file=out, flush=True)
        return 1
    finally:
        for client in clients:
            await client.close()
        if proxy is not None:
            await proxy.stop()
    print("sweep cycle passed", file=out, flush=True)
    return 0

