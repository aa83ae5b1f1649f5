"""Gate benchmark for the encryption/keygen session engine.

Workload (the ISSUE-5 acceptance shape): one owner encrypting 64
messages under ONE 10-attribute policy spanning two authorities, and
one AA bulk-onboarding 32 users over a 10-attribute set.

* **Encrypt** — the cold path (:meth:`DataOwner.encrypt`, warm tables)
  versus the session engine's split: the *offline* phase precomputes 64
  message-independent bundles, the *online* phase consumes them with
  one GT multiplication per message. Two gated metrics: the **online
  (request-path) speedup** — the figure that matters when refills run
  in the background on the crypto pool and overlap I/O — and the
  **fully-amortized speedup** (setup + offline + online against the
  cold loop), the ROADMAP's total-throughput target. Each leg is
  timed best-of-``ENCRYPT_RUNS`` with a fresh session (setup
  included) per offline rep.
* **KeyGen** — a cold ``keygen`` loop versus joint session issuance
  (:func:`repro.fastpath.issue_joint`, setup included): both
  authorities onboard every user sharing one doubling chain per
  ``PK_UID``.

Correctness is asserted before any gate: every session ciphertext must
decrypt to its message through BOTH the direct and the outsourced
(:mod:`repro.core.outsourcing`) paths, serialize to the same byte
length and header layout as a cold ciphertext, survive a
serialization round-trip, and every session-issued key must equal its
cold-issued twin exactly.

Usage::

    PYTHONPATH=src python benchmarks/bench_encrypt_session.py             # SS512, 3x/2x gates
    REPRO_BENCH_PRESET=TOY80 PYTHONPATH=src \
        python benchmarks/bench_encrypt_session.py --smoke \
        --out /tmp/smoke.json                                             # CI, 1.5x/1.2x gates

Writes ``BENCH_encrypt_session.json`` (or ``--out``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro.core.authority import AttributeAuthority
from repro.core.ca import CertificateAuthority
from repro.core.decrypt import decrypt
from repro.core.outsourcing import (
    make_transform_key,
    server_transform_many,
    user_finalize,
)
from repro.core.owner import DataOwner
from repro.ec.params import PRESETS
from repro.fastpath import EncryptionSession, issue_joint
from repro.pairing.group import PairingGroup

from bench_common import arith_metadata, counter_summary

N_MESSAGES = 64
ENCRYPT_RUNS = 3                 # best-of-N noise estimator per leg
N_USERS = 32
ATTRS_PER_AUTHORITY = 5          # x 2 authorities = the 10-attribute policy
SEED = 1234


def _build_fabric(preset):
    group = PairingGroup(preset, seed=SEED)
    ca = CertificateAuthority(group)
    names = [f"a{i}" for i in range(ATTRS_PER_AUTHORITY)]
    authorities = [
        AttributeAuthority(group, aid, names) for aid in ("hosp", "trial")
    ]
    for authority in authorities:
        ca.register_authority(authority.aid)
    owner = DataOwner(group, "alice")
    ca.register_owner("alice")
    for authority in authorities:
        authority.register_owner(owner.secret_key)
        owner.learn_authority(
            authority.authority_public_key(),
            authority.public_attribute_keys(),
        )
    policy = " AND ".join(
        f"{authority.aid}:{name}"
        for authority in authorities for name in names
    )
    return group, ca, authorities, owner, policy


def _check_layout(cold_ct, session_ct, group):
    """Session ciphertexts must serialize exactly like cold ones."""
    cold_raw = cold_ct.to_bytes()
    session_raw = session_ct.to_bytes()
    # Ids are chosen with equal lengths, so total sizes must match.
    if len(session_raw) != len(cold_raw):
        raise AssertionError(
            f"serialized size differs: session {len(session_raw)} vs "
            f"cold {len(cold_raw)} bytes"
        )
    cold_header_len = int.from_bytes(cold_raw[:4], "big")
    session_header_len = int.from_bytes(session_raw[:4], "big")
    if session_header_len != cold_header_len:
        raise AssertionError("header lengths differ")
    cold_header = json.loads(cold_raw[4:4 + cold_header_len])
    session_header = json.loads(session_raw[4:4 + session_header_len])
    cold_header.pop("id")
    session_header.pop("id")
    if session_header != cold_header:
        raise AssertionError(
            f"header layout differs: {session_header} vs {cold_header}"
        )
    # Round-trip: decode must reproduce the ciphertext bit-for-bit.
    restored = type(session_ct).from_bytes(group, session_raw)
    if (restored.c != session_ct.c
            or restored.c_prime != session_ct.c_prime
            or restored.c_rows != session_ct.c_rows):
        raise AssertionError("session ciphertext failed its round-trip")


def run(preset_name: str, out_path: str, smoke: bool) -> dict:
    preset = PRESETS[preset_name]
    group, ca, authorities, owner, policy = _build_fabric(preset)
    hosp, trial = authorities
    attr_names = [f"a{i}" for i in range(ATTRS_PER_AUTHORITY)]
    n_attrs = 2 * ATTRS_PER_AUTHORITY

    # -- KeyGen: cold loop vs one session batch (setup included) -----------
    user_pks = [ca.register_user(f"user-{i:03d}") for i in range(N_USERS)]

    start = time.perf_counter()
    cold_keys = [
        (hosp.keygen(pk, attr_names, "alice"),
         trial.keygen(pk, attr_names, "alice"))
        for pk in user_pks
    ]
    keygen_cold_s = time.perf_counter() - start

    start = time.perf_counter()
    hosp_session = hosp.keygen_session("alice", attr_names)
    trial_session = trial.keygen_session("alice", attr_names)
    session_keys = [
        (issued["hosp"], issued["trial"])
        for issued in issue_joint([hosp_session, trial_session], user_pks)
    ]
    keygen_session_s = time.perf_counter() - start

    for (cold_h, cold_t), (fast_h, fast_t) in zip(cold_keys, session_keys):
        if (fast_h.k != cold_h.k or fast_t.k != cold_t.k
                or fast_h.attribute_keys != cold_h.attribute_keys
                or fast_t.attribute_keys != cold_t.attribute_keys
                or fast_h.version != cold_h.version):
            raise AssertionError("session-issued key differs from cold twin")
    keygen_speedup = keygen_cold_s / keygen_session_s
    print(f"[encrypt-session] keygen: {2 * N_USERS} cold keys "
          f"{keygen_cold_s:.3f}s -> session {keygen_session_s:.3f}s "
          f"({keygen_speedup:.2f}x), all keys identical")

    # -- Encrypt: cold loop vs offline/online split -------------------------
    # Each leg runs ENCRYPT_RUNS times and the gate compares the best
    # run of each — the min is the standard noise estimator (cf.
    # ``timeit``; same scheme as bench_parallel_sweep): scheduler
    # hiccups only ever make a run slower. Every offline rep builds a
    # FRESH session, so setup (LSSS resolution, the session's wide
    # generator table) is inside every offline sample, not amortized
    # away across reps.
    messages = [group.random_gt() for _ in range(N_MESSAGES)]
    owner.encrypt(group.random_gt(), policy,
                  ciphertext_id="bench/warmup-00")  # warm tables, both sides

    cold_samples, offline_samples, online_samples = [], [], []
    cold_cts = session_cts = None
    for rep in range(ENCRYPT_RUNS):
        start = time.perf_counter()
        cold_cts = [
            owner.encrypt(message, policy,
                          ciphertext_id=f"bench/cold-{rep}-{i:03d}")
            for i, message in enumerate(messages)
        ]
        cold_samples.append(time.perf_counter() - start)

        start = time.perf_counter()
        session = EncryptionSession(owner, policy)
        session.refill(N_MESSAGES)
        offline_samples.append(time.perf_counter() - start)

        start = time.perf_counter()
        session_cts = [
            session.encrypt(message, ciphertext_id=f"bench/sess-{rep}-{i:03d}")
            for i, message in enumerate(messages)
        ]
        online_samples.append(time.perf_counter() - start)
        if session.stats["pool_misses"]:
            raise AssertionError("online phase fell back to inline bundles")

    encrypt_cold_s = min(cold_samples)
    offline_s = min(offline_samples)
    online_s = min(online_samples)
    online_speedup = encrypt_cold_s / online_s
    amortized_speedup = encrypt_cold_s / (offline_s + online_s)
    print(f"[encrypt-session] encrypt: {N_MESSAGES} msgs x{ENCRYPT_RUNS}, "
          f"{n_attrs}-attribute policy: cold {encrypt_cold_s:.3f}s, "
          f"offline {offline_s:.3f}s + online {online_s:.3f}s "
          f"(online {online_speedup:.1f}x, amortized "
          f"{amortized_speedup:.2f}x)")

    # -- Correctness: round-trip every session ciphertext -------------------
    reader_pk = user_pks[0]
    reader_keys = {"hosp": session_keys[0][0], "trial": session_keys[0][1]}
    transform_key, retrieval_key = make_transform_key(
        group, reader_pk, reader_keys
    )
    partials = server_transform_many(group, session_cts, transform_key)
    for index, (message, ct, partial) in enumerate(
            zip(messages, session_cts, partials)):
        if decrypt(group, ct, reader_pk, reader_keys) != message:
            raise AssertionError(f"direct decrypt failed for ct {index}")
        if user_finalize(ct, partial, retrieval_key) != message:
            raise AssertionError(f"outsourced decrypt failed for ct {index}")
        _check_layout(cold_cts[index], ct, group)
    print(f"[encrypt-session] all {N_MESSAGES} session ciphertexts decrypt "
          f"(direct + outsourced) and serialize identically to cold")

    encrypt_gate = 1.5 if smoke else 3.0
    amortized_gate = 1.2 if smoke else 2.0
    keygen_gate = 1.2 if smoke else 2.0
    report = {
        "benchmark": "encryption session engine (online/offline split)",
        "generated_by": "benchmarks/bench_encrypt_session.py",
        "preset": preset_name,
        "smoke": smoke,
        "arithmetic": arith_metadata(group),
        "workload": {
            "messages": N_MESSAGES,
            "encrypt_runs": ENCRYPT_RUNS,
            "policy_attributes": n_attrs,
            "policy": policy,
            "keygen_users": N_USERS,
            "keygen_authorities": 2,
        },
        "encrypt": {
            "cold_s": round(encrypt_cold_s, 6),
            "offline_s": round(offline_s, 6),
            "online_s": round(online_s, 6),
            "cold_samples_s": [round(v, 6) for v in cold_samples],
            "offline_samples_s": [round(v, 6) for v in offline_samples],
            "online_samples_s": [round(v, 6) for v in online_samples],
            "online_speedup": round(online_speedup, 2),
            "amortized_speedup": round(amortized_speedup, 2),
        },
        "keygen": {
            "cold_s": round(keygen_cold_s, 6),
            "session_s": round(keygen_session_s, 6),
            "speedup": round(keygen_speedup, 2),
        },
        "checks": {
            "direct_decrypts": N_MESSAGES,
            "outsourced_decrypts": N_MESSAGES,
            "layout_identical": True,
            "keys_identical": 2 * N_USERS,
        },
        "gates": {
            "encrypt_online_floor": encrypt_gate,
            "encrypt_amortized_floor": amortized_gate,
            "keygen_floor": keygen_gate,
        },
        "op_counts": counter_summary(group),
    }
    with open(out_path, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"[encrypt-session] wrote {out_path}")
    return report


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        default=os.path.join(
            os.path.dirname(__file__), os.pardir, "BENCH_encrypt_session.json"
        ),
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="relax the 3x/2x gates to 1.5x/1.2x for CI hardware",
    )
    args = parser.parse_args()
    preset_name = os.environ.get("REPRO_BENCH_PRESET", "SS512")
    report = run(preset_name, args.out, args.smoke)
    failures = []
    if report["encrypt"]["online_speedup"] < report["gates"]["encrypt_online_floor"]:
        failures.append(
            f"encrypt online speedup {report['encrypt']['online_speedup']}x "
            f"< {report['gates']['encrypt_online_floor']}x"
        )
    if (report["encrypt"]["amortized_speedup"]
            < report["gates"]["encrypt_amortized_floor"]):
        failures.append(
            f"encrypt amortized speedup "
            f"{report['encrypt']['amortized_speedup']}x "
            f"< {report['gates']['encrypt_amortized_floor']}x"
        )
    if report["keygen"]["speedup"] < report["gates"]["keygen_floor"]:
        failures.append(
            f"keygen speedup {report['keygen']['speedup']}x "
            f"< {report['gates']['keygen_floor']}x"
        )
    if failures:
        print(f"[encrypt-session] FAIL: {'; '.join(failures)}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
