"""Gate benchmark for the decryption session engine + transform offload.

Workload: one user decrypting 64 ciphertexts encrypted under ONE
10-attribute policy spanning two authorities — the read-path mirror of
``bench_encrypt_session.py``.

* **Session decrypt** — the cold path (a one-shot
  :class:`repro.fastpath.DecryptionSession` per ciphertext, with the
  group's prepared-chain cache cleared before every call so each read
  derives everything afresh) versus one session built per rep (setup
  INCLUDED in the timed leg) that replays cached Miller chains and
  reduces the whole batch through one shared final exponentiation.
  Gated metric: the **amortized speedup** — (setup + decrypt_many)
  against the cold loop — must clear ``2.0x`` at SS512 (relaxed to
  ``1.2x`` under ``--smoke`` for CI hardware). A one-shot session is
  already the collapsed 2-replay form, so the session's margin over the
  cold leg is setup amortization and batching alone (measured ~2.2x).
* **Outsourced decrypt** — the server transforms every ciphertext
  under a blinded :class:`~repro.core.outsourcing.TransformKey`
  (batched via :func:`~repro.core.outsourcing.server_transform_many`);
  the user's finalize is one GT exponentiation per message. Gated
  metric: the finalize leg must perform **zero pairings** — armed in
  BOTH modes, smoke included.

Correctness is asserted before any gate and is NOT relaxed by
``--smoke``: every cold, session-decrypted and outsourced message must
be **byte-identical** to the paper-literal :func:`repro.core.decrypt.
decrypt` of the same ciphertext.

Usage::

    PYTHONPATH=src python benchmarks/bench_decrypt_session.py             # SS512, 2.0x gate
    REPRO_BENCH_PRESET=TOY80 PYTHONPATH=src \
        python benchmarks/bench_decrypt_session.py --smoke \
        --out /tmp/smoke.json                                             # CI, 1.2x gate

Writes ``BENCH_decrypt_session.json`` (or ``--out``).
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
from repro.fastpath import DecryptionSession
from repro.pairing.group import PairingGroup

from bench_common import arith_metadata, counter_summary

N_MESSAGES = 64
RUNS = 3                         # best-of-N noise estimator per leg
ATTRS_PER_AUTHORITY = 5          # x 2 authorities = the 10-attribute policy
SEED = 5150


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
    reader_pk = ca.register_user("reader")
    reader_keys = {
        authority.aid: authority.keygen(reader_pk, names, "alice")
        for authority in authorities
    }
    return group, owner, policy, reader_pk, reader_keys


def _cold_read(group, ciphertext, reader_pk, reader_keys):
    """One cold read: a one-shot session with nothing cached.

    A session registers its prepared Miller chains in the GROUP's
    shared cache; clearing it first keeps every call from replaying an
    earlier call's chains, so each cold read pays its whole setup.
    """
    group._prepared.clear()
    session = DecryptionSession(group, ciphertext, reader_pk, reader_keys)
    return session.decrypt(ciphertext)


def run(preset_name: str, out_path: str, smoke: bool) -> dict:
    preset = PRESETS[preset_name]
    group, owner, policy, reader_pk, reader_keys = _build_fabric(preset)
    n_attrs = 2 * ATTRS_PER_AUTHORITY

    messages = [group.random_gt() for _ in range(N_MESSAGES)]
    ciphertexts = [
        owner.encrypt(message, policy, ciphertext_id=f"bench/ct-{i:03d}")
        for i, message in enumerate(messages)
    ]
    # Warm every shared cache (generator tables, LSSS parse) so the
    # cold leg is the *best case* cold path, not a first-call outlier.
    _cold_read(group, ciphertexts[0], reader_pk, reader_keys)

    # -- cold vs session (best-of-RUNS, fresh session per rep) --------------
    # The prepared-chain cache is cleared before every cold read and
    # before each session rep, so the session leg re-pays its whole
    # setup (LSSS solve + chain preparation) every rep too.
    cold_samples, session_samples = [], []
    cold_values = session_values = None
    for _ in range(RUNS):
        start = time.perf_counter()
        cold_values = [
            _cold_read(group, ciphertext, reader_pk, reader_keys)
            for ciphertext in ciphertexts
        ]
        cold_samples.append(time.perf_counter() - start)

        group._prepared.clear()
        start = time.perf_counter()
        session = DecryptionSession(
            group, ciphertexts[0], reader_pk, reader_keys
        )
        session_values = session.decrypt_many(ciphertexts)
        session_samples.append(time.perf_counter() - start)

    cold_s = min(cold_samples)
    session_s = min(session_samples)
    session_speedup = cold_s / session_s
    print(f"[decrypt-session] decrypt: {N_MESSAGES} cts x{RUNS}, "
          f"{n_attrs}-attribute policy: cold {cold_s:.3f}s -> "
          f"session (setup incl.) {session_s:.3f}s "
          f"({session_speedup:.2f}x)")

    # -- byte identity (armed in BOTH modes, --smoke included) --------------
    references = [
        decrypt(group, ciphertext, reader_pk, reader_keys).to_bytes()
        for ciphertext in ciphertexts
    ]
    for index, (message, reference, cold, fast) in enumerate(
        zip(messages, references, cold_values, session_values)
    ):
        if cold.to_bytes() != reference or fast.to_bytes() != reference:
            raise AssertionError(
                f"cold or session decrypt of ct {index} is not "
                f"byte-identical to the paper-literal decrypt"
            )
        if cold != message:
            raise AssertionError(f"cold decrypt of ct {index} is wrong")
    print(f"[decrypt-session] all {N_MESSAGES} cold and session plaintexts "
          f"are byte-identical to the paper-literal decrypt")

    # -- outsourced: server transform + pairing-free user finalize ----------
    transform_key, retrieval_key = make_transform_key(
        group, reader_pk, reader_keys
    )
    start = time.perf_counter()
    partials = server_transform_many(group, ciphertexts, transform_key)
    transform_s = time.perf_counter() - start

    pairings_before = group.op_counts()["pairings"]
    start = time.perf_counter()
    outsourced_values = [
        user_finalize(ciphertext, partial, retrieval_key)
        for ciphertext, partial in zip(ciphertexts, partials)
    ]
    finalize_s = time.perf_counter() - start
    user_pairings = group.op_counts()["pairings"] - pairings_before

    for index, (reference, via_server) in enumerate(
        zip(references, outsourced_values)
    ):
        if via_server.to_bytes() != reference:
            raise AssertionError(
                f"outsourced decrypt of ct {index} is not byte-identical"
            )
    print(f"[decrypt-session] outsourced: server transform {transform_s:.3f}s"
          f" + user finalize {finalize_s:.3f}s "
          f"({user_pairings} user-side pairings), all byte-identical")

    session_gate = 1.2 if smoke else 2.0
    report = {
        "benchmark": "decryption session engine + transform offload",
        "generated_by": "benchmarks/bench_decrypt_session.py",
        "preset": preset_name,
        "smoke": smoke,
        "arithmetic": arith_metadata(group),
        "workload": {
            "ciphertexts": N_MESSAGES,
            "runs": RUNS,
            "policy_attributes": n_attrs,
            "policy": policy,
        },
        "decrypt": {
            "cold_s": round(cold_s, 6),
            "session_s": round(session_s, 6),
            "cold_samples_s": [round(v, 6) for v in cold_samples],
            "session_samples_s": [round(v, 6) for v in session_samples],
            "session_speedup": round(session_speedup, 2),
        },
        "outsourced": {
            "server_transform_s": round(transform_s, 6),
            "user_finalize_s": round(finalize_s, 6),
            "user_pairings": user_pairings,
        },
        "checks": {
            "session_byte_identical": N_MESSAGES,
            "outsourced_byte_identical": N_MESSAGES,
        },
        "gates": {
            "session_amortized_floor": session_gate,
            "session_amortized_floor_reason": (
                "the cold leg is a one-shot session per ciphertext, "
                "already the collapsed 2-replay form (faster than the "
                "3-pairing cold path it replaced, which was gated at "
                "2.5x), so the margin is setup amortization and "
                "batching alone"
            ),
            "outsourced_user_pairings": 0,
        },
        "op_counts": counter_summary(group),
    }
    with open(out_path, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"[decrypt-session] wrote {out_path}")
    return report


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        default=os.path.join(
            os.path.dirname(__file__), os.pardir, "BENCH_decrypt_session.json"
        ),
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="relax the 2.0x session gate to 1.2x for CI hardware "
             "(byte-identity and the zero-pairing gate stay armed)",
    )
    args = parser.parse_args()
    preset_name = os.environ.get("REPRO_BENCH_PRESET", "SS512")
    report = run(preset_name, args.out, args.smoke)
    failures = []
    if (report["decrypt"]["session_speedup"]
            < report["gates"]["session_amortized_floor"]):
        failures.append(
            f"session decrypt speedup {report['decrypt']['session_speedup']}x"
            f" < {report['gates']['session_amortized_floor']}x"
        )
    if report["outsourced"]["user_pairings"] != 0:
        failures.append(
            f"outsourced finalize cost "
            f"{report['outsourced']['user_pairings']} user-side pairings "
            f"(want 0)"
        )
    if failures:
        print(f"[decrypt-session] FAIL: {'; '.join(failures)}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
