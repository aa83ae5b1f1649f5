"""The micro-benchmark ledger: arithmetic, group and scheme layers.

L0 times F_p mul/inv; L1 plain ``curve.mul``, GT exponentiation, Miller
loop, final exponentiation and pairing, under every arithmetic backend
the interpreter has (their G1/GT witnesses must be identical). L2 times
the scheme against its baselines, checking byte identity first: Encrypt
and Decrypt against :class:`NaivePairingGroup` over the Fig 4 sweep;
KeyGen and Encrypt sessions against cold loops; session Decrypt against
one-shot cold reads, and outsourced reads (0 user pairings). Each phase
is best-of-``RUNS`` with its op counts and ``model_ms`` (the counts at
L0/L1 unit costs; never gated). A leg's op counts do not depend on the
preset, so ``--smoke`` (TOY80, short L0/L1 loops, CI ``FLOORS``) exits 1
unless they equal the committed ``BENCH_ledger.json``'s. ``--smoke``
writes a report only to ``--out``; a full SS512 run writes the ledger::

    PYTHONPATH=src python benchmarks/bench_ledger.py [--smoke] [--out F]
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from collections import Counter

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro.core.authority import AttributeAuthority
from repro.core.ca import CertificateAuthority
from repro.core.decrypt import decrypt
from repro.core.outsourcing import (make_transform_key, server_transform_many,
                                    user_finalize)
from repro.core.owner import DataOwner
from repro.ec.curve import INFINITY, SupersingularCurve
from repro.ec.params import PRESETS
from repro.fastpath import DecryptionSession, EncryptionSession, issue_joint
from repro.math.backend import active_backend_name, available_backends
from repro.math.field_ext import QuadraticExtension
from repro.pairing.group import PairingGroup
from repro.pairing.miller import (final_exponentiation, miller_loop,
                                  miller_loop_affine)

from bench_common import arith_metadata, counter_summary

LEDGER = os.path.normpath(os.path.join(os.path.dirname(__file__), os.pardir,
                                       "BENCH_ledger.json"))
RUNS = 3                         # best-of-N noise estimator per phase
MODEL_OPS = ("pairings", "g1_exponentiations", "gt_exponentiations",
             "fp_invs")
FIXED_AUTHORITIES = 5
ATTRIBUTE_SWEEP = [2, 5, 10, 15, 20]
N_MESSAGES = 64                  # session legs: one 10-attribute policy
N_USERS = 32
SESSION_ATTRS = 5                # x 2 authorities
FLOORS = {  # speedup floors: (full run, --smoke on CI hardware)
    "fastpath_5x5": (2.0, 1.0), "encrypt_online": (3.0, 1.5),
    "encrypt_amortized": (2.0, 1.2), "keygen": (2.0, 1.2),
    "decrypt_session": (2.0, 1.2)}


class _NaiveCurve(SupersingularCurve):
    """Affine double-and-add, one modular inversion per point addition
    (callers pass exponents already reduced mod r)."""

    def mul(self, point, k):
        result, addend = INFINITY, point
        while k:
            if k & 1:
                result = self.add(result, addend)
            if k > 1:
                addend = self.double(addend)
            k >>= 1
        return result


class _NaiveExtension(QuadraticExtension):
    """Plain square-and-multiply F_p² exponentiation, also for GT values
    (no trace ladder)."""

    def pow(self, x, e):
        result, base = self.one, x
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.square(base)
            e >>= 1
        return result

    unitary_pow = pow


class NaivePairingGroup(PairingGroup):
    """Affine Miller loops, no fixed-base tables beyond the generator's,
    no prepared pairings, no hash memoization, behind the same API. It
    keeps the generator table, which is faster than the seed's affine
    one, so the reported speedups are conservative."""

    def __init__(self, params, seed=None):
        super().__init__(params, seed=seed)
        self.curve = _NaiveCurve(self.field)
        self.ext = _NaiveExtension(self.field)

    def _no_table(self, *args, **kwargs):
        return None

    register_g1_base = register_gt_base = _no_table
    prepare_pairing = _gt_table_for = _no_table

    def _miller_raw(self, point_p, point_q):
        if point_p is INFINITY or point_q is INFINITY:
            return None
        return miller_loop_affine(self.curve, self.ext, point_p, point_q,
                                  self.order)

    def multiexp_g1(self, elements, scalars):
        result = self.identity_g1()
        for element, scalar in zip(elements, scalars):
            result = result * (element ** scalar)
        return result

    def hash_to_g1(self, *parts, domain=b"repro.H2G"):
        self._h2g_cache.clear()
        return super().hash_to_g1(*parts, domain=domain)


class Fabric:
    """CA, authorities, one owner and (optionally) a keyed reader on one
    group, with the all-AND policy over every attribute."""

    def __init__(self, group, aids, attrs, *, reader=True):
        self.group = group
        self.ca = CertificateAuthority(group)
        self.names = [f"attr{i}" for i in range(attrs)]
        self.authorities = []
        for aid in aids:
            self.ca.register_authority(aid)
            self.authorities.append(AttributeAuthority(group, aid, self.names))
        self.owner = DataOwner(group, "owner")
        for authority in self.authorities:
            authority.register_owner(self.owner.secret_key)
            self.owner.learn_authority(authority.authority_public_key(),
                                       authority.public_attribute_keys())
        self.policy = " AND ".join(
            f"{aid}:{name}" for aid in aids for name in self.names)
        if reader:
            self.reader_pk = self.ca.register_user("reader")
            self.reader_keys = {
                a.aid: a.keygen(self.reader_pk, self.names, "owner")
                for a in self.authorities}

    def decrypt(self, ct):
        return decrypt(self.group, ct, self.reader_pk, self.reader_keys)


class Timer:
    """Wall-clock samples per named phase, plus the op counts of the
    phase's latest sample, priced at the L0/L1 unit costs."""

    def __init__(self, unit_ms):
        self.unit_ms = unit_ms
        self.samples, self.ops = {}, {}

    def __call__(self, name, group, fn, runs=1):
        """Run ``fn`` ``runs`` times as phase ``name``; its last result."""
        for _ in range(runs):
            before = group.op_counts()
            start = time.perf_counter()
            result = fn()
            self.samples.setdefault(name, []).append(
                time.perf_counter() - start)
            after = group.op_counts()
            self.ops[name] = {op: after[op] - before[op] for op in MODEL_OPS}
        return result

    def best(self, name):
        return min(self.samples[name])

    def leg(self, groups, **fields):
        """A leg's report: its phases and its groups' summed op counts."""
        counts = sum((Counter(counter_summary(g)) for g in groups),
                     Counter())
        phases = {name: {
            "best_s": round(min(samples), 6),
            "samples_s": [round(s, 6) for s in samples],
            "ops": self.ops[name],
            "model_ms": round(sum(self.ops[name][op] * self.unit_ms[op]
                                  for op in MODEL_OPS), 3),
        } for name, samples in self.samples.items()}
        return {**fields, "phases": phases, "op_counts": dict(counts)}


def arithmetic_and_group(preset, backend, smoke):
    """L0 and L1 unit costs under one backend, plus G1/GT witnesses."""
    n = dict(fp_mul=2000, fp_inv=50, g1=2, gt=2, pair=1) if smoke else \
        dict(fp_mul=20000, fp_inv=500, g1=8, gt=8, pair=4)
    group = PairingGroup(preset, seed=0xF1E1D, backend=backend)
    field, ext, curve, order = group.field, group.ext, group.curve, group.order
    rng = random.Random(0xF1E1D)
    mul_pairs = [(field.random_nonzero(rng), field.random_nonzero(rng))
                 for _ in range(n["fp_mul"])]
    inverses = [field.random_nonzero(rng) for _ in range(n["fp_inv"])]
    g, h, base = group.g, group.random_g1(), group.random_g1()
    scalars = [group.random_scalar() for _ in range(max(n["g1"], n["gt"]))]
    gt_value = group.random_gt().value
    raw = miller_loop(curve, ext, g.point, h.point, order)
    pairs = range(n["pair"])
    loops = {  # unit name: (loop size key, unit scale, the timed loop)
        "fp_mul_us": ("fp_mul", 1e6,
                      lambda: [field.mul(a, b) for a, b in mul_pairs]),
        "fp_inv_us": ("fp_inv", 1e6, lambda: [field.inv(a) for a in inverses]),
        "g1_mul_ms": ("g1", 1e3, lambda: [curve.mul(base.point, k)
                                          for k in scalars[:n["g1"]]]),
        "gt_exp_ms": ("gt", 1e3, lambda: [ext.unitary_pow(gt_value, k)
                                          for k in scalars[:n["gt"]]]),
        "miller_ms": ("pair", 1e3, lambda: [
            miller_loop(curve, ext, g.point, h.point, order) for _ in pairs]),
        "final_exp_ms": ("pair", 1e3, lambda: [
            final_exponentiation(ext, raw, order) for _ in pairs]),
        "pairing_ms": ("pair", 1e3, lambda: [group.pair(g, h) for _ in pairs]),
    }
    timer, unit = Timer({}), {}
    for name, (loop, scale, fn) in loops.items():
        timer(name, group, fn, RUNS)
        unit[name] = round(timer.best(name) / n[loop] * scale, 4)
    return {
        "arithmetic": arith_metadata(group), **unit, "loop_sizes": n,
        "witness": {"g1": (base ** scalars[0]).to_bytes().hex(),
                    "gt": group.pair(base, h).to_bytes().hex()},
    }


def leg_fastpath(preset, unit_ms, smoke):
    timer, groups, shapes = Timer(unit_ms), [], []
    for attrs in ATTRIBUTE_SWEEP:
        aids = [f"aa{k}" for k in range(FIXED_AUTHORITIES)]
        sides = {side: Fabric(cls(preset, seed=42), aids, attrs) for side, cls
                 in (("naive", NaivePairingGroup), ("fast", PairingGroup))}
        groups.append(sides["fast"].group)
        outputs, tag = [], f"{attrs}x{FIXED_AUTHORITIES}"
        for side, fabric in sides.items():
            # Both sides draw the same randomness, so their outputs must
            # be bit-identical. The first Encrypt also warms the fast
            # side's tables, which a workload amortizes over its life.
            message = fabric.group.random_gt()
            ciphertext = fabric.owner.encrypt(message, fabric.policy)
            runs = 1 if side == "naive" and not smoke else RUNS
            timer(f"{side}_encrypt_{tag}", fabric.group,
                  lambda: fabric.owner.encrypt(message, fabric.policy), runs)
            plaintext = timer(f"{side}_decrypt_{tag}", fabric.group,
                              lambda: fabric.decrypt(ciphertext), runs)
            if plaintext != message:
                raise AssertionError(f"{side} decrypt failed at {tag}")
            outputs.append((ciphertext.to_bytes(), plaintext.to_bytes()))
        if outputs[0] != outputs[1]:
            raise AssertionError(f"fast and naive outputs differ at {tag}")
        shapes.append({"attrs_per_authority": attrs, **{
            op: round(timer.best(f"naive_{op}_{tag}")
                      / timer.best(f"fast_{op}_{tag}"), 2)
            for op in ("encrypt", "decrypt")}})
        print(f"[ledger] fastpath {tag}: {shapes[-1]}")
    at_5x5 = shapes[ATTRIBUTE_SWEEP.index(5)]
    return timer.leg(groups, shapes=shapes, speedups={
        "fastpath_5x5": min(at_5x5["encrypt"], at_5x5["decrypt"])})


def leg_encrypt_session(preset, unit_ms, smoke):
    timer = Timer(unit_ms)
    fabric = Fabric(PairingGroup(preset, seed=1234), ("hosp", "trial"),
                    SESSION_ATTRS, reader=False)
    group, owner, policy = fabric.group, fabric.owner, fabric.policy
    hosp, trial = fabric.authorities
    user_pks = [fabric.ca.register_user(f"u{i:03d}") for i in range(N_USERS)]
    cold_keys = timer("keygen_cold", group, lambda: [
        (hosp.keygen(pk, fabric.names, "owner"),
         trial.keygen(pk, fabric.names, "owner")) for pk in user_pks])
    session_keys = timer("keygen_session", group, lambda: [
        (issued["hosp"], issued["trial"]) for issued in issue_joint(
            [hosp.keygen_session("owner", fabric.names),
             trial.keygen_session("owner", fabric.names)], user_pks)])
    if [(k.k, k.attribute_keys, k.version) for pair in session_keys
            for k in pair] != [(k.k, k.attribute_keys, k.version)
                               for pair in cold_keys for k in pair]:
        raise AssertionError("a session-issued key differs from its cold twin")

    messages = [group.random_gt() for _ in range(N_MESSAGES)]
    owner.encrypt(group.random_gt(), policy, ciphertext_id="bench/warmup-00")

    def offline():
        # A fresh session per rep keeps its setup (LSSS resolution, the
        # wide generator table) inside every offline sample.
        session = EncryptionSession(owner, policy)
        session.refill(N_MESSAGES)
        return session

    for rep in range(RUNS):
        cold_cts = timer("encrypt_cold", group, lambda: [
            owner.encrypt(m, policy, ciphertext_id=f"bench/cold-{rep}-{i:03d}")
            for i, m in enumerate(messages)])
        session = timer("encrypt_offline", group, offline)
        session_cts = timer("encrypt_online", group, lambda: [
            session.encrypt(m, ciphertext_id=f"bench/sess-{rep}-{i:03d}")
            for i, m in enumerate(messages)])
        if session.stats["pool_misses"]:
            raise AssertionError("online phase fell back to inline bundles")

    reader_pk = user_pks[0]
    reader_keys = dict(zip(("hosp", "trial"), session_keys[0]))
    transform_key, retrieval_key = make_transform_key(group, reader_pk,
                                                      reader_keys)
    partials = server_transform_many(group, session_cts, transform_key)
    for i, (message, ct, partial) in enumerate(
            zip(messages, session_cts, partials)):
        raw = ct.to_bytes()
        if decrypt(group, ct, reader_pk, reader_keys) != message \
                or user_finalize(ct, partial, retrieval_key) != message \
                or _layout(ct) != _layout(cold_cts[i]) \
                or type(ct).from_bytes(group, raw).to_bytes() != raw:
            raise AssertionError(f"session ciphertext {i} does not decrypt, "
                                 "round-trip or serialize like a cold one")

    cold_s, online_s = map(timer.best, ("encrypt_cold", "encrypt_online"))
    return timer.leg([group], speedups={
        "keygen": round(timer.best("keygen_cold")
                        / timer.best("keygen_session"), 2),
        "encrypt_online": round(cold_s / online_s, 2),
        "encrypt_amortized": round(
            cold_s / (timer.best("encrypt_offline") + online_s), 2),
    })


def _layout(ciphertext):
    """Serialized size and header without the id (ids differ by design)."""
    raw = ciphertext.to_bytes()
    header = json.loads(raw[4:4 + int.from_bytes(raw[:4], "big")])
    header.pop("id")
    return len(raw), header


def leg_decrypt_session(preset, unit_ms, smoke):
    timer = Timer(unit_ms)
    fabric = Fabric(PairingGroup(preset, seed=5150), ("hosp", "trial"),
                    SESSION_ATTRS)
    group, pk, keys = fabric.group, fabric.reader_pk, fabric.reader_keys
    messages = [group.random_gt() for _ in range(N_MESSAGES)]
    cts = [fabric.owner.encrypt(m, fabric.policy,
                                ciphertext_id=f"bench/ct-{i:03d}")
           for i, m in enumerate(messages)]

    def fresh(ct):
        # Clearing the group's prepared-chain cache makes every session
        # derive its whole setup afresh.
        group._prepared.clear()
        return DecryptionSession(group, ct, pk, keys)

    fresh(cts[0]).decrypt(cts[0])  # warm generator tables, the LSSS parse
    for _ in range(RUNS):  # interleaved, so machine drift hits both
        cold = timer("decrypt_cold", group,
                     lambda: [fresh(c).decrypt(c) for c in cts])
        batch = timer("decrypt_session", group,
                      lambda: fresh(cts[0]).decrypt_many(cts))
    transform_key, retrieval_key = make_transform_key(group, pk, keys)
    partials = timer("server_transform", group,
                     lambda: server_transform_many(group, cts, transform_key))
    outsourced = timer("user_finalize", group, lambda: [
        user_finalize(c, p, retrieval_key) for c, p in zip(cts, partials)])
    for i, (message, ct) in enumerate(zip(messages, cts)):
        reference = fabric.decrypt(ct).to_bytes()
        if cold[i] != message or {cold[i].to_bytes(), batch[i].to_bytes(),
                                  outsourced[i].to_bytes()} != {reference}:
            raise AssertionError(f"read of ct {i} is not byte-identical "
                                 "to the paper-literal decrypt")
    return timer.leg([group], speedups={
        "decrypt_session": round(timer.best("decrypt_cold")
                                 / timer.best("decrypt_session"), 2),
    }, user_pairings=timer.ops["user_finalize"]["pairings"])


def run(smoke):
    preset_name = "TOY80" if smoke else "SS512"
    preset = PRESETS[preset_name]
    layers = {}
    for backend in reversed(available_backends()):  # pure first
        print(f"[ledger] L0/L1 under {backend} on {preset_name}...")
        layers[backend] = arithmetic_and_group(preset, backend, smoke)
    witnesses = {json.dumps(layer["witness"]) for layer in layers.values()}
    default = layers[active_backend_name()]
    unit_ms = dict(zip(MODEL_OPS, (default["pairing_ms"], default["g1_mul_ms"],
                                   default["gt_exp_ms"],
                                   default["fp_inv_us"] / 1e3)))
    legs = {}
    for leg in (leg_fastpath, leg_encrypt_session, leg_decrypt_session):
        name = leg.__name__[len("leg_"):]
        print(f"[ledger] L2 {name}...")
        legs[name] = leg(preset, unit_ms, smoke)
    measured = {gate: value for leg in legs.values()
                for gate, value in leg["speedups"].items()}
    floors = {name: pair[smoke] for name, pair in FLOORS.items()}
    failures = [f"{name} {measured[name]}x < {floor}x"
                for name, floor in floors.items() if measured[name] < floor]
    if len(witnesses) != 1:
        failures.append(f"G1/GT witnesses differ across {sorted(layers)}")
    if legs["decrypt_session"]["user_pairings"]:
        failures.append("the outsourced finalize cost user pairings")
    return {"generated_by": "benchmarks/bench_ledger.py",
            "preset": preset_name, "smoke": smoke, "runs": RUNS,
            "L0_L1": layers, "backends_byte_identical": len(witnesses) == 1,
            "L2": legs, "speedups": measured, "floors": floors,
            "failures": failures}


def plain_op_counts(legs):
    """Each leg's op counts without the backend prefix of their keys."""
    return {name: {key.split(".", 1)[1]: value
                   for key, value in leg["op_counts"].items()}
            for name, leg in legs.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="TOY80, CI floors, exact op-count compare")
    parser.add_argument("--out", help="report path (default: the ledger, "
                                      "or none under --smoke)")
    args = parser.parse_args()
    report = run(args.smoke)
    failures = report["failures"]
    if args.smoke:
        with open(LEDGER) as handle:
            committed = plain_op_counts(json.load(handle)["L2"])
        failures += [f"{name} op counts {counts} differ from the committed "
                     f"{committed.get(name)}" for name, counts
                     in plain_op_counts(report["L2"]).items()
                     if counts != committed.get(name)]
    out = args.out or (None if args.smoke else LEDGER)
    if out:
        with open(out, "w") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        print(f"[ledger] wrote {out}")
    print(f"[ledger] speedups {report['speedups']}, floors {report['floors']}")
    for failure in failures:
        print(f"[ledger] FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
