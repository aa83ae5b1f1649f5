"""Micro-benchmark for the pluggable arithmetic backends.

Times the four primitives every higher layer reduces to — F_p
multiplication, F_p inversion, G1 scalar multiplication (plain
double-and-add, no fixed-base table), and a full Tate pairing — under
each arithmetic configuration the box can run:

* ``pure``        — CPython big-int ``a * b % p`` (the default core);
* ``gmpy2``       — the GMP-backed core, **only if the interpreter has
  gmpy2**. When absent (the common container state) the config is
  recorded as unavailable instead of hard-resolving the backend, which
  would raise.

Cross-config byte-identity is asserted before any timing is reported:
the encoded G1 scalar-mul result and the encoded pairing output must
be identical across every configuration that ran (exit 1 on mismatch).
This is the micro-level version of the differential suite in
``tests/math/test_backend_differential.py``.

Timings are best-of-``SAMPLES`` loop averages — the min-of-N
convention every other bench here uses against CPU noise.

Usage::

    PYTHONPATH=src python benchmarks/bench_field_backend.py            # SS512
    REPRO_BENCH_PRESET=TOY80 PYTHONPATH=src \
        python benchmarks/bench_field_backend.py --smoke --out /tmp/f.json

Writes ``BENCH_field_backend.json`` (or ``--out``).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro.ec.params import PRESETS
from repro.math.backend import gmpy2_available
from repro.pairing.group import PairingGroup

from bench_common import arith_metadata, counter_summary

SEED = 0xF1E1D
SAMPLES = 3                      # best-of-N noise estimator per primitive


def _best_of(samples, fn):
    return min(fn() for _ in range(samples))


def _time_loop(pairs, op):
    """Wall-clock seconds for ``op`` over every pair, as one loop."""
    start = time.perf_counter()
    for a, b in pairs:
        op(a, b)
    return time.perf_counter() - start


def _bench_config(name, preset, *, backend, smoke):
    """Time the four primitives under one arithmetic backend."""
    n_mul = 2000 if smoke else 20000
    n_inv = 50 if smoke else 500
    n_g1 = 2 if smoke else 8
    n_pair = 1 if smoke else 4

    group = PairingGroup(preset, seed=SEED, backend=backend)
    field = group.field
    rng = random.Random(SEED)
    mul_pairs = [
        (field.random_nonzero(rng), field.random_nonzero(rng))
        for _ in range(n_mul)
    ]
    inv_operands = [field.random_nonzero(rng) for _ in range(n_inv)]

    mul_s = _best_of(SAMPLES, lambda: _time_loop(mul_pairs, field.mul))
    inv_s = _best_of(
        SAMPLES,
        lambda: _time_loop([(a, None) for a in inv_operands],
                           lambda a, _b: field.inv(a)),
    )

    # G1 scalar mul: plain curve.mul on a non-generator base, so the
    # fixed-base tables cannot mask the field core under test.
    base = group.random_g1()
    scalars = [group.random_scalar() for _ in range(n_g1)]
    g1_s = _best_of(
        SAMPLES,
        lambda: _time_loop([(base.point, s) for s in scalars],
                           group.curve.mul),
    )

    h = group.random_g1()
    pair_s = _best_of(
        SAMPLES,
        lambda: _time_loop([(group.g, h)] * n_pair, group.pair),
    )

    # Byte-identity witnesses: same seed -> same base/scalars/h in every
    # config, so these encodings must agree across configs.
    g1_witness = (base ** scalars[0]).to_bytes().hex()
    gt_witness = group.pair(base, h).to_bytes().hex()

    return {
        "config": name,
        "arithmetic": arith_metadata(group),
        "fp_mul_us": mul_s / n_mul * 1e6,
        "fp_inv_us": inv_s / n_inv * 1e6,
        "g1_scalar_mul_ms": g1_s / n_g1 * 1e3,
        "pairing_ms": pair_s / n_pair * 1e3,
        "loop_sizes": {"fp_mul": n_mul, "fp_inv": n_inv,
                       "g1_scalar_mul": n_g1, "pairing": n_pair},
        "op_counts": counter_summary(group),
        "witness": {"g1": g1_witness, "gt": gt_witness},
    }


def run(preset_name: str, out_path: str, smoke: bool) -> dict:
    preset = PRESETS[preset_name]

    configs = ["pure"]
    if gmpy2_available():
        configs.append("gmpy2")

    results = []
    for name in configs:
        print(f"[field-backend] timing config {name!r} on {preset_name}...")
        results.append(_bench_config(name, preset, backend=name, smoke=smoke))

    # Cross-config byte-identity gate.
    reference = results[0]["witness"]
    mismatches = [
        r["config"] for r in results[1:] if r["witness"] != reference
    ]

    report = {
        "benchmark": "field_backend",
        "preset": preset_name,
        "smoke": smoke,
        "samples": SAMPLES,
        "gmpy2_available": gmpy2_available(),
        "configs": results,
        "byte_identical": not mismatches,
        "mismatched_configs": mismatches,
    }
    with open(out_path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=os.path.join(
        os.path.dirname(__file__), os.pardir, "BENCH_field_backend.json"))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny loops for CI")
    args = parser.parse_args()

    preset_name = os.environ.get("REPRO_BENCH_PRESET", "SS512")
    report = run(preset_name, args.out, args.smoke)

    print(f"\n== field backend micro-bench ({preset_name}) ==")
    header = f"{'config':<12} {'fp_mul us':>10} {'fp_inv us':>10} " \
             f"{'G1 mul ms':>10} {'pairing ms':>11}"
    print(header)
    for entry in report["configs"]:
        print(f"{entry['config']:<12} {entry['fp_mul_us']:>10.3f} "
              f"{entry['fp_inv_us']:>10.2f} "
              f"{entry['g1_scalar_mul_ms']:>10.2f} "
              f"{entry['pairing_ms']:>11.2f}")
    if not report["gmpy2_available"]:
        print("gmpy2: unavailable in this interpreter (config skipped)")

    if not report["byte_identical"]:
        print(f"FAIL: outputs differ across configs: "
              f"{report['mismatched_configs']}")
        return 1
    print("byte-identity: all configs agree on G1/GT witnesses")
    return 0


if __name__ == "__main__":
    sys.exit(main())
