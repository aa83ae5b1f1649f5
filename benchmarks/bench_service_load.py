"""Benchmark: the fleet-scale load harness and the pipelined hot path.

Three phases against one in-process TOY80 service:

* **Capacity model** — a closed-loop concurrency sweep (≥3 levels)
  under the default read-dominated op mix, reporting per-op-class
  p50/p95/p99 latency, throughput (total and per worker), RSS, and the
  knee point where fetch p99 blows past the bound.
* **Open-loop run** — Poisson arrivals at a fixed rate, the
  coordinated-omission-free view: latency under *offered* load plus
  the shed count when the outstanding bound saturates.
* **Serial vs pipelined** — the same deterministic fetch-only schedule
  (32 workers over 4 connections) through serial and pipelined client
  fleets, behind a latency proxy emulating a real round trip. Every
  reply must be byte-identical between the modes (the bench FAILS on
  any mismatch, smoke or not), and pipelined aggregate fetch
  throughput must be ≥2x serial (gate skipped with ``--smoke``).

Usage::

    PYTHONPATH=src python benchmarks/bench_service_load.py
    PYTHONPATH=src python benchmarks/bench_service_load.py --smoke \
        --out /tmp/smoke.json --server-max-inflight 1

``--server-max-inflight 1`` runs the whole bench against a window-of-one
server (one request per session at a time) — CI runs both window sizes,
because the client must behave (and the bytes must match) whether or
not the far side pipelines.

Writes ``BENCH_service_load.json`` (or ``--out``).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro.ec.params import TOY80
from repro.loadgen import (
    LoadHarness,
    OpMix,
    capacity_model,
    pipelined_vs_serial,
    start_local_service,
)
from repro.pairing.group import PairingGroup

from bench_common import arith_metadata, counter_summary

SPEEDUP_GATE = 2.0


async def run_bench(args) -> tuple:
    group = PairingGroup(TOY80, seed=args.seed)
    if args.smoke:
        levels = (2, 4, 8)
        records, ops, warmup = 12, 8, 2
        open_rate, open_duration = 150.0, 1.0
        compare_ops = 6
    else:
        levels = (4, 16, 32)
        records, ops, warmup = 48, 40, 5
        open_rate, open_duration = 400.0, 3.0
        compare_ops = 30
    report = {
        "preset": "TOY80",
        "smoke": bool(args.smoke),
        "server_max_inflight": args.server_max_inflight,
        "arith": arith_metadata(group),
    }
    failures = []
    with tempfile.TemporaryDirectory() as root:
        service = await start_local_service(
            group, root, max_inflight=args.server_max_inflight
        )
        try:
            harness = LoadHarness(
                group, service.host, service.port, users=args.users,
                records=records, seed=args.seed, connections=4,
                max_inflight=32,
            )
            await harness.setup()
            print(f"capacity sweep at levels {levels} "
                  f"({records} records, {args.users} simulated users)...",
                  flush=True)
            model = await capacity_model(
                harness, levels=levels, ops_per_worker=ops,
                warmup_ops=warmup,
            )
            for level in model["levels"]:
                fetch = level["per_class"].get("fetch", {})
                print(f"  {level['concurrency']:>3} workers: "
                      f"{level['throughput_ops']:>8.1f} ops/s "
                      f"({level['ops_per_worker_per_sec']:>7.2f}/worker), "
                      f"fetch p99 {fetch.get('p99', 0) * 1000:.2f} ms",
                      flush=True)
            print(f"  knee: {model['knee']}", flush=True)
            report["capacity"] = model

            print(f"open loop at {open_rate} ops/s for {open_duration}s...",
                  flush=True)
            open_result = await harness.run_open(
                open_rate, open_duration, warmup=min(0.5, open_duration / 4),
                max_outstanding=256,
            )
            print(f"  completed {open_result['measured_ops']} ops "
                  f"({open_result['throughput_ops']} ops/s), "
                  f"shed {open_result['shed']}", flush=True)
            report["open_loop"] = open_result
            await harness.close()

            print(f"serial vs pipelined: 32 workers / 4 connections, "
                  f"rtt {args.rtt * 1000:.1f} ms...", flush=True)
            comparison = await pipelined_vs_serial(
                group, service.host, service.port, workers=32,
                ops_per_worker=compare_ops, warmup_ops=2, connections=4,
                rtt=args.rtt, users=args.users, records=records,
                seed=args.seed + 1,
            )
            print(f"  serial {comparison['fetch_throughput_serial']} ops/s, "
                  f"pipelined {comparison['fetch_throughput_pipelined']} "
                  f"ops/s, speedup {comparison['fetch_speedup']}x, "
                  f"byte_identical={comparison['byte_identical']} "
                  f"({comparison['compared_responses']} responses)",
                  flush=True)
            report["pipelined_vs_serial"] = comparison

            if not comparison["byte_identical"]:
                failures.append(
                    "pipelined responses are NOT byte-identical to serial"
                )
            speedup = comparison["fetch_speedup"] or 0.0
            if not args.smoke and speedup < SPEEDUP_GATE:
                failures.append(
                    f"pipelined fetch speedup {speedup}x is below the "
                    f"{SPEEDUP_GATE}x gate"
                )
            report["stats"] = service.stats()
        finally:
            await service.stop()
    report["counters"] = counter_summary(group)
    report["gates"] = {
        "byte_identical": report["pipelined_vs_serial"]["byte_identical"],
        "speedup_gate": SPEEDUP_GATE,
        "speedup_gate_enforced": not args.smoke,
        "failures": failures,
    }
    return report, failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small pools and op counts (seconds, not "
                             "minutes); relaxes the speedup gate, never "
                             "the byte-identity gate")
    parser.add_argument("--seed", type=int, default=0x10AD)
    parser.add_argument("--users", type=int, default=100_000,
                        help="simulated registered-user population")
    parser.add_argument("--rtt", type=float, default=0.004,
                        help="emulated round trip for the serial-vs-"
                             "pipelined comparison (seconds)")
    parser.add_argument("--server-max-inflight", type=int, default=64,
                        dest="server_max_inflight",
                        help="server-side per-session window (1 = one "
                             "request at a time)")
    parser.add_argument("--out", default=os.path.join(
        os.path.dirname(__file__), os.pardir, "BENCH_service_load.json"))
    args = parser.parse_args()

    report, failures = asyncio.run(run_bench(args))
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"report written to {args.out}", flush=True)
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr, flush=True)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
