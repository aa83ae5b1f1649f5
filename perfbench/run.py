"""The repository benchmark: a live SS512 service under closed-loop load.

Run from the root of a checkout::

    python3 perfbench/run.py --workload read-hot --seed 1 --seconds 10 --trace 0

Workloads are ``read-hot``, ``read-cold`` and ``owner-revoke``; see
``perfbench/WORKLOADS.md``. The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced segment with ``--trace 1``. Failed ops are listed
per class and exception type on standard error. A failed output check
makes the command exit 1; ``--inject plaintext`` or ``--inject digest``
corrupts one expected value to show that the checks trip. Without the
program sources under ``src/`` the command exits 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


async def run(args) -> int:
    import harness
    from workloads import WORKLOADS

    bench = harness.Bench(args, WORKLOADS[args.workload])
    harness.WORK.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            import layers
            metrics = await layers.traced_run(bench)
        else:
            metrics = await bench.untraced()
    except harness.CheckFailed as exc:
        bench.log.violations.append(str(exc))
        metrics = {}
    finally:
        if bench.world is not None:
            await bench.world.close()
        shutil.rmtree(harness.WORK, ignore_errors=True)
        try:
            harness.WORK.parent.rmdir()
        except OSError:
            pass  # traces of earlier traced runs stay
    log = bench.log
    attempted, failed = log.total()
    for (op_class, name), count in sorted(log.failed.items()):
        print(f"failed: {op_class} {name} x{count}", file=sys.stderr)
    for name, text in log.first_traceback.items():
        print(f"first {name}:\n{text}", file=sys.stderr)
    for violation in log.violations:
        print(f"CHECK FAILED: {violation}", file=sys.stderr)
    correct = not log.violations and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Live-service benchmark (see perfbench/WORKLOADS.md).")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject", choices=("plaintext", "digest"),
                        default=None, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}; run from the "
              f"root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    return asyncio.run(run(args))


if __name__ == "__main__":
    sys.exit(main())
