"""Benchmark-owned launcher for one :class:`StorageService` process.

Usage (the benchmark starts it; run by hand only to debug)::

    python3 perfbench/server.py --src SRC --root DIR [--trace-out FILE]

Prints ``PORT <n>`` once the server listens, then serves until its
standard input closes. With ``--trace-out`` it first wraps the server
side's store, transform, re-encryption, decode and pairing functions
(see :mod:`spans`) and writes every span to that file at exit, together
with the counter snapshots taken on each ``SIGUSR1``/``SIGUSR2``:
``SIGUSR1`` snapshots and starts span recording, ``SIGUSR2`` snapshots
and stops it.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys
import time
from pathlib import Path


def _install_server_tracing(tracer) -> None:
    import spans
    from repro.service import server as server_module
    from repro.service.store import RecordStore

    spans.install_common(tracer)
    for name in ("get", "get_record_bytes"):
        tracer.wrap(RecordStore, name, "service.store.read")
    for name in ("put", "replace_record_bytes_many", "delete"):
        tracer.wrap(RecordStore, name, "service.store.write")
    tracer.wrap(RecordStore, "commit_replacements", "service.store.commit")
    tracer.wrap(server_module, "server_transform_many", "core.transform",
                items=lambda args: len(args[1]))
    tracer.wrap(server_module, "reencrypt_records_raw",
                "parallel.reencrypt", items=lambda args: len(args[2]))


async def _serve(args) -> None:
    from repro.pairing import SS512
    from repro.pairing.group import PairingGroup
    from repro.service.server import StorageService
    from repro.service.store import RecordStore

    tracer = None
    if args.trace_out:
        import spans

        tracer = spans.Tracer()
        _install_server_tracing(tracer)
    group = PairingGroup(SS512)
    service = StorageService(group, RecordStore(args.root, group),
                             host="127.0.0.1", port=0, workers=0)
    await service.start()
    snapshots = []

    def snapshot(label: str) -> None:
        blobs = service.store.blobs
        snapshots.append({
            "label": label,
            "time": time.perf_counter(),
            "ops": group.op_counts(),
            "cache_hits": blobs.cache_hits,
            "cache_misses": blobs.cache_misses,
            "wire_bytes": service.meter.wire_bytes,
            "meter_log_entries": len(service.meter.log),
        })

    loop = asyncio.get_running_loop()
    if tracer is not None:
        def start_segment():
            snapshot("start")
            tracer.enabled = True

        def end_segment():
            tracer.enabled = False
            snapshot("end")

        loop.add_signal_handler(signal.SIGUSR1, start_segment)
        loop.add_signal_handler(signal.SIGUSR2, end_segment)
    print(f"PORT {service.port}", flush=True)
    # Serve until the benchmark closes our stdin.
    await loop.run_in_executor(None, sys.stdin.read)
    snapshot("exit")
    await service.stop()
    if tracer is not None:
        tracer.dump(args.trace_out, {"snapshots": snapshots})


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True)
    parser.add_argument("--root", required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()
    sys.path.insert(0, str(Path(args.src).resolve()))
    asyncio.run(_serve(args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
