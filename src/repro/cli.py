"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``demo``       — run an end-to-end multi-authority access-control demo
* ``tables``     — print the Table I-IV cost models for a given shape
* ``primitives`` — time the pairing substrate's primitive operations
* ``params``     — generate fresh type-A pairing parameters
* ``serve``      — run the networked cloud-storage service (asyncio TCP)
* ``load``       — run the fleet-scale load harness (closed/open loop,
  capacity sweep with knee detection, serial-vs-pipelined comparison)
* ``client``     — talk to a running service (ping / stats / health /
  list / smoke / sweep)
* ``cluster``    — drive a sharded multi-node fleet (smoke / health /
  stats / scrub / list)
* ``adversary``  — run the adversarial scenario engine (list / run /
  matrix): scripted semantic attacks with machine-checked invariants
* ``info``       — show the built-in parameter presets

Everything the CLI does is also available (with more control) through
the library API; the CLI exists so a new user can see the system work
before writing any code.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.analysis.costmodel import (
    SystemShape,
    table2_lewko,
    table2_ours,
    table3_lewko,
    table3_ours,
    table4_lewko,
    table4_ours,
)
from repro.analysis.scalability import render_table1
from repro.ec.params import PRESETS, generate_type_a
from repro.pairing.group import PairingGroup
from repro.pairing.serialize import element_sizes


def _add_preset_argument(parser):
    parser.add_argument(
        "--preset", choices=sorted(PRESETS), default="TOY80",
        help="pairing parameter preset (default: TOY80)",
    )


def _add_chaos_arguments(parser):
    chaos = parser.add_argument_group(
        "chaos", "seeded fault injection for the smoke/sweep cycles "
                 "(enabled by --chaos-seed)"
    )
    chaos.add_argument("--chaos-seed", type=int, default=None,
                       help="run smoke through a ChaosProxy with this seed")
    chaos.add_argument("--chaos-drop", type=float, default=0.06,
                       help="per-reply-frame connection-drop rate")
    chaos.add_argument("--chaos-delay", type=float, default=0.04,
                       help="per-reply-frame delay rate (past the timeout)")
    chaos.add_argument("--chaos-corrupt", type=float, default=0.04,
                       help="per-reply-frame corruption rate")
    chaos.add_argument("--chaos-truncate", type=float, default=0.03,
                       help="per-reply-frame truncation rate")
    chaos.add_argument("--chaos-duplicate", type=float, default=0.05,
                       help="per-reply-frame duplication rate")
    chaos.add_argument("--chaos-delay-seconds", type=float, default=1.0,
                       help="how long a delayed reply is held back")
    chaos.add_argument("--chaos-trace", default=None, metavar="FILE",
                       help="replay a recorded fault trace (JSON from "
                            "--chaos-trace-out) instead of rolling new "
                            "dice; exact same faults on the same frames")
    chaos.add_argument("--chaos-trace-out", default=None, metavar="FILE",
                       dest="chaos_trace_out",
                       help="record this run's injected faults as a "
                            "replayable JSON trace")


def _cmd_demo(args) -> int:
    from repro.errors import PolicyNotSatisfiedError
    from repro.system.workflow import CloudStorageSystem

    out = args.out
    system = CloudStorageSystem(PRESETS[args.preset], seed=args.seed)
    system.add_authority("hospital", ["doctor", "nurse"])
    system.add_authority("trial", ["researcher"])
    system.add_owner("alice")
    system.add_user("bob")
    system.issue_keys("bob", "hospital", ["doctor"], "alice")
    system.issue_keys("bob", "trial", ["researcher"], "alice")
    system.add_user("eve")
    system.issue_keys("eve", "hospital", ["nurse"], "alice")
    system.issue_keys("eve", "trial", ["researcher"], "alice")
    system.upload(
        "alice", "record",
        {"secret": (b"the plan", "hospital:doctor AND trial:researcher")},
    )
    print(f"preset           : {args.preset}", file=out)
    print(f"policy           : hospital:doctor AND trial:researcher", file=out)
    print(f"bob reads        : {system.read('bob', 'record', 'secret')!r}",
          file=out)
    try:
        system.read("eve", "record", "secret")
        print("eve reads        : !! policy failed", file=out)
        return 1
    except PolicyNotSatisfiedError:
        print("eve reads        : denied (PolicyNotSatisfiedError)", file=out)
    system.revoke("hospital", "bob", ["doctor"])
    try:
        system.read("bob", "record", "secret")
        print("bob post-revoke  : !! revocation failed", file=out)
        return 1
    except Exception as exc:
        print(f"bob post-revoke  : denied ({type(exc).__name__})", file=out)
    print(f"storage used     : {system.server.storage_bytes()} bytes", file=out)
    print(f"messages metered : {len(system.network.log)}", file=out)
    return 0


def _cmd_tables(args) -> int:
    out = args.out
    shape = SystemShape(
        n_authorities=args.authorities,
        attrs_per_authority=args.attributes,
        user_attrs_per_authority=args.user_attributes or args.attributes,
        policy_rows=args.rows or args.authorities * args.attributes,
    )
    sizes = element_sizes(PRESETS[args.preset])
    print("Table I — scalability comparison", file=out)
    print(render_table1(), file=out)

    def show(title, ours, lewko, keys):
        print(f"\n{title} (bytes, preset {args.preset})", file=out)
        print(f"{'':<16}{'ours':>10}{'lewko':>10}", file=out)
        for key in keys:
            label = key if isinstance(key, str) else f"{key[0]}<->{key[1]}"
            print(
                f"{label:<16}{ours[key].bytes(sizes):>10}"
                f"{lewko[key].bytes(sizes):>10}",
                file=out,
            )

    show("Table II — component sizes", table2_ours(shape),
         table2_lewko(shape),
         ["authority_key", "public_key", "secret_key", "ciphertext"])
    show("Table III — storage overhead", table3_ours(shape),
         table3_lewko(shape), ["authority", "owner", "user", "server"])
    show("Table IV — communication cost", table4_ours(shape),
         table4_lewko(shape),
         [("aa", "user"), ("aa", "owner"), ("server", "user"),
          ("owner", "server")])
    return 0


def _cmd_primitives(args) -> int:
    out = args.out
    group = PairingGroup(PRESETS[args.preset], seed=args.seed)
    group.gt  # warm the cached generator
    samples = args.samples

    def clock(label, fn):
        start = time.perf_counter()
        for _ in range(samples):
            fn()
        elapsed = (time.perf_counter() - start) / samples
        print(f"{label:<22} {elapsed * 1000:9.3f} ms", file=out)

    x, y = group.random_g1(), group.random_g1()
    exponent = group.random_scalar()
    counter = [0]

    def fresh_hash():
        counter[0] += 1
        group.hash_to_g1(f"gid{counter[0]}")

    print(f"primitive timings, preset {args.preset}, "
          f"mean of {samples} runs", file=out)
    clock("pairing", lambda: group.pair(x, y))
    clock("G exponentiation", lambda: group.g ** exponent)
    clock("GT exponentiation", lambda: group.gt ** exponent)
    clock("hash to Z_r", lambda: group.hash_to_scalar("attribute"))
    clock("hash to G", fresh_hash)
    return 0


def _cmd_figures(args) -> int:
    from repro.analysis.figures import FIGURES, figure_series, render_ascii

    out = args.out
    sweep = [int(x) for x in args.sweep.split(",")]
    for figure_id in (args.only.split(",") if args.only else sorted(FIGURES)):
        series = figure_series(
            figure_id, PRESETS[args.preset], sweep, repeats=args.repeats
        )
        print(render_ascii(series), file=out)
        print("", file=out)
    return 0


def _cmd_params(args) -> int:
    out = args.out
    params = generate_type_a(args.rbits, args.pbits, seed=args.seed)
    print(f"r = {hex(params.r)}", file=out)
    print(f"p = {hex(params.p)}", file=out)
    print(f"h = (p+1)/r = {hex(params.h)}", file=out)
    print(f"g = ({hex(params.generator[0])},", file=out)
    print(f"     {hex(params.generator[1])})", file=out)
    return 0


def _cmd_report(args) -> int:
    from repro.analysis.report import generate_report

    shape = SystemShape(
        n_authorities=args.authorities,
        attrs_per_authority=args.attributes,
        user_attrs_per_authority=args.attributes,
        policy_rows=args.authorities * args.attributes,
    )
    text = generate_report(PRESETS[args.preset], shape)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"report written to {args.output}", file=args.out)
    else:
        print(text, file=args.out)
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from repro.service.server import StorageService
    from repro.service.store import RecordStore

    out = args.out
    group = PairingGroup(PRESETS[args.preset], seed=args.seed)

    async def run() -> int:
        store = RecordStore(args.root, group,
                            cache_entries=args.cache_entries,
                            cache_bytes=args.cache_bytes)
        service = StorageService(
            group, store, host=args.host, port=args.port,
            name=args.cluster_node or "cloud",
            idle_timeout=args.idle_timeout, read_only=args.read_only,
            workers=args.workers, sweep_chunk=args.sweep_chunk,
            max_inflight=args.max_inflight,
        )
        await service.start()
        mode = " [read-only]" if args.read_only else ""
        if args.workers:
            mode += f" [{args.workers} crypto workers]"
        if args.cluster_node:
            mode += f" [cluster node {args.cluster_node}]"
        print(
            f"repro service listening on {service.host}:{service.port} "
            f"(preset {args.preset}, root {args.root}){mode}",
            file=out, flush=True,
        )
        try:
            if args.max_seconds > 0:
                await asyncio.wait_for(service.serve_forever(),
                                       args.max_seconds)
            else:
                await service.serve_forever()
        except asyncio.TimeoutError:
            print("max runtime reached; shutting down", file=out, flush=True)
        finally:
            await service.stop()
        return 0

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:
        print("interrupted; shut down", file=out, flush=True)
        return 0


def _cmd_load(args) -> int:
    import asyncio
    import json as json_module
    import tempfile

    from repro.loadgen import (
        LoadHarness,
        OpMix,
        capacity_model,
        pipelined_vs_serial,
        start_local_service,
    )

    out = args.out
    group = PairingGroup(PRESETS[args.preset], seed=args.seed)
    mix = OpMix.parse(args.mix) if args.mix else OpMix.default()
    records = args.records
    ops = args.ops
    levels = tuple(int(part) for part in args.levels.split(","))
    duration = args.duration
    if args.smoke:
        # Seconds, not minutes: shrink pools and op counts, keep the
        # worker shape (the compare mode still runs 32 workers, just
        # briefly) — byte-identity checking is never relaxed.
        records = min(records, 12)
        ops = min(ops, 6)
        levels = tuple(level for level in levels if level <= 8) or (2, 4, 8)
        duration = min(duration, 1.0)

    async def run() -> int:
        service = None
        tmp = None
        host, port = args.host, args.port
        if host is None:
            tmp = tempfile.TemporaryDirectory()
            service = await start_local_service(
                group, tmp.name, max_inflight=args.server_max_inflight,
                cache_entries=args.cache_entries,
                cache_bytes=args.cache_bytes,
            )
            host, port = service.host, service.port
            print(f"self-hosted service on {host}:{port} "
                  f"(max_inflight {args.server_max_inflight})",
                  file=out, flush=True)
        status = 0
        try:
            if args.mode == "compare":
                result = await pipelined_vs_serial(
                    group, host, port, workers=args.concurrency,
                    ops_per_worker=ops, warmup_ops=args.warmup_ops,
                    connections=args.connections,
                    max_inflight=args.max_inflight, rtt=args.rtt,
                    users=args.users, records=records, alpha=args.alpha,
                    seed=args.seed or 0,
                )
                if not result["byte_identical"]:
                    print("FAIL: pipelined responses are NOT "
                          "byte-identical to serial", file=out, flush=True)
                    status = 1
            else:
                harness = LoadHarness(
                    group, host, port, users=args.users, records=records,
                    alpha=args.alpha, seed=args.seed or 0,
                    connections=args.connections,
                    max_inflight=args.max_inflight,
                )
                await harness.setup()
                try:
                    if args.mode == "capacity":
                        result = await capacity_model(
                            harness, levels=levels, ops_per_worker=ops,
                            warmup_ops=args.warmup_ops, mix=mix,
                        )
                    elif args.mode == "open":
                        result = await harness.run_open(
                            args.rate, duration, warmup=args.warmup,
                            max_outstanding=args.max_outstanding, mix=mix,
                        )
                    else:  # closed
                        result = await harness.run_closed(
                            args.concurrency, ops,
                            warmup_ops=args.warmup_ops, mix=mix,
                        )
                finally:
                    await harness.close()
        finally:
            if service is not None:
                await service.stop()
            if tmp is not None:
                tmp.cleanup()
        payload = json_module.dumps(result, indent=2, sort_keys=True)
        if args.json_out:
            with open(args.json_out, "w", encoding="utf-8") as handle:
                handle.write(payload + "\n")
            print(f"report written to {args.json_out}", file=out,
                  flush=True)
        else:
            print(payload, file=out)
        return status

    return asyncio.run(run())


def _chaos_from_args(args):
    """FaultSpec + effective timeout from the shared chaos flag group."""
    chaos = None
    timeout = args.timeout
    if args.chaos_seed is not None:
        from repro.service.faults import FaultSpec

        chaos = FaultSpec(
            drop=args.chaos_drop, delay=args.chaos_delay,
            corrupt=args.chaos_corrupt, truncate=args.chaos_truncate,
            duplicate=args.chaos_duplicate,
            delay_seconds=args.chaos_delay_seconds,
        )
        if timeout is None:
            # The injected delays must overrun the client timeout,
            # or the delay fault would never be visible.
            timeout = max(0.25, args.chaos_delay_seconds / 2)
    return chaos, timeout


def _cmd_client(args) -> int:
    import asyncio
    import json as json_module

    from repro.service.client import BaseClient, ServiceConnection

    out = args.out
    params = PRESETS[args.preset]
    if args.action in ("smoke", "sweep"):
        from repro.service.smoke import run_smoke, run_sweep_cycle

        chaos, timeout = _chaos_from_args(args)
        chaos_replay = None
        if args.chaos_trace:
            with open(args.chaos_trace, "r", encoding="utf-8") as handle:
                chaos_replay = json_module.load(handle)
            chaos = None  # a replayed trace IS the fault plan
        report = {}
        if args.action == "sweep":
            status = asyncio.run(run_sweep_cycle(
                params, args.host, args.port, out=out, seed=args.seed,
                records=args.records,
                chaos=chaos, chaos_seed=args.chaos_seed or 0,
                chaos_replay=chaos_replay,
                timeout=30.0 if timeout is None else timeout,
                report=report,
            ))
        else:
            status = asyncio.run(run_smoke(
                params, args.host, args.port, out=out, seed=args.seed,
                chaos=chaos, chaos_seed=args.chaos_seed or 0,
                chaos_replay=chaos_replay,
                timeout=30.0 if timeout is None else timeout,
                report=report,
            ))
        if args.chaos_trace_out:
            trace = report.get("chaos_trace")
            if trace is None:
                print("no chaos proxy ran; nothing to record "
                      "(--chaos-trace-out needs --chaos-seed or "
                      "--chaos-trace)", file=out)
                return status or 2
            with open(args.chaos_trace_out, "w",
                      encoding="utf-8") as handle:
                json_module.dump(trace, handle, indent=1)
            print(f"chaos trace ({len(trace.get('injected', []))} "
                  f"recorded faults) written to {args.chaos_trace_out}",
                  file=out)
        return status

    group = PairingGroup(params, seed=args.seed)

    async def run() -> int:
        connection = ServiceConnection(
            group, args.host, args.port, role="user", name="cli",
            timeout=30.0 if args.timeout is None else args.timeout,
        )
        client = BaseClient(await connection.connect())
        try:
            if args.action == "ping":
                print("pong" if await client.ping() else "no pong",
                      file=out)
            elif args.action == "stats":
                print(json_module.dumps(await client.stats(), indent=2),
                      file=out)
            elif args.action == "health":
                print(json_module.dumps(await client.health(), indent=2),
                      file=out)
            else:  # list
                for record_id in await client.list_records():
                    print(record_id, file=out)
        finally:
            await client.close()
        return 0

    return asyncio.run(run())


def _cmd_cluster(args) -> int:
    import asyncio
    import json as json_module

    out = args.out
    params = PRESETS[args.preset]
    if args.action == "smoke":
        from repro.cluster.smoke import run_cluster_smoke

        chaos, timeout = _chaos_from_args(args)
        return asyncio.run(run_cluster_smoke(
            params, nodes=args.nodes, replication=args.replication,
            records=args.records, out=out,
            seed=1 if args.seed is None else args.seed,
            chaos=chaos, chaos_seed=args.chaos_seed or 0,
            ring_seed=args.ring_seed,
            timeout=30.0 if timeout is None else timeout,
        ))

    from repro.cluster import ClusterClient, ClusterMap, parse_node_spec

    if not args.node:
        print(f"cluster {args.action} needs at least one "
              f"--node [name=]host:port", file=out)
        return 2
    try:
        nodes = [parse_node_spec(spec) for spec in args.node]
        cluster_map = ClusterMap(
            nodes, replication=min(args.replication, len(nodes)),
            write_quorum=args.write_quorum, ring_seed=args.ring_seed,
        )
    except ValueError as exc:
        print(f"bad cluster topology: {exc}", file=out)
        return 2
    group = PairingGroup(params, seed=args.seed)

    async def run() -> int:
        cluster = ClusterClient(
            group, cluster_map, role="user", name="cli",
            timeout=30.0 if args.timeout is None else args.timeout,
        )
        try:
            if args.action == "health":
                report = await cluster.health_all()
                print(json_module.dumps(report, indent=2), file=out)
                return 0 if report["status"] == "ok" else 1
            if args.action == "stats":
                print(json_module.dumps(await cluster.stats_all(),
                                        indent=2), file=out)
                return 0
            if args.action == "list":
                for record_id in await cluster.list_records():
                    print(record_id, file=out)
                return 0
            report = await cluster.scrub()
            print(json_module.dumps(report, indent=2), file=out)
            return 0 if not report["lost"] else 1
        finally:
            await cluster.close()

    return asyncio.run(run())


def _cmd_adversary(args) -> int:
    import json as json_module

    from repro.adversary.engine import (
        get_scenario,
        run_matrix,
        run_scenario,
        scenario_names,
    )

    out = args.out
    if args.action == "list":
        for name in scenario_names():
            spec = get_scenario(name)
            print(f"{name}: {spec.title}", file=out)
            print(f"    claim   : {spec.claim}", file=out)
            print(f"    control : {spec.control} "
                  f"(must fail {spec.control_invariant!r})", file=out)
        return 0

    params = {}
    for item in args.param:
        key, _, value = item.partition("=")
        if not _:
            print(f"bad --param {item!r} (want KEY=VALUE)", file=out)
            return 2
        try:
            params[key] = json_module.loads(value)
        except ValueError:
            params[key] = value

    if args.action == "run":
        if not args.scenario:
            print("adversary run needs --scenario NAME "
                  "(see: repro adversary list)", file=out)
            return 2
        try:
            report = run_scenario(
                args.scenario, preset=args.preset, seed=args.seed,
                control=args.control, params=params or None,
                out=out if args.verbose else None,
            )
        except KeyError as exc:
            print(exc.args[0], file=out)
            return 2
        verdicts = [report]
    else:  # matrix
        seeds = [int(x) for x in args.seeds.split(",")] \
            if args.seeds else [args.seed]
        names = args.scenario.split(",") if args.scenario else None
        try:
            report = run_matrix(
                names, preset=args.preset, seeds=seeds,
                modes=("control",) if args.control
                else ("honest", "control"),
                params=params or None, out=out if args.verbose else None,
            )
        except KeyError as exc:
            print(exc.args[0], file=out)
            return 2
        verdicts = report["verdicts"]

    for verdict in verdicts:
        status = "ok" if verdict["ok"] else "NOT OK"
        failed = [inv["name"] for inv in verdict["invariants"]
                  if not inv["ok"]]
        line = (f"{status:>6}  {verdict['scenario']:<20} "
                f"[{verdict['mode']}] seed {verdict['seed']} "
                f"({verdict['seconds']}s)")
        if verdict["error"]:
            line += f" error: {verdict['error']}"
        elif failed:
            line += f" failed: {', '.join(failed)}"
        print(line, file=out)
    ok = (report["ok"] if args.action == "matrix"
          else all(v["ok"] for v in verdicts))
    print(f"adversary {args.action}: "
          f"{'ok' if ok else 'FAILED'}", file=out)
    if args.out_json:
        with open(args.out_json, "w", encoding="utf-8") as handle:
            json_module.dump(report, handle, indent=1)
        print(f"verdicts written to {args.out_json}", file=out)
    return 0 if ok else 1


def _cmd_info(args) -> int:
    out = args.out
    for name, params in sorted(PRESETS.items()):
        sizes = element_sizes(params)
        print(f"{name}: r={params.r_bits} bits, p={params.p_bits} bits, "
              f"|Zr|={sizes.zr}B |G|={sizes.g1}B |GT|={sizes.gt}B", file=out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Multi-authority CP-ABE access control (Yang-Jia, "
                    "ICDCS 2012) — reproduction toolkit",
    )
    parser.add_argument(
        "--arith-backend", choices=("auto", "pure", "gmpy2"), default=None,
        help="big-integer arithmetic core (default: REPRO_ARITH_BACKEND "
             "env, else auto — gmpy2 when installed, pure otherwise; "
             "requesting gmpy2 explicitly fails if it is not installed)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    demo = subparsers.add_parser("demo", help="run an end-to-end demo")
    _add_preset_argument(demo)
    demo.add_argument("--seed", type=int, default=1)
    demo.set_defaults(handler=_cmd_demo)

    tables = subparsers.add_parser("tables", help="print Table I-IV models")
    _add_preset_argument(tables)
    tables.add_argument("--authorities", type=int, default=5)
    tables.add_argument("--attributes", type=int, default=5)
    tables.add_argument("--user-attributes", type=int, default=0,
                        dest="user_attributes")
    tables.add_argument("--rows", type=int, default=0)
    tables.set_defaults(handler=_cmd_tables)

    primitives = subparsers.add_parser(
        "primitives", help="time pairing substrate primitives"
    )
    _add_preset_argument(primitives)
    primitives.add_argument("--samples", type=int, default=10)
    primitives.add_argument("--seed", type=int, default=1)
    primitives.set_defaults(handler=_cmd_primitives)

    figures = subparsers.add_parser(
        "figures", help="regenerate the paper's timing figures (ASCII)"
    )
    _add_preset_argument(figures)
    figures.add_argument("--sweep", default="2,5,10",
                         help="comma-separated x values (default 2,5,10)")
    figures.add_argument("--only", default="",
                         help="comma-separated figure ids, e.g. 3a,4b")
    figures.add_argument("--repeats", type=int, default=1)
    figures.set_defaults(handler=_cmd_figures)

    params = subparsers.add_parser(
        "params", help="generate fresh type-A pairing parameters"
    )
    params.add_argument("--rbits", type=int, default=80)
    params.add_argument("--pbits", type=int, default=160)
    params.add_argument("--seed", type=int, default=None)
    params.set_defaults(handler=_cmd_params)

    report = subparsers.add_parser(
        "report", help="write the full analytic-evaluation report (markdown)"
    )
    _add_preset_argument(report)
    report.add_argument("--authorities", type=int, default=5)
    report.add_argument("--attributes", type=int, default=5)
    report.add_argument("--output", default="",
                        help="file path (default: stdout)")
    report.set_defaults(handler=_cmd_report)

    serve = subparsers.add_parser(
        "serve", help="run the cloud-storage service on a TCP socket"
    )
    _add_preset_argument(serve)
    serve.add_argument("--seed", type=int, default=None)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7468,
                       help="TCP port (0 picks an ephemeral port)")
    serve.add_argument("--root", default="repro-data",
                       help="record-store directory (created if absent)")
    serve.add_argument("--idle-timeout", type=float, default=30.0,
                       dest="idle_timeout",
                       help="per-connection idle timeout in seconds")
    serve.add_argument("--read-only", action="store_true",
                       help="refuse writes (typed, retryable errors) while "
                            "serving reads")
    serve.add_argument("--workers", type=int, default=0,
                       help="crypto process-pool size for bulk sweeps "
                            "(0 = run sweeps inline on the offload thread)")
    serve.add_argument("--sweep-chunk", type=int, default=16,
                       dest="sweep_chunk",
                       help="records re-encrypted per sweep chunk / "
                            "progress frame (default 16)")
    serve.add_argument("--cluster-node", default=None, dest="cluster_node",
                       metavar="NAME",
                       help="serve as the named node of a storage cluster "
                            "(the name clients place records by)")
    serve.add_argument("--max-seconds", type=float, default=0,
                       dest="max_seconds",
                       help="auto-shutdown after this many seconds (0 = run "
                            "until interrupted; useful for CI)")
    serve.add_argument("--cache-entries", type=int, default=128,
                       dest="cache_entries",
                       help="BlobStore read-cache entry bound (default 128)")
    serve.add_argument("--cache-bytes", type=int, default=32 * 1024 * 1024,
                       dest="cache_bytes",
                       help="BlobStore read-cache byte bound (default "
                            "32 MiB)")
    serve.add_argument("--max-inflight", type=int, default=32,
                       dest="max_inflight",
                       help="pipelined requests dispatched concurrently per "
                            "session (1 = one request at a time, default "
                            "32)")
    serve.set_defaults(handler=_cmd_serve)

    load = subparsers.add_parser(
        "load", help="run the fleet-scale load harness against a service"
    )
    _add_preset_argument(load)
    load.add_argument("--seed", type=int, default=None)
    load.add_argument("--mode",
                      choices=["closed", "open", "capacity", "compare"],
                      default="capacity",
                      help="closed = one closed-loop run; open = Poisson "
                           "arrivals at --rate; capacity = closed-loop "
                           "sweep over --levels with knee detection; "
                           "compare = serial vs pipelined with "
                           "byte-identity checking (exit 1 on mismatch)")
    load.add_argument("--host", default=None,
                      help="target service host (default: self-host an "
                           "in-process server on a temporary store)")
    load.add_argument("--port", type=int, default=7468)
    load.add_argument("--users", type=int, default=100_000,
                      help="simulated registered-user population (shapes "
                           "the record-id namespace)")
    load.add_argument("--records", type=int, default=48,
                      help="physical record pool size")
    load.add_argument("--alpha", type=float, default=1.1,
                      help="Zipf popularity exponent (0 = uniform)")
    load.add_argument("--mix", default=None,
                      help='op mix over fetch/decrypt/upload/replace/'
                           'sweep, e.g. "fetch=0.55,decrypt=0.25,'
                           'upload=0.1,replace=0.08,sweep=0.02" '
                           '(decrypt = full user read: download + '
                           'session-cached ABE decryption)')
    load.add_argument("--concurrency", type=int, default=32,
                      help="workers (closed/compare modes)")
    load.add_argument("--ops", type=int, default=40,
                      help="measured ops per worker (closed loops)")
    load.add_argument("--warmup-ops", type=int, default=5,
                      dest="warmup_ops")
    load.add_argument("--levels", default="4,16,32",
                      help="comma-separated concurrency levels for "
                           "--mode capacity")
    load.add_argument("--rate", type=float, default=400.0,
                      help="open-loop arrival rate (ops/sec)")
    load.add_argument("--duration", type=float, default=3.0,
                      help="open-loop measure window (seconds)")
    load.add_argument("--warmup", type=float, default=0.5,
                      help="open-loop warmup window (seconds)")
    load.add_argument("--max-outstanding", type=int, default=256,
                      dest="max_outstanding",
                      help="open-loop in-flight bound; arrivals past it "
                           "are shed and counted")
    load.add_argument("--connections", type=int, default=4,
                      help="physical connections the workers share")
    load.add_argument("--max-inflight", type=int, default=32,
                      dest="max_inflight",
                      help="client pipeline window per connection "
                           "(1 = one request at a time)")
    load.add_argument("--rtt", type=float, default=0.004,
                      help="emulated round trip for --mode compare "
                           "(seconds; 0 = raw loopback)")
    load.add_argument("--server-max-inflight", type=int, default=64,
                      dest="server_max_inflight",
                      help="self-hosted server's per-session window "
                           "(1 = one request at a time; ignored with "
                           "--host)")
    load.add_argument("--cache-entries", type=int, default=128,
                      dest="cache_entries",
                      help="self-hosted server's blob-cache entry bound")
    load.add_argument("--cache-bytes", type=int, default=32 * 1024 * 1024,
                      dest="cache_bytes",
                      help="self-hosted server's blob-cache byte bound")
    load.add_argument("--smoke", action="store_true",
                      help="shrink pools/op counts to run in seconds; "
                           "byte-identity checking is never relaxed")
    load.add_argument("--json-out", default=None, dest="json_out",
                      metavar="FILE",
                      help="write the result JSON here instead of stdout")
    load.set_defaults(handler=_cmd_load)

    client = subparsers.add_parser(
        "client", help="talk to a running repro service"
    )
    _add_preset_argument(client)
    client.add_argument("action",
                        choices=["ping", "stats", "health", "list", "smoke",
                                 "sweep"],
                        help="smoke runs the full upload/read/revoke cycle; "
                             "sweep bulk-revokes many records in one "
                             "REENCRYPT_SWEEP request")
    client.add_argument("--seed", type=int, default=None)
    client.add_argument("--records", type=int, default=24,
                        help="records to populate for the sweep cycle "
                             "(default 24)")
    client.add_argument("--host", default="127.0.0.1")
    client.add_argument("--port", type=int, default=7468)
    client.add_argument("--timeout", type=float, default=None,
                        help="per-request client timeout in seconds")
    _add_chaos_arguments(client)
    client.set_defaults(handler=_cmd_client)

    cluster = subparsers.add_parser(
        "cluster", help="drive a sharded multi-node storage fleet"
    )
    _add_preset_argument(cluster)
    cluster.add_argument(
        "action", choices=["smoke", "health", "stats", "scrub", "list"],
        help="smoke starts its own N-node fleet and runs the full "
             "replicate/repair/kill/fleet-sweep acceptance cycle; "
             "health/stats/scrub/list talk to running nodes named by "
             "--node"
    )
    cluster.add_argument("--seed", type=int, default=None)
    cluster.add_argument("--node", action="append", default=[],
                         metavar="[NAME=]HOST:PORT",
                         help="a running node (repeatable); names must "
                              "match the ones the fleet was built with")
    cluster.add_argument("--nodes", type=int, default=3,
                         help="fleet size for the smoke cycle (default 3)")
    cluster.add_argument("--records", type=int, default=6,
                         help="records uploaded by the smoke cycle "
                              "(default 6)")
    cluster.add_argument("--replication", type=int, default=2,
                         help="replicas per record (default 2; clamped to "
                              "the node count for live-fleet actions)")
    cluster.add_argument("--write-quorum", type=int, default=None,
                         dest="write_quorum",
                         help="write acks required (default: majority of "
                              "replicas)")
    cluster.add_argument("--ring-seed", type=int, default=0,
                         dest="ring_seed",
                         help="consistent-hash ring seed (must match "
                              "across every client of the same fleet)")
    cluster.add_argument("--timeout", type=float, default=None,
                         help="per-request client timeout in seconds")
    _add_chaos_arguments(cluster)
    cluster.set_defaults(handler=_cmd_cluster)

    adversary = subparsers.add_parser(
        "adversary",
        help="run scripted semantic attacks with machine-checked "
             "security invariants",
    )
    _add_preset_argument(adversary)
    adversary.add_argument(
        "action", choices=["list", "run", "matrix"],
        help="list the registered scenarios; run one scenario in one "
             "mode; matrix runs scenarios x modes x seeds and fails "
             "unless every honest run passes AND every control run "
             "fails its declared invariant",
    )
    adversary.add_argument("--scenario", default="",
                           help="scenario name for run (one) or matrix "
                                "(comma-separated; default all)")
    adversary.add_argument("--seed", type=int, default=1,
                           help="scenario seed (default 1)")
    adversary.add_argument("--seeds", default="",
                           help="comma-separated seed list for matrix "
                                "(overrides --seed)")
    adversary.add_argument("--control", action="store_true",
                           help="run with the scenario's defense "
                                "disabled; the declared invariant must "
                                "FAIL for the run to count as ok")
    adversary.add_argument("--param", action="append", default=[],
                           metavar="KEY=VALUE",
                           help="scenario tuning knob, repeatable "
                                "(e.g. records=4)")
    adversary.add_argument("--verbose", action="store_true",
                           help="stream per-invariant PASS/FAIL notes")
    adversary.add_argument("--out-json", default="", dest="out_json",
                           help="write the full verdict JSON to this file")
    adversary.set_defaults(handler=_cmd_adversary)

    info = subparsers.add_parser("info", help="show built-in presets")
    info.set_defaults(handler=_cmd_info)

    return parser


def main(argv=None, out=None) -> int:
    """Entry point; ``out`` overrides stdout for testing."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.arith_backend is not None:
        from repro.errors import MathError
        from repro.math.backend import resolve_backend, set_backend
        set_backend(args.arith_backend)
        try:
            resolve_backend()  # fail fast on a hard gmpy2 request
        except MathError as exc:
            set_backend(None)
            parser.error(str(exc))
    args.out = out or sys.stdout
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
