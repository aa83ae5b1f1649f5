"""The traced run: per-layer metrics of one workload.

One set-up, a warm-up, then an untraced window (its op rate is the
baseline for ``trace.overhead_pct``), then the traced segment: the same
window length with every layer's public functions wrapped in spans, in
this process and in the server (started and stopped by signal), plus
the workload's owner epilogue. Per-op figures divide by the ops that
completed in the traced segment.

After the segment, unit costs of a pairing, a G1 and a GT
exponentiation and an F_p multiplication and inversion are timed once;
``model.unexplained_ms_per_op`` is the CPU both processes spent per op
minus the op counts times those unit costs. The paper-literal decrypt
of a few read shapes is checked against the closed form of
:mod:`repro.analysis.costmodel`.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import statistics
import time

import spans
from harness import TRACES, WARMUP_S, CheckFailed, proc_cpu_seconds
from workloads import PAYLOAD_BYTES

#: Read shapes whose paper-literal decrypt is checked per traced run.
CLOSED_FORM_SAMPLES = 3

#: Request types whose round trip the trace reports.
RTT_TYPES = ("FETCH_COMPONENT", "TRANSFORM_FETCH", "FETCH_RECORD",
             "STORE_RECORD", "REPLACE_COMPONENT", "REENCRYPT_SWEEP")


def install_client(tracer) -> None:
    """Wrap the generator's side of every layer."""
    from repro.core import owner as owner_module
    from repro.core import revocation
    from repro.crypto import hybrid
    from repro.fastpath import session as encrypt_session
    from repro.service import client as client_module

    spans.install_common(tracer)
    connection = client_module.ServiceConnection
    for name in ("request", "request_stream"):
        tracer.wrap(connection, name, lambda args: f"rtt.{args[1].name}")
    tracer.wrap(client_module, "encrypt_with_session", "fastpath.encrypt")
    tracer.wrap(client_module, "open_sealed", "crypto.aead")
    tracer.wrap(hybrid, "seal", "crypto.aead")
    tracer.wrap(owner_module.DataOwner, "update_infos_for_records",
                "core.update_info")
    tracer.wrap(revocation, "rekey_standard", "core.rekey")
    for module in (encrypt_session, owner_module):
        tracer.wrap(module, "lsss_from_policy", "policy.lsss")


def _timed(fn, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def unit_costs(group) -> dict:
    """Seconds per pairing, G1/GT exponentiation, F_p mul and inversion."""
    rng = group.rng
    p_point, q_point = group.random_g1(), group.random_g1()
    gt_value = group.random_gt()
    scalar = group.random_scalar()
    field = group.field
    a, b = field.random_nonzero(rng), field.random_nonzero(rng)
    muls, invs = 2000, 200

    def mul_loop():
        value = a
        for _ in range(muls):
            value = field.mul(value, b)

    def inv_loop():
        for _ in range(invs):
            field.inv(a)

    return {
        "pairings": _timed(lambda: group.pair(p_point, q_point), 3),
        "g1_exponentiations": _timed(lambda: p_point ** scalar, 5),
        "gt_exponentiations": _timed(lambda: gt_value ** scalar, 5),
        "fp_muls": _timed(mul_loop, 3) / muls,
        "fp_invs": _timed(inv_loop, 3) / invs,
    }


async def closed_form_check(bench) -> float:
    """Paper-literal decrypt of sampled read shapes vs Table III's form.

    Eq. (1) costs one numerator pairing per involved authority plus two
    per LSSS row the reconstruction uses; ``decrypt_ops_ours`` states it
    per authority, so the per-authority terms are summed. Returns the
    mean measured pairings per cold read.
    """
    from repro.analysis.costmodel import SystemShape, decrypt_ops_ours
    from repro.core.attributes import authority_of
    from repro.core.decrypt import decrypt
    from repro.crypto.hybrid import open_sealed
    from workloads import ATTRIBUTES

    world = bench.world
    group = world.group
    reader = world.readers[0]
    keys = reader.secret_keys_for("alice")
    held = set()
    for key in keys.values():
        held |= set(key.attribute_keys)
    by_shape = {}
    for record_id in bench.record_ids:
        by_shape.setdefault(bench.shape_of[record_id], record_id)
    measured = []
    for record_id in list(by_shape.values())[:CLOSED_FORM_SAMPLES]:
        component = (await reader.fetch_record(record_id)).component("c")
        ciphertext = component.abe_ciphertext
        before = group.op_counts()["pairings"]
        message = decrypt(group, ciphertext, reader.public_key, keys)
        pairings = group.op_counts()["pairings"] - before
        if open_sealed(message, ciphertext.ciphertext_id,
                       component.data_ciphertext) != bench.expected[record_id]:
            raise CheckFailed(f"paper-literal decrypt misread {record_id}")
        used = ciphertext.matrix.reconstruction_coefficients(held,
                                                             group.order)
        rows = ciphertext.matrix.n_rows
        predicted = 0
        for aid in ciphertext.involved_aids:
            per_authority = sum(
                1 for index in used
                if authority_of(ciphertext.matrix.row_labels[index]) == aid)
            if per_authority:
                predicted += decrypt_ops_ours(SystemShape(
                    1, len(ATTRIBUTES), per_authority, rows)).pairings
            else:
                predicted += 1  # the numerator pairing alone
        if pairings != predicted:
            raise CheckFailed(
                f"cold read of {record_id} cost {pairings} pairings; the "
                f"closed form predicts {predicted}")
        measured.append(pairings)
    return statistics.fmean(measured)


def _client_counters(bench) -> dict:
    counters = {"hit": 0, "miss": 0, "retries": 0}
    for connection in bench.world.connections:
        meter = connection.meter
        counters["hit"] += meter.counter("decrypt.session.hit")
        counters["miss"] += meter.counter("decrypt.session.miss")
        counters["retries"] += sum(
            1 for entry in connection.retry_log if entry["event"] == "retry")
    return counters


def _snapshot(bench) -> dict:
    return {
        "ops": bench.world.group.op_counts(),
        "cpu": time.process_time(),
        "server_cpu": proc_cpu_seconds(bench.world.server.pid),
        "counters": _client_counters(bench),
    }


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


async def traced_run(bench) -> dict:
    tracer = spans.Tracer()
    bench.tracer = tracer
    install_client(tracer)
    await bench.setup(1)
    server = bench.world.server
    await bench.window(WARMUP_S, "warmup")
    plain_elapsed, plain_ops = await bench.window(bench.args.seconds,
                                                  "plain")

    start = _snapshot(bench)
    server.signal(signal.SIGUSR1)
    # Signal delivery is asynchronous: let the server's loop run the
    # handler before the segment's first request.
    await asyncio.sleep(0.05)
    bench.log.recording = True
    tracer.enabled = True
    segment_start = time.perf_counter()
    traced_elapsed, traced_ops = await bench.window(bench.args.seconds,
                                                    "traced")
    if not bench.workload.owner_in_window:
        await bench.epilogue()
    segment_end = time.perf_counter()
    tracer.enabled = False
    bench.log.recording = False
    server.signal(signal.SIGUSR2)
    await asyncio.sleep(0.05)
    end = _snapshot(bench)

    cold_pairings = await closed_form_check(bench)
    units = unit_costs(bench.world.group)
    stats = await bench.world.readers[0].stats()
    for connection in bench.world.connections:
        await connection.close()
    server.stop()
    with open(server.trace_out, encoding="utf-8") as handle:
        server_trace = json.load(handle)
    client_rows = tracer.records()
    TRACES.mkdir(parents=True, exist_ok=True)
    with open(TRACES / f"{bench.workload.name}-seed{bench.seed}.json", "w",
              encoding="utf-8") as handle:
        json.dump({"client": client_rows, "server": server_trace}, handle)
    os.unlink(server.trace_out)

    client = spans.aggregate(client_rows, segment_start, segment_end)
    served = spans.aggregate(server_trace["spans"], segment_start,
                             segment_end)
    marks = {snap["label"]: snap for snap in server_trace["snapshots"]}
    ops = sum(len(samples) for samples in bench.log.latency.values())
    if not ops:
        raise CheckFailed("the traced segment completed no op")
    metrics = per_layer_metrics(
        client, served, start, end, marks, ops, units, cold_pairings,
        overhead=(_ratio(plain_ops, plain_elapsed)
                  / _ratio(traced_ops, traced_elapsed) - 1.0) * 100.0,
    )
    metrics["service.space_amp"] = (
        stats["storage_bytes"] / (stats["records"] * PAYLOAD_BYTES), "ratio")
    return metrics


def per_layer_metrics(client, served, start, end, marks, ops, units,
                      cold_pairings, overhead) -> dict:
    empty = {"calls": 0, "items": 0, "total": 0.0, "self": 0.0}

    def both(name, field):
        return client.get(name, empty)[field] + served.get(name, empty)[field]

    def per_op_ms(seconds):
        return seconds * 1000.0 / ops

    metrics = {}
    for kind in RTT_TYPES:
        entry = client.get(f"rtt.{kind}", empty)
        metrics[f"service.rtt_ms.{kind.lower()}"] = (
            _ratio(entry["total"] * 1000.0, entry["calls"]), "ms")
    server_start, server_end = marks["start"], marks["end"]
    hits = server_end["cache_hits"] - server_start["cache_hits"]
    misses = server_end["cache_misses"] - server_start["cache_misses"]
    transform = served.get("core.transform", empty)
    reencrypt = served.get("parallel.reencrypt", empty)
    counters = {key: end["counters"][key] - start["counters"][key]
                for key in start["counters"]}
    server_ops = {key: server_end["ops"][key] - server_start["ops"][key]
                  for key in server_start["ops"]}
    total_ops = {key: end["ops"][key] - start["ops"][key] + server_ops[key]
                 for key in server_ops}
    client_cpu = end["cpu"] - start["cpu"]
    server_cpu = end["server_cpu"] - start["server_cpu"]
    modelled = sum(total_ops[key] * units[key] for key in units)
    metrics.update({
        "service.store.read_ms": (
            per_op_ms(served.get("service.store.read", empty)["self"]),
            "ms/op"),
        "service.store.cache_hit_ratio": (_ratio(hits, hits + misses),
                                          "ratio"),
        "service.store.write_ms": (
            per_op_ms(served.get("service.store.write", empty)["self"]),
            "ms/op"),
        "service.store.commit_ms": (
            per_op_ms(served.get("service.store.commit", empty)["total"]),
            "ms/op"),
        "service.transform_batch": (
            _ratio(transform["items"], transform["calls"]), "ct/call"),
        "service.wire_bytes_per_op": (
            (server_end["wire_bytes"] - server_start["wire_bytes"]) / ops,
            "B/op"),
        "service.retries": (counters["retries"] / ops, "count/op"),
        "service.server_cpu_ms_per_op": (per_op_ms(server_cpu), "ms/op"),
        "system.decode_ms": (per_op_ms(both("system.decode", "self")),
                             "ms/op"),
        "system.meter_log_entries": (
            marks["exit"]["meter_log_entries"], "count"),
        "core.transform_ms": (
            _ratio(transform["self"] * 1000.0, transform["items"]),
            "ms/ct"),
        "core.update_info_ms": (
            per_op_ms(client.get("core.update_info", empty)["total"]),
            "ms/op"),
        "core.rekey_ms": (per_op_ms(client.get("core.rekey", empty)["total"]),
                          "ms/op"),
        "parallel.reencrypt_ms_per_record": (
            _ratio(reencrypt["total"] * 1000.0, reencrypt["items"]),
            "ms/record"),
        "fastpath.session_build_ms": (
            per_op_ms(both("fastpath.session_build", "total")), "ms/op"),
        "fastpath.session_hit_ratio": (
            _ratio(counters["hit"], counters["hit"] + counters["miss"]),
            "ratio"),
        "fastpath.decrypt_ms": (
            per_op_ms(client.get("fastpath.decrypt", empty)["total"]),
            "ms/op"),
        "fastpath.encrypt_ms": (
            per_op_ms(client.get("fastpath.encrypt", empty)["total"]),
            "ms/op"),
        "policy.lsss_ms": (per_op_ms(both("policy.lsss", "self")), "ms/op"),
        "pairing.pair_ms": (per_op_ms(both("pairing.pair", "self")),
                            "ms/op"),
        "pairing.prepare_ms": (per_op_ms(both("pairing.prepare", "self")),
                               "ms/op"),
        "pairing.pairings_per_op": (total_ops["pairings"] / ops, "count/op"),
        "pairing.gt_exps_per_op": (total_ops["gt_exponentiations"] / ops,
                                   "count/op"),
        "ec.g1_exps_per_op": (total_ops["g1_exponentiations"] / ops,
                              "count/op"),
        "math.fp_invs_per_op": (total_ops["fp_invs"] / ops, "count/op"),
        "crypto.aead_ms": (per_op_ms(client.get("crypto.aead", empty)["total"]),
                           "ms/op"),
        "bench.client_cpu_ms_per_op": (per_op_ms(client_cpu), "ms/op"),
        "model.unexplained_ms_per_op": (
            per_op_ms(client_cpu + server_cpu - modelled), "ms/op"),
        "model.cold_read_pairings": (cold_pairings, "count"),
        "trace.overhead_pct": (overhead, "%"),
    })
    return metrics
