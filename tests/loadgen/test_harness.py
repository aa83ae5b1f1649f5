"""End-to-end load-harness runs against a real in-process service.

Small pools and op counts — these verify the *instrument* (schedules,
collectors, result shapes, byte-identity) rather than measure anything;
the real measurements live in ``benchmarks/bench_service_load.py``.
"""

import asyncio
import tempfile

import pytest

from repro.errors import StorageError
from repro.loadgen import LoadHarness, OpMix, pipelined_vs_serial
from repro.loadgen.runner import rss_kb, start_local_service


def _run(coro):
    return asyncio.run(coro)


async def _with_service(group, body, **service_kwargs):
    with tempfile.TemporaryDirectory() as root:
        service = await start_local_service(group, root, **service_kwargs)
        try:
            return await body(service)
        finally:
            await service.stop()


def test_rss_sampling_reads_this_process():
    assert rss_kb() > 0


def test_closed_loop_runs_the_full_mix(group):
    async def body(service):
        harness = LoadHarness(group, service.host, service.port,
                              users=500, records=6, replace_records=2,
                              seed=11, connections=2, max_inflight=8)
        await harness.setup()
        try:
            mix = OpMix(fetch=0.6, upload=0.2, replace=0.2)
            result = await harness.run_closed(3, 6, warmup_ops=1, mix=mix)
        finally:
            await harness.close()
        return result

    result = _run(_with_service(group, body))
    assert result["mode"] == "closed"
    assert result["pipelined"] is True
    assert result["measured_ops"] == 3 * 6
    assert result["failed_ops"] == 0
    assert result["throughput_ops"] > 0
    fetch = result["per_class"]["fetch"]
    assert fetch["count"] > 0
    assert 0 <= fetch["p50"] <= fetch["p95"] <= fetch["p99"]
    assert result["rss"]["max_kb"] > 0


def test_closed_loop_schedules_are_deterministic(group):
    """Two same-seed fetch-only runs issue identical requests — the
    property the byte-identity comparison stands on."""
    async def body(service):
        digests = []
        for _ in range(2):
            harness = LoadHarness(group, service.host, service.port,
                                  users=100, records=5, seed=23,
                                  connections=2, max_inflight=4)
            await harness.setup(populate=not digests)
            try:
                result = await harness.run_closed(
                    4, 5, mix=OpMix.fetch_only(), capture_digests=True
                )
            finally:
                await harness.close()
            assert result["failed_ops"] == 0
            digests.append(result["fetch_digests"])
        return digests

    first, second = _run(_with_service(group, body))
    assert first == second
    assert len(first) == 4 * 5


def test_open_loop_reports_arrivals_and_shedding(group):
    async def body(service):
        harness = LoadHarness(group, service.host, service.port,
                              users=100, records=4, seed=31,
                              connections=2, max_inflight=8)
        await harness.setup()
        try:
            result = await harness.run_open(
                120.0, 0.4, warmup=0.1, max_outstanding=16,
                mix=OpMix.fetch_only(),
            )
        finally:
            await harness.close()
        return result

    result = _run(_with_service(group, body))
    assert result["mode"] == "open"
    assert result["arrivals"] > 0
    assert result["shed"] >= 0
    assert result["measured_ops"] + result["shed"] <= result["arrivals"]
    assert result["per_class"]["fetch"]["count"] == result["measured_ops"]


def test_open_loop_never_shares_a_worker_between_inflight_ops(group):
    """Worker indices name churn records, so two in-flight ops with one
    index would store the same record id. Ops block for uneven times
    while arrivals outpace them, so the window fills, arrivals are
    shed, and ops finish out of order."""
    harness = LoadHarness(group, "127.0.0.1", 0, users=10, records=1)
    harness._slots = [object()]  # no sockets: _one_op is stubbed
    running, collisions, started = set(), [], []

    async def blocking_op(op_class, slot, worker, rng):
        if worker in running:
            collisions.append(worker)
        running.add(worker)
        started.append(worker)
        try:
            await asyncio.sleep(0.004 if len(started) % 3 else 0.011)
        finally:
            running.discard(worker)

    harness._one_op = blocking_op
    result = _run(harness.run_open(2000.0, 0.3, max_outstanding=2,
                                   mix=OpMix.fetch_only()))
    assert result["shed"] > 0
    assert len(started) > 10
    assert set(started) <= {0, 1}
    assert collisions == []


def test_pipelined_vs_serial_is_byte_identical(group):
    async def body(service):
        return await pipelined_vs_serial(
            group, service.host, service.port, workers=4, ops_per_worker=4,
            warmup_ops=1, connections=2, max_inflight=8,
            users=100, records=4, seed=47,
        )

    comparison = _run(_with_service(group, body))
    assert comparison["byte_identical"] is True
    assert comparison["compared_responses"] == 4 * 4
    assert comparison["serial"]["pipelined"] is False
    assert comparison["pipelined"]["pipelined"] is True
    assert comparison["fetch_speedup"] is not None


def test_errors_are_tallied_by_exception_type(group):
    """A failing op class reports *why* it failed: a name -> count map
    per class. Two workers share one window-of-one connection."""
    async def body(service):
        harness = LoadHarness(group, service.host, service.port,
                              users=100, records=4, replace_records=2,
                              seed=53, connections=1, max_inflight=1)
        await harness.setup()

        async def broken_replace(slot, worker, rng):
            raise StorageError("injected")

        harness._op_replace = broken_replace
        try:
            return await harness.run_closed(
                2, 8, mix=OpMix(fetch=0.5, replace=0.5)
            )
        finally:
            await harness.close()

    result = _run(_with_service(group, body))
    assert result["pipelined"] is False
    replace = result["per_class"]["replace"]
    assert replace["errors"] > 0
    assert replace["error_types"] == {"StorageError": replace["errors"]}
    fetch = result["per_class"]["fetch"]
    assert fetch["errors"] == 0 and fetch["error_types"] == {}
    assert result["failed_ops"] == replace["errors"]
    assert result["measured_ops"] == 2 * 8


def test_run_parameters_are_validated(group):
    harness = LoadHarness.__new__(LoadHarness)  # no sockets needed
    with pytest.raises(ValueError):
        _run(LoadHarness.run_closed(harness, 0, 5))
    with pytest.raises(ValueError):
        _run(LoadHarness.run_open(harness, 0.0, 1.0))
