"""Turn repeated load runs into a capacity model.

Two instruments:

* :func:`capacity_model` sweeps closed-loop concurrency levels on one
  harness and reports ops/sec (total and per worker) plus the **knee
  point** — the first level whose fetch p99 exceeds a latency bound.
  The default bound is relative (a multiple of the lowest level's
  p99), because an absolute bound would encode one machine's speed
  into the model; an explicit absolute bound can be passed instead.
* :func:`pipelined_vs_serial` runs the *same* deterministic fetch-only
  schedule through a serial (``max_inflight=1``) and a pipelined fleet
  against the same server, checks every reply body is byte-identical
  between the two (per ``(worker, op index)`` SHA-256), and reports the
  aggregate fetch-throughput speedup — the PR-gating number.
"""

from __future__ import annotations

from repro.loadgen.runner import LoadHarness
from repro.loadgen.workload import OpMix


async def capacity_model(harness: LoadHarness, *,
                         levels=(4, 16, 32), ops_per_worker: int = 40,
                         warmup_ops: int = 5, mix: OpMix = None,
                         p99_bound: float = None,
                         p99_bound_factor: float = 5.0) -> dict:
    """Closed-loop sweep over ``levels`` workers; find the knee.

    Levels run on one live harness in ascending order (pass them
    sorted), so later levels see a warm cache — exactly what a
    long-running service sees. The knee is the first level whose fetch
    p99 exceeds ``p99_bound`` seconds (or ``p99_bound_factor`` × the
    lowest level's fetch p99 when no absolute bound is given); ``None``
    means the service never kneeled inside the swept range.
    """
    if len(levels) < 1:
        raise ValueError("need at least one concurrency level")
    mix = mix if mix is not None else OpMix.default()
    results = []
    for level in levels:
        result = await harness.run_closed(
            level, ops_per_worker, warmup_ops=warmup_ops, mix=mix
        )
        result["ops_per_worker_per_sec"] = round(
            result["throughput_ops"] / level, 3
        )
        results.append(result)
    bound = p99_bound
    if bound is None:
        baseline = results[0]["per_class"].get("fetch", {}).get("p99")
        if baseline:
            bound = baseline * p99_bound_factor
    knee = None
    if bound is not None:
        for result in results:
            p99 = result["per_class"].get("fetch", {}).get("p99")
            if p99 is not None and p99 > bound:
                knee = result["concurrency"]
                break
    return {
        "levels": results,
        "knee": {
            "concurrency": knee,
            "fetch_p99_bound_seconds": bound,
            "relative_bound_factor": (None if p99_bound is not None
                                      else p99_bound_factor),
        },
    }


async def pipelined_vs_serial(group, host: str, port: int, *,
                              workers: int = 32, ops_per_worker: int = 30,
                              warmup_ops: int = 4, connections: int = 4,
                              max_inflight: int = 32, rtt: float = 0.0,
                              **harness_kwargs) -> dict:
    """Same fetch schedule, serial vs pipelined, byte-identity checked.

    Both fleets use ``connections`` physical connections for ``workers``
    workers — the serial fleet funnels workers through each connection's
    window of one, the pipelined fleet multiplexes — so the comparison
    isolates *pipelining*, not connection count. Fetch-only and seeded
    schedules
    make the two runs issue identical requests, so every reply must be
    byte-identical; a mismatch is a correctness failure, never noise.

    ``rtt`` > 0 routes both fleets through a
    :class:`~repro.loadgen.netem.LatencyProxy` emulating that round
    trip — the regime the comparison is about, since on raw loopback a
    serial connection's 1/RTT cap is effectively infinite.
    """
    mix = OpMix.fetch_only()
    proxy = None
    if rtt > 0:
        from repro.loadgen.netem import LatencyProxy

        proxy = await LatencyProxy(host, port, rtt=rtt).start()
        host, port = proxy.host, proxy.port
    try:
        serial = LoadHarness(group, host, port, connections=connections,
                             max_inflight=1, **harness_kwargs)
        await serial.setup()
        try:
            serial_result = await serial.run_closed(
                workers, ops_per_worker, warmup_ops=warmup_ops, mix=mix,
                capture_digests=True,
            )
        finally:
            await serial.close()
        pipelined = LoadHarness(group, host, port, connections=connections,
                                max_inflight=max_inflight, **harness_kwargs)
        await pipelined.setup(populate=False)  # pools already on the server
        try:
            pipelined_result = await pipelined.run_closed(
                workers, ops_per_worker, warmup_ops=warmup_ops, mix=mix,
                capture_digests=True,
            )
        finally:
            await pipelined.close()
    finally:
        if proxy is not None:
            await proxy.stop()
    serial_digests = serial_result.pop("fetch_digests")
    pipelined_digests = pipelined_result.pop("fetch_digests")
    byte_identical = serial_digests == pipelined_digests
    serial_fetch = serial_result["per_class"]["fetch"]["throughput_ops"]
    pipelined_fetch = pipelined_result["per_class"]["fetch"][
        "throughput_ops"]
    return {
        "workers": workers,
        "connections": connections,
        "ops_per_worker": ops_per_worker,
        "rtt_seconds": rtt,
        "serial": serial_result,
        "pipelined": pipelined_result,
        "fetch_throughput_serial": serial_fetch,
        "fetch_throughput_pipelined": pipelined_fetch,
        "fetch_speedup": (round(pipelined_fetch / serial_fetch, 2)
                          if serial_fetch else None),
        "byte_identical": byte_identical,
        "compared_responses": len(serial_digests),
    }
