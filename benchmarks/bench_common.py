"""Shared reporting helpers for the ``BENCH_*.json`` writers.

Every bench records WHICH arithmetic core produced its numbers — a
``BENCH_*.json`` regenerated under gmpy2 is not comparable to one from
the pure-Python backend. :func:`arith_metadata` captures the active
backend configuration; :func:`counter_summary` routes the group's
operation counters through a :class:`repro.system.meter.Meter` under
backend-namespaced keys (``pure.fp_muls``, ``gmpy2.pairings``, …) so
cross-backend runs land in distinct columns of the same report.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro.math.backend import available_backends, gmpy2_available
from repro.system.meter import Meter


def arith_metadata(group) -> dict:
    """The arithmetic-core block every ``BENCH_*.json`` embeds."""
    return {
        "backend": group.backend_name,
        "gmpy2_available": gmpy2_available(),
        "backends_available": list(available_backends()),
    }


def counter_summary(group, meter: Meter = None) -> dict:
    """Backend-namespaced operation counts via ``Meter.counter_summary``.

    Each non-zero counter from :meth:`PairingGroup.op_counts` is bumped
    into ``meter`` under ``<backend>.<op>``, and the meter's
    counter summary is returned — benches that already carry a
    :class:`Meter` pass it in so crypto-op tallies and byte counters
    share one report block.
    """
    if meter is None:
        meter = Meter(group)
    for op, value in group.op_counts().items():
        if value:
            meter.bump(f"{group.backend_name}.{op}", value)
    return meter.counter_summary()
