"""Shared reporting helpers for the ``BENCH_*.json`` writers.

Every bench records WHICH arithmetic core produced its numbers — a
``BENCH_*.json`` regenerated under gmpy2 is not comparable to one from
the pure-Python backend. :func:`arith_metadata` captures the active
backend configuration; :func:`counter_summary` publishes the group's
operation counters under backend-namespaced keys (``pure.fp_muls``,
``gmpy2.pairings``, …) so cross-backend runs land in distinct columns
of the same report.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro.math.backend import available_backends, gmpy2_available


def arith_metadata(group) -> dict:
    """The arithmetic-core block every ``BENCH_*.json`` embeds."""
    return {
        "backend": group.backend_name,
        "gmpy2_available": gmpy2_available(),
        "backends_available": list(available_backends()),
    }


def counter_summary(group) -> dict:
    """The non-zero :meth:`PairingGroup.op_counts`, keyed
    ``<backend>.<op>``."""
    return {f"{group.backend_name}.{op}": count
            for op, count in group.op_counts().items() if count}
