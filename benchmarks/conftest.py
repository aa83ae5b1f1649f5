"""Benchmark-harness configuration.

By default the benchmarks run on the SS512 preset — the same element
sizes as the paper's PBC α-curve (512-bit base field, 160-bit order) —
with the paper's workload shapes. Two environment knobs:

* ``REPRO_BENCH_PRESET=TOY80`` switches to the fast toy curve (useful
  for smoke-testing the harness);
* ``REPRO_BENCH_FULL=1`` sweeps every point the paper plots (2..20)
  instead of the default 5-point skeleton that preserves the shape.

Workload construction (key generation for up to 100 attributes) is
cached per (scheme, shape) so each benchmark body times exactly one
Encrypt or Decrypt.
"""

import os
import sys

import pytest

from repro.analysis.timing import build_lewko, build_ours
from repro.ec.params import PRESETS

# The bench scripts run standalone (`python benchmarks/bench_X.py`) and
# import their shared helpers as the top-level module `bench_common`.
# Pytest imports this package's modules as `benchmarks.*`, so put this
# directory on the path for that import to resolve under collection too.
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

PRESET_NAME = os.environ.get("REPRO_BENCH_PRESET", "SS512")
PRESET = PRESETS[PRESET_NAME]

if os.environ.get("REPRO_BENCH_FULL"):
    AUTHORITY_SWEEP = list(range(2, 21, 2))
    ATTRIBUTE_SWEEP = list(range(2, 21, 2))
else:
    AUTHORITY_SWEEP = [2, 5, 10, 15, 20]
    ATTRIBUTE_SWEEP = [2, 5, 10, 15, 20]

# Fixed counts from the paper: "the involved number of attributes per
# authority is set to be 5" / "the number of authority ... fixed to be 5".
FIXED_ATTRS = 5
FIXED_AUTHORITIES = 5

_ours_cache = {}
_lewko_cache = {}


def ours_workload(n_authorities, attrs_per_authority):
    key = (n_authorities, attrs_per_authority)
    if key not in _ours_cache:
        _ours_cache[key] = build_ours(PRESET, *key, seed=42)
    return _ours_cache[key]


def lewko_workload(n_authorities, attrs_per_authority):
    key = (n_authorities, attrs_per_authority)
    if key not in _lewko_cache:
        _lewko_cache[key] = build_lewko(PRESET, *key, seed=42)
    return _lewko_cache[key]


_ciphertext_cache = {}


def ours_ciphertext(n_authorities, attrs_per_authority):
    key = ("ours", n_authorities, attrs_per_authority)
    if key not in _ciphertext_cache:
        _ciphertext_cache[key] = ours_workload(
            n_authorities, attrs_per_authority
        ).encrypt()
    return _ciphertext_cache[key]


def lewko_ciphertext(n_authorities, attrs_per_authority):
    key = ("lewko", n_authorities, attrs_per_authority)
    if key not in _ciphertext_cache:
        _ciphertext_cache[key] = lewko_workload(
            n_authorities, attrs_per_authority
        ).encrypt()
    return _ciphertext_cache[key]


def run_once(benchmark, fn, *args):
    """One timed round: crypto at these sizes is slow and deterministic
    enough that single-shot timing preserves the paper's curves."""
    return benchmark.pedantic(fn, args=args, rounds=1, iterations=1,
                              warmup_rounds=0)


@pytest.fixture(scope="session", autouse=True)
def _announce():
    print(f"\n[repro-bench] preset={PRESET_NAME} "
          f"authority sweep={AUTHORITY_SWEEP} attribute sweep={ATTRIBUTE_SWEEP}")
    yield
