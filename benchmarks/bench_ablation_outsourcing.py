"""Ablation D: outsourced decryption (GHW-style transform keys).

Quantifies what moving the pairings to the server buys a constrained
user: local Decrypt (2l + n_A pairings) vs server_transform_many over
one ciphertext (the session form's 2 pairings, at the server) +
user_finalize (one GT exponentiation).
"""

import pytest

from benchmarks.conftest import PRESET, run_once
from repro.analysis.timing import build_ours
from repro.core.decrypt import decrypt
from repro.core.outsourcing import (
    make_transform_key,
    server_transform_many,
    user_finalize,
)

N_AUTHORITIES = 3
ATTRS = 5


@pytest.fixture(scope="module")
def world():
    workload = build_ours(PRESET, N_AUTHORITIES, ATTRS, seed=55)
    ciphertext = workload.encrypt()
    transform, retrieval = make_transform_key(
        workload.group, workload.user_public_key, workload.secret_keys
    )
    (partial,) = server_transform_many(workload.group, [ciphertext],
                                       transform)
    return workload, ciphertext, transform, retrieval, partial


def test_local_decrypt(benchmark, world):
    workload, ciphertext, _, _, _ = world
    benchmark.group = "ablation outsourcing"
    message = run_once(
        benchmark, decrypt, workload.group, ciphertext,
        workload.user_public_key, workload.secret_keys,
    )
    assert message == workload.message


def test_server_transform_one(benchmark, world):
    workload, ciphertext, transform, retrieval, _ = world
    benchmark.group = "ablation outsourcing"
    (partial,) = run_once(
        benchmark, server_transform_many, workload.group, [ciphertext],
        transform,
    )
    assert user_finalize(ciphertext, partial, retrieval) == workload.message


def test_user_finalize(benchmark, world):
    workload, ciphertext, _, retrieval, partial = world
    benchmark.group = "ablation outsourcing"
    message = run_once(benchmark, user_finalize, ciphertext, partial,
                       retrieval)
    assert message == workload.message


def test_make_transform_key(benchmark, world):
    workload, _, _, _, _ = world
    benchmark.group = "ablation outsourcing"
    transform, retrieval = run_once(
        benchmark, make_transform_key, workload.group,
        workload.user_public_key, workload.secret_keys,
    )
    assert transform.uid == retrieval.uid
