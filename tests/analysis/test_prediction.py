"""Primitive timings × operation counts must predict algorithm timings.

This ties Ablation B (per-operation costs) to Figures 3/4 (algorithm
costs) through the operation-count models: measuring the pairing / G-exp
/ GT-exp unit costs and weighting them by the model's counts should land
within a small factor of the actually measured Encrypt/Decrypt times.
A generous tolerance keeps the test robust to scheduler noise while
still catching any gross model/implementation divergence.
"""

import time

import pytest

from repro.analysis.costmodel import (
    SystemShape,
    decrypt_ops_ours,
    encrypt_ops_ours,
)
from repro.analysis.timing import build_ours
from repro.ec.params import TOY80

SHAPE = SystemShape(
    n_authorities=2, attrs_per_authority=4,
    user_attrs_per_authority=4, policy_rows=8,
)
TOLERANCE = 4.0


#: Rounds of interleaved timing; each side keeps its best round.
ROUNDS = 5


def _interleaved_best(fns, rounds=ROUNDS):
    """Time each of ``fns`` once per round, in turn, for ``rounds``
    rounds; return each one's best time.

    Interleaving puts a slow moment of the host (another process, a
    frequency step) into the same round for the unit costs and for the
    measured algorithm, and the best of several rounds drops it, so it
    cannot inflate one side of the prediction ratio alone.
    """
    best = [float("inf")] * len(fns)
    for _ in range(rounds):
        for index, fn in enumerate(fns):
            start = time.perf_counter()
            fn()
            best[index] = min(best[index], time.perf_counter() - start)
    return best


@pytest.fixture(scope="module")
def measurements():
    workload = build_ours(TOY80, SHAPE.n_authorities,
                          SHAPE.attrs_per_authority, seed=23)
    group = workload.group
    group.gt  # warm cached generator
    exponent = group.random_scalar()
    x, y = group.random_g1(), group.random_g1()
    # The common case inside Encrypt/KeyGen: a registered fixed-base
    # element (the generator, public attribute keys and user keys all
    # get tables), so the unit cost must be the table-backed one.
    base = group.random_g1()
    group.register_g1_base(base)
    ciphertext = workload.encrypt()
    return tuple(_interleaved_best([
        lambda: group.pair(x, y),
        lambda: base ** exponent,
        lambda: group.gt ** exponent,
        workload.encrypt,
        lambda: workload.decrypt(ciphertext),
    ]))


class TestPrediction:
    def test_decrypt_prediction(self, measurements):
        pairing_cost, g1_cost, gt_cost, _, decrypt_time = measurements
        predicted = decrypt_ops_ours(SHAPE).weighted(
            pairing_cost, g1_cost, gt_cost
        )
        ratio = decrypt_time / predicted
        assert 1 / TOLERANCE < ratio < TOLERANCE, (
            f"decrypt {decrypt_time * 1000:.1f} ms vs predicted "
            f"{predicted * 1000:.1f} ms"
        )

    def test_encrypt_prediction(self, measurements):
        pairing_cost, g1_cost, gt_cost, encrypt_time, _ = measurements
        predicted = encrypt_ops_ours(SHAPE).weighted(
            pairing_cost, g1_cost, gt_cost
        )
        ratio = encrypt_time / predicted
        assert 1 / TOLERANCE < ratio < TOLERANCE, (
            f"encrypt {encrypt_time * 1000:.1f} ms vs predicted "
            f"{predicted * 1000:.1f} ms"
        )

    def test_pairings_dominate_decryption(self, measurements):
        pairing_cost, g1_cost, gt_cost, _, _ = measurements
        ops = decrypt_ops_ours(SHAPE)
        pairing_share = ops.pairings * pairing_cost
        total = ops.weighted(pairing_cost, g1_cost, gt_cost)
        assert pairing_share / total > 0.8
