"""The operation-count models must match what the implementation does.

These tests are the bridge between the Figure 3/4 claims and the code:
``repro.analysis.costmodel`` predicts pairing/exponentiation counts per
algorithm; the :class:`OperationCounter` on the pairing group records
the real ones. If an implementation change silently alters the cost
profile, these tests fail before the benchmarks drift.
"""

import pytest

from repro.analysis.costmodel import (
    SystemShape,
    decrypt_ops_lewko,
    decrypt_ops_ours,
    encrypt_ops_lewko,
    encrypt_ops_ours,
)
from repro.analysis.timing import build_lewko, build_ours
from repro.ec.params import TOY80

SHAPES = [
    (1, 2),
    (2, 2),
    (3, 4),
]


def _shape(n_authorities, attrs):
    return SystemShape(
        n_authorities=n_authorities,
        attrs_per_authority=attrs,
        user_attrs_per_authority=attrs,
        policy_rows=n_authorities * attrs,
    )


class TestOursCounts:
    @pytest.mark.parametrize("n_authorities,attrs", SHAPES)
    def test_encrypt(self, n_authorities, attrs):
        workload = build_ours(TOY80, n_authorities, attrs, seed=3)
        counter = workload.group.counter
        counter.reset()
        workload.encrypt()
        model = encrypt_ops_ours(_shape(n_authorities, attrs))
        assert counter.pairings == model.pairings
        assert counter.g1_exponentiations == model.g1_exponentiations
        assert counter.gt_exponentiations == model.gt_exponentiations

    @pytest.mark.parametrize("n_authorities,attrs", SHAPES)
    def test_decrypt(self, n_authorities, attrs):
        workload = build_ours(TOY80, n_authorities, attrs, seed=3)
        ciphertext = workload.encrypt()
        counter = workload.group.counter
        counter.reset()
        workload.decrypt(ciphertext)
        model = decrypt_ops_ours(_shape(n_authorities, attrs))
        assert counter.pairings == model.pairings
        assert counter.gt_exponentiations == model.gt_exponentiations
        assert counter.g1_exponentiations == model.g1_exponentiations


class TestLewkoCounts:
    @pytest.mark.parametrize("n_authorities,attrs", SHAPES)
    def test_encrypt(self, n_authorities, attrs):
        workload = build_lewko(TOY80, n_authorities, attrs, seed=3)
        counter = workload.group.counter
        counter.reset()
        workload.encrypt()
        model = encrypt_ops_lewko(_shape(n_authorities, attrs))
        assert counter.pairings == model.pairings
        assert counter.g1_exponentiations == model.g1_exponentiations
        assert counter.gt_exponentiations == model.gt_exponentiations

    @pytest.mark.parametrize("n_authorities,attrs", SHAPES)
    def test_decrypt(self, n_authorities, attrs):
        workload = build_lewko(TOY80, n_authorities, attrs, seed=3)
        ciphertext = workload.encrypt()
        counter = workload.group.counter
        counter.reset()
        workload.decrypt(ciphertext)
        model = decrypt_ops_lewko(_shape(n_authorities, attrs))
        assert counter.pairings == model.pairings
        assert counter.gt_exponentiations == model.gt_exponentiations


class TestSessionDecrypt:
    def test_one_shot_session_two_pairings_at_every_shape(self):
        from repro.fastpath import DecryptionSession

        for n_authorities, attrs in SHAPES:
            workload = build_ours(TOY80, n_authorities, attrs, seed=4)
            ciphertext = workload.encrypt()
            counter = workload.group.counter
            counter.reset()
            DecryptionSession(
                workload.group, ciphertext, workload.user_public_key,
                workload.secret_keys,
            ).decrypt(ciphertext)
            assert counter.pairings == 2
            # Pays per-row G exponentiations instead: the combined key
            # at setup, the combined ciphertext row per decryption.
            rows = n_authorities * attrs
            assert counter.g1_exponentiations == 2 * rows


class TestCounterApi:
    def test_snapshot_and_repr(self, group):
        group.counter.reset()
        group.pair(group.g, group.g)
        _ = group.g ** 5
        snap = group.counter.snapshot()
        assert snap["pairings"] == 1
        assert snap["g1_exponentiations"] == 1
        assert "pair=1" in repr(group.counter)
        group.counter.reset()
        assert group.counter.pairings == 0
