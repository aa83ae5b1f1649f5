"""Tests for the scalar-multiplication fast paths (wNAF, multiexp, tables).

Everything here cross-checks the optimized code against the naive group
law on TOY80: same points in, bit-identical affine points out.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ec.curve import INFINITY, SupersingularCurve
from repro.ec.fixed_base import FixedBaseTable
from repro.ec.params import TOY80
from repro.math.field import PrimeField

FIELD = PrimeField(TOY80.p, check_prime=False)
CURVE = SupersingularCurve(FIELD)
G = TOY80.generator
R = TOY80.r

scalars = st.integers(1, R - 1)


def naive_mul(point, k):
    """Textbook double-and-add, the oracle for the wNAF path."""
    if point is INFINITY or k % R == 0:
        return INFINITY
    k %= R
    result = INFINITY
    addend = point
    while k:
        if k & 1:
            result = CURVE.add(result, addend)
        addend = CURVE.double(addend)
        k >>= 1
    return result


class TestWnafMul:
    @given(scalars)
    def test_matches_naive(self, k):
        assert CURVE.mul(G, k) == naive_mul(G, k)

    @given(scalars)
    def test_negative_scalar(self, k):
        assert CURVE.mul(G, -k) == CURVE.neg(CURVE.mul(G, k))

    def test_zero_and_infinity(self):
        assert CURVE.mul(G, 0) is INFINITY
        assert CURVE.mul(INFINITY, 12345) is INFINITY

    def test_two_torsion_point(self):
        # (0, 0) is on y² = x³ + x and has order 2: k·P depends only on
        # the parity of k. These points have y == 0, which the Jacobian
        # doubling formulas cannot represent — the affine branch must
        # catch them.
        torsion = (0, 0)
        assert CURVE.is_on_curve(torsion)
        assert CURVE.mul(torsion, 2) is INFINITY
        assert CURVE.mul(torsion, 3) == torsion
        assert CURVE.mul(torsion, -5) == torsion

    @given(st.integers(1, 15))
    def test_small_scalars(self, k):
        # Exercises the plain double-and-add branch below the wNAF cutoff.
        assert CURVE.mul(G, k) == naive_mul(G, k)

    def test_huge_unreduced_scalar(self):
        k = R * 17 + 5
        assert CURVE.mul(G, k) == CURVE.mul(G, 5)


class TestMultiMul:
    @settings(max_examples=25)
    @given(st.lists(scalars, min_size=1, max_size=6))
    def test_matches_sum_of_muls(self, ks):
        points = [CURVE.mul(G, 3 * i + 1) for i in range(len(ks))]
        expected = INFINITY
        for point, k in zip(points, ks):
            expected = CURVE.add(expected, naive_mul(point, k))
        assert CURVE.multi_mul(list(zip(points, ks))) == expected

    def test_pippenger_threshold(self):
        # 40 points forces the bucket path (threshold is 32).
        rng = random.Random(99)
        pairs = [
            (CURVE.mul(G, rng.randrange(1, R)), rng.randrange(1, R))
            for _ in range(40)
        ]
        expected = INFINITY
        for point, k in pairs:
            expected = CURVE.add(expected, naive_mul(point, k))
        assert CURVE.multi_mul(pairs) == expected

    def test_negative_and_zero_scalars(self):
        p2, p3 = CURVE.mul(G, 2), CURVE.mul(G, 3)
        expected = CURVE.add(naive_mul(G, 7), CURVE.neg(naive_mul(p2, 5)))
        assert CURVE.multi_mul([(G, 7), (p2, -5), (p3, 0)]) == expected

    def test_infinity_entries_and_empty(self):
        assert CURVE.multi_mul([]) is INFINITY
        assert CURVE.multi_mul([(INFINITY, 5)]) is INFINITY
        assert CURVE.multi_mul([(INFINITY, 5), (G, 2)]) == naive_mul(G, 2)

    def test_two_torsion_entry(self):
        torsion = (0, 0)
        expected = CURVE.add(naive_mul(G, 4), torsion)
        assert CURVE.multi_mul([(G, 4), (torsion, 3)]) == expected

    @settings(max_examples=40)
    @given(st.lists(st.integers(-15, 15), min_size=1, max_size=6))
    def test_tiny_scalars_match_general_path(self, ks):
        # Scalars of at most 4 bits take the plain double-and-add chain;
        # repeated points, a point and its negation, and infinity mix in.
        pool = [G, G, CURVE.neg(G), CURVE.mul(G, 5), INFINITY, (0, 0)]
        pairs = list(zip(pool, ks))
        expected = INFINITY
        for point, k in pairs:  # |k| repeated additions: no order assumed
            for _ in range(abs(k)):
                expected = CURVE.add(
                    expected, point if k > 0 else CURVE.neg(point))
        assert CURVE.multi_mul(pairs) == expected
        # A 5-bit scalar sends the same batch down the wNAF path.
        assert CURVE.multi_mul(pairs + [(G, 16)]) == CURVE.add(
            expected, naive_mul(G, 16))


class TestBatchNormalize:
    def test_roundtrip(self):
        jacobians = []
        for k in range(1, 8):
            x, y = CURVE.mul(G, k)
            z = (k * 7 + 1) % TOY80.p
            zz = z * z % TOY80.p
            jacobians.append((x * zz % TOY80.p, y * zz * z % TOY80.p, z))
        jacobians.append((1, 1, 0))  # the point at infinity
        normalized = CURVE.batch_normalize(jacobians)
        assert normalized[:-1] == [CURVE.mul(G, k) for k in range(1, 8)]
        assert normalized[-1] is INFINITY


class TestFixedBaseTable:
    TABLE = FixedBaseTable(CURVE, G, R)

    @given(scalars)
    def test_matches_mul(self, k):
        assert self.TABLE.multiply(k) == CURVE.mul(G, k)

    @given(scalars)
    def test_negative(self, k):
        assert self.TABLE.multiply(-k) == CURVE.neg(CURVE.mul(G, k))

    def test_zero(self):
        assert self.TABLE.multiply(0) is INFINITY

    def test_unreduced_scalar_fallback(self):
        # Scalars wider than the table's digit levels take the fallback
        # branch that multiplies the remaining high part separately.
        wide = (R << 64) + 12345
        assert self.TABLE.multiply(wide) == CURVE.mul(G, wide % R)
