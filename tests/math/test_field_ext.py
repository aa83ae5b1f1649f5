"""Tests for the quadratic extension F_p²."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ec.params import SS512, TOY80
from repro.errors import MathError
from repro.math.field import PrimeField
from repro.math.field_ext import QuadraticExtension

P = 0x82AB3A7FE43647067E8563A38CC0A04EC6E335B7  # ≡ 3 (mod 4)
BASE = PrimeField(P, check_prime=False)
EXT = QuadraticExtension(BASE)

coords = st.integers(0, P - 1)
elements = st.tuples(coords, coords)
nonzero = elements.filter(lambda x: x != (0, 0))


class TestConstruction:
    def test_requires_3_mod_4(self):
        with pytest.raises(MathError):
            QuadraticExtension(PrimeField(13))  # 13 ≡ 1 (mod 4)

    def test_i_squared_is_minus_one(self):
        i = (0, 1)
        assert EXT.square(i) == (P - 1, 0)


class TestFieldAxioms:
    @given(elements, elements, elements)
    def test_mul_associative(self, x, y, z):
        assert EXT.mul(EXT.mul(x, y), z) == EXT.mul(x, EXT.mul(y, z))

    @given(elements, elements)
    def test_mul_commutative(self, x, y):
        assert EXT.mul(x, y) == EXT.mul(y, x)

    @given(elements, elements, elements)
    def test_distributive(self, x, y, z):
        assert EXT.mul(x, EXT.add(y, z)) == EXT.add(EXT.mul(x, y), EXT.mul(x, z))

    @given(elements)
    def test_additive_inverse(self, x):
        assert EXT.add(x, EXT.neg(x)) == EXT.zero

    @given(nonzero)
    def test_multiplicative_inverse(self, x):
        assert EXT.mul(x, EXT.inv(x)) == EXT.one

    @given(elements)
    def test_square_matches_mul(self, x):
        assert EXT.square(x) == EXT.mul(x, x)

    @given(nonzero, nonzero)
    def test_div_roundtrip(self, x, y):
        assert EXT.mul(EXT.div(x, y), y) == x

    def test_zero_not_invertible(self):
        with pytest.raises(MathError):
            EXT.inv(EXT.zero)


class TestStructure:
    @given(elements, elements)
    def test_norm_multiplicative(self, x, y):
        assert EXT.norm(EXT.mul(x, y)) == BASE.mul(EXT.norm(x), EXT.norm(y))

    @given(elements)
    def test_conjugate_involution(self, x):
        assert EXT.conjugate(EXT.conjugate(x)) == x

    @given(elements)
    def test_frobenius_is_pth_power(self, x):
        assert EXT.frobenius(x) == EXT.pow(x, P)

    @given(elements)
    def test_conjugate_times_self_is_norm(self, x):
        assert EXT.mul(x, EXT.conjugate(x)) == EXT.embed(EXT.norm(x))

    @given(nonzero, st.integers(-50, 200))
    def test_pow_homomorphism(self, x, e):
        assert EXT.pow(x, e + 1) == EXT.mul(EXT.pow(x, e), x)

    @given(st.integers(0, P - 1))
    def test_embed_is_homomorphic(self, a):
        b = (a * a + 5) % P
        assert EXT.mul(EXT.embed(a), EXT.embed(b)) == EXT.embed(BASE.mul(a, b))


def _norm_one(ext, x):
    """``x^(p-1) = conj(x)/x``: a norm-1 value, order-r or not."""
    return ext.div(ext.conjugate(x), x)


class TestUnitaryPow:
    """The trace ladder against the generic power on norm-1 values."""

    @given(nonzero, st.integers(-(1 << 200), 1 << 200))
    def test_matches_pow_on_any_norm_one_value(self, x, e):
        unit = _norm_one(EXT, x)
        assert EXT.unitary_pow(unit, e) == EXT.pow(unit, e)

    @pytest.mark.parametrize("params", [TOY80, SS512], ids=lambda p: p.name)
    def test_matches_pow_on_gt_values(self, params):
        ext = QuadraticExtension(PrimeField(params.p, check_prime=False))
        r, cofactor = params.r, (params.p + 1) // params.r
        rng = random.Random(27)
        exponents = [0, 1, -1, r - 1, r, rng.getrandbits(160), cofactor]
        for _ in range(3):
            value = ext.pow(_norm_one(ext, ext.random(rng)), cofactor)
            assert ext.is_one(ext.pow(value, r))  # an order-r GT value
            for e in exponents:
                assert ext.unitary_pow(value, e) == ext.pow(value, e)

    @pytest.mark.parametrize("e", [0, 1, 2, 3, -1, -2, (1 << 160) + 1])
    def test_plus_and_minus_one(self, e):
        for x in (EXT.one, (P - 1, 0)):
            assert EXT.unitary_pow(x, e) == EXT.pow(x, e)


class TestCodec:
    @given(elements)
    def test_bytes_roundtrip(self, x):
        data = EXT.to_bytes(x)
        assert len(data) == 2 * BASE.byte_length
        assert EXT.from_bytes(data) == x

    def test_wrong_length_raises(self):
        with pytest.raises(MathError):
            EXT.from_bytes(b"\x00")

    def test_random_in_range(self):
        rng = random.Random(9)
        a, b = EXT.random(rng)
        assert 0 <= a < P and 0 <= b < P
