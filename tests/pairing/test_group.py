"""Tests for the PairingGroup facade and element wrappers."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ec.curve import INFINITY
from repro.ec.params import SS512, TOY80
from repro.errors import MathError
from repro.pairing.group import PairingGroup

scalars = st.integers(1, TOY80.r - 1)


class TestG1Element:
    @given(scalars, scalars)
    def test_mul_is_group_op(self, group, a, b):
        assert (group.g ** a) * (group.g ** b) == group.g ** (a + b)

    @given(scalars)
    def test_inverse(self, group, a):
        element = group.g ** a
        assert (element * element.inverse()).is_identity()

    @given(scalars)
    def test_div(self, group, a):
        element = group.g ** a
        assert (element / element).is_identity()

    def test_identity(self, group):
        assert group.identity_g1().is_identity()
        assert (group.g ** group.order).is_identity()

    @given(scalars)
    def test_pow_reduces_mod_order(self, group, a):
        assert group.g ** a == group.g ** (a + group.order)


class TestGTElement:
    @given(scalars, scalars)
    def test_mul_pow(self, group, a, b):
        assert (group.gt ** a) * (group.gt ** b) == group.gt ** (a + b)

    @given(scalars)
    def test_inverse_div(self, group, a):
        element = group.gt ** a
        assert (element * element.inverse()).is_identity()
        assert (element / element).is_identity()

    def test_gt_generator_cached(self, group):
        assert group.gt is group.gt  # computed once


class TestPairing:
    @given(scalars, scalars)
    def test_bilinear_through_wrappers(self, group, a, b):
        assert group.pair(group.g ** a, group.g ** b) == group.gt ** (a * b)

    def test_pair_prod(self, group):
        x, y = group.random_g1(), group.random_g1()
        assert group.pair_prod([(x, group.g), (y, group.g)]) == group.pair(
            x, group.g
        ) * group.pair(y, group.g)

    def test_pair_identity(self, group):
        assert group.pair(group.identity_g1(), group.g).is_identity()


class TestHashing:
    def test_hash_to_scalar_deterministic(self, group):
        assert group.hash_to_scalar("abc") == group.hash_to_scalar("abc")

    def test_hash_to_scalar_distinct(self, group):
        assert group.hash_to_scalar("abc") != group.hash_to_scalar("abd")

    def test_hash_injective_framing(self, group):
        # ("ab", "c") and ("a", "bc") must hash differently.
        assert group.hash_to_scalar("ab", "c") != group.hash_to_scalar("a", "bc")

    def test_hash_domain_separation(self, group):
        assert group.hash_to_scalar("x") != group.hash_to_scalar(
            "x", domain=b"other"
        )

    def test_hash_accepts_int_and_bytes(self, group):
        value = group.hash_to_scalar(123, b"raw", "text")
        assert 0 <= value < group.order

    def test_hash_rejects_unknown_type(self, group):
        with pytest.raises(MathError):
            group.hash_to_scalar(1.5)

    def test_hash_to_g1_in_subgroup(self, group):
        point = group.hash_to_g1("gid-42")
        assert not point.is_identity()
        assert (point ** group.order).is_identity()

    def test_hash_to_g1_deterministic_and_distinct(self, group):
        assert group.hash_to_g1("alice") == group.hash_to_g1("alice")
        assert group.hash_to_g1("alice") != group.hash_to_g1("bob")

    def test_hash_accepts_negative_int(self, group):
        # Negative ints previously crashed int.to_bytes with OverflowError.
        value = group.hash_to_scalar(-42)
        assert 0 <= value < group.order
        assert value == group.hash_to_scalar(-42)

    def test_hash_sign_distinguishes(self, group):
        # The sign prefix must keep the encoding injective: -n, n and the
        # byte string that n alone absorbs as must all hash apart.
        assert group.hash_to_scalar(-42) != group.hash_to_scalar(42)
        magnitude = (42).to_bytes(2, "big")
        assert group.hash_to_scalar(-42) != group.hash_to_scalar(
            b"\x01" + b"\x00" + magnitude
        )

    def test_hash_to_g1_memoized_identical_object(self, group):
        first = group.hash_to_g1("memo-check")
        second = group.hash_to_g1("memo-check")
        assert first.point is second.point


class TestSerialization:
    @given(scalars)
    def test_g1_roundtrip(self, group, a):
        element = group.g ** a
        data = group.encode_g1(element)
        assert len(data) == group.g1_bytes
        assert group.decode_g1(data) == element

    def test_g1_identity_roundtrip(self, group):
        data = group.encode_g1(group.identity_g1())
        assert group.decode_g1(data).is_identity()

    def test_g1_rejects_bad_tag(self, group):
        data = b"\x07" + b"\x00" * (group.g1_bytes - 1)
        with pytest.raises(MathError):
            group.decode_g1(data)

    def test_g1_rejects_wrong_length(self, group):
        with pytest.raises(MathError):
            group.decode_g1(b"\x02\x01")

    def test_g1_rejects_non_curve_x(self, group):
        # Find an x that is not on the curve and encode it.
        for x in range(2, 300):
            if group.curve.lift_x(x) is None:
                data = bytes([2]) + group.field.to_bytes(x)
                with pytest.raises(MathError):
                    group.decode_g1(data)
                return
        pytest.fail("no non-curve x found in range")  # pragma: no cover

    def test_g1_rejects_malformed_identity(self, group):
        data = b"\x00" + b"\x01" * (group.g1_bytes - 1)
        with pytest.raises(MathError):
            group.decode_g1(data)

    def test_g1_accepts_subgroup_points(self, group):
        # Valid order-r points (including hash outputs) must round-trip.
        element = group.hash_to_g1("subgroup-ok")
        assert group.decode_g1(group.encode_g1(element)) == element

    def test_g1_rejects_out_of_subgroup_point(self, group):
        # Find a curve point outside the order-r subgroup: the curve has
        # p + 1 = h·r points, so a random lift lands outside the subgroup
        # with overwhelming probability. Encode it directly.
        for x in range(2, 500):
            point = group.curve.lift_x(x)
            if point is None:
                continue
            if group.curve.mul(point, group.order) is INFINITY:
                continue  # genuinely in the subgroup; keep looking
            data = bytes([2 + (point[1] & 1)]) + group.field.to_bytes(x)
            with pytest.raises(MathError):
                group.decode_g1(data)
            return
        pytest.fail("no out-of-subgroup x found in range")  # pragma: no cover

    @given(scalars)
    def test_gt_roundtrip(self, group, a):
        element = group.gt ** a
        data = group.encode_gt(element)
        assert len(data) == group.gt_bytes
        assert group.decode_gt(data) == element

    @given(st.integers(0, TOY80.r - 1))
    def test_scalar_roundtrip(self, group, a):
        data = group.encode_scalar(a)
        assert len(data) == group.scalar_bytes
        assert group.decode_scalar(data) == a

    def test_scalar_rejects_wrong_length(self, group):
        with pytest.raises(MathError):
            group.decode_scalar(b"\x00")


class TestSampling:
    def test_random_scalar_range(self, group):
        for _ in range(50):
            assert 1 <= group.random_scalar() < group.order

    def test_seeded_reproducibility(self):
        a = PairingGroup(TOY80, seed=99)
        b = PairingGroup(TOY80, seed=99)
        assert [a.random_scalar() for _ in range(5)] == [
            b.random_scalar() for _ in range(5)
        ]

    def test_random_gt_in_group(self, group):
        assert (group.random_gt() ** group.order).is_identity()


class TestSS512Smoke:
    """One bilinearity check on the paper-scale preset."""

    def test_bilinearity(self):
        group = PairingGroup(SS512, seed=1)
        a, b = group.random_scalar(), group.random_scalar()
        assert group.pair(group.g ** a, group.g ** b) == group.gt ** (a * b)


class TestGtDecodingValidation:
    """decode_gt mirrors decode_g1: length, zero, and subgroup checks."""

    def test_wrong_length_rejected(self, group):
        for n in (0, 1, group.gt_bytes - 1, group.gt_bytes + 1):
            with pytest.raises(MathError, match="length"):
                group.decode_gt(b"\x00" * n)

    def test_zero_rejected(self, group):
        with pytest.raises(MathError, match="0 is not"):
            group.decode_gt(b"\x00" * group.gt_bytes)

    def test_out_of_subgroup_rejected(self, group):
        half = group.gt_bytes // 2
        # (2, 3) is a unit of F_p² but (for these parameters) not in the
        # order-r subgroup — the guard below keeps the test honest.
        data = (2).to_bytes(half, "big") + (3).to_bytes(half, "big")
        value = group.ext.from_bytes(data)
        assert not group.ext.is_one(group.ext.pow(value, group.order))
        with pytest.raises(MathError, match="subgroup"):
            group.decode_gt(data)

    def test_norm_not_one_rejected(self, group):
        value = (5, 7)  # norm 74: a unit, but off the norm-1 circle
        assert group.ext.norm(value) != 1
        with pytest.raises(MathError, match="subgroup"):
            group.decode_gt(group.ext.to_bytes(value))

    def test_norm_one_outside_subgroup_rejected(self, group):
        # conj(v)/v has norm 1 for every unit v, but its order divides
        # p + 1 = h·r; one whose r-th power is not 1 lies outside GT.
        ext = group.ext
        rng = random.Random(11)
        while True:
            v = ext.random(rng)
            if ext.is_zero(v):
                continue
            value = ext.div(ext.conjugate(v), v)
            if not ext.is_one(ext.pow(value, group.order)):
                break
        assert ext.norm(value) == 1
        with pytest.raises(MathError, match="subgroup"):
            group.decode_gt(ext.to_bytes(value))

    def test_minus_one_rejected(self, group):
        # -1 has norm 1 and order 2.
        with pytest.raises(MathError, match="subgroup"):
            group.decode_gt(group.ext.to_bytes((group.params.p - 1, 0)))

    def test_identity_is_accepted(self, group):
        identity = group.gt ** group.order
        assert group.decode_gt(identity.to_bytes()).is_identity()

    def test_valid_elements_still_roundtrip(self, group):
        element = group.random_gt()
        assert group.decode_gt(element.to_bytes()) == element
