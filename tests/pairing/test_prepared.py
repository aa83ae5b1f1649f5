"""Tests for the pairing precomputation layer.

Covers the inversion-free Miller loop against the affine oracle,
:class:`PreparedPairing` line-coefficient replay, the GT fixed-base
table, and the group facade's `multiexp_g1` / `pair_prod` /
`prepare_pairing` wiring — all on TOY80, all checked for bit-identical
reduced values.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ec.curve import INFINITY, SupersingularCurve
from repro.ec.params import TOY80
from repro.math.field import PrimeField
from repro.math.field_ext import QuadraticExtension
from repro.pairing.gt_table import GTFixedBaseTable
from repro.pairing.miller import (
    final_exponentiation,
    miller_loop,
    miller_loop_affine,
)
from repro.pairing.prepared import PreparedPairing
from repro.pairing.group import PairingGroup
from repro.pairing.tate import tate_pairing

FIELD = PrimeField(TOY80.p, check_prime=False)
CURVE = SupersingularCurve(FIELD)
EXT = QuadraticExtension(FIELD)
G = TOY80.generator
R = TOY80.r

scalars = st.integers(1, R - 1)


def reduced(value):
    return final_exponentiation(EXT, value, R)


class TestProjectiveMiller:
    @given(scalars, scalars)
    @settings(max_examples=30)
    def test_matches_affine_after_reduction(self, a, b):
        # The projective loop's raw value differs from the affine one by
        # a factor in F_p^*; the final exponentiation must erase it.
        pa, pb = CURVE.mul(G, a), CURVE.mul(G, b)
        fast = miller_loop(CURVE, EXT, pa, pb, R)
        affine = miller_loop_affine(CURVE, EXT, pa, pb, R)
        assert reduced(fast) == reduced(affine)


class TestPreparedPairing:
    @given(scalars, scalars)
    @settings(max_examples=30)
    def test_matches_tate_pairing(self, a, b):
        pa, pb = CURVE.mul(G, a), CURVE.mul(G, b)
        prepared = PreparedPairing(CURVE, EXT, pa, R)
        assert prepared.pair(pb) == tate_pairing(CURVE, EXT, pa, pb, R)

    def test_replay_against_many_arguments(self):
        prepared = PreparedPairing(CURVE, EXT, G, R)
        for k in (1, 2, 17, R - 1):
            q = CURVE.mul(G, k)
            assert prepared.pair(q) == tate_pairing(CURVE, EXT, G, q, R)

    def test_infinity_arguments(self):
        prepared = PreparedPairing(CURVE, EXT, INFINITY, R)
        assert prepared.steps == []
        assert prepared.pair(G) == EXT.one
        assert PreparedPairing(CURVE, EXT, G, R).pair(INFINITY) == EXT.one


class TestJointReplay:
    """``miller(q, (other, q2))`` is the raw product, before reduction."""

    @given(scalars, scalars, scalars, scalars)
    @settings(max_examples=15)
    def test_equals_product_of_separate_replays(self, a, b, c, d):
        first = PreparedPairing(CURVE, EXT, CURVE.mul(G, a), R)
        second = PreparedPairing(CURVE, EXT, CURVE.mul(G, b), R)
        q1, q2 = CURVE.mul(G, c), CURVE.mul(G, d)
        assert len(first.steps) == len(second.steps)
        assert first.miller(q1, (second, q2)) == EXT.mul(
            first.miller(q1), second.miller(q2)
        )

    def test_a_trivial_leg_drops_out(self):
        prepared = PreparedPairing(CURVE, EXT, G, R)
        at_infinity = PreparedPairing(CURVE, EXT, INFINITY, R)
        q = CURVE.mul(G, 5)
        alone = prepared.miller(q)
        assert prepared.miller(q, (at_infinity, q)) == alone
        assert prepared.miller(q, (prepared, INFINITY)) == alone
        assert at_infinity.miller(q, (prepared, q)) == alone
        assert prepared.miller(INFINITY, (at_infinity, q)) == EXT.one

    def test_three_legs_multiply(self):
        legs = [PreparedPairing(CURVE, EXT, CURVE.mul(G, k), R)
                for k in (2, 3, 4)]
        qs = [CURVE.mul(G, k) for k in (5, 6, 7)]
        expected = EXT.one
        for leg, q in zip(legs, qs):
            expected = EXT.mul(expected, leg.miller(q))
        assert legs[0].miller(qs[0], *zip(legs[1:], qs[1:])) == expected


class TestGTFixedBaseTable:
    BASE = tate_pairing(CURVE, EXT, G, G, R)
    TABLE = GTFixedBaseTable(EXT, BASE, R)

    @given(scalars)
    @settings(max_examples=30)
    def test_matches_ext_pow(self, e):
        assert self.TABLE.pow(e) == EXT.pow(self.BASE, e)

    def test_zero_and_negative(self):
        assert self.TABLE.pow(0) == EXT.one
        assert self.TABLE.pow(-3) == EXT.inv(EXT.pow(self.BASE, 3))

    def test_unreduced_exponent_fallback(self):
        wide = (R << 64) + 7
        assert self.TABLE.pow(wide) == EXT.pow(self.BASE, wide % R)


class TestGroupFacadeFastPaths:
    def test_multiexp_matches_iterated_pow(self):
        group = PairingGroup(TOY80, seed=3)
        elements = [group.random_g1() for _ in range(5)]
        exponents = [group.random_scalar() for _ in range(5)]
        expected = group.identity_g1()
        for element, exponent in zip(elements, exponents):
            expected = expected * (element ** exponent)
        assert group.multiexp_g1(elements, exponents) == expected

    def test_multiexp_counts_one_exp_per_element(self):
        group = PairingGroup(TOY80, seed=3)
        elements = [group.random_g1() for _ in range(4)]
        group.counter.reset()
        group.multiexp_g1(elements, [1, 2, 3, 4])
        assert group.counter.g1_exponentiations == 4

    def test_multiexp_with_registered_base(self):
        group = PairingGroup(TOY80, seed=4)
        base = group.random_g1()
        group.register_g1_base(base)
        other = group.random_g1()
        expected = (base ** 11) * (other ** 13)
        assert group.multiexp_g1([base, other], [11, 13]) == expected

    def test_prepared_pair_matches_unprepared(self):
        fresh = PairingGroup(TOY80, seed=5)
        warmed = PairingGroup(TOY80, seed=5)
        a, b = fresh.random_g1(), fresh.random_g1()
        a2, b2 = warmed.random_g1(), warmed.random_g1()
        warmed.prepare_pairing(a2)
        assert warmed.pair(a2, b2) == fresh.pair(a, b)
        # Symmetric lookup: the prepared element on the right-hand side.
        assert warmed.pair(b2, a2) == fresh.pair(b, a)

    def test_pair_prod_with_prepared_arguments(self):
        group = PairingGroup(TOY80, seed=6)
        a, b, c = (group.random_g1() for _ in range(3))
        expected = group.pair(a, b) * group.pair(a, c)
        group.prepare_pairing(a)
        assert group.pair_prod([(a, b), (a, c)]) == expected

    def test_registered_gt_base_pow(self):
        group = PairingGroup(TOY80, seed=7)
        value = group.random_gt()
        plain = value ** 98765
        group.register_gt_base(value)
        assert (value ** 98765) == plain
