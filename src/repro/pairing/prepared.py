"""Prepared pairings: cache the Miller chain of a fixed first argument.

Every step of the Miller loop is a line through points of the chain
``P, 2P, 3P, ...`` — a function of the *first* argument only. Decryption
evaluates many pairings whose first argument repeats (``e(C', ·)`` once
per authority and per row; ``e(·, PK_UID)`` once per row, flipped via
symmetry), so computing those lines once and replaying them against each
second argument removes ~2/3 of the per-pairing work.

A :class:`PreparedPairing` stores the coefficient triples from
:func:`repro.pairing.miller.line_coefficients` (~``1.5·bits`` triples of
F_p elements; ~45 KB for SS512) and evaluates pairings against arbitrary
second arguments. Reduced results are bit-identical to
:func:`repro.pairing.tate.tate_pairing`.
"""

from __future__ import annotations

from repro.ec.curve import INFINITY, SupersingularCurve
from repro.math.field_ext import QuadraticExtension
from repro.pairing.miller import (
    evaluate_line_steps,
    evaluate_line_steps_many,
    evaluate_line_steps_pair,
    final_exponentiation,
    final_exponentiation_many,
    line_coefficients,
)


class PreparedPairing:
    """Cached Miller-loop line coefficients of one fixed first argument."""

    __slots__ = ("curve", "ext", "point", "order", "steps")

    def __init__(self, curve: SupersingularCurve, ext: QuadraticExtension,
                 point: tuple, order: int):
        self.curve = curve
        self.ext = ext
        self.point = point
        self.order = order
        self.steps = (
            [] if point is INFINITY else line_coefficients(curve, point, order)
        )

    def miller(self, q_point: tuple, *legs) -> tuple:
        """Raw (unreduced) Miller value f_{r,P}(φ(Q)) as an F_p² element.

        Each extra ``(prepared, q_point)`` leg multiplies its own raw
        value in. Two non-trivial legs of equal chain length share one
        step schedule, so they replay jointly
        (:func:`~repro.pairing.miller.evaluate_line_steps_pair`); the
        product is the same F_p² value either way. Feed this into a
        shared final exponentiation when accumulating a product of
        pairings.
        """
        live = [
            (prepared.steps, point) for prepared, point
            in ((self, q_point), *legs)
            if prepared.steps and point is not INFINITY
        ]
        if len(live) == 2 and len(live[0][0]) == len(live[1][0]):
            return evaluate_line_steps_pair(self.ext, *live[0], *live[1])
        raw = self.ext.one
        for steps, point in live:
            raw = self.ext.mul(raw, evaluate_line_steps(self.ext, steps, point))
        return raw

    def pair(self, q_point: tuple) -> tuple:
        """The reduced Tate pairing e(P, Q); bit-identical to the unprepared
        computation."""
        if self.point is INFINITY or q_point is INFINITY:
            return self.ext.one
        return final_exponentiation(self.ext, self.miller(q_point), self.order)

    def pair_many(self, q_points) -> list:
        """``[e(P, Q) for Q in q_points]`` with batched final exponentiation.

        The Miller replays run per point; the final exponentiations share
        one modular inversion via
        :func:`repro.pairing.miller.final_exponentiation_many`. Each
        entry is bit-identical to :meth:`pair` of the same point — this
        is what makes batch ReEncrypt byte-for-byte equal to the
        sequential path.
        """
        q_points = list(q_points)
        if self.point is INFINITY:
            return [self.ext.one for _ in q_points]
        results = [self.ext.one] * len(q_points)
        slots = [index for index, q_point in enumerate(q_points)
                 if q_point is not INFINITY]
        # Step-outer batched replay: one pass over the cached steps
        # covers every second argument (same values as per-point
        # miller(), cheaper loop bookkeeping).
        raws = evaluate_line_steps_many(
            self.ext, self.steps, [q_points[index] for index in slots]
        )
        for index, reduced in zip(
            slots, final_exponentiation_many(self.ext, raws, self.order)
        ):
            results[index] = reduced
        return results

    def __repr__(self) -> str:
        return (
            f"PreparedPairing({len(self.steps)} line steps, "
            f"r~2^{self.order.bit_length()})"
        )
