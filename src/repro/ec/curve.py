"""Supersingular elliptic curve y² = x³ + x over F_p with p ≡ 3 (mod 4).

This is the curve family behind PBC's "type A" pairing parameters used by
the paper's evaluation. For p ≡ 3 (mod 4) the curve is supersingular with
exactly ``p + 1`` points over F_p, its embedding degree is 2, and the
distortion map ``(x, y) ↦ (-x, i·y)`` (with i² = -1 in F_p²) turns the
Weil/Tate pairing into a *symmetric* pairing on the order-r subgroup.

Points are affine tuples ``(x, y)`` of ints; the point at infinity is
``None``. The curve object is a context providing the group law.
"""

from __future__ import annotations

import random

from repro.errors import MathError, ParameterError
from repro.math.field import PrimeField
from repro.math.integers import batch_invmod

Point = tuple  # (x, y) affine coordinates; None is the point at infinity
INFINITY = None

# Jacobian coordinates (X, Y, Z) represent the affine point (X/Z², Y/Z³);
# Z == 0 encodes the point at infinity (canonically (1, 1, 0)).
_JAC_INFINITY = (1, 1, 0)


def _jac_double(point, p):
    """Double a Jacobian point on y² = x³ + x (a = 1), inversion-free."""
    x, y, z = point
    if z == 0 or y == 0:
        return _JAC_INFINITY
    yy = y * y % p
    s = 4 * x * yy % p
    zz = z * z % p
    m = (3 * x * x + zz * zz) % p  # a = 1 contributes Z⁴
    nx = (m * m - 2 * s) % p
    ny = (m * (s - nx) - 8 * yy * yy) % p
    nz = 2 * y * z % p
    return (nx, ny, nz)


def _jac_add_affine(point, affine, p):
    """Mixed addition: Jacobian accumulator + affine point, inversion-free."""
    if affine is INFINITY:
        return point
    ax, ay = affine
    x, y, z = point
    if z == 0:
        return (ax, ay, 1)
    zz = z * z % p
    u2 = ax * zz % p
    s2 = ay * zz * z % p
    h = (u2 - x) % p
    r = (s2 - y) % p
    if h == 0:
        if r == 0:
            return _jac_double(point, p)
        return _JAC_INFINITY
    hh = h * h % p
    hhh = h * hh % p
    v = x * hh % p
    nx = (r * r - hhh - 2 * v) % p
    ny = (r * (v - nx) - y * hhh) % p
    nz = z * h % p
    return (nx, ny, nz)


def _jac_add(point1, point2, p):
    """Full Jacobian + Jacobian addition, inversion-free."""
    x1, y1, z1 = point1
    if z1 == 0:
        return point2
    x2, y2, z2 = point2
    if z2 == 0:
        return point1
    z1z1 = z1 * z1 % p
    z2z2 = z2 * z2 % p
    u1 = x1 * z2z2 % p
    u2 = x2 * z1z1 % p
    s1 = y1 * z2z2 * z2 % p
    s2 = y2 * z1z1 * z1 % p
    h = (u2 - u1) % p
    r = (s2 - s1) % p
    if h == 0:
        if r == 0:
            return _jac_double(point1, p)
        return _JAC_INFINITY
    hh = h * h % p
    hhh = h * hh % p
    v = u1 * hh % p
    nx = (r * r - hhh - 2 * v) % p
    ny = (r * (v - nx) - s1 * hhh) % p
    nz = z1 * z2 * h % p
    return (nx, ny, nz)


def _wnaf(scalar: int, width: int) -> list:
    """Width-``w`` non-adjacent form of a non-negative scalar.

    Returns little-endian digits, each zero or odd in
    ``(-2^(w-1), 2^(w-1))``; at most one in ``width`` digits is nonzero.
    """
    digits = []
    modulus = 1 << width
    half = 1 << (width - 1)
    while scalar:
        if scalar & 1:
            digit = scalar % modulus
            if digit >= half:
                digit -= modulus
            scalar -= digit
        else:
            digit = 0
        digits.append(digit)
        scalar >>= 1
    return digits


class SupersingularCurve:
    """The curve E: y² = x³ + x over F_p (coefficient a = 1, b = 0)."""

    __slots__ = ("field", "p")

    def __init__(self, field: PrimeField):
        if field.p % 4 != 3:
            raise ParameterError("type-A curves require p ≡ 3 (mod 4)")
        self.field = field
        self.p = field.p

    # -- membership ------------------------------------------------------------

    def is_on_curve(self, point) -> bool:
        """True iff the point satisfies y² = x³ + x (infinity included)."""
        if point is INFINITY:
            return True
        x, y = point
        p = self.p
        return (y * y - (x * x * x + x)) % p == 0

    def check(self, point) -> Point:
        """Validate a point, returning it; raises :class:`MathError` if invalid."""
        if not self.is_on_curve(point):
            raise MathError(f"point {point} is not on the curve")
        return point

    # -- group law ---------------------------------------------------------------

    def neg(self, point):
        if point is INFINITY:
            return INFINITY
        x, y = point
        return (x, -y % self.p)

    def add(self, point1, point2):
        """Affine chord-and-tangent addition."""
        if point1 is INFINITY:
            return point2
        if point2 is INFINITY:
            return point1
        p = self.p
        x1, y1 = point1
        x2, y2 = point2
        if x1 == x2:
            if (y1 + y2) % p == 0:
                return INFINITY
            return self.double(point1)
        slope = (y2 - y1) * pow(x2 - x1, -1, p) % p
        x3 = (slope * slope - x1 - x2) % p
        y3 = (slope * (x1 - x3) - y1) % p
        return (x3, y3)

    def double(self, point):
        if point is INFINITY:
            return INFINITY
        p = self.p
        x, y = point
        if y == 0:
            return INFINITY
        slope = (3 * x * x + 1) * pow(2 * y, -1, p) % p
        x3 = (slope * slope - 2 * x) % p
        y3 = (slope * (x - x3) - y) % p
        return (x3, y3)

    def sub(self, point1, point2):
        return self.add(point1, self.neg(point2))

    # -- coordinate conversion --------------------------------------------------

    def to_affine(self, jacobian):
        """Convert one Jacobian point to affine (single inversion)."""
        x, y, z = jacobian
        if z == 0:
            return INFINITY
        p = self.p
        z_inv = pow(z, -1, p)
        z_inv2 = z_inv * z_inv % p
        return (x * z_inv2 % p, y * z_inv2 * z_inv % p)

    def batch_normalize(self, jacobian_points) -> list:
        """Convert many Jacobian points to affine with ONE inversion.

        Montgomery batch inversion over the Z coordinates; points at
        infinity (Z == 0) come back as ``INFINITY``.
        """
        jacobian_points = list(jacobian_points)
        p = self.p
        finite = [(i, pt) for i, pt in enumerate(jacobian_points) if pt[2] != 0]
        result = [INFINITY] * len(jacobian_points)
        if not finite:
            return result
        inverses = batch_invmod([pt[2] for _, pt in finite], p)
        for (index, (x, y, _)), z_inv in zip(finite, inverses):
            z_inv2 = z_inv * z_inv % p
            result[index] = (x * z_inv2 % p, y * z_inv2 * z_inv % p)
        return result

    def _odd_multiples(self, point, count: int) -> list:
        """Affine [P, 3P, 5P, ..., (2·count-1)P] via one batch inversion."""
        p = self.p
        jac = [(point[0], point[1], 1)]
        twice = _jac_double(jac[0], p)
        for _ in range(count - 1):
            jac.append(_jac_add(jac[-1], twice, p))
        return self.batch_normalize(jac)

    def mul(self, point, scalar: int):
        """Scalar multiplication: wNAF sliding window over Jacobian coordinates.

        Window-4 non-adjacent form cuts the addition count of plain
        double-and-add roughly in half; all curve arithmetic is
        inversion-free, with a single inversion converting back to affine
        at the end. Exact — returns precisely ``[scalar]·point``.
        """
        if point is INFINITY or scalar == 0:
            return INFINITY
        if scalar < 0:
            point = self.neg(point)
            scalar = -scalar
        if point[1] == 0:
            # 2-torsion: 2P = O, so [k]P collapses to parity.
            return point if scalar & 1 else INFINITY
        p = self.p
        if scalar.bit_length() <= 4:
            # Tiny scalars: plain double-and-add, no precomputation.
            acc = _JAC_INFINITY
            for bit_index in range(scalar.bit_length() - 1, -1, -1):
                acc = _jac_double(acc, p)
                if (scalar >> bit_index) & 1:
                    acc = _jac_add_affine(acc, point, p)
            return self.to_affine(acc)
        width = 4
        table = self._odd_multiples(point, 1 << (width - 2))
        digits = _wnaf(scalar, width)
        acc = _JAC_INFINITY
        for digit in reversed(digits):
            acc = _jac_double(acc, p)
            if digit:
                if digit > 0:
                    entry = table[digit >> 1]
                else:
                    entry = table[(-digit) >> 1]
                    if entry is not INFINITY:
                        entry = (entry[0], -entry[1] % p)
                acc = _jac_add_affine(acc, entry, p)
        return self.to_affine(acc)

    def multi_mul(self, pairs):
        """Multi-scalar multiplication ``Σ [k_i]·P_i`` (Straus/Pippenger).

        ``pairs`` is an iterable of ``(point, scalar)``. Scalars of at
        most 4 bits share one plain double-and-add chain; otherwise small
        batches use Straus/Shamir interleaving (one shared doubling chain,
        wNAF digits per point) and large batches switch to Pippenger's
        bucket method.
        Exact, like :meth:`mul`.
        """
        return self.to_affine(self.multi_mul_jacobian(pairs))

    def multi_mul_jacobian(self, pairs):
        """:meth:`multi_mul` without the final affine conversion."""
        p = self.p
        prepared = []
        torsion_acc = _JAC_INFINITY
        for point, scalar in pairs:
            if point is INFINITY or scalar == 0:
                continue
            if scalar < 0:
                point = self.neg(point)
                scalar = -scalar
            if point[1] == 0:
                if scalar & 1:
                    torsion_acc = _jac_add_affine(torsion_acc, point, p)
                continue
            prepared.append((point, scalar))
        if not prepared:
            return torsion_acc
        bits = max(scalar.bit_length() for _, scalar in prepared)
        if bits <= 4:
            # Tiny scalars (the w_i·n_A row exponents of AND/OR policies
            # are 2 or 3): shared double-and-add, no odd-multiple tables.
            acc = _JAC_INFINITY
            for bit_index in range(bits - 1, -1, -1):
                acc = _jac_double(acc, p)
                for point, scalar in prepared:
                    if (scalar >> bit_index) & 1:
                        acc = _jac_add_affine(acc, point, p)
        elif len(prepared) >= 32:
            acc = self._pippenger(prepared)
        else:
            acc = self._straus(prepared)
        if torsion_acc[2] != 0:
            acc = _jac_add(acc, torsion_acc, p)
        return acc

    def _straus(self, prepared):
        """Interleaved wNAF: one doubling chain shared by every scalar."""
        p = self.p
        width = 4
        tables = []
        digit_rows = []
        for point, scalar in prepared:
            tables.append(self._odd_multiples(point, 1 << (width - 2)))
            digit_rows.append(_wnaf(scalar, width))
        length = max(len(row) for row in digit_rows)
        acc = _JAC_INFINITY
        for position in range(length - 1, -1, -1):
            acc = _jac_double(acc, p)
            for table, digits in zip(tables, digit_rows):
                if position >= len(digits):
                    continue
                digit = digits[position]
                if not digit:
                    continue
                if digit > 0:
                    entry = table[digit >> 1]
                else:
                    entry = table[(-digit) >> 1]
                    if entry is not INFINITY:
                        entry = (entry[0], -entry[1] % p)
                acc = _jac_add_affine(acc, entry, p)
        return acc

    def _pippenger(self, prepared):
        """Bucket method for large batches: O(bits/c · (n + 2^c)) additions."""
        p = self.p
        n = len(prepared)
        c = max(2, n.bit_length() - 2)  # ~log2(n), the classic choice
        max_bits = max(scalar.bit_length() for _, scalar in prepared)
        n_windows = (max_bits + c - 1) // c
        mask = (1 << c) - 1
        acc = _JAC_INFINITY
        for window in range(n_windows - 1, -1, -1):
            for _ in range(c):
                acc = _jac_double(acc, p)
            buckets = [None] * (mask + 1)
            shift = window * c
            for point, scalar in prepared:
                digit = (scalar >> shift) & mask
                if digit == 0:
                    continue
                existing = buckets[digit]
                if existing is None:
                    buckets[digit] = (point[0], point[1], 1)
                else:
                    buckets[digit] = _jac_add_affine(existing, point, p)
            running = _JAC_INFINITY
            window_sum = _JAC_INFINITY
            for digit in range(mask, 0, -1):
                bucket = buckets[digit]
                if bucket is not None:
                    running = _jac_add(running, bucket, p)
                window_sum = _jac_add(window_sum, running, p)
            acc = _jac_add(acc, window_sum, p)
        return acc

    # -- point construction ---------------------------------------------------

    def lift_x(self, x: int, parity: int = 0):
        """A point with the given x-coordinate, or None if x³+x is a non-residue.

        ``parity`` selects which of the two roots to take (y ≡ parity mod 2),
        which makes the lift deterministic for serialization.
        """
        p = self.p
        x %= p
        rhs = (x * x * x + x) % p
        if p & 3 == 3:
            # p ≡ 3 (mod 4) — always true for these supersingular
            # curves: a^((p+1)/4) is the root when one exists, so one
            # verifying multiplication replaces the Jacobi-symbol
            # residue test (point decodes do this on every wire read).
            y = pow(rhs, (p + 1) >> 2, p)
            if y * y % p != rhs:
                return None
        else:  # pragma: no cover - not reachable with Type-A parameters
            if not self.field.is_square(rhs):
                return None
            y = self.field.sqrt(rhs)
        if y % 2 != parity % 2:
            y = (-y) % p
        return (x, y)

    def random_point(self, rng: random.Random) -> Point:
        """A uniformly-ish random point on the full curve (order p+1 group)."""
        while True:
            x = rng.randrange(self.p)
            point = self.lift_x(x, rng.randrange(2))
            if point is not None:
                return point

    def __eq__(self, other) -> bool:
        return isinstance(other, SupersingularCurve) and self.p == other.p

    def __hash__(self) -> int:
        return hash(("SupersingularCurve", self.p))

    def __repr__(self) -> str:
        return f"SupersingularCurve(y²=x³+x over F_p, p~2^{self.p.bit_length()})"
