"""Quadratic extension field F_p² = F_p[i] / (i² + 1).

Requires ``p ≡ 3 (mod 4)`` so that ``-1`` is a non-residue and the
polynomial ``i² + 1`` is irreducible. Elements are pairs ``(a, b)``
representing ``a + b·i``, stored as plain integer tuples for speed —
the Miller loop of the Tate pairing does all its extension-field work
through this module.

This is exactly the target-field structure of PBC's type-A curves
(embedding degree 2), which the paper's evaluation uses.
"""

from __future__ import annotations

import random

from repro.errors import MathError
from repro.math.field import PrimeField

Fp2Element = tuple  # (a, b) meaning a + b*i, with 0 <= a, b < p


class QuadraticExtension:
    """The field F_p² with i² = -1, as a context object over tuples."""

    __slots__ = ("base", "p", "one", "zero")

    def __init__(self, base: PrimeField):
        if base.p % 4 != 3:
            raise MathError("F_p[i] needs p ≡ 3 (mod 4) for i²+1 to be irreducible")
        self.base = base
        self.p = base.p
        self.one = (1, 0)
        self.zero = (0, 0)

    # -- arithmetic -----------------------------------------------------------

    def add(self, x: Fp2Element, y: Fp2Element) -> Fp2Element:
        p = self.p
        return ((x[0] + y[0]) % p, (x[1] + y[1]) % p)

    def sub(self, x: Fp2Element, y: Fp2Element) -> Fp2Element:
        p = self.p
        return ((x[0] - y[0]) % p, (x[1] - y[1]) % p)

    def neg(self, x: Fp2Element) -> Fp2Element:
        p = self.p
        return (-x[0] % p, -x[1] % p)

    def mul(self, x: Fp2Element, y: Fp2Element) -> Fp2Element:
        # Karatsuba-style: 3 base multiplications instead of 4.
        a, b = x
        c, d = y
        p = self.p
        ac = a * c
        bd = b * d
        cross = (a + b) * (c + d) - ac - bd
        return ((ac - bd) % p, cross % p)

    def square(self, x: Fp2Element) -> Fp2Element:
        # (a+bi)² = (a+b)(a-b) + 2ab·i — 2 base multiplications.
        a, b = x
        p = self.p
        return ((a + b) * (a - b) % p, 2 * a * b % p)

    def conjugate(self, x: Fp2Element) -> Fp2Element:
        return (x[0], -x[1] % self.p)

    def norm(self, x: Fp2Element) -> int:
        """The field norm N(a+bi) = a² + b² ∈ F_p."""
        return (x[0] * x[0] + x[1] * x[1]) % self.p

    def inv(self, x: Fp2Element) -> Fp2Element:
        n = self.norm(x)
        if n == 0:
            raise MathError("0 is not invertible in F_p²")
        ninv = self.base.inv(n)
        p = self.p
        return (x[0] * ninv % p, -x[1] * ninv % p)

    def div(self, x: Fp2Element, y: Fp2Element) -> Fp2Element:
        return self.mul(x, self.inv(y))

    def pow(self, x: Fp2Element, e: int) -> Fp2Element:
        if e < 0:
            return self.pow(self.inv(x), -e)
        if e.bit_length() <= 32:
            # Small exponents: plain square-and-multiply, no precomputation.
            result = self.one
            square = self.square
            mul = self.mul
            base = x
            while e:
                if e & 1:
                    result = mul(result, base)
                base = square(base)
                e >>= 1
            return result
        return self._pow_sliding_window(x, e)

    def _pow_sliding_window(self, x: Fp2Element, e: int) -> Fp2Element:
        """4-bit sliding-window exponentiation: ~bits/5 multiplications
        instead of ~bits/2, on top of the unavoidable bits squarings."""
        square = self.square
        mul = self.mul
        # odd powers x, x³, x⁵, ..., x¹⁵
        x2 = square(x)
        odd_powers = [x]
        for _ in range(7):
            odd_powers.append(mul(odd_powers[-1], x2))
        result = self.one
        bit_index = e.bit_length() - 1
        while bit_index >= 0:
            if not (e >> bit_index) & 1:
                result = square(result)
                bit_index -= 1
                continue
            # Take the longest window ending in a set bit, at most 4 wide.
            low = max(0, bit_index - 3)
            while not (e >> low) & 1:
                low += 1
            window = (e >> low) & ((1 << (bit_index - low + 1)) - 1)
            for _ in range(bit_index - low + 1):
                result = square(result)
            result = mul(result, odd_powers[window >> 1])
            bit_index = low - 1
        return result

    def unitary_pow(self, x: Fp2Element, e: int) -> Fp2Element:
        """``x^e`` for an ``x`` of norm 1 (every GT value), via its trace.

        For ``N(x) = 1`` the inverse is the conjugate, so ``V_k = x^k +
        x^-k = 2·Re(x^k)`` obeys the Lucas ladder ``V_2k = V_k² − 2``,
        ``V_2k+1 = V_k·V_k+1 − V_1`` from ``V_1 = 2a``: one F_p square
        and one F_p multiply per exponent bit (Scott–Barreto, "Compressed
        Pairings"). The imaginary part of ``x^e`` comes back from
        ``(2·V_e+1 − V_1·V_e) / (−4b)`` with one inversion. Exact, so
        the result equals :meth:`pow`'s; undefined for norm ≠ 1.
        """
        a, b = x
        if b == 0:  # norm 1 forces x = ±1
            return x if e & 1 else self.one
        p = self.p
        if e < 0:
            b = -b % p  # x^-1 = conj(x)
            e = -e
        if e == 0:
            return self.one
        trace = 2 * a % p
        low, high = trace, (trace * trace - 2) % p  # (V_k, V_k+1), k = 1
        for bit in bin(e)[3:]:
            if bit == "1":
                low = (low * high - trace) % p
                high = (high * high - 2) % p
            else:
                high = (low * high - trace) % p
                low = (low * low - 2) % p
        real = (low + p) >> 1 if low & 1 else low >> 1
        imag = (2 * high - trace * low) * self.base.inv(-4 * b % p) % p
        return (real, imag)

    def frobenius(self, x: Fp2Element) -> Fp2Element:
        """x ↦ x^p. Since p ≡ 3 (mod 4), i^p = -i, so this is conjugation."""
        return self.conjugate(x)

    # -- predicates, sampling, encoding ----------------------------------------

    def is_zero(self, x: Fp2Element) -> bool:
        return x[0] == 0 and x[1] == 0

    def is_one(self, x: Fp2Element) -> bool:
        return x[0] == 1 and x[1] == 0

    def embed(self, a: int) -> Fp2Element:
        """Embed a base-field element into F_p²."""
        return (a % self.p, 0)

    def random(self, rng: random.Random) -> Fp2Element:
        return (rng.randrange(self.p), rng.randrange(self.p))

    def to_bytes(self, x: Fp2Element) -> bytes:
        return self.base.to_bytes(x[0]) + self.base.to_bytes(x[1])

    def from_bytes(self, data: bytes) -> Fp2Element:
        half = self.base.byte_length
        if len(data) != 2 * half:
            raise MathError("wrong encoding length for an F_p² element")
        return (self.base.from_bytes(data[:half]), self.base.from_bytes(data[half:]))

    def __eq__(self, other) -> bool:
        return isinstance(other, QuadraticExtension) and self.p == other.p

    def __hash__(self) -> int:
        return hash(("QuadraticExtension", self.p))

    def __repr__(self) -> str:
        return f"QuadraticExtension(p~2^{self.p.bit_length()})"
