"""Prime field F_p.

A :class:`PrimeField` is a *context object*: elements are plain Python
integers in ``[0, p)`` and the field provides the operations. This keeps
the hot paths (elliptic-curve and pairing arithmetic) free of wrapper
allocation while still centralizing the modulus and the derived
constants.

The acceleration hook lives here (see :mod:`repro.math.backend`): the
modulus is stored *wrapped* by the active arithmetic backend — with
gmpy2 that makes ``self.p`` an ``mpz``, so every ``x % p`` and
``a * b % p`` downstream (curve, Miller loop, extension tower) promotes
to GMP arithmetic with zero call-site changes. Results that reach a
serialize boundary pass through ``int(...)`` here, keeping encodings
byte-identical across backends.
"""

from __future__ import annotations

import random

from repro.errors import MathError
from repro.math import backend as arith_backend
from repro.math.integers import invmod, jacobi, sqrt_mod
from repro.math.primes import is_prime


class PrimeField:
    """The field of integers modulo an odd prime ``p``."""

    __slots__ = ("p", "byte_length", "backend_name", "counter")

    def __init__(self, p: int, check_prime: bool = True, *, backend=None):
        p = int(p)
        if p < 3 or p % 2 == 0:
            raise MathError("PrimeField requires an odd prime modulus")
        if check_prime and not is_prime(p):
            raise MathError(f"{p} is not prime")
        resolved = arith_backend.resolve_backend(backend)
        self.backend_name = resolved.name
        # Wrapped modulus: the single promotion point for the backend.
        self.p = resolved.wrap(p)
        self.byte_length = (p.bit_length() + 7) // 8
        # Optional OperationCounter (fp_muls/fp_invs); None = no tracing.
        self.counter = None

    # -- basic arithmetic -------------------------------------------------

    def normalize(self, a: int) -> int:
        """Reduce an integer into the canonical range [0, p)."""
        return a % self.p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def mul(self, a: int, b: int) -> int:
        if self.counter is not None:
            self.counter.fp_muls += 1
        return a * b % self.p

    def neg(self, a: int) -> int:
        return -a % self.p

    def inv(self, a: int) -> int:
        if self.counter is not None:
            self.counter.fp_invs += 1
        return invmod(a, self.p)

    def div(self, a: int, b: int) -> int:
        if self.counter is not None:
            self.counter.fp_muls += 1
            self.counter.fp_invs += 1
        return a * invmod(b, self.p) % self.p

    def pow(self, a: int, e: int) -> int:
        return pow(a, e, self.p)

    def square(self, a: int) -> int:
        if self.counter is not None:
            self.counter.fp_muls += 1
        return a * a % self.p

    # -- square roots ------------------------------------------------------

    def is_square(self, a: int) -> bool:
        """True iff ``a`` is a quadratic residue (0 counts as a square)."""
        a %= self.p
        return a == 0 or jacobi(a, self.p) == 1

    def sqrt(self, a: int) -> int:
        """A square root of ``a``; raises :class:`MathError` for non-residues."""
        return sqrt_mod(a, self.p)

    # -- sampling and encoding ----------------------------------------------

    def random(self, rng: random.Random) -> int:
        """Uniform element of F_p."""
        return rng.randrange(self.p)

    def random_nonzero(self, rng: random.Random) -> int:
        """Uniform element of F_p^*."""
        return rng.randrange(1, self.p)

    def to_bytes(self, a: int) -> bytes:
        """Fixed-width big-endian encoding (``byte_length`` bytes).

        ``int(...)`` is the backend unwrap point: gmpy2 values leave
        the accelerated domain here, so encodings never depend on the
        backend in use.
        """
        return int(a % self.p).to_bytes(self.byte_length, "big")

    def from_bytes(self, data: bytes) -> int:
        value = int.from_bytes(data, "big")
        if value >= self.p:
            raise MathError("encoded value is not a canonical field element")
        return value

    # -- dunder conveniences -------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and self.p == other.p

    def __hash__(self) -> int:
        return hash(("PrimeField", int(self.p)))

    def __repr__(self) -> str:
        return (f"PrimeField(p~2^{int(self.p).bit_length()}, "
                f"backend={self.backend_name})")
