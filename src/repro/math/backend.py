"""Pluggable big-integer arithmetic backends.

The whole crypto stack works on plain Python ints, with the modulus
held by context objects (:class:`repro.math.field.PrimeField`,
:class:`repro.ec.curve.SupersingularCurve`, the Miller loop). That
gives us a zero-rewrite acceleration point: if the *modulus* is a
``gmpy2.mpz``, every ``a * b % p`` in the hot paths promotes to mpz
arithmetic automatically (int ⊙ mpz → mpz in both operand orders), and
GMP does the multiplies and divisions. Serialization converts back
with ``int(...)`` at the byte boundaries, so encodings — and therefore
ciphertexts, keys, and every on-disk artifact — are byte-identical
across backends.

Selection precedence (first match wins):

1. explicit :func:`set_backend` (or the CLI's ``--arith-backend``)
2. the ``REPRO_ARITH_BACKEND`` environment variable
   (``auto`` | ``pure`` | ``gmpy2``)
3. ``auto``: gmpy2 when importable, else pure python

``gmpy2`` is an *optional* accelerator: requesting it explicitly when
it is not installed raises, but ``auto`` silently falls back to pure —
the container this repo grows in does not ship gmpy2, and nothing may
depend on it. The CI matrix runs the tier-1 suite and the encrypt
smoke bench both with and without it installed and fails on any
cross-backend byte mismatch.

Worker processes inherit the backend through the group registry:
:func:`repro.pairing.group._rebuild_group` re-resolves the pickled
backend name, so CryptoPool workers, EncryptionSession pool builds,
and the REENCRYPT_SWEEP path all compute with the same arithmetic as
the parent.
"""

from __future__ import annotations

import os

from repro.errors import MathError

_VALID = ("auto", "pure", "gmpy2")

try:  # optional accelerator — never a hard dependency
    import gmpy2 as _gmpy2
    _mpz = _gmpy2.mpz
except ImportError:  # pragma: no cover - exercised by the no-gmpy2 CI leg
    _gmpy2 = None
    _mpz = None


class ArithBackend:
    """One arithmetic implementation: a name plus int wrap/unwrap."""

    __slots__ = ("name", "wrap")

    def __init__(self, name: str, wrap):
        self.name = name
        self.wrap = wrap  # int -> backend integer type (used on moduli)

    def __repr__(self) -> str:
        return f"ArithBackend({self.name!r})"


_PURE = ArithBackend("pure", lambda a: a)
_GMPY2 = ArithBackend("gmpy2", _mpz) if _mpz is not None else None

_forced = None  # set_backend override, beats the environment


def available_backends() -> tuple:
    """Names usable on this interpreter, preference order."""
    return ("gmpy2", "pure") if _GMPY2 is not None else ("pure",)


def gmpy2_available() -> bool:
    return _GMPY2 is not None


def set_backend(name) -> None:
    """Force a backend process-wide (``None`` returns to env/auto)."""
    if name is not None and name not in _VALID:
        raise MathError(f"unknown arithmetic backend {name!r}")
    global _forced
    _forced = name


def resolve_backend(name=None) -> ArithBackend:
    """Map a requested name (or the active default) to a backend.

    ``None`` applies the precedence chain documented above; ``auto``
    degrades to pure when gmpy2 is missing; a hard ``gmpy2`` request
    without the library raises so CI mismatches cannot pass silently.
    """
    if name is None:
        name = _forced if _forced is not None else os.environ.get(
            "REPRO_ARITH_BACKEND", "auto")
    if name not in _VALID:
        raise MathError(f"unknown arithmetic backend {name!r}")
    if name == "auto":
        return _GMPY2 if _GMPY2 is not None else _PURE
    if name == "gmpy2":
        if _GMPY2 is None:
            raise MathError(
                "arithmetic backend 'gmpy2' requested but gmpy2 is not "
                "importable (install it or use REPRO_ARITH_BACKEND=auto)")
        return _GMPY2
    return _PURE


def active_backend_name() -> str:
    """The resolved default backend's name (for bench metadata)."""
    return resolve_backend().name

