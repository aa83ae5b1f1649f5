"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class. Subclasses partition errors by the
subsystem that raised them: mathematical preconditions, policy language
problems, scheme-level protocol violations, and the storage service.
"""


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class MathError(ReproError):
    """A mathematical precondition was violated (e.g. non-invertible element)."""


class ParameterError(ReproError):
    """Invalid or inconsistent pairing/curve parameters."""


class PolicyError(ReproError):
    """The access-policy string or structure is malformed."""


class PolicyNotSatisfiedError(ReproError):
    """An attribute set does not satisfy the ciphertext's access structure."""


class SchemeError(ReproError):
    """A protocol step was invoked with inconsistent keys or state."""


class RevocationError(SchemeError):
    """Attribute revocation was requested in an inconsistent state."""


class AuthorizationError(ReproError):
    """An entity attempted an operation it is not authorized to perform."""


class IntegrityError(ReproError):
    """Authenticated decryption failed: the ciphertext was tampered with."""


class StorageError(ReproError):
    """The cloud server was asked for a record it does not hold."""


class UnavailableError(StorageError):
    """The server cannot apply writes right now (read-only mode, disk
    failure); the request is safe to retry later."""


class ProtocolError(ReproError):
    """A wire-protocol frame was malformed, unexpected, or over-sized."""


class TransportError(ProtocolError):
    """The connection failed mid-exchange (dropped, timed out, or the
    reply frame was garbled) before a usable reply arrived; the request
    may be retried on a fresh connection."""


class OutcomeUnknownError(ProtocolError):
    """A retried mutation was refused after an earlier attempt lost its
    reply, so whether that attempt applied is unknown."""


class RetryExhaustedError(TransportError):
    """The retry layer gave up on a request — its total wall-clock
    deadline ran out while the failure was still retryable.

    Carries the ``attempts`` trace (the :class:`repro.service.retry.
    RetryLog` entries for the exhausted request) so callers and
    adversarial harnesses can see exactly what was tried before the
    budget died. Subclasses :class:`TransportError` on purpose: to a
    *higher* layer (e.g. the cluster client's failover reads) an
    exhausted node is indistinguishable from an unreachable one and
    should be skipped, not fatal."""

    def __init__(self, message: str, attempts: list = None):
        super().__init__(message)
        self.attempts = list(attempts or [])


#: Failures after which a write may or may not have reached the server:
#: protocol and transport errors, and raw socket errors.
UNKNOWN_OUTCOME = (ProtocolError, OSError, EOFError)


# -- wire codes ---------------------------------------------------------------

#: The one exception-class <-> wire-code table: service ERROR frames and
#: the pooled ReEncrypt outcomes both use these strings. Subclasses come
#: before their bases, so the first ``isinstance`` match is the most
#: specific code.
ERROR_CODES = (
    (RevocationError, "revocation"),
    (PolicyNotSatisfiedError, "policy-not-satisfied"),
    (UnavailableError, "unavailable"),
    (StorageError, "storage"),
    (SchemeError, "scheme"),
    (AuthorizationError, "authorization"),
    (PolicyError, "policy"),
    (IntegrityError, "integrity"),
    (MathError, "math"),
    (ProtocolError, "protocol"),
)

_EXCEPTION_BY_CODE = {code: cls for cls, code in ERROR_CODES}


def code_for_exception(exc: ReproError) -> str:
    """The wire code of a library exception (``"protocol"`` if unlisted)."""
    for cls, code in ERROR_CODES:
        if isinstance(exc, cls):
            return code
    return "protocol"


def exception_for_code(code) -> type:
    """The exception class of a wire code; :class:`ProtocolError` for a
    code this library does not know (one minted by a newer peer)."""
    return _EXCEPTION_BY_CODE.get(code, ProtocolError)
