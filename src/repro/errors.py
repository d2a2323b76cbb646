"""Exception hierarchy for the ``repro`` package.

Every error raised by this library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish the individual failure modes.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "PatternError",
    "InvalidPatternError",
    "OutputNodeError",
    "ConstraintError",
    "RepositoryClosedError",
    "ParseError",
    "SchemaError",
    "DataModelError",
    "StrategyError",
    "CertificationError",
    "ServiceError",
    "ServiceClosedError",
    "ServiceOverloadedError",
    "DeadlineExceededError",
    "ProtocolError",
    "CircuitOpenError",
    "ServiceUnavailableError",
]


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class PatternError(ReproError):
    """Base class for errors concerning tree pattern queries."""


class InvalidPatternError(PatternError):
    """A tree pattern violates a structural invariant.

    Raised, for example, when an operation would detach a non-leaf node,
    when a node is inserted under two parents, or when a pattern is built
    with a cycle.
    """


class OutputNodeError(PatternError):
    """A pattern has no output (``*``) node, more than one, or an
    operation would delete the output node."""


class ConstraintError(ReproError):
    """An integrity constraint is malformed or used inconsistently."""


class RepositoryClosedError(ConstraintError):
    """Direct mutation of a logically *closed* constraint repository.

    A closed repository's digest keys every cached minimization proof
    (fingerprint memo, persistent store), so an in-place ``add`` /
    ``update`` / ``discard`` would silently invalidate them. Stage the
    change through ``repository.begin_update()`` instead — it recomputes
    the closure and reports the new digest.
    """


class ParseError(ReproError):
    """A textual query/schema/document could not be parsed.

    Attributes
    ----------
    text:
        The full input text being parsed.
    position:
        Character offset at which the failure was detected, or ``None``.
    """

    def __init__(self, message: str, text: str | None = None, position: int | None = None):
        super().__init__(message)
        self.text = text
        self.position = position

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        base = super().__str__()
        if self.position is not None and self.text is not None:
            snippet = self.text[max(0, self.position - 12): self.position + 12]
            return f"{base} (at offset {self.position}, near {snippet!r})"
        return base


class SchemaError(ReproError):
    """A schema definition is malformed or internally inconsistent."""


class DataModelError(ReproError):
    """A data tree / forest violates a structural invariant."""


class StrategyError(ReproError):
    """An A/R/M strategy string is malformed."""


class CertificationError(ReproError):
    """A freshly computed answer's witness certificate failed the
    independent checker (:mod:`repro.certify`).

    This is never raised for cached/stored records — those quarantine
    and recompute transparently. A fresh answer failing its own check
    means the minimizer and the checker disagree about a proof built
    moments ago: an engine bug, not a data-integrity event, so it
    surfaces loudly instead of degrading.

    Attributes
    ----------
    reason:
        The checker's rejection reason.
    step_index:
        0-based witness step at which checking failed (-1 for
        certificate-level failures).
    """

    def __init__(self, message: str, *, reason: str = "", step_index: int = -1):
        super().__init__(message)
        self.reason = reason
        self.step_index = step_index


class ServiceError(ReproError):
    """Base class for minimization-service failures."""


class ServiceClosedError(ServiceError):
    """The service is draining or stopped and accepts no new requests."""


class ServiceOverloadedError(ServiceError):
    """The request queue is full (backpressure).

    Attributes
    ----------
    retry_after:
        Suggested client back-off in seconds, estimated from the
        service's recent batch latency.
    """

    def __init__(self, message: str, *, retry_after: float = 0.05):
        super().__init__(message)
        self.retry_after = retry_after


class DeadlineExceededError(ServiceError):
    """A request's end-to-end deadline elapsed.

    Raised *before any minimization work runs* when the deadline has
    already passed at submission or at micro-batch assembly (the request
    is shed), and while awaiting a result whose deadline expires.
    """


class ProtocolError(ServiceError):
    """A wire-protocol line was malformed or oversized.

    Returned as a structured error response; the connection stays up.
    """


class CircuitOpenError(ServiceError):
    """The client's circuit breaker is open; no request was sent.

    Attributes
    ----------
    retry_after:
        Seconds until the breaker half-opens and lets a probe through.
    """

    def __init__(self, message: str, *, retry_after: float = 0.0):
        super().__init__(message)
        self.retry_after = retry_after


class ServiceUnavailableError(ServiceError):
    """The resilient client exhausted its retry budget.

    Attributes
    ----------
    attempts:
        Number of attempts made before giving up.
    last_error:
        The final underlying failure, when known.
    """

    def __init__(
        self,
        message: str,
        *,
        attempts: int = 0,
        last_error: "BaseException | None" = None,
    ):
        super().__init__(message)
        self.attempts = attempts
        self.last_error = last_error
