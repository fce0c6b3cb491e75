"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still distinguishing the subsystem that failed.
"""

from __future__ import annotations

import enum


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ExtractionError(ReproError):
    """Phase 1 failed to extract structured parameters from a segment."""


class HierarchyError(ReproError):
    """Phase 2 taxonomy construction produced an inconsistent hierarchy."""


class QueryError(ReproError):
    """Phase 3 could not interpret or translate a user query."""


class TranslationError(QueryError):
    """Query terms could not be mapped into the policy vocabulary.

    Raised by strict-mode translation when a term has no embedding
    candidate above the similarity floor; ``terms`` carries every
    untranslatable term so callers can report them all at once.
    """

    def __init__(self, message: str, terms: tuple[str, ...] = ()) -> None:
        self.terms = tuple(terms)
        super().__init__(message)


class FOLError(ReproError):
    """An ill-formed first-order logic formula was constructed."""


class SortMismatchError(FOLError):
    """A term was used where a different sort was expected."""


class SMTLibError(ReproError):
    """SMT-LIB generation or parsing failed."""


class SMTLibParseError(SMTLibError):
    """The SMT-LIB parser encountered malformed input."""

    def __init__(self, message: str, line: int | None = None) -> None:
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class SolverError(ReproError):
    """The SMT solver was driven incorrectly (e.g. pop on empty stack)."""


class UnknownCause(enum.Enum):
    """Which resource budget tripped, for an UNKNOWN that ran out of one."""

    CONFLICTS = "conflicts"
    PROPAGATIONS = "propagations"
    THEORY_ROUNDS = "theory rounds"
    GROUND_INSTANCES = "ground instances"
    WALL_CLOCK = "wall clock"


class BudgetExceededError(SolverError):
    """A solver resource budget was exhausted mid-operation.

    Callers normally never see this: the solver converts it into an
    ``UNKNOWN`` result whose ``cause`` is this error's ``cause``.  It is
    public so tests can assert on the mechanism.
    """

    def __init__(self, message: str, cause: UnknownCause) -> None:
        super().__init__(message)
        self.cause = cause


class LLMError(ReproError):
    """The LLM client failed to produce a usable completion."""


class PromptError(LLMError):
    """A prompt template was rendered with missing or invalid fields."""


class CircuitOpenError(LLMError):
    """A completion was short-circuited by an open circuit breaker.

    Raised without consulting the backend; distinct from other
    :class:`LLMError` subclasses so retry policies can refuse to retry it
    (retrying an open circuit only burns the cooldown).
    """


class InjectedFaultError(LLMError):
    """A deterministic fault raised by the test-only fault injector."""


class ProviderError(LLMError):
    """A remote completion provider failed (HTTP backend or cassette).

    The taxonomy below is what the resilience stack keys on: transient
    subclasses are retried, :class:`RateLimitError` additionally carries
    the server's ``Retry-After`` hint, and permanent subclasses abort
    immediately (retrying a 401 only burns the retry budget).
    """


class TransientHTTPError(ProviderError):
    """A retryable provider failure: 5xx, timeout, or connection loss.

    ``status`` is the HTTP status code when one was received, ``None``
    for transport-level failures (reset, timeout, unparseable body).
    """

    def __init__(self, message: str, status: int | None = None) -> None:
        self.status = status
        super().__init__(message)


class RateLimitError(TransientHTTPError):
    """The provider rejected the call with 429 (or equivalent).

    ``retry_after`` is the server-advised backoff in seconds (``None``
    when the response carried no usable ``Retry-After`` header).
    :class:`~repro.resilience.retry.RetryingLLM` honours the hint:
    it sleeps ``min(max(schedule_delay, retry_after), max_delay)``
    instead of hammering the rate-limited backend on the geometric
    schedule alone.
    """

    def __init__(
        self,
        message: str,
        *,
        retry_after: float | None = None,
        status: int = 429,
    ) -> None:
        self.retry_after = retry_after
        super().__init__(message, status=status)


class PermanentHTTPError(ProviderError):
    """A non-retryable provider failure: 4xx other than 408/429.

    Never retried — the request itself is wrong (bad auth, bad payload,
    nonexistent model) and will fail identically on every attempt.
    """

    def __init__(self, message: str, status: int | None = None) -> None:
        self.status = status
        super().__init__(message)


class CassetteError(ProviderError):
    """A prompt->completion cassette is invalid or was misused."""


class CassetteMissError(CassetteError):
    """Strict replay was asked for a prompt the cassette never recorded.

    Raised by :class:`~repro.providers.cassette.ReplayLLM` in strict
    mode; ``prompt_digest`` identifies the missing entry so a recording
    run can be re-driven with exactly the uncovered inputs.  Never
    retried — replaying the lookup cannot make the record appear.
    """

    def __init__(self, message: str, prompt_digest: str = "") -> None:
        self.prompt_digest = prompt_digest
        super().__init__(message)


class CorpusError(ReproError):
    """A bundled or generated policy could not be produced."""


class JobError(ReproError):
    """A supervised batch job was misconfigured or cannot resume."""


class RegistryError(ReproError):
    """The multi-policy registry index is invalid or was misused."""


class IntegrityError(ReproError):
    """The integrity subsystem (fsck/repair/scrub) was misused.

    Distinct from damage *findings* — those are data, reported in an
    :class:`~repro.integrity.findings.IntegrityReport` and surfaced by
    the CLI as exit code 9; this exception covers misuse (a nonexistent
    scan root, applying an already-applied plan)."""


class ServerError(ReproError):
    """The serving daemon failed to bind, become ready, or was misused."""


class SnapshotError(ReproError):
    """Base class for model-store persistence failures."""


class SnapshotNotFoundError(SnapshotError):
    """No committed snapshot exists in the store directory."""


class SnapshotCorruptionError(SnapshotError):
    """No hash-valid snapshot could be loaded from the store.

    Raised only after every candidate snapshot failed verification and was
    quarantined; ``reports`` carries the structured quarantine records so
    callers can surface *what* was corrupt, not just that loading failed.
    """

    def __init__(self, message: str, reports: tuple = ()) -> None:
        self.reports = tuple(reports)
        super().__init__(message)
