"""Exception hierarchy for the compass reproduction library.

All library-specific failures derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still being able to distinguish configuration mistakes from runtime
violations of hardware constraints.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, TypeVar

T = TypeVar("T")


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(ReproError):
    """A component was constructed with physically meaningless parameters."""


class ComplianceError(ReproError):
    """An analogue block was driven outside its operating envelope.

    Example: asking the 5 V excitation source to drive a sensor whose series
    resistance exceeds the 800 Ω compliance limit stated in §3.1.
    """


class ResourceError(ReproError):
    """A design does not fit the Sea-of-Gates / MCM resource budget."""


class ProtocolError(ReproError):
    """A digital interface was exercised out of protocol.

    Example: shifting a boundary-scan register while the TAP controller is
    not in the Shift-DR state, or reading a CORDIC result before ``ready``.
    """


class CalibrationError(ReproError):
    """Sensor calibration could not be computed from the supplied samples."""


class FaultError(ProtocolError):
    """A runtime health check found the measurement data implausible.

    Raised by the :class:`~repro.core.health.HealthSupervisor` when a
    per-measurement plausibility check fails: counter ticks outside the
    scheduled window, counter value inconsistent with the detector duty
    cycle, missing pulse activity, a corrupted CORDIC ROM, or a field
    magnitude far outside the worldwide band.  Subclasses
    :class:`ProtocolError` because a health violation is a runtime
    protocol breach of the measurement contract — existing handlers that
    catch :class:`ProtocolError` keep working.
    """


class DegradedOperationError(FaultError):
    """Graceful degradation was required but no fallback exists.

    Example: both sensor channels failed so not even a single-axis
    heading can be produced, or a health check failed before any
    last-known-good heading was recorded.
    """


class EscapeError(FaultError):
    """A factory lot finished with test escapes — silent-wrong shipped.

    Raised by :meth:`repro.factory.LotReport.raise_for_escapes` (and the
    ``factory`` CLI verb, exit code 18) when any defective unit passed
    the full staged test program *and* the field-audit oracle shows it
    would serve an unflagged heading beyond the product tolerance.  An
    escape is the one outcome the production claim forbids: a caught
    unit costs yield, a latent unit costs margin, an escape lies to a
    customer.  The offending :class:`~repro.factory.LotReport` is
    attached as :attr:`report` when available.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class ReplayError(ReproError):
    """A replay log cannot be trusted or used.

    Raised by :mod:`repro.replay` whenever a recorded log fails
    structural validation: bad magic/version, a CRC mismatch on any
    record, a missing footer (truncated file), out-of-order sequence
    numbers, or a header whose configuration fingerprint cannot be
    reconstructed.  The contract is *fail loud*: a corrupted log must
    never replay into a plausible-but-wrong heading.
    """


class DivergenceError(ReplayError):
    """A replayed execution did not reproduce the recorded one bit-exactly.

    Raised by the replay verifier and the differential conformance
    runner when two executions of the same inputs disagree at any stage
    — down to a specific counter tick count or CORDIC iteration
    register.  Carries the first :class:`~repro.replay.diff.Divergence`
    when raised by the diff machinery.
    """


class ScenarioError(ReproError):
    """A mission scenario could not be served within its contract.

    Raised by :mod:`repro.scenario` (and the ``scenario`` CLI verb,
    exit code 19) when a compensation-integrity guard trips in strict
    mode: the temperature telemetry contradicts the oscillator-period
    thermometer, the calibration table fails its CRC, or the
    environment-compensation chain cannot produce a heading it is
    willing to serve.  The contract is the same one the health seam
    enforces one layer down: a wrong heading must be *loud*, never
    plausible.
    """


class EnvelopeError(ScenarioError):
    """Operating conditions left the envelope the compensation was fitted for.

    Raised when a scenario drives the instrument outside the domain its
    compensators are valid in — a sensed temperature beyond the
    polynomial fit range, a tilt beyond the compensable cone, or a
    calibration table older than its staleness budget in strict mode.
    Inside the envelope the chain corrects; outside it the honest answer
    is a refusal, not an extrapolation.
    """


class ArrayFusionError(ReproError):
    """The sensor array could not fuse a heading it is willing to serve.

    Raised by :mod:`repro.array` (and the ``array`` CLI verb, exit code
    20) when least-squares fusion over the surviving elements is
    impossible or untrustworthy: fewer healthy elements than the
    configured minimum after health screening and K-of-N vote
    rejection, or — in strict mode — a gradiometer residual above the
    near-field threshold, meaning the elements disagree about the field
    in a way a uniform Earth field cannot explain.  The array's
    contract matches every other layer's: a heading the instrument
    cannot defend is refused loudly, never served plausibly.
    """


class ServiceError(ReproError):
    """A request to the replicated :mod:`repro.service` layer failed.

    The base class for request-level failures of the
    :class:`~repro.service.HeadingService`: the service exhausted its
    resilience budget (replicas, retries, deadline) without assembling
    an answer it is willing to serve.
    """


class CircuitOpenError(ServiceError):
    """Every replica's circuit breaker is open — the request fast-fails.

    Raised before any measurement is attempted: the breaker layer has
    ejected all replicas and none has reached its half-open probe window
    yet, so trying would only add load to a sick fleet.
    """


class QuorumError(ServiceError):
    """The service could not assemble K agreeing replicas in time.

    Raised when, within the request deadline, fewer than ``quorum``
    vote-eligible headings were collected, or the collected headings
    disagreed so thoroughly that no K-of-N inlier set exists.
    """


class OverloadError(ServiceError):
    """The fleet shed this request instead of queueing it unboundedly.

    Raised by :mod:`repro.fleet` admission control when accepting the
    request would only make things worse: the token bucket is dry
    (``reason="rate-limit"``), the shard queue is full even after
    evicting dead work (``reason="queue-full"``), or the request can no
    longer meet its deadline and serving it would be dead work
    (``reason="deadline"``).  Load shedding is *loud by design* — a
    request the fleet cannot serve within its SLO is refused up front,
    never silently queued into a latency it would have rejected.
    """

    def __init__(self, message: str, reason: str = "overload"):
        super().__init__(message)
        #: Which rung of the admission ladder shed the request:
        #: ``rate-limit`` | ``queue-full`` | ``deadline``.
        self.reason = reason


class SLOViolationError(ServiceError):
    """A fleet soak finished with a service-level objective broken.

    Raised by the ``fleet-soak`` CLI verb (exit code 17) when the
    deterministic storm ramp ends with an invariant violated:
    availability below the floor at rated load, any silent-wrong
    response at any load level, a missing overload shed past
    saturation, or admitted-request p99 latency beyond the SLO.  The
    report that failed is attached as :attr:`report` when available.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


def only_row(outcome: Tuple[List[T], Optional[ReproError]]) -> T:
    """The result of a one-row pass, or its error raised.

    The digital datapath works on every row of a measurement call at
    once and returns ``(results, error)``: the results of the rows
    before the first failing row, and that row's error.  A one-row
    caller wants the usual raise.  The error is never bound in the
    caller's frame and is dropped from this one as it propagates, so
    the traceback forms no reference cycle with it.
    """
    results, error = outcome
    del outcome
    if error is None:
        return results[0]
    try:
        raise error
    finally:
        del error
