"""The runner's structured error taxonomy.

Every way a sweep cell can die maps to exactly one class, so retry policy,
checkpoint records and report markers all branch on one ``kind`` string:

======================  =============================================  =========
kind                    meaning                                        retried?
======================  =============================================  =========
``JobTimeout``          worker exceeded the per-job wall-clock budget  no
``JobCrash``            worker died (signal/exit) or raised            yes
``SimulationHang``      the in-simulator watchdog fired                no
``InvalidConfig``       the job spec can never run (bad config/app)    no
``invariant:<name>``    the simulation sanitizer caught a broken       no
                        conservation law (:class:`InvariantViolation`)
``worker-lost``         a worker's lease expired (heartbeats stopped   yes
                        while the job was still leased to it)
``poison``              the same job lost too many leases in a row;    no
                        quarantined so it cannot wedge the sweep
``checkpoint:torn``     a checkpoint record was torn by a killed       no
                        writer; the fragment is quarantined to
                        ``<checkpoint>.corrupt`` and the job re-runs
======================  =============================================  =========

Timeouts and hangs are deterministic for a given (spec, machine-load
regime) and invalid configs are deterministic outright, so retrying them
burns the budget for nothing; crashes are treated as transient (OOM kill,
stray signal) and get bounded retry with exponential backoff.  Invariant
violations are the most deterministic of all — the simulation is seeded,
so the same broken law fires at the same cycle on every attempt — and,
worse, a retry that happened to "pass" would launder corrupt accounting
into the result set.  They are therefore never retried, and their wire
kind carries the specific invariant (``invariant:mshr_balance``) so a
report's ``FAILED(...)`` marker names the broken law directly.

A cell that still fails after retries becomes a :class:`FailedResult` —
a stand-in value that flows through sweeps, checkpoints and reports where
a ``SimStats`` would, rendering as ``FAILED(kind)`` instead of raising.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Type

# Re-exported so runner users need one import for the whole taxonomy.
from repro.gpusim.config import InvalidConfigError
from repro.gpusim.sanitizer import InvariantViolationError
from repro.gpusim.watchdog import SimulationHangError


class JobError(Exception):
    """Base class: one sweep cell failed. ``kind`` is the stable wire name."""

    kind = "JobError"
    retryable = False

    def __init__(self, message: str, state_dump: Optional[dict] = None) -> None:
        super().__init__(message)
        self.state_dump = dict(state_dump or {})


class JobTimeout(JobError):
    """The worker exceeded the per-job wall-clock timeout and was killed."""

    kind = "JobTimeout"


class JobCrash(JobError):
    """The worker process died (signal / nonzero exit) or raised an
    unclassified exception.  The one *transient* failure: retried with
    exponential backoff up to the retry budget."""

    kind = "JobCrash"
    retryable = True


class SimulationHang(JobError):
    """The forward-progress watchdog (or ``max_cycles`` deadman) fired
    inside the simulator; ``state_dump`` carries its diagnostic snapshot."""

    kind = "SimulationHang"


class InvalidConfig(JobError):
    """The job spec cannot run: bad GPU configuration, unknown app or
    mechanism.  Never retried."""

    kind = "InvalidConfig"


class WorkerLost(JobError):
    """A worker's lease expired: its heartbeats stopped while the job was
    still leased to it (process wedged, machine partitioned, heartbeat
    path stalled).  Retryable — the scheduler requeues the job with
    backoff — but every loss is counted, and a job that keeps losing
    workers is quarantined as :class:`PoisonedJob` instead of retrying
    forever."""

    kind = "worker-lost"
    retryable = True


class PoisonedJob(JobError):
    """The same job lost its worker too many consecutive times
    (``Scheduler`` ``max_losses``).  The overwhelmingly likely cause is
    the job itself (it OOMs or wedges every host it touches), so it is
    quarantined as ``FAILED(poison)`` — the sweep degrades gracefully
    instead of grinding on a cell that will never finish."""

    kind = "poison"


class CheckpointTorn(JobError):
    """A checkpoint record was torn mid-write by a killed writer.  The
    fragment is quarantined to ``<checkpoint>.corrupt`` on load and the
    affected job simply re-runs; the kind exists so the taxonomy (and
    :func:`is_retryable`) can name the condition — it is never retried
    *as a job error* because it never reaches a worker."""

    kind = "checkpoint:torn"


class InvariantViolation(JobError):
    """The simulation sanitizer (:mod:`repro.gpusim.sanitizer`) caught a
    broken conservation law mid-run.  The instance ``kind`` is
    ``invariant:<name>`` so the wire form / ``FAILED(...)`` marker names
    the specific law; the class-level kind is the taxonomy family.  Never
    retried: the simulation is seeded, so the violation is deterministic,
    and the stats it would produce are corrupt by definition."""

    kind = "InvariantViolation"

    def __init__(self, message: str, invariant: str = "unknown",
                 state_dump: Optional[dict] = None) -> None:
        super().__init__(message, state_dump=state_dump)
        self.invariant = invariant
        self.kind = "invariant:%s" % invariant


ERROR_KINDS: Dict[str, Type[JobError]] = {
    cls.kind: cls
    for cls in (
        JobTimeout, JobCrash, SimulationHang, InvalidConfig,
        InvariantViolation, WorkerLost, PoisonedJob, CheckpointTorn,
    )
}


def error_from_kind(kind: str, message: str,
                    state_dump: Optional[dict] = None) -> JobError:
    """Rebuild a typed error from its wire form (worker pipe / checkpoint)."""
    if kind.startswith("invariant:"):
        return InvariantViolation(
            message, invariant=kind.split(":", 1)[1], state_dump=state_dump
        )
    return ERROR_KINDS.get(kind, JobCrash)(message, state_dump=state_dump)


def is_retryable(kind: str) -> bool:
    """Retry policy from the wire kind alone (what the scheduler sees).  Only
    known-transient kinds retry; anything unrecognized — including every
    ``invariant:<name>`` — is presumed deterministic and fails fast."""
    if kind.startswith("invariant:"):
        return False
    cls = ERROR_KINDS.get(kind)
    return bool(cls is not None and cls.retryable)


@dataclass
class FailedResult:
    """Graceful stand-in for a cell whose simulation never produced stats.

    Carries ``failed = True`` so figure/report code can detect it with one
    ``getattr`` and render ``FAILED(kind)`` markers instead of raising.
    """

    kind: str
    message: str = ""
    attempts: int = 1
    state_dump: dict = field(default_factory=dict)

    failed = True

    @property
    def reason(self) -> str:
        return self.kind

    def __str__(self) -> str:
        return "FAILED(%s)" % self.kind

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "message": self.message,
            "attempts": self.attempts,
            "state_dump": self.state_dump,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "FailedResult":
        return cls(
            kind=data.get("kind", "JobCrash"),
            message=data.get("message", ""),
            attempts=data.get("attempts", 1),
            state_dump=data.get("state_dump") or {},
        )


__all__ = [
    "ERROR_KINDS",
    "CheckpointTorn",
    "FailedResult",
    "InvalidConfig",
    "InvalidConfigError",
    "InvariantViolation",
    "InvariantViolationError",
    "JobCrash",
    "JobError",
    "JobTimeout",
    "PoisonedJob",
    "SimulationHang",
    "SimulationHangError",
    "WorkerLost",
    "error_from_kind",
    "is_retryable",
]
