"""The sweep scheduler: leases, heartbeats, and chaos-proof work stealing.

:class:`Scheduler` drives a set of :class:`~repro.runner.jobs.JobSpec`
cells to completion over a pluggable :class:`~repro.runner.transport.
Transport`.  It owns four pieces of state and nothing else:

* **Shard queues** — pending jobs are sharded by their deterministic job
  hash (:func:`~repro.runner.jobs.shard_of`), one deque per worker slot.
  An idle worker drains its own shard first and *steals* from the tail
  of the longest other shard when its own runs dry, so a straggler shard
  never idles the fleet while assignment stays deterministic for a given
  message ordering.
* **The lease table** — every in-flight job is held under an expiring
  :class:`~repro.runner.leases.Lease`, renewed by worker heartbeats.
  Silence past the lease window revokes the job (``worker-lost``) and
  requeues it with backoff; too many consecutive losses quarantine the
  cell as ``FAILED(poison)`` so one wedging job degrades gracefully
  instead of wedging the sweep.
* **The settled set** — results are deduplicated by job hash: the first
  result for a key settles it (checkpoint append + ``on_result``,
  exactly once); any later delivery — a duplicated message, a stale
  worker racing its replacement — is counted and dropped.
* **The checkpoint** — finished cells stream into the atomic JSONL
  checkpoint *before* ``on_result`` fires, so SIGKILLing the scheduler
  at any instant loses only in-flight cells and ``--resume`` replays
  byte-identically.

Failure taxonomy as the scheduler sees it (see
:mod:`repro.runner.errors` and ``docs/ROBUSTNESS.md``):

==================  ====================================================
observation         recovery
==================  ====================================================
worker process died requeue with backoff while the crash budget
without a result    (``retries``) lasts, then ``FAILED(JobCrash)``
lease expired       revoke + SIGKILL the silent worker, requeue as
(heartbeats stopped ``worker-lost``; after ``max_losses`` losses the
while leased)       cell is quarantined ``FAILED(poison)``
job over its        SIGKILL the worker, ``FAILED(JobTimeout)``, never
wall-clock budget   retried (deterministic for a given load regime)
worker *reported*   retried only on an isolating transport (an inline
a retryable error   "crash" already ran in this process; re-running
                    it in the same process cannot help)
duplicate result    dropped (exactly-once effects via the settled set)
==================  ====================================================

Time is injected (:class:`~repro.runner.transport.WallClock` /
:class:`~repro.runner.transport.VirtualClock`); the scheduler never
calls ``time.*`` directly, so every recovery path above — including the
full chaos soak — runs deterministically with no real waiting.

Graceful drain: :meth:`Scheduler.request_drain` (wired to SIGINT /
SIGTERM by the CLI) stops new assignments, lets in-flight jobs finish
within ``drain_timeout_s``, flushes the checkpoint and returns a
:class:`SweepResult` with ``drained=True`` — the remainder resumes with
``--resume``.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Callable, Deque, Dict, List, Optional, Sequence, Set, Tuple, Union,
)

from repro.gpusim.faults import RunnerFaultInjector
from repro.gpusim.stats import SimStats
from repro.obs.events import BusLike, NULL_BUS, RunnerJobEvent, RunnerLeaseEvent

from .checkpoint import Checkpoint, make_record
from .errors import FailedResult, is_retryable
from .jobs import JobSpec, job_hash, shard_of
from .leases import DEFAULT_LEASE_S, Lease, LeaseTable
from .transport import (
    InlineTransport,
    Message,
    SubprocessTransport,
    Transport,
    VirtualClock,
    WallClock,
)

#: Default per-crash retry budget (attempts = retries + 1).
DEFAULT_RETRIES = 2
#: First backoff delay; doubles per attempt.
DEFAULT_BACKOFF_S = 0.25
#: Consecutive lease losses before a job is quarantined as poison.
DEFAULT_MAX_LOSSES = 3
#: How long a graceful drain waits for in-flight jobs before killing them.
DEFAULT_DRAIN_TIMEOUT_S = 30.0
#: Idle poll interval (also the virtual-clock tick in tests).
POLL_INTERVAL_S = 0.005

Clock = Union[WallClock, VirtualClock]
Outcome = Union[SimStats, FailedResult]
OnResult = Callable[[str, JobSpec, object], None]


def default_jobs() -> int:
    """A conservative worker-count default for the CLI."""
    return max(1, min(4, (os.cpu_count() or 2) - 1))


@dataclass
class SweepResult:
    """Outcome of one scheduler run.

    ``results`` maps job hash -> ``SimStats`` | :class:`FailedResult`;
    ``specs`` maps the same hashes back to their specs.  ``executed`` /
    ``reused`` / ``failed`` count cells run this invocation, cells
    satisfied from the checkpoint, and cells that ended failed (either
    way).  The remaining fields are the scheduler's robustness ledger:
    ``drained`` (a graceful shutdown cut the run short, ``remaining``
    cells unrun), ``duplicates`` (results dropped by exactly-once
    dedup), ``losses`` (lease expiries), ``steals`` (cross-shard
    claims).
    """

    results: Dict[str, object] = field(default_factory=dict)
    specs: Dict[str, JobSpec] = field(default_factory=dict)
    executed: int = 0
    reused: int = 0
    failed: int = 0
    drained: bool = False
    remaining: int = 0
    duplicates: int = 0
    losses: int = 0
    steals: int = 0

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def cells(self) -> Dict[str, Dict[str, object]]:
        """Nested ``{app: {mechanism: result}}`` view of a grid sweep."""
        out: Dict[str, Dict[str, object]] = {}
        for key, spec in self.specs.items():
            out.setdefault(spec.app, {})[spec.mechanism] = self.results[key]
        return out


@dataclass
class _Pending:
    """One queue entry: a job waiting (possibly under backoff) to run."""

    spec: JobSpec
    key: str
    attempt: int
    not_before: float = 0.0


class Scheduler:
    """See the module docstring for the architecture."""

    def __init__(
        self,
        specs: Sequence[JobSpec],
        *,
        transport: Optional[Transport] = None,
        jobs: int = 0,
        timeout: Optional[float] = None,
        retries: int = DEFAULT_RETRIES,
        backoff_s: float = DEFAULT_BACKOFF_S,
        lease_s: Optional[float] = None,
        max_losses: int = DEFAULT_MAX_LOSSES,
        drain_timeout_s: float = DEFAULT_DRAIN_TIMEOUT_S,
        checkpoint: Optional[Checkpoint] = None,
        resume: bool = False,
        retry_failed: bool = False,
        on_result: Optional[OnResult] = None,
        obs: Optional[BusLike] = None,
        clock: Optional[Clock] = None,
        faults: Optional[RunnerFaultInjector] = None,
    ) -> None:
        self._specs = list(specs)
        self._timeout = timeout
        self._retries = max(0, int(retries))
        self._backoff_s = float(backoff_s)
        self._max_losses = max(1, int(max_losses))
        self._drain_timeout_s = float(drain_timeout_s)
        self._checkpoint = checkpoint
        self._resume = resume
        self._retry_failed = retry_failed
        self._on_result = on_result
        self._bus: BusLike = obs if obs is not None else NULL_BUS
        self._clock: Clock = clock if clock is not None else WallClock()
        self._faults = faults
        if lease_s is None:
            # Inline virtual workers cannot die silently without a fault
            # injector, so the inline jobs=0 mode runs lease-less.
            lease_s = DEFAULT_LEASE_S if (jobs > 0 or faults is not None) else 0.0
        self._lease_s = float(lease_s)
        if transport is None:
            transport = self._default_transport(jobs)
        self._transport = transport

        # Mutable run state.
        self._result = SweepResult()
        self._shards: List[Deque[_Pending]] = [
            deque() for _ in range(self._transport.workers)
        ]
        self._leases = LeaseTable()
        self._idle: Set[int] = set()
        self._settled: Set[str] = set()
        self._crashes: Dict[str, int] = {}
        self._loss_count: Dict[str, int] = {}
        self._first_start: Dict[str, float] = {}
        self._remaining = 0
        self._draining = False
        self._drain_deadline: Optional[float] = None
        #: workers known dead and deliberately left down (drain mode)
        self._down: Set[int] = set()

    def _default_transport(self, jobs: int) -> Transport:
        if jobs <= 0:
            return InlineTransport(workers=1, faults=self._faults)
        plan = self._faults.plan.to_dict() if self._faults is not None else None
        return SubprocessTransport(
            jobs, lease_s=self._lease_s or DEFAULT_LEASE_S,
            faults=self._faults, fault_plan=plan,
        )

    # ------------------------------------------------------------------
    # Public surface

    def request_drain(self) -> None:
        """Begin a graceful shutdown: no new assignments; in-flight jobs
        get ``drain_timeout_s`` to finish and checkpoint, then die.
        Idempotent, async-signal-safe (sets flags only)."""
        self._draining = True

    @property
    def draining(self) -> bool:
        return self._draining

    def run(self) -> SweepResult:
        """Run every spec to settlement (or drain); never raises for a
        failing *cell* — see :class:`FailedResult`."""
        todo = self._prepare()
        if not todo:
            return self._result
        for pending in todo:
            self._enqueue(pending)
        self._remaining = len(todo)
        self._transport.start()
        try:
            self._loop()
        finally:
            self._transport.stop()
        if self._remaining:
            self._result.drained = True
            self._result.remaining = self._remaining
        return self._result

    # ------------------------------------------------------------------
    # Setup: dedup, checkpoint reuse

    def _prepare(self) -> List[_Pending]:
        result = self._result
        ordered: List[JobSpec] = []
        for spec in self._specs:
            key = job_hash(spec)
            if key in result.specs:
                continue
            result.specs[key] = spec
            ordered.append(spec)
        if self._checkpoint is not None and not self._resume:
            self._checkpoint.discard()
        todo: List[_Pending] = []
        for spec in ordered:
            key = job_hash(spec)
            prior = (
                self._checkpoint.result_for(key)
                if self._checkpoint is not None else None
            )
            if prior is not None and not (
                self._retry_failed and getattr(prior, "failed", False)
            ):
                result.results[key] = prior
                result.reused += 1
                if getattr(prior, "failed", False):
                    result.failed += 1
                self._emit_job(key, spec, phase="reused")
                continue
            todo.append(_Pending(spec=spec, key=key, attempt=1))
        return todo

    # ------------------------------------------------------------------
    # The event loop

    def _loop(self) -> None:
        while self._remaining:
            now = self._clock.now()
            progressed = False
            for worker, message in self._transport.poll(now):
                if self._handle_message(worker, message, now):
                    progressed = True
            if self._reap_dead(now):
                progressed = True
            if self._enforce_deadlines(now):
                progressed = True
            if self._enforce_leases(now):
                progressed = True
            if self._draining:
                if self._drain_deadline is None:
                    self._drain_deadline = now + self._drain_timeout_s
                    self._emit_lease(
                        "", -1, "drain",
                        detail="%d in flight, %d queued"
                        % (len(self._leases), self._queued()),
                    )
                if len(self._leases) == 0:
                    break
                if now >= self._drain_deadline:
                    for lease in self._leases.active():
                        self._revoke(lease, now)
                    break
            elif self._assign(now):
                progressed = True
            if not progressed and self._remaining:
                self._clock.sleep(POLL_INTERVAL_S)

    def _queued(self) -> int:
        return sum(len(shard) for shard in self._shards)

    # ------------------------------------------------------------------
    # Message handling

    def _handle_message(self, worker: int, message: Message,
                        now: float) -> bool:
        kind = message.get("type")
        if kind == "ready":
            self._idle.add(worker)
            return True
        if kind == "heartbeat":
            lease = self._leases.for_worker(worker)
            if (
                lease is not None
                and lease.key == message.get("key")
                and lease.attempt == message.get("attempt")
            ):
                lease.renew(now)
                self._emit_lease(
                    lease.key, worker, "renew", attempt=lease.attempt,
                    detail="heartbeat %d" % lease.heartbeats,
                )
            return False
        if kind == "result":
            return self._handle_result(worker, message, now)
        return False

    def _handle_result(self, worker: int, message: Message,
                       now: float) -> bool:
        key = str(message.get("key", ""))
        attempt = int(message.get("attempt", 1))
        lease = self._leases.for_worker(worker)
        if lease is not None and lease.key == key:
            self._leases.release(worker)
            self._emit_lease(key, worker, "release", attempt=lease.attempt)
            if self._transport.alive(worker):
                self._idle.add(worker)
        if key in self._settled or key not in self._result.specs:
            self._result.duplicates += 1
            self._emit_lease(
                key, worker, "duplicate", attempt=attempt,
                detail="result for settled job dropped",
            )
            return True
        spec = self._result.specs[key]
        if message.get("status") == "ok":
            self._settle(
                spec, key, SimStats.from_json_dict(message["stats"]),
                attempts=attempt, now=now,
            )
            return True
        error = message.get("error") or {}
        kind = str(error.get("kind", "JobCrash"))
        failure = FailedResult(
            kind=kind,
            message=str(error.get("message", "")),
            attempts=attempt,
            state_dump=error.get("state_dump") or {},
        )
        if is_retryable(kind) and self._transport.isolated:
            self._crashes[key] = self._crashes.get(key, 0) + 1
            if self._crashes[key] <= self._retries:
                self._requeue_crash(spec, key, attempt, now, kind)
                return True
        self._settle(spec, key, failure, attempts=attempt, now=now)
        return True

    # ------------------------------------------------------------------
    # Failure detection: dead workers, deadlines, lease expiry

    def _reap_dead(self, now: float) -> bool:
        progressed = False
        for worker in range(self._transport.workers):
            if worker in self._down or self._transport.alive(worker):
                continue
            progressed = True
            self._idle.discard(worker)
            detail = self._transport.exit_detail(worker)
            lease = self._leases.for_worker(worker)
            if lease is not None:
                self._leases.release(worker)
                self._transport.kill(worker, now)
                key, spec = lease.key, self._result.specs[lease.key]
                self._emit_lease(
                    key, worker, "release", attempt=lease.attempt,
                    detail="worker died: %s" % detail,
                )
                if key not in self._settled:
                    self._crashes[key] = self._crashes.get(key, 0) + 1
                    if self._crashes[key] <= self._retries:
                        self._requeue_crash(
                            spec, key, lease.attempt, now, "JobCrash"
                        )
                    else:
                        self._settle(
                            spec, key,
                            FailedResult(
                                kind="JobCrash",
                                message="worker died (%s) without reporting"
                                % detail,
                                attempts=lease.attempt,
                            ),
                            attempts=lease.attempt, now=now,
                        )
            else:
                self._transport.kill(worker, now)
            if self._draining:
                self._down.add(worker)
            else:
                self._transport.respawn(worker, now)
        return progressed

    def _enforce_deadlines(self, now: float) -> bool:
        progressed = False
        for lease in self._leases.timed_out(now):
            progressed = True
            spec = self._result.specs[lease.key]
            self._revoke(lease, now)
            self._settle(
                spec, lease.key,
                FailedResult(
                    kind="JobTimeout",
                    message="job %s exceeded the %.1fs wall-clock timeout"
                    % (spec.label(), self._timeout or 0.0),
                    attempts=lease.attempt,
                ),
                attempts=lease.attempt, now=now,
            )
        return progressed

    def _enforce_leases(self, now: float) -> bool:
        progressed = False
        for lease in self._leases.expired(now):
            progressed = True
            key = lease.key
            spec = self._result.specs[key]
            self._result.losses += 1
            self._loss_count[key] = self._loss_count.get(key, 0) + 1
            self._emit_lease(
                key, lease.worker, "expire", attempt=lease.attempt,
                detail="no heartbeat for %.1fs (lease %.1fs)"
                % (now - lease.last_heartbeat, lease.lease_s),
            )
            self._revoke(lease, now)
            if self._loss_count[key] >= self._max_losses:
                self._emit_lease(
                    key, lease.worker, "quarantine", attempt=lease.attempt,
                    detail="poisoned after %d lost workers"
                    % self._loss_count[key],
                )
                self._settle(
                    spec, key,
                    FailedResult(
                        kind="poison",
                        message="job %s lost %d workers in a row "
                        "(last: lease expired on worker %d); quarantined"
                        % (spec.label(), self._loss_count[key], lease.worker),
                        attempts=lease.attempt,
                    ),
                    attempts=lease.attempt, now=now,
                )
            else:
                backoff = self._backoff_s * (2 ** (self._loss_count[key] - 1))
                self._emit_job(
                    key, spec, phase="retry", attempt=lease.attempt + 1,
                    error_kind="worker-lost",
                )
                self._enqueue(
                    _Pending(
                        spec=spec, key=key, attempt=lease.attempt + 1,
                        not_before=now + backoff,
                    )
                )
        return progressed

    def _revoke(self, lease: Lease, now: float) -> None:
        """Take a job back from its worker by force: release the lease,
        SIGKILL the (wedged, stalled, or over-budget) worker, respawn."""
        self._leases.release(lease.worker)
        self._idle.discard(lease.worker)
        self._transport.kill(lease.worker, now)
        if self._draining:
            self._down.add(lease.worker)
        else:
            self._transport.respawn(lease.worker, now)

    def _requeue_crash(self, spec: JobSpec, key: str, attempt: int,
                       now: float, error_kind: str) -> None:
        backoff = self._backoff_s * (2 ** (self._crashes.get(key, 1) - 1))
        self._emit_job(
            key, spec, phase="retry", attempt=attempt + 1,
            error_kind=error_kind,
        )
        self._enqueue(
            _Pending(
                spec=spec, key=key, attempt=attempt + 1,
                not_before=now + backoff,
            )
        )

    # ------------------------------------------------------------------
    # Assignment: shard queues + work stealing

    def _enqueue(self, pending: _Pending) -> None:
        shard = shard_of(pending.key, len(self._shards))
        self._shards[shard].append(pending)

    def _claim(self, worker: int, now: float) -> Optional[Tuple[_Pending, int]]:
        """Next runnable entry for ``worker``: own shard first, then the
        tail of the longest other shard (a steal).  Returns the entry and
        the shard it was stolen from (-1 = the worker's own shard)."""
        own = self._shards[worker]
        for index, pending in enumerate(own):
            if pending.not_before <= now:
                del own[index]
                return pending, -1
        victims = sorted(
            (shard for shard in range(len(self._shards)) if shard != worker),
            key=lambda shard: len(self._shards[shard]),
            reverse=True,
        )
        for victim in victims:
            queue = self._shards[victim]
            for index in range(len(queue) - 1, -1, -1):
                if queue[index].not_before <= now:
                    pending = queue[index]
                    del queue[index]
                    self._result.steals += 1
                    self._emit_lease(
                        pending.key, worker, "steal", attempt=pending.attempt,
                        detail="from shard %d" % victim,
                    )
                    return pending, victim
        return None

    def _assign(self, now: float) -> bool:
        progressed = False
        for worker in sorted(self._idle):
            if self._leases.for_worker(worker) is not None:
                continue
            claimed = self._claim(worker, now)
            if claimed is None:
                continue
            pending, stolen_from = claimed
            self._idle.discard(worker)
            deadline = (now + self._timeout) if self._timeout else None
            lease = self._leases.grant(
                pending.key, worker, pending.attempt, now,
                self._lease_s, deadline=deadline, stolen_from=stolen_from,
            )
            self._first_start.setdefault(pending.key, now)
            self._emit_lease(
                pending.key, worker, "grant", attempt=pending.attempt,
                detail="lease %.1fs" % lease.lease_s,
            )
            self._emit_job(
                pending.key, pending.spec,
                phase="start" if pending.attempt == 1 else "retry",
                attempt=pending.attempt,
            )
            self._transport.assign(
                worker,
                {
                    "type": "assign",
                    "key": pending.key,
                    "spec": pending.spec.to_dict(),
                    "attempt": pending.attempt,
                    "lease_s": self._lease_s,
                },
            )
            progressed = True
        return progressed

    # ------------------------------------------------------------------
    # Settlement: exactly-once effects

    def _settle(self, spec: JobSpec, key: str, outcome: Outcome,
                attempts: int, now: float) -> None:
        if key in self._settled:
            return
        self._settled.add(key)
        self._remaining -= 1
        result = self._result
        elapsed = now - self._first_start.get(key, now)
        result.results[key] = outcome
        result.executed += 1
        failed = bool(getattr(outcome, "failed", False))
        if failed:
            result.failed += 1
        if self._checkpoint is not None:
            self._checkpoint.append(
                make_record(key, spec.to_dict(), outcome, attempts, elapsed)
            )
            if self._faults is not None and self._faults.message_fires(
                "checkpoint.torn", key,
                detail="torn trailing write after %s" % key,
            ):
                self._checkpoint.tear()
        self._emit_job(
            key, spec,
            phase="failed" if failed else "done",
            attempt=attempts,
            error_kind=outcome.kind if isinstance(outcome, FailedResult) else "",
            elapsed_s=elapsed,
        )
        if self._on_result is not None:
            self._on_result(key, spec, outcome)

    # ------------------------------------------------------------------
    # Telemetry

    def _emit_job(self, key: str, spec: JobSpec, *, phase: str,
                  attempt: int = 1, error_kind: str = "",
                  elapsed_s: float = 0.0) -> None:
        if self._bus.enabled:
            self._bus.emit(
                RunnerJobEvent(
                    cycle=0, sm_id=-1, key=key, app=spec.app,
                    mechanism=spec.mechanism, phase=phase, attempt=attempt,
                    error_kind=error_kind, elapsed_s=elapsed_s,
                )
            )

    def _emit_lease(self, key: str, worker: int, action: str, *,
                    attempt: int = 1, detail: str = "") -> None:
        if self._bus.enabled:
            self._bus.emit(
                RunnerLeaseEvent(
                    cycle=0, sm_id=-1, key=key, worker=worker, action=action,
                    attempt=attempt, detail=detail,
                )
            )


__all__ = [
    "DEFAULT_BACKOFF_S",
    "DEFAULT_DRAIN_TIMEOUT_S",
    "DEFAULT_MAX_LOSSES",
    "DEFAULT_RETRIES",
    "POLL_INTERVAL_S",
    "Scheduler",
    "SweepResult",
    "default_jobs",
]
