"""Job specification, deterministic hashing, and in-worker execution.

A :class:`JobSpec` pins *every* knob that changes a simulation's result:
application, mechanism, scale, seed, the full GPU configuration and all
mechanism kwargs.  :func:`job_hash` digests the canonical JSON form, and
that hash is the one identity used everywhere — the sweep memo key in
:mod:`repro.analysis.experiments` (replacing the old ad-hoc tuple that
silently ignored ``mech_kwargs``), the checkpoint record key, and the
resume dedup key.  Two specs hash equal iff they simulate identically.

``fault`` is the chaos-injection hook for the resilience test suite: it
lets a test make a *real* subprocess worker crash (SIGKILL), stall, or
livelock on demand, so crash isolation and the watchdog are exercised end
to end rather than mocked.  Production sweeps leave it ``None``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import signal
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, Mapping, Optional, Tuple, Union

from repro.bench.schema import BENCH_SCHEMA_VERSION
from repro.gpusim import GPUConfig, SimStats
from repro.gpusim.config import InvalidConfigError
from repro.gpusim.gpu import GPU
from repro.gpusim.sanitizer import InvariantViolationError

from .errors import (
    InvalidConfig,
    InvariantViolation,
    SimulationHang,
    SimulationHangError,
)


@dataclass(frozen=True)
class JobSpec:
    """One (app, mechanism, config, scale, seed) grid cell.

    ``config`` is the plain-dict form of a :class:`GPUConfig` (``None`` =
    the ``scaled()`` preset) and ``mech_kwargs`` a sorted tuple of pairs,
    so a spec is picklable for the worker pipe and JSON-safe for the
    checkpoint.  Build via :meth:`make`, not the raw constructor.
    """

    app: str
    mechanism: str
    scale: float = 1.0
    seed: int = 1
    config: Optional[Mapping[str, Any]] = None
    mech_kwargs: Tuple[Tuple[str, Any], ...] = ()
    fault: Optional[str] = None  # chaos hook; see module docstring

    @classmethod
    def make(
        cls,
        app: str,
        mechanism: str,
        config: Union[GPUConfig, Mapping[str, Any], None] = None,
        scale: float = 1.0,
        seed: int = 1,
        fault: Optional[str] = None,
        **mech_kwargs: Any,
    ) -> "JobSpec":
        if isinstance(config, GPUConfig):
            config = config.to_dict()
        elif config is not None:
            config = dict(config)
        return cls(
            app=app,
            mechanism=mechanism,
            scale=float(scale),
            seed=int(seed),
            config=config,
            mech_kwargs=tuple(sorted(mech_kwargs.items())),
            fault=fault,
        )

    def to_dict(self) -> dict:
        return {
            "app": self.app,
            "mechanism": self.mechanism,
            "scale": self.scale,
            "seed": self.seed,
            "config": dict(self.config) if self.config is not None else None,
            "mech_kwargs": {k: v for k, v in self.mech_kwargs},
            "fault": self.fault,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "JobSpec":
        return cls.make(
            data["app"],
            data["mechanism"],
            config=data.get("config"),
            scale=data.get("scale", 1.0),
            seed=data.get("seed", 1),
            fault=data.get("fault"),
            **(data.get("mech_kwargs") or {}),
        )

    def gpu_config(self) -> GPUConfig:
        if self.config is None:
            return GPUConfig.scaled()
        return GPUConfig.from_dict(self.config)

    def label(self) -> str:
        extra = ",".join("%s=%s" % kv for kv in self.mech_kwargs)
        return "%s/%s%s" % (self.app, self.mechanism, "[%s]" % extra if extra else "")


def engine_fingerprint(spec: JobSpec) -> dict:
    """The *implementation* identity a result depends on, beyond the
    spec's own knobs: the bench schema version (bumped when the recorded
    performance surface is reinterpreted)."""
    return {"bench_schema": BENCH_SCHEMA_VERSION}


def job_hash(spec: JobSpec) -> str:
    """Deterministic 16-hex-digit digest of a spec's canonical JSON form
    plus the engine fingerprint."""
    payload = json.dumps(
        {"spec": spec.to_dict(), "engine": engine_fingerprint(spec)},
        sort_keys=True, separators=(",", ":"), default=str,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def shard_of(key: str, shards: int) -> int:
    """Deterministic shard for a job hash: the scheduler's work-stealing
    queues are keyed by the leading 32 bits of the (already uniform)
    digest, so the same grid shards identically on every run and on
    every resume regardless of submission order."""
    if shards <= 1:
        return 0
    return int(key[:8], 16) % shards


# ---------------------------------------------------------------------------
# Chaos faults (resilience tests only).


@contextlib.contextmanager
def _fault_context(fault: Optional[str]) -> Iterator[None]:
    """Apply a chaos fault for the duration of one job execution.

    * ``crash`` — SIGKILL the current process immediately (a worker dying
      mid-job; the parent sees a silent exit and classifies ``JobCrash``).
    * ``crash-once:<sentinel-path>`` — SIGKILL only if the sentinel file
      does not exist yet (creating it first), so the retry succeeds:
      exercises the transient-failure/backoff path.
    * ``sleep:<seconds>`` — stall before simulating: exercises the per-job
      wall-clock timeout.
    * ``livelock`` — patch the L1 so every demand load reservation-fails
      forever: a genuine no-forward-progress loop the in-simulator
      watchdog must catch.
    """
    if not fault:
        yield
        return
    if fault == "crash":
        os.kill(os.getpid(), signal.SIGKILL)
    if fault.startswith("crash-once:"):
        sentinel = Path(fault.split(":", 1)[1])
        if not sentinel.exists():
            sentinel.write_text("armed")
            os.kill(os.getpid(), signal.SIGKILL)
        yield
        return
    if fault.startswith("sleep:"):
        time.sleep(float(fault.split(":", 1)[1]))
        yield
        return
    if fault == "livelock":
        from repro.gpusim.unified_cache import L1Outcome, UnifiedL1Cache

        def _always_fail(
            self: UnifiedL1Cache, line_addr: int, now: int,
            sector_mask: int = -1,
        ) -> Tuple[L1Outcome, int]:
            self.stats.l1_reservation_fails += 1
            return (L1Outcome.RESERVATION_FAIL, now + self.config.replay_interval)

        original = UnifiedL1Cache.demand_load
        UnifiedL1Cache.demand_load = _always_fail
        try:
            yield
        finally:
            UnifiedL1Cache.demand_load = original
        return
    raise InvalidConfig("unknown chaos fault %r" % fault)


# ---------------------------------------------------------------------------
# Execution.


def execute_job(spec: JobSpec) -> SimStats:
    """Run one job to completion in the current process.

    Raises the typed taxonomy errors (:class:`InvalidConfig`,
    :class:`SimulationHang`) — the process-pool worker forwards them over
    its pipe; inline callers catch them directly.
    """
    from repro.prefetch import build_setup
    from repro.workloads import build_kernel

    with _fault_context(spec.fault):
        try:
            config = spec.gpu_config()
            config.validate()
        except InvalidConfigError as exc:
            raise InvalidConfig(str(exc)) from exc
        try:
            kernel = build_kernel(spec.app, scale=spec.scale, seed=spec.seed)
            setup = build_setup(spec.mechanism, config, **dict(spec.mech_kwargs))
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidConfig(
                "job %s cannot be built: %s" % (spec.label(), exc)
            ) from exc
        gpu = GPU(
            config=setup.config,
            prefetcher_factory=setup.prefetcher_factory,
            throttle_factory=setup.throttle_factory,
            storage_mode=setup.storage_mode,
        )
        try:
            return gpu.run(kernel)
        except SimulationHangError as exc:
            raise SimulationHang(
                "job %s: %s" % (spec.label(), exc), state_dump=exc.state_dump
            ) from exc
        except InvariantViolationError as exc:
            raise InvariantViolation(
                "job %s: %s" % (spec.label(), exc),
                invariant=exc.invariant,
                state_dump=exc.state_dump,
            ) from exc


__all__ = ["JobSpec", "engine_fingerprint", "execute_job", "job_hash", "shard_of"]
