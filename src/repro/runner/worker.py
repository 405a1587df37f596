"""The worker side of the scheduler/worker split.

:func:`worker_main` is the entry point a
:class:`~repro.runner.transport.SubprocessTransport` slot runs: a claim
loop that receives ``assign`` messages, executes the job via the shared
:func:`repro.runner.jobs.execute_job` machinery, proves liveness with a
heartbeat thread while the simulation is in flight, and ships the
outcome back as a ``result`` message.  Typed failures travel as data
(:func:`execute_payload`); a worker that dies without sending (SIGKILL,
interpreter abort) is classified by the scheduler from its exit code and
its job recovered through the lease machinery.

Workers ignore ``SIGINT``: on a ^C the *scheduler* decides what happens
(graceful drain — in-flight jobs finish and checkpoint — versus abort),
and a worker that killed itself on the shared terminal signal would turn
every drain into a crash storm.  ``SIGTERM`` keeps its default action,
and a worker whose scheduler died sees EOF on its pipe and exits, so no
worker outlives the sweep that started it.

Chaos hooks (:class:`~repro.gpusim.faults.RunnerFaultPlan`): the
``worker.kill`` site SIGKILLs the process at a seeded lease phase —
``claim`` (assignment received, nothing ran) or ``report`` (job executed
fully, result never sent) — and ``worker.heartbeat_stall`` suppresses
the heartbeat thread and withholds the finished result past the lease
window, so the scheduler must steal the job back and another worker must
re-run it.  Both decide from a pure hash of (seed, site, key, attempt),
so a respawned worker keeps the exact fault schedule of its predecessor.
"""

from __future__ import annotations

import os
import signal
import threading
import time
import traceback
from typing import Any, Dict, Optional, Sequence

from repro.gpusim.faults import RunnerFaultInjector, RunnerFaultPlan

from .errors import JobError
from .jobs import JobSpec, execute_job


def execute_payload(spec_dict: Dict[str, Any]) -> Dict[str, Any]:
    """Run one job in the current process; return the wire-form body of
    its ``result`` message (``status`` plus ``stats`` or ``error``).

    Shared by the subprocess worker loop and the inline transport so the
    two modes classify failures identically.
    """
    try:
        spec = JobSpec.from_dict(spec_dict)
        stats = execute_job(spec)
        return {"status": "ok", "stats": stats.to_json_dict()}
    except JobError as exc:
        return {
            "status": "failed",
            "error": {
                "kind": exc.kind,
                "message": str(exc),
                "state_dump": exc.state_dump,
            },
        }
    except BaseException as exc:  # noqa: BLE001 - the wire is the only way out
        return {
            "status": "failed",
            "error": {
                "kind": "JobCrash",
                "message": "worker raised %s: %s\n%s"
                % (type(exc).__name__, exc, traceback.format_exc(limit=10)),
                "state_dump": {},
            },
        }


class _HeartbeatThread(threading.Thread):
    """Sends one heartbeat per interval while a job is in flight."""

    def __init__(self, send: Any, worker_id: int, key: str, attempt: int,
                 interval_s: float) -> None:
        super().__init__(daemon=True)
        self._send = send
        self._message = {
            "type": "heartbeat", "worker": worker_id, "key": key,
            "attempt": attempt,
        }
        self._interval_s = interval_s
        # NB: not "_stop" — that would shadow threading.Thread internals.
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.wait(self._interval_s):
            self._send(dict(self._message))

    def finish(self) -> None:
        self._halt.set()
        self.join(timeout=1.0)


def worker_main(worker_id: int, conn: Any, heartbeat_s: float,
                fault_plan: Optional[Dict[str, Any]] = None,
                inherited: Sequence[Any] = ()) -> None:
    """Subprocess entry: the claim/execute/report loop (see module doc).

    ``inherited`` are the scheduler-side pipe ends a forked worker holds
    copies of; closing them lets ``recv`` see EOF when the scheduler
    dies, so the worker exits instead of outliving it.
    """
    for other in inherited:
        other.close()
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        # A worker forked from ``snake-repro sweep`` inherits its drain
        # handler; the default action lets SIGTERM stop the worker.
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except (OSError, ValueError):
        pass  # non-main thread in an embedded context; drain still works
    injector = (
        RunnerFaultInjector(RunnerFaultPlan.from_dict(fault_plan))
        if fault_plan else None
    )
    send_lock = threading.Lock()

    def send(message: Dict[str, Any]) -> None:
        try:
            with send_lock:
                conn.send(message)
        except (OSError, ValueError):
            pass  # scheduler went away; the claim loop exits on recv

    send({"type": "ready", "worker": worker_id})
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if not isinstance(message, dict) or message.get("type") == "stop":
            break
        if message.get("type") != "assign":
            continue
        key = str(message["key"])
        attempt = int(message["attempt"])
        killed = injector is not None and injector.job_fires(
            "worker.kill", key, attempt,
        )
        phase = injector.kill_phase(key, attempt) if (
            killed and injector is not None
        ) else ""
        if killed and phase == "claim":
            os.kill(os.getpid(), signal.SIGKILL)
        stalled = injector is not None and injector.job_fires(
            "worker.heartbeat_stall", key, attempt,
        )
        heartbeat: Optional[_HeartbeatThread] = None
        if not stalled:
            heartbeat = _HeartbeatThread(
                send, worker_id, key, attempt, heartbeat_s
            )
            heartbeat.start()
        payload = execute_payload(message["spec"])
        if heartbeat is not None:
            heartbeat.finish()
        if killed and phase == "report":
            os.kill(os.getpid(), signal.SIGKILL)
        if stalled and injector is not None:
            time.sleep(injector.stall_s(key, attempt))
        result: Dict[str, Any] = {
            "type": "result", "worker": worker_id, "key": key,
            "attempt": attempt,
        }
        result.update(payload)
        send(result)
    try:
        conn.close()
    except (OSError, ValueError):
        pass


__all__ = ["execute_payload", "worker_main"]
