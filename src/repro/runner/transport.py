"""Pluggable message plane between the sweep :class:`Scheduler` and its
workers.

A :class:`Transport` owns a fixed set of worker *slots* and moves plain
``dict`` messages between them and the scheduler:

* scheduler -> worker: ``{"type": "assign", "key", "spec", "attempt",
  "lease_s"}`` and ``{"type": "stop"}``;
* worker -> scheduler: ``{"type": "ready"}``, ``{"type": "heartbeat"}``
  and ``{"type": "result", "status": "ok" | "failed", ...}``, each
  carrying the worker slot and (for job messages) the job key/attempt.

Two implementations ship today, deliberately shaped so a socket
transport can slot in later without touching the scheduler:

* :class:`InlineTransport` — virtual workers in the scheduler's own
  process; an assignment executes synchronously at the next
  :meth:`poll`.  Zero isolation, full monkeypatchability (the
  ``jobs=0`` mode), and — paired with :class:`VirtualClock` and a
  :class:`~repro.gpusim.faults.RunnerFaultInjector` — a deterministic,
  no-real-waiting harness for the whole lease/steal/requeue machinery.
* :class:`SubprocessTransport` — one persistent OS process per slot
  (fork when available), duplex pipes, a heartbeat thread per in-flight
  job.  Crash isolation and enforceable kill, the ``jobs >= 1`` mode.

Every inbound message funnels through one :class:`Inbox`, which is where
the ``transport.*`` chaos faults live: a seeded
:class:`~repro.gpusim.faults.RunnerFaultInjector` may drop, delay or
duplicate heartbeat/result deliveries (never ``ready`` — a worker that
cannot announce itself would deadlock the fleet, which is an
availability bug, not a robustness scenario).  The scheduler recovers
from all three through the lease machinery plus dedup-by-job-hash.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.gpusim.faults import RunnerFaultInjector

from .leases import heartbeat_interval
from .worker import execute_payload, worker_main

Message = Dict[str, Any]


# ---------------------------------------------------------------------------
# Clocks.  The scheduler never calls time.* directly; it asks its clock,
# so the whole orchestration layer runs (and soaks) on virtual time.


class WallClock:
    """Real time: what production sweeps run on."""

    def now(self) -> float:
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        time.sleep(seconds)


class VirtualClock:
    """Deterministic time for tests and the chaos soak: ``sleep`` simply
    advances ``now``, so a 15-second lease expires in microseconds of
    real time while preserving every ordering the wall clock would see."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def sleep(self, seconds: float) -> None:
        self._now += seconds

    def advance(self, seconds: float) -> None:
        self._now += seconds


# ---------------------------------------------------------------------------
# The faulty delivery buffer.


#: message types the chaos faults may touch
_FAULTABLE = ("heartbeat", "result")


class Inbox:
    """Ordered delivery buffer on the scheduler's receive path.

    Entries are (deliver_at, seq) ordered; ``sent_at`` records when the
    worker handed the message over, so a worker killed at time T loses
    exactly the messages it had not yet sent (``discard_unsent``) — the
    same semantics a real socket gives a dying peer.
    """

    def __init__(self, faults: Optional[RunnerFaultInjector] = None) -> None:
        self._heap: List[Tuple[float, int, float, int, Message]] = []
        self._seq = 0
        self._faults = faults

    def put(self, worker: int, message: Message, now: float,
            sent_at: Optional[float] = None) -> None:
        sent = now if sent_at is None else sent_at
        deliver = max(now, sent)
        faults = self._faults
        if faults is not None and message.get("type") in _FAULTABLE:
            key = str(message.get("key", ""))
            kind = str(message.get("type"))
            if faults.message_fires(
                "transport.drop", key, detail="dropped %s for %s" % (kind, key)
            ):
                return
            if faults.message_fires(
                "transport.delay", key, detail="delayed %s for %s" % (kind, key)
            ):
                deliver += faults.delay_s(key)
            if faults.message_fires(
                "transport.dup", key, detail="duplicated %s for %s" % (kind, key)
            ):
                self._push(deliver, sent, worker, dict(message))
        self._push(deliver, sent, worker, message)

    def _push(self, deliver_at: float, sent_at: float, worker: int,
              message: Message) -> None:
        heapq.heappush(
            self._heap, (deliver_at, self._seq, sent_at, worker, message)
        )
        self._seq += 1

    def drain(self, now: float) -> List[Tuple[int, Message]]:
        """Every message due by ``now``, in delivery order."""
        out: List[Tuple[int, Message]] = []
        while self._heap and self._heap[0][0] <= now:
            _, _, _, worker, message = heapq.heappop(self._heap)
            out.append((worker, message))
        return out

    def discard_unsent(self, worker: int, killed_at: float) -> None:
        """Drop messages ``worker`` had not yet handed over when it was
        killed (sent messages survive, exactly like a real pipe)."""
        kept = [
            entry for entry in self._heap
            if not (entry[3] == worker and entry[2] > killed_at)
        ]
        if len(kept) != len(self._heap):
            self._heap = kept
            heapq.heapify(self._heap)

    def __len__(self) -> int:
        return len(self._heap)


# ---------------------------------------------------------------------------
# Transport interface.


class Transport:
    """What the scheduler requires of any worker plane.

    ``workers`` is the fixed slot count; ``isolated`` tells the
    scheduler whether a worker failure is contained (subprocesses) or
    shares its own fate (inline) — retry policy for worker-*reported*
    failures differs between the two (an inline "crash" already ran in
    this very process; re-running it could not help).
    """

    workers: int = 1
    isolated: bool = False

    def start(self) -> None:
        raise NotImplementedError

    def assign(self, worker: int, message: Message) -> None:
        raise NotImplementedError

    def poll(self, now: float) -> List[Tuple[int, Message]]:
        raise NotImplementedError

    def alive(self, worker: int) -> bool:
        raise NotImplementedError

    def exit_detail(self, worker: int) -> str:
        raise NotImplementedError

    def kill(self, worker: int, now: float) -> None:
        raise NotImplementedError

    def respawn(self, worker: int, now: float) -> None:
        raise NotImplementedError

    def stop(self) -> None:
        raise NotImplementedError


class InlineTransport(Transport):
    """Virtual workers in the scheduler's process (the ``jobs=0`` mode).

    An assignment executes synchronously inside the next :meth:`poll`
    call — same process, so monkeypatched simulators and in-memory
    fixtures all apply.  With a fault injector attached, ``worker.kill``
    marks the virtual worker dead without producing a result (the
    scheduler sees a silent death, exactly like a SIGKILL'd subprocess)
    and ``worker.heartbeat_stall`` withholds the finished result until
    well past the lease window, so the expire -> steal -> requeue ->
    dedup path runs deterministically on a virtual clock.
    """

    isolated = False

    def __init__(self, workers: int = 1,
                 faults: Optional[RunnerFaultInjector] = None) -> None:
        self.workers = max(1, int(workers))
        self._faults = faults
        self._inbox = Inbox(faults)
        self._assignments: Dict[int, Message] = {}
        self._dead: Dict[int, str] = {}
        self._announced: Dict[int, bool] = {}

    def start(self) -> None:
        self._announced = {w: False for w in range(self.workers)}

    def assign(self, worker: int, message: Message) -> None:
        if message.get("type") == "assign":
            self._assignments[worker] = message

    def poll(self, now: float) -> List[Tuple[int, Message]]:
        out: List[Tuple[int, Message]] = []
        for worker in range(self.workers):
            if not self._announced.get(worker, False) and worker not in self._dead:
                self._announced[worker] = True
                out.append((worker, {"type": "ready", "worker": worker}))
        for worker in sorted(self._assignments):
            if worker in self._dead:
                continue
            message = self._assignments.pop(worker)
            self._run(worker, message, now)
        out.extend(self._inbox.drain(now))
        return out

    def _run(self, worker: int, message: Message, now: float) -> None:
        key = str(message["key"])
        attempt = int(message["attempt"])
        faults = self._faults
        killed = faults is not None and faults.job_fires(
            "worker.kill", key, attempt,
            detail="%s attempt %d" % (key, attempt),
        )
        if killed and faults is not None and faults.kill_phase(key, attempt) == "claim":
            self._dead[worker] = "killed by signal 9 (chaos worker.kill, claim)"
            return
        payload = execute_payload(message["spec"])
        if killed:
            self._dead[worker] = "killed by signal 9 (chaos worker.kill, report)"
            return
        sent_at = now
        if faults is not None and faults.job_fires(
            "worker.heartbeat_stall", key, attempt,
            detail="%s attempt %d" % (key, attempt),
        ):
            sent_at = now + faults.stall_s(key, attempt)
        result: Message = {
            "type": "result", "worker": worker, "key": key,
            "attempt": attempt,
        }
        result.update(payload)
        self._inbox.put(worker, result, now, sent_at=sent_at)

    def alive(self, worker: int) -> bool:
        return worker not in self._dead

    def exit_detail(self, worker: int) -> str:
        return self._dead.get(worker, "exit code None")

    def kill(self, worker: int, now: float) -> None:
        self._dead.setdefault(worker, "killed by scheduler")
        self._assignments.pop(worker, None)
        self._inbox.discard_unsent(worker, now)

    def respawn(self, worker: int, now: float) -> None:
        self._dead.pop(worker, None)
        self._announced[worker] = False

    def stop(self) -> None:
        self._assignments.clear()


@dataclass
class _Slot:
    proc: Any
    conn: Any


class SubprocessTransport(Transport):
    """One persistent worker process per slot (the ``jobs >= 1`` mode).

    Workers run :func:`repro.runner.worker.worker_main`: a claim loop
    that executes assignments via the shared job machinery, heartbeats
    from a side thread while a job is in flight, and dies safely on a
    closed pipe.  The scheduler enforces deadlines and lease expiry with
    ``SIGKILL`` + respawn — no cooperation from a wedged worker needed.
    """

    isolated = True

    def __init__(self, workers: int, *, lease_s: float,
                 faults: Optional[RunnerFaultInjector] = None,
                 fault_plan: Optional[Dict[str, Any]] = None) -> None:
        import multiprocessing

        self.workers = max(1, int(workers))
        self._heartbeat_s = heartbeat_interval(lease_s)
        self._fault_plan = fault_plan
        self._inbox = Inbox(faults)
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        self._slots: Dict[int, _Slot] = {}
        self._exit_details: Dict[int, str] = {}

    def start(self) -> None:
        for worker in range(self.workers):
            self._spawn(worker)

    def _spawn(self, worker: int) -> None:
        parent, child = self._ctx.Pipe(duplex=True)
        # A forked worker inherits every scheduler-side pipe end open at
        # fork time; it closes them first thing, or its own ``recv``
        # would never see EOF once the scheduler dies.
        inherited = [parent] + [slot.conn for slot in self._slots.values()]
        proc = self._ctx.Process(
            target=worker_main,
            args=(worker, child, self._heartbeat_s, self._fault_plan,
                  inherited),
            daemon=True,
        )
        proc.start()
        child.close()
        self._slots[worker] = _Slot(proc=proc, conn=parent)
        self._exit_details.pop(worker, None)

    def assign(self, worker: int, message: Message) -> None:
        slot = self._slots.get(worker)
        if slot is None:
            return
        try:
            slot.conn.send(message)
        except (OSError, ValueError):
            pass  # death is detected via alive(); the job's lease recovers it

    def poll(self, now: float) -> List[Tuple[int, Message]]:
        for worker, slot in self._slots.items():
            while True:
                try:
                    if not slot.conn.poll(0):
                        break
                    message = slot.conn.recv()
                except (EOFError, OSError):
                    break
                if isinstance(message, dict):
                    self._inbox.put(worker, message, now)
        return self._inbox.drain(now)

    def alive(self, worker: int) -> bool:
        slot = self._slots.get(worker)
        return slot is not None and slot.proc.is_alive()

    def exit_detail(self, worker: int) -> str:
        if worker in self._exit_details:
            return self._exit_details[worker]
        slot = self._slots.get(worker)
        if slot is None:
            return "no such worker"
        code = slot.proc.exitcode
        detail = (
            "killed by signal %d" % -code
            if code is not None and code < 0
            else "exit code %s" % code
        )
        self._exit_details[worker] = detail
        return detail

    def kill(self, worker: int, now: float) -> None:
        slot = self._slots.get(worker)
        if slot is None:
            return
        self.exit_detail(worker)  # snapshot before we overwrite the cause
        try:
            slot.proc.kill()
            slot.proc.join()
        except (OSError, ValueError):
            pass
        try:
            slot.conn.close()
        except (OSError, ValueError):
            pass
        del self._slots[worker]

    def respawn(self, worker: int, now: float) -> None:
        if worker in self._slots:
            self.kill(worker, now)
        self._spawn(worker)

    def stop(self) -> None:
        for slot in self._slots.values():
            try:
                slot.conn.send({"type": "stop"})
            except (OSError, ValueError):
                pass
        for slot in self._slots.values():
            slot.proc.join(timeout=1.0)
            if slot.proc.is_alive():
                try:
                    slot.proc.kill()
                    slot.proc.join()
                except (OSError, ValueError):
                    pass
            try:
                slot.conn.close()
            except (OSError, ValueError):
                pass
        self._slots.clear()


__all__ = [
    "Inbox",
    "InlineTransport",
    "Message",
    "SubprocessTransport",
    "Transport",
    "VirtualClock",
    "WallClock",
]
