"""Drive real ``snake-repro serve`` subprocesses with the open-loop
generator.  Every measurement gets a fresh server with a fresh data dir
and fresh client names, so none inherits another's journal or sessions.
"""

from __future__ import annotations

import bisect
import json
import resource
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import common
import hostspeed
import openloop

HOST = "127.0.0.1"
PORT_FILE = "serve.port"
START_TIMEOUT_S = 30.0
STOP_TIMEOUT_S = 20.0


#: Decides the next phase's load (due offsets or a Saturation) from the
#: phases run so far, or returns None to stop the server.
Plan = Callable[[List[openloop.PhaseResult]], Any]


@dataclass
class ServerRun:
    setup_s: float
    phases: List[openloop.PhaseResult]
    cpu_s: float                 # server process user + system time
    exit_code: int
    trace: Optional[Dict[str, Any]] = None
    #: Reference seconds per wall second and per server CPU second over
    #: the server's life, and the server's CPU clock (``hostspeed.py``),
    #: when sampled.
    to_reference: Optional[float] = None
    cpu_to_reference: Optional[float] = None
    cpu_clock: Optional[CpuClock] = None


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def serve_once(work: Path, label: str, plan: Plan,
               streams: Sequence[Sequence[Any]],
               trace: bool = False, speed: bool = False) -> ServerRun:
    """Spawn a server, time spawn -> first answered ping, run the phases
    ``plan`` asks for (each on fresh connections), drain it with SIGTERM
    and wait for it to exit.  ``trace`` wraps the server's layers in
    spans; ``speed`` samples its host speed instead."""
    data_dir = work / label
    if data_dir.exists():
        shutil.rmtree(data_dir)
    data_dir.mkdir(parents=True)
    serve_args = ["--data-dir", str(data_dir), "--port", "0"]
    trace_out = work / (label + ".spans.json")
    speed_out = work / (label + ".speed.json")
    launcher = [sys.executable, str(common.BENCH_DIR / "serve_launcher.py")]
    if trace:
        command = launcher + ["--trace-out", str(trace_out), "--"] + serve_args
    elif speed:
        command = launcher + ["--speed-out", str(speed_out), "--"] + serve_args
    else:
        command = [sys.executable, "-m", "repro.cli", "serve"] + serve_args
    stderr_path = work / (label + ".stderr")
    cpu_before = _children_cpu()
    with open(stderr_path, "wb") as stderr:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            command, env=common.child_env(), cwd=str(common.ROOT),
            stdout=subprocess.DEVNULL, stderr=stderr,
        )
    try:
        port = _await_port(proc, data_dir / PORT_FILE, stderr_path)
        while True:
            try:
                if openloop.ping(HOST, port):
                    break
            except OSError:
                pass
            if time.monotonic() - spawned > START_TIMEOUT_S:
                raise RuntimeError("server never answered a ping")
            time.sleep(0.002)
        setup_s = time.monotonic() - spawned
        # Later phases reconnect under the same names and resume their
        # sessions, so the server's state does not grow phase by phase.
        names = ["bench-%s-c%d" % (label, i) for i in range(len(streams))]
        phases: List[openloop.PhaseResult] = []
        while True:
            load = plan(phases)
            if load is None:
                break
            phases.append(openloop.run_phase(HOST, port, load, streams,
                                             names))
    finally:
        _stop(proc)
    code = proc.returncode
    cpu = _children_cpu() - cpu_before
    spans = None
    if trace and trace_out.exists():
        spans = json.loads(trace_out.read_text())
    to_reference = cpu_to_reference = cpu_clock = None
    if speed and speed_out.exists():
        sampled = json.loads(speed_out.read_text())
        to_reference = sampled["to_reference"]
        cpu_to_reference = hostspeed.REFERENCE_S / sampled["sample_s"]
        cpu_clock = CpuClock(sampled["cpu_at"])
    shutil.rmtree(data_dir, ignore_errors=True)
    return ServerRun(setup_s, phases, cpu, code, spans, to_reference,
                     cpu_to_reference, cpu_clock)


def _await_port(proc: subprocess.Popen, port_file: Path,
                stderr_path: Path) -> int:
    deadline = time.monotonic() + START_TIMEOUT_S
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise RuntimeError("server exited early: %s"
                               % stderr_path.read_text(errors="replace"))
        try:
            return int(port_file.read_text().strip())
        except (OSError, ValueError):
            time.sleep(0.002)
    raise RuntimeError("server wrote no port file")


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


class CpuClock:
    """A server's CPU seconds at any ``time.monotonic()`` reading within
    its sampled life, interpolated linearly between the sampler's
    (monotonic time, CPU seconds) readings."""

    def __init__(self, readings: Sequence[Tuple[float, float]]) -> None:
        self.times = [when for when, _ in readings]
        self.used = [used for _, used in readings]

    def at(self, when: float) -> float:
        i = bisect.bisect_right(self.times, when)
        if i == 0 or i == len(self.times):
            raise ValueError("no CPU reading around %.3f" % when)
        t0, t1 = self.times[i - 1], self.times[i]
        c0, c1 = self.used[i - 1], self.used[i]
        return c0 + (c1 - c0) * (when - t0) / (t1 - t0)

    def between(self, lo: float, hi: float) -> float:
        return self.at(hi) - self.at(lo)


def window(result: openloop.PhaseResult, lo: float, hi: float) -> List[int]:
    """Requests due in ``[lo, hi)`` seconds after the phase start."""
    t0 = result.due[0] if result.due else 0.0
    return [k for k, due in enumerate(result.due) if lo <= due - t0 < hi]


def latencies_ms(result: openloop.PhaseResult, ids: Sequence[int]) -> List[float]:
    """Reply time minus due time; a NACKed or unanswered request counts
    as missing every latency limit (infinite)."""
    out = []
    for k in ids:
        replied = result.replied[k]
        if replied is None or not result.ok[k]:
            out.append(float("inf"))
        else:
            out.append(1000.0 * (replied - result.due[k]))
    return out


def lags_ms(result: openloop.PhaseResult, ids: Sequence[int]) -> List[float]:
    return [1000.0 * (result.sent[k] - result.due[k]) for k in ids]


def backlog_at(result: openloop.PhaseResult, ids: Sequence[int],
               when: float) -> int:
    """Requests due before ``when`` (loop clock) still unanswered then."""
    return sum(
        1 for k in ids
        if result.due[k] < when
        and (result.replied[k] is None or result.replied[k] > when)
    )


__all__ = ["CpuClock", "ServerRun", "backlog_at", "lags_ms",
           "latencies_ms", "serve_once", "window"]
