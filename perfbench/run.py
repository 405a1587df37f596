"""The repository benchmark: one workload, one run, one JSON result.

    python3 perfbench/run.py --workload sim-snake --seed 1 --seconds 30 --trace 0

Workloads (see README.md for why each exists):

* ``sim-snake``      Snake on the 2-SM preset over LPS, HotSpot and MUM;
* ``sim-v100-none``  no prefetcher on the 80-SM V100 config, MUM + STREAM;
* ``sweep-table2``   Table 2's 11 apps x {none, snake} through the
                     scheduler with two subprocess workers;
* ``serve-mixed``    real ``snake-repro serve`` processes under a mix of
                     3 ``access`` : 1 ``predict``: capacity and latency
                     under saturation, then latency under an open loop
                     at 2000 req/s (printed, not gated; the traced run
                     adds a rate search).

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs the same inputs once plain and once with every layer
wrapped in spans, and reports the per-layer metrics.  Human-readable
lines go first; the last line of standard output is the JSON result.
Exit code 0 means the run completed; ``correct`` says whether every
output matched.  Exit code 2 means there is no program to measure.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402  (exits 2 when the program is missing)

import hostspeed  # noqa: E402
import specs  # noqa: E402

CHILD_TIMEOUT_S = 170.0

#: serve-mixed: the nominal offered rate and the latency limit.
NOMINAL_RPS = 2000.0
LATENCY_LIMIT_MS = 5.0
#: Nominal-phase latency is taken per half-second window (1000 requests,
#: so 10 beyond the p99).  A window whose generator sent its requests
#: later than ``LAG_BOUND_MS`` (p99) cannot vouch for the server's latency:
#: it is dropped, and the phase runs on until enough windows are valid,
#: measuring at most ``NOMINAL_MAX_SHARE`` times the windows it needs,
#: which bounds a run's length on a busy host.
WINDOW_S = 0.5
LAG_BOUND_MS = 2.0
NOMINAL_MAX_SHARE = 2
#: Each server phase starts with this much excluded warm-up.
WARMUP_S = 1.0
#: Capacity servers per run.  Each is timed from spawn to its first
#: answered ping (set-up), then keeps ``SATURATION_DEPTH`` requests in
#: flight per connection for ``SATURATION_S`` seconds; replies after the
#: first ``SATURATION_WARMUP_S`` count.  On a busy host fresh servers'
#: rates differ by up to 1.5x, so the capacity is the median over several.
CAPACITY_SERVERS = 5
SATURATION_DEPTH = 32
SATURATION_S = 2.0
SATURATION_WARMUP_S = 0.5
#: The p99-limited rate search: step factor and step cap.
LADDER_STEP = 1.10
STEP_WARMUP_S = 0.25
LADDER_MAX_STEPS = 12

END_TO_END_UNITS = {
    "throughput": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "gpu.self_s": "s", "sm.self_s": "s", "sm.step_calls": "count",
    "scheduler.self_s": "s", "scheduler.pick_calls": "count",
    "coalescer.self_s": "s", "coalescer.calls": "count",
    "snake.self_s": "s", "snake.observe_calls": "count",
    "head_table.self_s": "s", "tail_table.self_s": "s",
    "tail_table.walk_calls": "count",
    "throttle.self_s": "s", "throttle.calls": "count",
    "prefetch.issued": "count", "prefetch.useful_ratio": "ratio",
    "prefetch.dropped_share": "ratio",
    "l1.self_s": "s", "l1.demand_calls": "count", "l1.prefetch_calls": "count",
    "l1.hit_rate": "ratio", "l1.reservation_fail_rate": "ratio",
    "noc.self_s": "s", "noc.send_calls": "count",
    "noc.utilization_calls": "count", "noc.bandwidth_utilization": "ratio",
    "l2.self_s": "s", "l2.access_calls": "count", "l2.hit_rate": "ratio",
    "dram.self_s": "s", "dram.access_calls": "count",
    "dram.row_hit_rate": "ratio",
    "workloads.build_s": "s",
    "runner.spawn_s": "s", "runner.assign_s": "s", "runner.poll_s": "s",
    "runner.wait_s": "s", "runner.scheduler_s": "s",
    "checkpoint.append_s": "s",
    "runner.job_elapsed_p50_s": "s", "runner.retries": "count",
    "runner.failed_cells": "count", "runner.overhead_share": "ratio",
    "service.self_s": "s", "protocol.self_s": "s", "state.apply_s": "s", "state.apply_calls": "count",
    "state.batch_records_mean": "count", "state.predict_s": "s",
    "journal.append_s": "s", "journal.snapshot_s": "s",
    "serve.nack_share": "ratio", "serve.max_rps": "1/s", "serve.p99_ms": "ms",
    "trace.other_share": "ratio", "trace.overhead_ratio": "ratio",
    "loadgen.lag_p99_ms": "ms",
}

#: Simulator layer -> the tracer's layer name for its self time.
SIM_SELF = {
    "gpu.self_s": "gpu", "sm.self_s": "sm", "scheduler.self_s": "scheduler",
    "coalescer.self_s": "coalescer", "snake.self_s": "snake",
    "head_table.self_s": "head_table", "tail_table.self_s": "tail_table",
    "throttle.self_s": "throttle", "l1.self_s": "l1", "noc.self_s": "noc",
    "l2.self_s": "l2", "dram.self_s": "dram", "workloads.build_s": "workloads",
}
SIM_CALLS = (
    "sm.step_calls", "scheduler.pick_calls", "coalescer.calls",
    "snake.observe_calls", "tail_table.walk_calls", "throttle.calls",
    "l1.demand_calls", "l1.prefetch_calls", "noc.send_calls",
    "noc.utilization_calls", "l2.access_calls", "dram.access_calls",
)


class Outcome:
    """What one run attempted, what failed, and why."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.flags: List[str] = []   # program invariants broken: incorrect
        self.notes: List[str] = []   # measurement caveats, printed only

    def check(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)


# ----------------------------------------------------------------------
# Children


def run_child(command: List[str]) -> Dict[str, Any]:
    """Run one child to completion; its last stdout line is JSON."""
    proc = subprocess.run(
        command, env=common.child_env(), cwd=str(common.ROOT),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        timeout=CHILD_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError("%s failed (%d): %s" % (
            command[1], proc.returncode,
            proc.stderr.decode(errors="replace")[-2000:]))
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def sim_child(workload: specs.SimWorkload, app: str, seed: int,
              trace: bool) -> Dict[str, Any]:
    command = [
        sys.executable, str(common.BENCH_DIR / "simchild.py"),
        "--app", app, "--mechanism", workload.mechanism,
        "--config", workload.config, "--scale", repr(workload.scale),
        "--input-seed", str(seed), "--ctas", str(workload.ctas),
        "--trace", "1" if trace else "0",
        "--spawned-at", repr(time.monotonic()),
    ]
    return run_child(command)


def sweep_child(seed: int, work: Path, trace: bool) -> Dict[str, Any]:
    run_dir = work / ("sweep-%d" % time.monotonic_ns())
    run_dir.mkdir(parents=True)
    try:
        return run_child([
            sys.executable, str(common.BENCH_DIR / "sweepchild.py"),
            "--input-seed", str(seed), "--scale", repr(specs.SWEEP_SCALE),
            "--work-dir", str(run_dir), "--trace", "1" if trace else "0",
            "--spawned-at", repr(time.monotonic()),
        ])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def rounds(seconds: float, one_round: Callable[[], None],
           cycle: int = 1) -> int:
    """Repeat ``one_round`` while another fits in ``seconds``, and at
    least ``cycle`` times.  Rounds ``cycle`` apart do the same work, so
    the next round is judged by the longest of its kind so far."""
    start = time.monotonic()
    took: List[float] = []
    while len(took) < cycle or (
            time.monotonic() - start + max(took[len(took) % cycle::cycle])
            <= seconds):
        begin = time.monotonic()
        one_round()
        took.append(time.monotonic() - begin)
    return len(took)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Simulator workloads


def measure_sim(name: str, seed: int, seconds: float, outcome: Outcome,
                table: Dict[str, Tuple[float, str]]) -> Dict[str, float]:
    workload = specs.SIM[name]
    digests = common.load_digests()
    per_app: Dict[str, List[float]] = {app: [] for app in workload.apps}
    cpu: Dict[str, List[float]] = {app: [] for app in workload.apps}
    instructions: Dict[str, int] = {}
    setups: List[float] = []
    raw_setups: List[float] = []

    def one_kernel() -> None:
        # The apps in turn, one kernel per round, so a run ends within
        # one kernel of its time.
        app = workload.apps[len(setups) % len(workload.apps)]
        out = sim_child(workload, app, seed, trace=False)
        key = common.digest_key(name, app, workload.mechanism, seed)
        outcome.check(out["digest"] == digests.get(key),
                      "%s: digest %s, pinned %s"
                      % (key, out["digest"], digests.get(key)))
        per_app[app].append(out["run_ref_s"])
        cpu[app].append(out["run_cpu_s"])
        instructions[app] = out["instructions"]
        setups.append(out["setup_ref_s"])
        raw_setups.append(out["setup_s"])

    count = rounds(seconds, one_kernel, cycle=len(workload.apps))
    # GPU.run is single-threaded and does no I/O, so it is timed by its
    # process CPU time (the guest kernel charges hypervisor steal to no
    # process), in reference seconds (hostspeed.py), which takes out the
    # host's own speed changes.  Each kernel's times are summarized by
    # their median.
    typical = {app: common.median(times) for app, times in per_app.items()}
    throughput = sum(instructions.values()) / sum(typical.values())
    raw = sum(common.median(times) for times in cpu.values())
    table["sim_kips"] = (throughput / 1000.0, "kips")
    table["sim_kips_cpu"] = (sum(instructions.values()) / raw / 1000.0,
                             "kips")
    table["setup_raw_s"] = (common.median(raw_setups), "s")
    table["kernels"] = (count, "count")
    return {
        "throughput": throughput,
        "latency_p50_ms": 1000.0 * common.median(list(typical.values())),
        "latency_tail_ms": 1000.0 * max(typical.values()),
        "setup_s": common.median(setups),
        "peak_rss_mb": peak_rss_mb(),
    }


def sim_layers(calls: Dict[str, float], self_s: Dict[str, float],
               stats: List[Dict[str, Any]], per: float) -> Dict[str, float]:
    """Per-layer simulator metrics from summed spans and merged stats,
    the ratios by the program's own ``SimStats`` definitions."""
    from repro.gpusim.stats import SimStats

    out: Dict[str, float] = {}
    for metric, layer in SIM_SELF.items():
        out[metric] = self_s.get(layer, 0.0) / per
    for metric in SIM_CALLS:
        out[metric] = calls.get(metric, 0) / per
    total = SimStats()
    for one in stats:
        total.merge(SimStats.from_json_dict(one))
    pf = total.prefetch
    dropped = pf.dropped_duplicate + pf.dropped_throttled
    l2 = total.l2_hits + total.l2_misses
    rows = total.dram_row_hits + total.dram_row_misses
    out.update({
        "prefetch.issued": pf.issued / per,
        "prefetch.useful_ratio": pf.issue_accuracy(),
        "prefetch.dropped_share": (
            dropped / (pf.issued + dropped) if pf.issued + dropped else 0.0),
        "l1.hit_rate": total.l1_hit_rate,
        "l1.reservation_fail_rate": total.reservation_fail_rate,
        "noc.bandwidth_utilization": total.bandwidth_utilization,
        "l2.hit_rate": total.l2_hits / l2 if l2 else 0.0,
        "dram.row_hit_rate": total.dram_row_hits / rows if rows else 0.0,
    })
    return out


def trace_sim(name: str, seed: int, seconds: float, outcome: Outcome,
              table: Dict[str, Tuple[float, str]]) -> Dict[str, float]:
    workload = specs.SIM[name]
    digests = common.load_digests()
    calls: Dict[str, float] = {}
    self_s: Dict[str, float] = {}
    stats: List[Dict[str, Any]] = []
    walls = {"plain": 0.0, "traced": 0.0, "root": 0.0}

    def one_round() -> None:
        for app in workload.apps:
            plain = sim_child(workload, app, seed, trace=False)
            traced = sim_child(workload, app, seed, trace=True)
            key = common.digest_key(name, app, workload.mechanism, seed)
            problems = common.identity_failures(traced["trace"]["calls"],
                                                traced["stats"])
            if plain["digest"] != digests.get(key):
                problems.append("digest %s, pinned %s"
                                % (plain["digest"], digests.get(key)))
            if traced["stats"] != plain["stats"]:
                problems.append("traced SimStats differ from untraced")
            outcome.check(not problems, "%s: %s" % (key, "; ".join(problems)))
            for metric, value in traced["trace"]["calls"].items():
                calls[metric] = calls.get(metric, 0) + value
            for layer, value in traced["trace"]["self_s"].items():
                self_s[layer] = self_s.get(layer, 0.0) + value
            stats.append(traced["stats"])
            walls["plain"] += plain["wall_s"]
            walls["traced"] += traced["wall_s"]
            walls["root"] += traced["trace"]["root_s"]

    count = rounds(seconds, one_round)
    table["rounds"] = (count, "count")
    out = sim_layers(calls, self_s, stats, float(count))
    out["trace.other_share"] = 1.0 - walls["root"] / walls["traced"]
    out["trace.overhead_ratio"] = walls["traced"] / walls["plain"]
    return out


# ----------------------------------------------------------------------
# Sweep workload


def check_cells(out: Dict[str, Any], seed: int, digests: Dict[str, str],
                outcome: Outcome) -> None:
    for cell in out["cells"]:
        key = common.digest_key("sweep-table2", cell["app"],
                                cell["mechanism"], seed)
        if cell["status"] != "ok":
            outcome.check(False, "%s: cell FAILED" % key)
            continue
        outcome.check(cell["digest"] == digests.get(key),
                      "%s: digest %s, pinned %s"
                      % (key, cell["digest"], digests.get(key)))


def measure_sweep(seed: int, seconds: float, work: Path, outcome: Outcome,
                  table: Dict[str, Tuple[float, str]]) -> Dict[str, float]:
    digests = common.load_digests()
    rates: List[float] = []
    per_cell: Dict[str, List[float]] = {}
    raw_cell: Dict[str, List[float]] = {}
    pooled: List[float] = []   # every settled cell of every sweep
    setups: List[float] = []
    raw_setups: List[float] = []

    # Cell times differ by input (the median cell from 66 to 79 ms), so the
    # sweeps take the input seeds in turn, starting from the run's: a
    # run of eight sweeps or more covers every input.
    inputs = common.INPUT_SEEDS
    first = inputs.index(seed)

    def one_round() -> None:
        input_seed = inputs[(first + len(setups)) % len(inputs)]
        out = sweep_child(input_seed, work, trace=False)
        check_cells(out, input_seed, digests, outcome)
        rates.append(out["executed"] / out["wall_s"])
        scale = out["to_reference"]
        for cell in out["cells"]:
            label = "%s/%s" % (cell["app"], cell["mechanism"])
            ref_ms = 1000.0 * cell["elapsed_s"] * scale
            per_cell.setdefault(label, []).append(ref_ms)
            pooled.append(ref_ms)
            raw_cell.setdefault(label, []).append(1000.0 * cell["elapsed_s"])
        setups.append(out["setup_s"] * scale)
        raw_setups.append(out["setup_s"])

    count = rounds(seconds, one_round)
    # Each cell's time from assignment to settlement in reference seconds
    # (hostspeed.py), summarized per cell by its median over the sweeps;
    # the workers settle cells side by side, so the rate is workers x
    # cells / summed cell time.
    typical = [common.median(times) for times in per_cell.values()]
    throughput = specs.SWEEP_WORKERS * len(typical) / (sum(typical) / 1000.0)
    raw = sum(common.median(times) for times in raw_cell.values())
    table["sweep_jobs_per_s"] = (throughput, "1/s")
    table["sweep_jobs_per_host_s"] = (
        specs.SWEEP_WORKERS * len(typical) / (raw / 1000.0), "1/s")
    # Whole sweeps, spawn and idle tail included (not gated).
    table["sweep_wall_jobs_per_s"] = (common.median(rates), "1/s")
    table["setup_raw_s"] = (common.median(raw_setups), "s")
    table["sweeps"] = (count, "count")
    table["cells_settled"] = (len(pooled), "count")
    return {
        "throughput": throughput,
        # The median over every settled cell was steadier from run to run
        # than the median over cells of each cell's median; the tail is
        # the slowest cell's median (README.md, "Simulator and sweep
        # tail").
        "latency_p50_ms": common.median(pooled),
        "latency_tail_ms": max(typical),
        "setup_s": common.median(setups),
        "peak_rss_mb": peak_rss_mb(),
    }


def trace_sweep(seed: int, seconds: float, work: Path, outcome: Outcome,
                table: Dict[str, Tuple[float, str]]) -> Dict[str, float]:
    digests = common.load_digests()
    calls: Dict[str, float] = {}
    self_s: Dict[str, float] = {}
    runner: Dict[str, float] = {}
    stats: List[Dict[str, Any]] = []
    elapsed: List[float] = []
    sums = {"plain": 0.0, "traced": 0.0, "root": 0.0, "wait": 0.0,
            "compute": 0.0, "capacity": 0.0, "retries": 0, "failed": 0}

    def one_round() -> None:
        plain = sweep_child(seed, work, trace=False)
        traced = sweep_child(seed, work, trace=True)
        check_cells(plain, seed, digests, outcome)
        check_cells(traced, seed, digests, outcome)
        swept = {"%s/%s" % (c["app"], c["mechanism"]): c.get("stats")
                 for c in traced["cells"]}
        for label, cell_stats in sorted(traced["traced_stats"].items()):
            problems = list(traced["identity_failures"][label])
            if cell_stats != swept.get(label):
                problems.append("traced SimStats differ from the swept cell")
            outcome.check(not problems, "%s: %s" % (label, "; ".join(problems)))
            stats.append(cell_stats)
        layers = traced["layers"]
        for metric, value in layers["calls"].items():
            calls[metric] = calls.get(metric, 0) + value
        for layer, value in layers["self_s"].items():
            self_s[layer] = self_s.get(layer, 0.0) + value
        for layer, value in traced["trace"]["self_s"].items():
            runner[layer] = runner.get(layer, 0.0) + value
        elapsed.extend(cell["elapsed_s"] for cell in traced["cells"])
        sums["plain"] += plain["wall_s"]
        sums["traced"] += traced["wall_s"]
        sums["root"] += traced["trace"]["root_s"]
        sums["wait"] += traced["trace"]["self_s"].get("runner.wait", 0.0)
        sums["compute"] += traced["compute_s"]
        sums["capacity"] += traced["workers"] * traced["wall_s"]
        sums["retries"] += sum(c["attempts"] - 1 for c in traced["cells"])
        sums["failed"] += sum(1 for c in traced["cells"]
                              if c["status"] != "ok")

    count = rounds(seconds, one_round)
    table["sweeps"] = (count, "count")
    per = float(count)
    out = sim_layers(calls, self_s, stats, per)
    out.update({
        "runner.spawn_s": runner.get("runner.spawn", 0.0) / per,
        "runner.assign_s": runner.get("runner.assign", 0.0) / per,
        "runner.poll_s": runner.get("runner.poll", 0.0) / per,
        "runner.wait_s": runner.get("runner.wait", 0.0) / per,
        "runner.scheduler_s": runner.get("runner.scheduler", 0.0) / per,
        "checkpoint.append_s": runner.get("checkpoint.append", 0.0) / per,
        "runner.job_elapsed_p50_s": common.median(elapsed),
        "runner.retries": sums["retries"] / per,
        "runner.failed_cells": sums["failed"] / per,
        "runner.overhead_share": 1.0 - sums["compute"] / sums["capacity"],
        # Share of the scheduler's non-waiting time no span covers.
        "trace.other_share": (
            (sums["traced"] - sums["root"])
            / (sums["traced"] - sums["wait"])),
        "trace.overhead_ratio": sums["traced"] / sums["plain"],
    })
    return out


# ----------------------------------------------------------------------
# Serve workload


def serve_streams(seed: int) -> List[List[Tuple[int, int, int]]]:
    from repro.serve.loadgen import kernel_events
    from repro.workloads import build_kernel

    return [
        kernel_events(build_kernel(app, scale=specs.SERVE_SCALE, seed=seed))
        for app in specs.SERVE_APPS
    ]


def check_server(run: Any, label: str, outcome: Outcome) -> None:
    """Account every request the server got and its run invariants:
    every request answered (``sent == acked + nacked``), no silent drop,
    the final ``stats`` seq equal to the acked mutations so far, and a
    clean drain."""
    acked_mutations = 0
    for index, phase in enumerate(run.phases):
        where = "%s phase %d" % (label, index)
        outcome.attempted += phase.attempted
        outcome.failed += phase.failed
        if phase.failed:
            outcome.problems.append("%s: %d requests NACKed or unanswered"
                                    % (where, phase.failed))
        if phase.silent:
            outcome.flags.append("%s: %d silent drops" % (where, phase.silent))
        if phase.errors:
            outcome.flags.append("%s: %s"
                                 % (where, "; ".join(phase.errors[:3])))
        acked_mutations += phase.acked_mutations
        if phase.final_seq != acked_mutations:
            outcome.flags.append("%s: server seq %s != %d acked mutations"
                                 % (where, phase.final_seq, acked_mutations))
    if run.exit_code != 0:
        outcome.flags.append("%s: server exited %s" % (label, run.exit_code))


def phase_windows(phase: Any) -> int:
    """The measured windows of a nominal phase."""
    return int(round((phase.attempted / NOMINAL_RPS - WARMUP_S) / WINDOW_S))


def nominal_plan(target: int) -> Callable[[List[Any]], Any]:
    """Nominal-rate phases, each a warm-up second then ``WINDOW_S``
    windows, until ``target`` windows kept their generator on time or
    ``NOMINAL_MAX_SHARE x target`` windows were measured."""
    import openloop

    limit = NOMINAL_MAX_SHARE * target

    def plan(done: List[Any]) -> Any:
        valid = sum(len(valid_windows(phase)) for phase in done)
        measured = sum(phase_windows(phase) for phase in done)
        if valid >= target or measured >= limit:
            return None
        # Ask for 1.5x the shortfall: on a quiet host few drop, and the
        # cap leaves room for one more phase on a busy one.
        more = min((3 * (target - valid) + 1) // 2, limit - measured)
        return openloop.schedule([(NOMINAL_RPS, WARMUP_S + more * WINDOW_S)])
    return plan


def fixed_plan(windows: int) -> Callable[[List[Any]], Any]:
    """One nominal-rate phase of a warm-up second and ``windows``
    windows, however many are valid (the traced server's load)."""
    import openloop

    def plan(done: List[Any]) -> Any:
        if done:
            return None
        return openloop.schedule(
            [(NOMINAL_RPS, WARMUP_S + windows * WINDOW_S)])
    return plan


def window_stats(phase: Any) -> List[Dict[str, float]]:
    """Latency percentiles and generator lag p99 of each window after the
    warm-up."""
    import serve_bench

    out = []
    for w in range(phase_windows(phase)):
        lo = WARMUP_S + w * WINDOW_S
        ids = serve_bench.window(phase, lo, lo + WINDOW_S)
        latencies = serve_bench.latencies_ms(phase, ids)
        stats = {"p%d" % q: common.percentile(latencies, q)
                 for q in (50, 90, 99)}
        stats["lag_p99"] = common.percentile(
            serve_bench.lags_ms(phase, ids), 99.0)
        out.append(stats)
    return out


def valid_windows(phase: Any) -> List[Dict[str, float]]:
    """Windows whose generator sent on time: latency is timed from the due
    send time, so a late generator would be charged to the server."""
    return [w for w in window_stats(phase) if w["lag_p99"] <= LAG_BOUND_MS]


def nominal_latency(phases: List[Any], target: int,
                    outcome: Outcome) -> Dict[str, float]:
    """Median over the valid windows of each window's percentiles.  When
    fewer than half of ``target`` are valid, the ``target`` windows with
    the lowest lag stand in for them, and the run says so."""
    windows = [w for phase in phases for w in window_stats(phase)]
    valid = [w for w in windows if w["lag_p99"] <= LAG_BOUND_MS]
    used = valid
    if 2 * len(valid) < target:
        used = sorted(windows, key=lambda w: w["lag_p99"])[:target]
        outcome.notes.append(
            "only %d of %d windows had a generator lag p99 within %.1f ms; "
            "latency is taken from the %d calmest (lag p99 up to %.1f ms)"
            % (len(valid), len(windows), LAG_BOUND_MS, len(used),
               used[-1]["lag_p99"]))
    out = {key: common.median([w[key] for w in used])
           for key in ("p50", "p90", "p99")}
    out["lag_p99"] = common.median([w["lag_p99"] for w in windows])
    out["windows"] = float(len(windows))
    out["valid"] = float(len(valid))
    return out


def saturation_plan(done: List[Any]) -> Any:
    import openloop

    if done:
        return None
    return openloop.Saturation(SATURATION_S, SATURATION_DEPTH)


def saturation_window(phase: Any) -> Tuple[float, float, int]:
    """The measured stretch under saturation, after the warm-up, and the
    replies in it: their rate is the rate this server sustains (any
    higher offered rate grows the backlog)."""
    start = phase.due[0] + SATURATION_WARMUP_S
    end = phase.due[0] + SATURATION_S
    replies = sum(1 for replied in phase.replied
                  if replied is not None and start <= replied < end)
    return start, end, replies


def serve_windows(seconds: float, share: float) -> int:
    """Valid windows a run needs: ``share`` of ``seconds``, in windows."""
    return max(6, int(seconds * share / WINDOW_S))


def measure_serve(seed: int, seconds: float, work: Path, outcome: Outcome,
                  table: Dict[str, Tuple[float, str]]) -> Dict[str, float]:
    import serve_bench

    streams = serve_streams(seed)
    setups: List[float] = []
    rates: List[float] = []
    raw_setups: List[float] = []
    raw_rates: List[float] = []
    busy: List[float] = []
    p50s: List[float] = []
    p90s: List[float] = []
    raw_p50s: List[float] = []
    for index in range(CAPACITY_SERVERS):
        server = serve_bench.serve_once(work, "capacity%d" % index,
                                        saturation_plan, streams, speed=True)
        check_server(server, "capacity server %d" % index, outcome)
        start, end, replies = saturation_window(server.phases[0])
        raw_setups.append(server.setup_s)
        raw_rates.append(replies / (end - start))
        phase = server.phases[0]
        sent = [k for k, due in enumerate(phase.due) if start <= due < end]
        latencies = serve_bench.latencies_ms(phase, sent)
        raw_p50s.append(common.percentile(latencies, 50.0))
        if server.to_reference is None or server.cpu_clock is None:
            outcome.flags.append("capacity server %d wrote no host speed"
                                 % index)
            continue
        # Replies per reference second of the server's own CPU time
        # (hostspeed.py): neither the host's speed nor the time the
        # hypervisor or the generator took from the server moves it.
        clock = server.cpu_clock
        cpu = clock.between(start, end)
        busy.append(cpu / (end - start))
        rates.append(replies / (cpu * server.cpu_to_reference))
        setups.append(server.setup_s * server.to_reference)
        # Each request's latency as the server CPU time that passed from
        # its send to its reply, in reference seconds: the work queued
        # ahead of it plus its own, however long the host stalled the
        # server meanwhile.
        ref_ms = 1000.0 * server.cpu_to_reference
        latencies = [ref_ms * clock.between(phase.sent[k], phase.replied[k])
                     for k in sent if phase.ok[k]]
        p50s.append(common.percentile(latencies, 50.0))
        p90s.append(common.percentile(latencies, 90.0))
    if not rates:
        raise RuntimeError("no capacity server wrote its host speed")
    throughput = common.median(rates)

    windows = serve_windows(seconds, 0.3)
    nominal = serve_bench.serve_once(work, "nominal", nominal_plan(windows),
                                     streams)
    check_server(nominal, "nominal", outcome)
    latency = nominal_latency(nominal.phases, windows, outcome)

    table["serve_p50_ms"] = (latency["p50"], "ms")
    table["serve_p90_ms"] = (latency["p90"], "ms")
    table["serve_p99_ms"] = (latency["p99"], "ms")
    table["serve_sustained_rps"] = (throughput, "1/s")
    table["serve_sustained_host_rps"] = (common.median(raw_rates), "1/s")
    table["serve_saturated_host_p50_ms"] = (common.median(raw_p50s), "ms")
    table["serve_capacity_cpu_busy"] = (common.median(busy), "ratio")
    table["setup_raw_s"] = (common.median(raw_setups), "s")
    table["capacity_servers"] = (len(rates), "count")
    table["loadgen.lag_p99_ms"] = (latency["lag_p99"], "ms")
    table["windows_valid"] = (latency["valid"], "count")
    table["windows_dropped"] = (latency["windows"] - latency["valid"],
                                "count")
    return {
        "throughput": throughput,
        "latency_p50_ms": common.median(p50s),
        "latency_tail_ms": common.median(p90s),
        "setup_s": common.median(setups),
        "peak_rss_mb": peak_rss_mb(),
    }


def ladder_plan() -> Callable[[List[Any]], Any]:
    """The p99-limited rate search: a warm-up second at the nominal rate,
    then one-second steps up by 10%, stopping after two consecutive steps
    that miss the limit."""
    import openloop

    def plan(done: List[Any]) -> Any:
        if not done:
            return openloop.schedule([(NOMINAL_RPS, WARMUP_S)])
        if len(done) >= 3 and not any(
                step_passes(p) for p in done[-2:]):
            return None
        if len(done) > LADDER_MAX_STEPS:
            return None
        rate = NOMINAL_RPS * LADDER_STEP ** (len(done) - 1)
        return openloop.schedule([(rate, STEP_WARMUP_S), (rate, 1.0)])
    return plan


def step_passes(phase: Any) -> bool:
    """p99 within the limit, the generator on time, and no backlog the
    server cannot clear within the limit when the step ends."""
    import serve_bench

    ids = serve_bench.window(phase, STEP_WARMUP_S, STEP_WARMUP_S + 1.0)
    if not ids:
        return False
    rate = float(len(ids))
    p99 = common.percentile(serve_bench.latencies_ms(phase, ids), 99.0)
    lag = common.percentile(serve_bench.lags_ms(phase, ids), 99.0)
    backlog = serve_bench.backlog_at(phase, ids, phase.due[-1])
    return (p99 <= LATENCY_LIMIT_MS and lag <= LAG_BOUND_MS
            and backlog <= max(2.0, rate * LATENCY_LIMIT_MS / 1000.0))


def max_rps(phases: List[Any]) -> float:
    """Highest passing step rate (0 when none passed)."""
    best = 0.0
    for phase in phases[1:]:
        if step_passes(phase):
            best = max(best, phase.attempted / (STEP_WARMUP_S + 1.0))
    return best


def trace_serve(seed: int, seconds: float, work: Path, outcome: Outcome,
                table: Dict[str, Tuple[float, str]]) -> Dict[str, float]:
    import serve_bench

    streams = serve_streams(seed)
    windows = serve_windows(seconds, 0.25)
    plain = serve_bench.serve_once(work, "plain", nominal_plan(windows),
                                   streams)
    check_server(plain, "untraced nominal", outcome)
    traced = serve_bench.serve_once(work, "traced", fixed_plan(windows),
                                    streams, trace=True)
    check_server(traced, "traced nominal", outcome)
    ladder = serve_bench.serve_once(work, "ladder", ladder_plan(), streams)
    check_server(ladder, "rate search", outcome)

    traced_windows = [w for phase in traced.phases
                      for w in window_stats(phase)]
    lag = common.median([w["lag_p99"] for w in traced_windows])
    attempted = sum(phase.attempted for phase in traced.phases)
    nacked = sum(phase.failed for phase in traced.phases)
    spans = traced.trace or {}
    self_s = spans.get("self_s", {})
    calls = spans.get("calls", {})
    sizes = spans.get("sizes", {})
    if not spans:
        outcome.flags.append("traced server wrote no spans")
    wall = spans.get("wall_s", 0.0)
    busy = wall - self_s.get("idle", 0.0)
    apply_calls = calls.get("state.apply_calls", 0)
    out = {
        "service.self_s": self_s.get("service", 0.0),
        "protocol.self_s": self_s.get("protocol", 0.0),
        "state.apply_s": self_s.get("state.apply", 0.0),
        "state.apply_calls": float(apply_calls),
        "state.batch_records_mean": (
            sizes.get("state.apply_calls", 0) / apply_calls
            if apply_calls else 0.0),
        "state.predict_s": self_s.get("state.predict", 0.0),
        "snake.self_s": self_s.get("snake", 0.0),
        "snake.observe_calls": float(calls.get("snake.observe_calls", 0)),
        "journal.append_s": self_s.get("journal.append", 0.0),
        "journal.snapshot_s": self_s.get("journal.snapshot", 0.0),
        "serve.nack_share": nacked / max(1, attempted),
        "serve.max_rps": max_rps(ladder.phases),
        "serve.p99_ms": nominal_latency(plain.phases, windows,
                                        outcome)["p99"],
        # Share of the server's busy (not blocked in select) host time
        # that no span covers.
        "trace.other_share": (
            (wall - spans.get("root_s", 0.0)) / busy if busy > 0 else 0.0),
        # Server CPU time per request, traced over plain.
        "trace.overhead_ratio": (
            (traced.cpu_s / attempted)
            / (plain.cpu_s / sum(p.attempted for p in plain.phases))),
        "loadgen.lag_p99_ms": lag,
    }
    table["windows"] = (len(traced_windows), "count")
    table["ladder_steps"] = (len(ladder.phases) - 1, "count")
    return out


# ----------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=specs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    seed = common.input_seed(args.seed)
    outcome = Outcome()
    table: Dict[str, Tuple[float, str]] = {}
    work = common.WORK_DIR / ("run-%d" % time.monotonic_ns())
    work.mkdir(parents=True)
    started = time.monotonic()
    steal_before = hostspeed.cpu_ticks()
    try:
        if args.workload.startswith("sim-"):
            run = trace_sim if args.trace else measure_sim
            metrics = run(args.workload, seed, args.seconds, outcome, table)
        elif args.workload == "sweep-table2":
            run = trace_sweep if args.trace else measure_sweep
            metrics = run(seed, args.seconds, work, outcome, table)
        else:
            run = trace_serve if args.trace else measure_serve
            metrics = run(seed, args.seconds, work, outcome, table)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            common.WORK_DIR.rmdir()
        except OSError:
            pass

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    missing = sorted(set(units) - set(metrics))
    for name in missing:
        metrics[name] = 0.0   # a layer this workload never calls
    print("workload %s, seed %d (input seed %d), %.1fs, trace %d"
          % (args.workload, args.seed, seed, time.monotonic() - started,
             args.trace))
    steal = hostspeed.steal_share(steal_before, hostspeed.cpu_ticks())
    if steal is not None:
        # CPU time the hypervisor gave to other guests: a noisy-host gauge.
        table["host_steal_share"] = (steal, "ratio")
    for name, (value, unit) in table.items():
        print("  %-26s %14.4f %s" % (name, value, unit))
    for name in sorted(units):
        print("  %-26s %14.6g %s" % (name, metrics[name], units[name]))
    error_rate = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print("  %-26s %14.6g %s (%d of %d)" % ("error_rate", error_rate, "ratio",
                                           outcome.failed, outcome.attempted))
    for problem in outcome.problems[:20]:
        print("  FAILED: %s" % problem)
    for flag in outcome.flags:
        print("  FLAG: %s" % flag)
    for note in outcome.notes:
        print("  NOTE (measurement, not output): %s" % note)
    correct = outcome.failed == 0 and not outcome.flags and outcome.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in sorted(units)
        },
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
