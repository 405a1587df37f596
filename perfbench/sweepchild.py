"""Run Table 2's sweep through the scheduler in a fresh process.

Eleven apps x {none, snake} go through ``runner.Scheduler`` over a
``SubprocessTransport`` with two workers, checkpointing to a fresh file,
as ``snake-repro sweep --jobs 2`` does.  Prints one JSON line: the
set-up time (process start to the first job assignment), the sweep's
wall time, the factor that turns host seconds into reference seconds
(``hostspeed.py``; sampled only with ``--trace 0``), and every settled
cell with its checkpointed ``elapsed_s``, attempts and stats digest.

With ``--trace 1`` the scheduler's calls into the transport, the
checkpoint and the clock are wrapped in spans.  After the sweep the same
specs run again in this process, once plain (their summed compute time
gives ``runner.overhead_share``) and once with every simulator layer
wrapped (the layer spans, the count identities, and the check that the
traced stats equal the swept ones).

    python3 perfbench/sweepchild.py --input-seed 3 --scale 0.15 \
        --work-dir .perfbench_work/x --spawned-at <monotonic>
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import hostspeed  # noqa: E402
import specs as bench_specs  # noqa: E402

from repro.gpusim.stats import SimStats  # noqa: E402
from repro.runner.checkpoint import Checkpoint  # noqa: E402
from repro.runner.jobs import JobSpec, execute_job  # noqa: E402
from repro.runner.leases import DEFAULT_LEASE_S  # noqa: E402
from repro.runner.scheduler import Scheduler  # noqa: E402
from repro.runner.transport import SubprocessTransport, WallClock  # noqa: E402
from repro.workloads import BENCHMARKS, build_kernel  # noqa: E402

from tracer import Tracer, instrument_gpu, merge  # noqa: E402

MECHANISMS = ("none", "snake")
WORKERS = bench_specs.SWEEP_WORKERS


def specs_for(scale: float, seed: int) -> List[JobSpec]:
    return [
        JobSpec.make(app, mechanism, scale=scale, seed=seed)
        for app in BENCHMARKS for mechanism in MECHANISMS
    ]


def traced_cell(spec: JobSpec) -> Dict[str, Any]:
    """One cell run in-process with every simulator layer wrapped."""
    tracer = Tracer()
    kernel, gpu = common.build(
        spec.app, spec.mechanism, spec.gpu_config(), spec.scale, spec.seed,
        build_kernel=tracer.wrap("workloads", build_kernel))
    instrument_gpu(tracer, gpu)
    stats = gpu.run(kernel)
    tracer.restore()
    return {"stats": stats.to_json_dict(), "trace": tracer.as_dict()}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--input-seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args()

    # The workers' CPU speed is sampled from this process, which moves
    # between the same CPUs they run on (see hostspeed.py).
    speed = hostspeed.HostSpeed()
    if not args.trace:
        speed.start()
    mark = speed.mark()
    specs = specs_for(args.scale, args.input_seed)
    path = Path(args.work_dir) / "sweep.jsonl"
    checkpoint = Checkpoint(path)
    transport = SubprocessTransport(WORKERS, lease_s=DEFAULT_LEASE_S)
    clock = WallClock()
    tracer = Tracer() if args.trace else None
    first_assign: List[float] = []

    assign = transport.assign

    def assign_marked(worker: int, message: Dict[str, Any]) -> None:
        if not first_assign:
            first_assign.append(time.monotonic())
        assign(worker, message)

    transport.assign = assign_marked  # type: ignore[method-assign]
    if tracer is not None:
        tracer.patch(transport, "start", "runner.spawn")
        tracer.patch(transport, "assign", "runner.assign")
        tracer.patch(transport, "poll", "runner.poll")
        tracer.patch(checkpoint, "append", "checkpoint.append")
        tracer.patch(clock, "sleep", "runner.wait")

    scheduler = Scheduler(
        specs, transport=transport, jobs=WORKERS, checkpoint=checkpoint,
        clock=clock,
    )
    if tracer is not None:
        # The loop's own bookkeeping is the span's self time.
        tracer.patch(scheduler, "run", "runner.scheduler")
    start = time.perf_counter()
    run_mark = speed.mark()
    result = scheduler.run()
    wall = time.perf_counter() - start
    speed.stop()
    # Reference seconds per wall second over the whole sweep.
    to_reference = speed.to_reference(mark)

    cells = []
    with open(path) as handle:
        for line in handle:
            record = json.loads(line)
            spec = record["spec"]
            cell = {
                "app": spec["app"],
                "mechanism": spec["mechanism"],
                "status": record["status"],
                "elapsed_s": record["elapsed_s"],
                "attempts": record["attempts"],
            }
            if record["status"] == "ok":
                stats = SimStats.from_json_dict(record["stats"])
                cell["digest"] = common.stats_digest(stats)
                if tracer is not None:
                    cell["stats"] = stats.to_json_dict()
            cells.append(cell)

    out: Dict[str, Any] = {
        "setup_s": (first_assign[0] - args.spawned_at) if first_assign else None,
        "wall_s": wall - speed.spent_since(run_mark),
        "to_reference": to_reference,
        "cells": cells,
        "executed": result.executed,
    }
    if tracer is not None:
        tracer.restore()
        out["trace"] = tracer.as_dict()
        compute = 0.0
        for spec in specs:
            begin = time.perf_counter()
            execute_job(spec)
            compute += time.perf_counter() - begin
        out["compute_s"] = compute
        out["workers"] = WORKERS
        layers: Dict[str, Any] = {}
        traced_stats = {}
        problems: Dict[str, List[str]] = {}
        for spec in specs:
            cell = traced_cell(spec)
            label = "%s/%s" % (spec.app, spec.mechanism)
            merge(layers, cell["trace"])
            traced_stats[label] = cell["stats"]
            problems[label] = common.identity_failures(
                cell["trace"]["calls"], cell["stats"])
        out["layers"] = layers
        out["traced_stats"] = traced_stats
        out["identity_failures"] = problems
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
