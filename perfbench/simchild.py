"""Simulate one kernel in a fresh process and print one JSON line.

``run.py`` starts one of these per kernel, because the coalescer's
pattern memos are process-global: a fresh process starts with them empty,
as every ``snake-repro`` invocation does.  With ``--trace 1`` every
simulator layer is wrapped (see ``tracer.instrument_gpu``) and the span
totals ride along in the output.  Without it, a ``hostspeed`` sampler
runs from this process's first line to the end of ``GPU.run``, and the
set-up and run times are also given in reference seconds.

    python3 perfbench/simchild.py --app lps --mechanism snake \
        --config scaled --scale 1.0 --input-seed 3 --spawned-at <monotonic>
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import hostspeed  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--app", required=True)
    parser.add_argument("--mechanism", required=True)
    parser.add_argument("--config", choices=("scaled", "v100"), required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--input-seed", type=int, required=True)
    parser.add_argument("--ctas", type=int, default=0,
                        help="grid CTA count (0 = the kernel's default grid)")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent at spawn")
    args = parser.parse_args()

    # Set-up runs from the parent's spawn to GPU.run, imports included.
    speed = hostspeed.HostSpeed()
    if not args.trace:
        speed.start()
    setup_mark = speed.mark()

    import common  # sets up the import path to the program
    from repro.workloads import build_kernel
    from tracer import Tracer, instrument_gpu

    tracer = Tracer() if args.trace else None
    build = build_kernel
    if tracer is not None:
        build = tracer.wrap("workloads", build_kernel)

    start = time.perf_counter()
    start_mark = speed.mark()
    kernel, gpu = common.build(
        args.app, args.mechanism, common.gpu_config(args.config), args.scale,
        args.input_seed, ctas=args.ctas, build_kernel=build)
    if tracer is not None:
        instrument_gpu(tracer, gpu)
    setup_s = time.monotonic() - args.spawned_at
    setup_ref_s = speed.reference_wall_s(setup_s, setup_mark)
    run_mark = speed.mark()
    run_start = time.perf_counter()
    cpu_start = time.process_time()
    stats = gpu.run(kernel)
    cpu_end = time.process_time()
    end = time.perf_counter()
    speed.stop()
    if tracer is not None:
        tracer.restore()

    run_cpu_s = cpu_end - cpu_start
    out = {
        "setup_s": setup_s,
        "setup_ref_s": setup_ref_s,
        "run_s": end - run_start - speed.spent_since(run_mark),
        "run_cpu_s": run_cpu_s - speed.spent_since(run_mark),
        "run_ref_s": speed.reference_s(run_cpu_s, run_mark),
        "wall_s": end - start - speed.spent_since(start_mark),
        "instructions": stats.instructions,
        "digest": common.stats_digest(stats),
        "stats": stats.to_json_dict(),
    }
    if tracer is not None:
        out["trace"] = tracer.as_dict()
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
