"""Recompute ``digests.json``: the pinned ``SimStats.as_dict()`` digest of
every kernel the simulator workloads and the sweep can run.

Run it only when a change is *meant* to alter simulated statistics; a
change that only makes the program faster must leave every digest
unchanged, which the benchmark checks on every run.

    python3 perfbench/pin.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

from repro.runner.jobs import execute_job  # noqa: E402

import specs  # noqa: E402
from sweepchild import specs_for  # noqa: E402


def sim_digest(workload: specs.SimWorkload, app: str, seed: int) -> str:
    kernel, gpu = common.build(
        app, workload.mechanism, common.gpu_config(workload.config),
        workload.scale, seed, ctas=workload.ctas)
    return common.stats_digest(gpu.run(kernel))


def main() -> int:
    digests = {}
    for seed in common.INPUT_SEEDS:
        for name, workload in sorted(specs.SIM.items()):
            for app in workload.apps:
                key = common.digest_key(name, app, workload.mechanism, seed)
                digests[key] = sim_digest(workload, app, seed)
                print(key, digests[key], flush=True)
        for spec in specs_for(specs.SWEEP_SCALE, seed):
            key = common.digest_key("sweep-table2", spec.app, spec.mechanism,
                                    seed)
            digests[key] = common.stats_digest(execute_job(spec))
    payload = {
        "about": "SimStats.as_dict() digests (sha256, first 16 hex digits) "
                 "keyed workload/app/mechanism/input-seed; see pin.py",
        "digests": dict(sorted(digests.items())),
    }
    with open(common.BENCH_DIR / "digests.json", "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("%d digests written" % len(digests))
    return 0


if __name__ == "__main__":
    sys.exit(main())
