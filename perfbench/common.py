"""Shared helpers: the program's import path, digests, statistics.

Importing this module puts ``<checkout>/src`` on ``sys.path``; when the
checkout holds no program (only the benchmark's own files) it exits with
code 2 before anything is measured.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

if not (SRC / "repro" / "__init__.py").is_file():
    sys.stderr.write(
        "error: no program to measure: %s/repro is missing\n" % SRC
    )
    sys.exit(2)
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

#: Input seeds whose output digests are pinned in ``digests.json``.  The
#: benchmark seed picks one: ``INPUT_SEEDS[seed % len(INPUT_SEEDS)]``.
INPUT_SEEDS = (1, 2, 3, 4, 5, 6, 7, 8)

#: Scratch space for data dirs and checkpoints, inside the checkout.
WORK_DIR = ROOT / ".perfbench_work"


def input_seed(seed: int) -> int:
    return INPUT_SEEDS[seed % len(INPUT_SEEDS)]


def child_env() -> Dict[str, str]:
    """Environment for program subprocesses: the checkout's ``src`` first
    on the import path."""
    env = dict(os.environ)
    prior = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + prior if prior else "")
    return env


def gpu_config(name: str) -> Any:
    """``"v100"`` is the 80-SM ``GPUConfig.volta_v100()``; ``"scaled"`` the
    2-SM preset every Table 2 cell runs on."""
    from repro.gpusim.config import GPUConfig

    return GPUConfig.volta_v100() if name == "v100" else GPUConfig.scaled()


def build(app: str, mechanism: str, config: Any, scale: float, seed: int,
          ctas: int = 0, build_kernel: Optional[Callable[..., Any]] = None
          ) -> Tuple[Any, Any]:
    """The kernel and a fresh ``GPU`` for one simulated run, built as the
    program's ``execute_job`` builds them (plus an optional CTA grid).
    Every simulated run of the benchmark, and ``pin.py``, goes through
    here, so the pinned digests and the measured runs cannot drift apart.
    ``build_kernel`` replaces the program's (the traced runs wrap it)."""
    from repro.gpusim.gpu import GPU
    from repro.prefetch import build_setup
    from repro.workloads import GridShape
    from repro.workloads import build_kernel as program_build_kernel

    grid = {"grid": GridShape(num_ctas=ctas)} if ctas else {}
    kernel = (build_kernel or program_build_kernel)(
        app, scale=scale, seed=seed, **grid)
    setup = build_setup(mechanism, config)
    gpu = GPU(
        config=setup.config,
        prefetcher_factory=setup.prefetcher_factory,
        throttle_factory=setup.throttle_factory,
        storage_mode=setup.storage_mode,
    )
    return kernel, gpu


def stats_digest(stats: Any) -> str:
    """Digest of ``SimStats.as_dict()``: the correctness check's unit."""
    text = json.dumps(stats.as_dict(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_digests() -> Dict[str, str]:
    with open(BENCH_DIR / "digests.json") as handle:
        return json.load(handle)["digests"]


def digest_key(workload: str, app: str, mechanism: str, seed: int) -> str:
    return "%s/%s/%s/%d" % (workload, app, mechanism, seed)


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no values")
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def identity_failures(calls: Dict[str, int], stats: Dict[str, Any]) -> List[str]:
    """Tracing-completeness check: span counts must equal the simulator's
    own counters, or a wrap missed a call path."""
    expected = {
        "l2.access_calls": stats["l2_hits"] + stats["l2_misses"],
        "dram.access_calls": stats["dram_reads"],
        "l1.demand_calls": (
            stats["l1_hits"] + stats["l1_misses"] + stats["l1_reserved"]
            + stats["l1_reservation_fails"]
        ),
    }
    return [
        "%s=%d but the simulator counted %d" % (key, calls.get(key, 0), want)
        for key, want in sorted(expected.items())
        if calls.get(key, 0) != want
    ]
