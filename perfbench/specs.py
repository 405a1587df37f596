"""The four workloads' fixed parameters (shared by run.py and pin.py)."""

from __future__ import annotations

from typing import Dict, List, NamedTuple


class SimWorkload(NamedTuple):
    config: str              # "scaled" (2 SMs) or "v100" (80 SMs)
    mechanism: str
    apps: List[str]
    scale: float
    ctas: int                # grid CTA count; 0 = the kernel's default grid


SIM: Dict[str, SimWorkload] = {
    "sim-snake": SimWorkload("scaled", "snake", ["lps", "hotspot", "mum"],
                             1.0, 0),
    # 160 CTAs of 8 warps: two CTAs resident on each of the 80 SMs.
    "sim-v100-none": SimWorkload("v100", "none", ["mum", "stream"], 0.5, 160),
}

#: Trace scale of every Table 2 cell in the sweep.
SWEEP_SCALE = 0.15
#: Subprocess workers the sweep runs cells on.
SWEEP_WORKERS = 2

#: Kernels whose access streams the serve workload replays, one per
#: connection, and their trace scale.
SERVE_APPS = ("lps", "hotspot")
SERVE_SCALE = 1.0

WORKLOADS = ("sim-snake", "sim-v100-none", "sweep-table2", "serve-mixed")
