"""The pinned benchmark suite behind ``snake-repro bench``.

Each :class:`BenchCase` is a fully pinned simulation (app, mechanism,
scale, seed, config overrides) run twice per measurement: once on the
production simulator and once on the reference model
(:mod:`repro.reference`).  That buys two things in one pass:

* a **differential check** — the two models must produce identical
  :class:`~repro.gpusim.stats.SimStats` (the cycle-identical contract),
  recorded as ``stats_match``;
* a **machine-independent ratio** — ``speedup_vs_legacy`` (reference wall
  time over production wall time) is what the CI gate compares across
  commits, because both models ran back-to-back on the same machine.

This module lives in the *wall-clock domain*: unlike everything under
``repro.gpusim``/``repro.core`` it reads ``time.perf_counter`` and the
process RSS, so it is intentionally outside the SL101 determinism-lint
scope and the strict-mypy core.  See docs/PERFORMANCE.md for how to run
it and how to read the payloads it writes.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .schema import BENCH_SCHEMA_VERSION, bench_filename, validate_payload


@dataclass(frozen=True)
class BenchCase:
    """One pinned suite entry.  ``quick`` marks membership in the
    ``--quick`` CI subset; the subset runs the *same* scales as the full
    suite so its ratios stay comparable with a full-suite baseline."""

    name: str
    app: str
    mechanism: str
    scale: float
    seed: int = 1
    overrides: Tuple[Tuple[str, Any], ...] = ()
    quick: bool = True


#: The committed suite.  The quickstart pair mirrors examples/quickstart.py
#: (baseline vs. Snake on LPS at full scale); the shootout entries are a
#: subset of examples/prefetcher_shootout.py; the sweep cell exercises a
#: non-default topology so config-sensitive regressions are caught too.
CASES: Tuple[BenchCase, ...] = (
    BenchCase("quickstart-none", "lps", "none", 1.0),
    BenchCase("quickstart-snake", "lps", "snake", 1.0),
    BenchCase("shootout-hotspot-snake", "hotspot", "snake", 0.5),
    BenchCase("shootout-backprop-intra", "backprop", "intra", 0.5, quick=False),
    BenchCase(
        "sweep-mum-snake-4sm", "mum", "snake", 0.5,
        overrides=(("num_sms", 4),), quick=False,
    ),
    # Table-walk-heavy cell (docs/PERFORMANCE.md, "The batched hot
    # path"): it enlarges the Tail CAM and deepens chains, so
    # ``TailTable.walk_raw`` dominates.
    BenchCase(
        "longchain-mum-snake", "mum", "snake", 0.5,
        overrides=(("tail_entries", 64), ("max_chain_depth", 16)),
    ),
)

#: Production/reference run pairs per case.  The pairs are interleaved
#: so slow phases of a shared host hit both sides, and each side keeps
#: its minimum wall time: host noise only ever adds time.
REPEATS = 3


def _run_once(
    case: BenchCase, reference: bool
) -> Tuple[Dict[str, float], int, int, float]:
    """Simulate one case on the production simulator or the reference
    model; returns (stats dict, cycles, instructions, wall seconds)."""
    from repro.gpusim.config import GPUConfig
    from repro.gpusim.gpu import GPU
    from repro.prefetch import build_setup
    from repro.reference import ReferenceGPU
    from repro.workloads import build_kernel

    config = GPUConfig.scaled().with_(**dict(case.overrides))
    setup = build_setup(case.mechanism, config)
    kernel = build_kernel(case.app, scale=case.scale, seed=case.seed)
    gpu = (ReferenceGPU if reference else GPU)(
        config=setup.config,
        prefetcher_factory=setup.prefetcher_factory,
        throttle_factory=setup.throttle_factory,
        storage_mode=setup.storage_mode,
    )
    start = time.perf_counter()
    stats = gpu.run(kernel)
    wall = time.perf_counter() - start
    return stats.as_dict(), stats.cycles, stats.instructions, wall


def run_case(case: BenchCase) -> Dict[str, Any]:
    """Measure one case on the production simulator and on its
    reference, :data:`REPEATS` interleaved pairs; the payload records
    the differential bit and the ratio of the two minimum wall times."""
    walls: List[float] = []
    reference_walls: List[float] = []
    for _ in range(REPEATS):
        stats, cycles, instructions, wall = _run_once(case, reference=False)
        reference_stats, _, _, reference_wall = _run_once(case, reference=True)
        walls.append(wall)
        reference_walls.append(reference_wall)
    wall, reference_wall = min(walls), min(reference_walls)
    return {
        "name": case.name,
        "app": case.app,
        "mechanism": case.mechanism,
        "scale": case.scale,
        "seed": case.seed,
        "cycles": cycles,
        "instructions": instructions,
        "wall_s": round(wall, 4),
        "cycles_per_sec": round(cycles / wall, 1) if wall > 0 else 0.0,
        "legacy_wall_s": round(reference_wall, 4),
        "speedup_vs_legacy": (
            round(reference_wall / wall, 4) if wall > 0 else 1.0
        ),
        "stats_match": stats == reference_stats,
    }


def _peak_rss_mb() -> float:
    """Process high-water RSS in MiB (getrusage reports KiB on Linux,
    bytes on macOS)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    divisor = 1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0
    return round(peak / divisor, 1)


def run_suite(
    quick: bool = False,
    cases: Optional[Sequence[BenchCase]] = None,
    generated: Optional[str] = None,
) -> Dict[str, Any]:
    """Run the suite (default: the committed :data:`CASES`, resolved at
    call time) and return a schema-valid payload dict.

    ``quick`` restricts to the cases flagged for the CI subset;
    ``generated`` overrides the ISO date stamp (tests pin it)."""
    if cases is None:
        cases = CASES
    selected = [c for c in cases if c.quick] if quick else list(cases)
    results = [run_case(case) for case in selected]
    quickstart = [r for r in results if r["name"].startswith("quickstart-")]
    payload: Dict[str, Any] = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "generated": generated or date.today().isoformat(),
        "quick": quick,
        "loop": "event",
        "host": {
            "python": "%d.%d.%d" % sys.version_info[:3],
            "platform": platform.platform(),
            "cpu_count": os.cpu_count() or 1,
        },
        "peak_rss_mb": _peak_rss_mb(),
        "quickstart_wall_s": round(sum(r["wall_s"] for r in quickstart), 4),
        "cases": results,
    }
    errors = validate_payload(payload)
    if errors:  # a bug in this module, not in the caller's input
        raise RuntimeError("bench produced an invalid payload: %s" % "; ".join(errors))
    return payload


def write_payload(payload: Dict[str, Any], out: Optional[str] = None) -> Path:
    """Write ``payload`` as pretty JSON; default name is
    ``BENCH_<generated>.json`` in the current directory."""
    path = Path(out) if out else Path(bench_filename(payload["generated"]))
    if path.parent and not path.parent.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_payload(path: str) -> Dict[str, Any]:
    """Read and schema-validate a committed payload."""
    with open(path) as handle:
        payload = json.load(handle)
    errors = validate_payload(payload)
    if errors:
        raise ValueError(
            "%s is not a valid bench payload: %s" % (path, "; ".join(errors))
        )
    return payload


def find_baseline(directory: str = ".", exclude: Optional[Path] = None) -> Optional[Path]:
    """Newest committed ``BENCH_*.json`` under ``directory`` (by the date
    embedded in the name), skipping the file the current run just wrote."""
    candidates = sorted(Path(directory).glob("BENCH_*.json"))
    if exclude is not None:
        resolved = exclude.resolve()
        candidates = [p for p in candidates if p.resolve() != resolved]
    return candidates[-1] if candidates else None


def render_table(payload: Dict[str, Any]) -> str:
    """Human-readable summary of one payload."""
    lines = [
        "bench (production vs reference%s) — generated %s, python %s"
        % (
            ", quick subset" if payload["quick"] else "",
            payload["generated"],
            payload["host"]["python"],
        ),
        "%-26s %9s %12s %9s %8s %6s"
        % ("case", "wall_s", "cycles/sec", "ref_s", "speedup", "match"),
    ]
    for case in payload["cases"]:
        lines.append(
            "%-26s %9.3f %12.0f %9.3f %7.2fx %6s"
            % (
                case["name"], case["wall_s"], case["cycles_per_sec"],
                case["legacy_wall_s"], case["speedup_vs_legacy"],
                "ok" if case["stats_match"] else "DIVERGED",
            )
        )
    lines.append(
        "quickstart pair: %.3fs wall, peak RSS %.1f MiB"
        % (payload["quickstart_wall_s"], payload["peak_rss_mb"])
    )
    return "\n".join(lines)


__all__ = [
    "BenchCase",
    "CASES",
    "run_case",
    "run_suite",
    "write_payload",
    "load_payload",
    "find_baseline",
    "render_table",
]
