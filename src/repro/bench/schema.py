"""The ``BENCH_<date>.json`` schema and its regression gate.

A bench payload is the committed record of the simulator's wall-clock
performance trajectory: every entry in the repo's history answers "how
fast was the simulator at this commit, and how much faster than the
reference model (:mod:`repro.reference`)?".  The schema is deliberately small
and flat so that payloads diff cleanly in review.

This module is **stdlib-only** on purpose: :mod:`repro.runner.jobs`
imports :data:`BENCH_SCHEMA_VERSION` into the job-hash engine
fingerprint, and the runner must not drag the workload/prefetch stack in
at import time.

Version history:

* **1** — initial schema: per-case wall time, cycles/sec, the
  reference time, the dimensionless ``speedup_vs_legacy`` ratio the CI
  gate compares, and the cycle-identical ``stats_match`` differential
  bit.  Payloads up to ``BENCH_2026-08-08.json`` timed the step-every-
  cycle loop as the reference; later ones time the whole reference
  model (that loop plus the scalar Snake walk and per-request issue),
  so their ratios are larger and are compared only with each other.

Field reference (kept in sync with docs/PERFORMANCE.md by
``tools/check_docs.py``): see :data:`TOP_FIELDS` and :data:`CASE_FIELDS`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Tuple

#: bump when a field is added/removed/reinterpreted; the job-hash engine
#: fingerprint incorporates it, so old sweep checkpoints are not reused
#: across a schema change.
BENCH_SCHEMA_VERSION = 1

#: the CI gate's default: a case regresses when its speedup_vs_legacy
#: drops more than this fraction below the committed baseline's.
DEFAULT_TOLERANCE = 0.15

#: the quickstart-wall gate's default: the quickstart pair's absolute
#: wall time may exceed the baseline's by at most this fraction.  Wall
#: time is machine-dependent (unlike the speedup ratio), so this bound
#: is deliberately loose — it exists to catch order-of-magnitude
#: hot-path regressions that a ratio gate cannot see (both models getting
#: slower together), not few-percent jitter.
DEFAULT_WALL_TOLERANCE = 0.60

#: top-level payload fields -> required type
TOP_FIELDS: Dict[str, type] = {
    "schema_version": int,
    "generated": str,  # ISO date the payload was measured
    "quick": bool,  # True when only the --quick subset ran
    "loop": str,  # "event" (production primary); "legacy" only in old payloads
    "host": dict,  # python/platform/cpu_count of the measuring machine
    "peak_rss_mb": float,  # process high-water RSS after the suite
    "quickstart_wall_s": float,  # combined wall time of the quickstart pair
    "cases": list,
}

#: per-case fields -> required type
CASE_FIELDS: Dict[str, type] = {
    "name": str,
    "app": str,
    "mechanism": str,
    "scale": float,
    "seed": int,
    "cycles": int,  # simulated cycles (identical in both models)
    "instructions": int,  # committed warp instructions
    "wall_s": float,  # wall time of the production simulator
    "cycles_per_sec": float,  # cycles / wall_s — the throughput number
    "legacy_wall_s": float,  # wall time of the reference model
    "speedup_vs_legacy": float,  # legacy_wall_s / wall_s, dimensionless
    "stats_match": bool,  # SimStats identical between the two models
}


def bench_filename(generated: str) -> str:
    """Canonical file name for a payload measured on ``generated``."""
    return "BENCH_%s.json" % generated


def _type_ok(value: Any, expected: type) -> bool:
    if expected is float:
        # ints are fine where a float is expected (json round-trips 1.0
        # as 1 on some writers) but bools are not.
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if expected is int:
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, expected)


def validate_payload(payload: Mapping[str, Any]) -> List[str]:
    """Schema errors in ``payload`` (empty list = valid).

    Checks field presence and types at both levels, the schema version,
    and that the per-case arithmetic (``speedup_vs_legacy``,
    ``cycles_per_sec``) is self-consistent.
    """
    errors: List[str] = []
    for field, expected in TOP_FIELDS.items():
        if field not in payload:
            errors.append("missing top-level field %r" % field)
        elif not _type_ok(payload[field], expected):
            errors.append(
                "top-level field %r is %s, expected %s"
                % (field, type(payload[field]).__name__, expected.__name__)
            )
    if errors:
        return errors
    if payload["schema_version"] != BENCH_SCHEMA_VERSION:
        errors.append(
            "schema_version %r != supported %d"
            % (payload["schema_version"], BENCH_SCHEMA_VERSION)
        )
    if payload["loop"] not in ("event", "legacy"):
        errors.append("loop must be 'event' or 'legacy', not %r" % payload["loop"])
    if not payload["cases"]:
        errors.append("cases must not be empty")
    for i, case in enumerate(payload["cases"]):
        if not isinstance(case, Mapping):
            errors.append("cases[%d] is not an object" % i)
            continue
        label = case.get("name", "cases[%d]" % i)
        for field, expected in CASE_FIELDS.items():
            if field not in case:
                errors.append("case %s: missing field %r" % (label, field))
            elif not _type_ok(case[field], expected):
                errors.append(
                    "case %s: field %r is %s, expected %s"
                    % (label, field, type(case[field]).__name__, expected.__name__)
                )
        if any(f not in case for f in ("wall_s", "legacy_wall_s", "speedup_vs_legacy")):
            continue
        if case["wall_s"] > 0:
            implied = case["legacy_wall_s"] / case["wall_s"]
            if abs(implied - case["speedup_vs_legacy"]) > 0.01 * max(implied, 1.0):
                errors.append(
                    "case %s: speedup_vs_legacy %.4f inconsistent with "
                    "legacy_wall_s/wall_s = %.4f"
                    % (label, case["speedup_vs_legacy"], implied)
                )
    return errors


def _cases_by_name(payload: Mapping[str, Any]) -> Dict[str, Mapping[str, Any]]:
    return {case["name"]: case for case in payload["cases"]}


def compare_payloads(
    current: Mapping[str, Any],
    baseline: Mapping[str, Any],
    tolerance: float = DEFAULT_TOLERANCE,
    wall_tolerance: float = DEFAULT_WALL_TOLERANCE,
) -> List[str]:
    """Regressions of ``current`` against a committed ``baseline``
    (empty list = gate passes).

    The gate deliberately compares the **dimensionless**
    ``speedup_vs_legacy`` ratio, not absolute wall times: CI machines
    vary in speed run-to-run, but both models run on the same machine in
    the same process, so their ratio isolates the production
    simulator's own speed.  A case regresses when its ratio drops more
    than ``tolerance`` below the baseline's, when its stats no longer
    match the reference model, or when the two payloads share no
    comparable case.

    One absolute check backs the ratio gate up: ``quickstart_wall_s``
    may not exceed the baseline's by more than ``wall_tolerance`` — a
    hot-path regression that slows *both* models leaves every ratio
    intact, and only the wall clock notices.
    """
    regressions: List[str] = []
    for name, payload in (("current", current), ("baseline", baseline)):
        errs = validate_payload(payload)
        if errs:
            regressions.extend("%s payload invalid: %s" % (name, e) for e in errs)
    if regressions:
        return regressions
    if current["loop"] != "event":
        return ["gate requires the event loop as primary (got %r)" % current["loop"]]
    cur = _cases_by_name(current)
    base = _cases_by_name(baseline)
    compared = 0
    for name in sorted(cur):
        if name not in base:
            continue
        c, b = cur[name], base[name]
        if (c["app"], c["mechanism"], c["scale"], c["seed"]) != (
            b["app"], b["mechanism"], b["scale"], b["seed"],
        ):
            regressions.append(
                "case %s: pinned parameters changed vs baseline "
                "(re-measure the baseline instead of editing the case)" % name
            )
            continue
        compared += 1
        if not c["stats_match"]:
            regressions.append(
                "case %s: stats diverged from the reference model" % name
            )
        floor = b["speedup_vs_legacy"] * (1.0 - tolerance)
        if c["speedup_vs_legacy"] < floor:
            regressions.append(
                "case %s: speedup_vs_legacy %.3f < %.3f "
                "(baseline %.3f - %d%% tolerance)"
                % (
                    name, c["speedup_vs_legacy"], floor,
                    b["speedup_vs_legacy"], round(tolerance * 100),
                )
            )
    if compared == 0:
        regressions.append(
            "no case is comparable between current and baseline payloads"
        )
    ceiling = baseline["quickstart_wall_s"] * (1.0 + wall_tolerance)
    if current["quickstart_wall_s"] > ceiling:
        regressions.append(
            "quickstart_wall_s %.3fs > %.3fs (baseline %.3fs + %d%% "
            "wall tolerance)"
            % (
                current["quickstart_wall_s"], ceiling,
                baseline["quickstart_wall_s"], round(wall_tolerance * 100),
            )
        )
    return regressions


def comparable_cases(
    current: Mapping[str, Any], baseline: Mapping[str, Any]
) -> List[Tuple[str, float, float]]:
    """(name, current speedup, baseline speedup) for the overlapping
    cases — the gate's summary table."""
    cur = _cases_by_name(current)
    base = _cases_by_name(baseline)
    return [
        (name, cur[name]["speedup_vs_legacy"], base[name]["speedup_vs_legacy"])
        for name in sorted(cur)
        if name in base
    ]


__all__ = [
    "BENCH_SCHEMA_VERSION",
    "DEFAULT_TOLERANCE",
    "DEFAULT_WALL_TOLERANCE",
    "TOP_FIELDS",
    "CASE_FIELDS",
    "bench_filename",
    "validate_payload",
    "compare_payloads",
    "comparable_cases",
]
