"""Invariant violations through the runner: their own taxonomy entry,
never retried, and the specific broken law named in the wire kind."""

import contextlib

import pytest

from repro.gpusim import GPUConfig
from repro.runner import (
    InvariantViolation,
    JobSpec,
    Scheduler,
    is_retryable,
)
from repro.runner.errors import error_from_kind

SCALE = 0.05
SANITIZED = GPUConfig.scaled().with_(sanitize=True)


@contextlib.contextmanager
def _leaky_l1():
    """Make every demand load leak a phantom MSHR allocation, so the
    sanitizer's mshr_balance audit fires early in any simulation."""
    from repro.gpusim.unified_cache import UnifiedL1Cache

    original = UnifiedL1Cache.demand_load

    def leaky(self, line_addr, now, sector_mask=-1):
        self._mshr.allocated += 1
        return original(self, line_addr, now, sector_mask)

    UnifiedL1Cache.demand_load = leaky
    try:
        yield
    finally:
        UnifiedL1Cache.demand_load = original


class TestTaxonomy:
    def test_instance_kind_names_the_law(self):
        err = InvariantViolation("boom", invariant="mshr_balance")
        assert err.kind == "invariant:mshr_balance"
        assert InvariantViolation.kind == "InvariantViolation"

    def test_wire_round_trip(self):
        err = error_from_kind(
            "invariant:l2_conservation", "msg", state_dump={"cycle": 9}
        )
        assert isinstance(err, InvariantViolation)
        assert err.invariant == "l2_conservation"
        assert err.kind == "invariant:l2_conservation"
        assert err.state_dump == {"cycle": 9}

    def test_never_retryable(self):
        assert not is_retryable("invariant:mshr_balance")
        assert not is_retryable("InvariantViolation")
        assert not is_retryable("invariant:anything_else")

    def test_known_kinds_keep_their_policy(self):
        assert is_retryable("JobCrash")
        assert not is_retryable("JobTimeout")
        assert not is_retryable("SimulationHang")
        assert not is_retryable("InvalidConfig")
        assert not is_retryable("SomeUnknownKind")


class TestThroughTheRunner:
    def test_violation_becomes_failed_invariant_cell(self):
        with _leaky_l1():
            result = Scheduler(
                [JobSpec.make("lps", "none", config=SANITIZED, scale=SCALE)],
                jobs=0,
            ).run()
        (outcome,) = result.results.values()
        assert outcome.failed
        assert outcome.kind == "invariant:mshr_balance"
        assert str(outcome) == "FAILED(invariant:mshr_balance)"
        assert outcome.state_dump["violations"]

    def test_violations_are_not_retried(self):
        with _leaky_l1():
            result = Scheduler(
                [JobSpec.make("lps", "none", config=SANITIZED, scale=SCALE)],
                jobs=0, retries=3, backoff_s=0.01,
            ).run()
        (outcome,) = result.results.values()
        assert outcome.kind.startswith("invariant:")
        assert outcome.attempts == 1

    def test_violation_kind_survives_the_worker_pipe(self):
        # fork-based workers inherit the patched L1
        with _leaky_l1():
            result = Scheduler(
                [JobSpec.make("lps", "none", config=SANITIZED, scale=SCALE)],
                jobs=1,
            ).run()
        (outcome,) = result.results.values()
        assert outcome.failed
        assert outcome.kind == "invariant:mshr_balance"
        assert outcome.state_dump["violations"]

    def test_healthy_sanitized_cell_still_passes(self):
        result = Scheduler(
            [JobSpec.make("lps", "snake", config=SANITIZED, scale=SCALE)],
            jobs=0,
        ).run()
        (outcome,) = result.results.values()
        assert not getattr(outcome, "failed", False)
