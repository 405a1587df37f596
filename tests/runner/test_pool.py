"""Crash-isolated parallel execution: the resilience test suite.

These tests drive :class:`Scheduler` over *real* subprocess workers —
SIGKILL'd mid-job, stalled past the timeout, or livelocked until the
in-simulator watchdog fires — via the chaos ``fault`` hook on
:class:`JobSpec`.
"""

import time

from repro.gpusim import GPUConfig
from repro.gpusim.stats import SimStats
from repro.runner import JobSpec, Scheduler, grid_specs

SCALE = 0.05
FAST_RETRY = dict(backoff_s=0.01)


class TestParallelCorrectness:
    def test_pooled_equals_inline(self):
        specs = grid_specs(["lps", "hotspot"], ["none", "snake"], scale=SCALE)
        inline = Scheduler(specs, jobs=0).run()
        pooled = Scheduler(specs, jobs=2).run()
        assert inline.ok and pooled.ok
        assert set(inline.results) == set(pooled.results)
        for key in inline.results:
            assert (
                inline.results[key].to_json_dict()
                == pooled.results[key].to_json_dict()
            )

    def test_duplicate_specs_run_once(self):
        spec = JobSpec.make("lps", "none", scale=SCALE)
        result = Scheduler([spec, spec, spec], jobs=0).run()
        assert len(result.results) == 1
        assert result.executed == 1

    def test_cells_view_is_the_grid(self):
        specs = grid_specs(["lps"], ["none", "snake"], scale=SCALE)
        result = Scheduler(specs, jobs=0).run()
        cells = result.cells()
        assert set(cells) == {"lps"}
        assert set(cells["lps"]) == {"none", "snake"}


class TestCrashIsolation:
    def test_sigkilled_worker_loses_one_cell_not_the_sweep(self):
        specs = grid_specs(
            ["lps"], ["none", "snake"], scale=SCALE,
            faults={("lps", "snake"): "crash"},
        )
        result = Scheduler(specs, jobs=2, retries=1, **FAST_RETRY).run()
        crashed = result.cells()["lps"]["snake"]
        survived = result.cells()["lps"]["none"]
        assert crashed.failed
        assert crashed.kind == "JobCrash"
        assert "signal" in crashed.message
        assert crashed.attempts == 2  # retries=1 -> two attempts, both killed
        assert isinstance(survived, SimStats)
        assert result.failed == 1

    def test_transient_crash_recovers_on_retry(self, tmp_path):
        sentinel = tmp_path / "crashed-once"
        from repro.runner import Checkpoint

        ckpt = Checkpoint(tmp_path / "ckpt.jsonl")
        result = Scheduler(
            [
                JobSpec.make(
                    "lps", "none", scale=SCALE,
                    fault="crash-once:%s" % sentinel,
                )
            ],
            jobs=1, retries=2, checkpoint=ckpt, **FAST_RETRY,
        ).run()
        assert result.ok
        (stats,) = result.results.values()
        assert isinstance(stats, SimStats)
        assert sentinel.exists()
        (record,) = ckpt.records.values()
        assert record["attempts"] == 2


class TestTimeout:
    def test_stalled_worker_is_killed_at_the_deadline(self):
        started = time.monotonic()
        result = Scheduler(
            [JobSpec.make("lps", "none", scale=SCALE, fault="sleep:60")],
            jobs=1, timeout=1.0,
        ).run()
        elapsed = time.monotonic() - started
        (outcome,) = result.results.values()
        assert outcome.failed
        assert outcome.kind == "JobTimeout"
        assert "timeout" in outcome.message
        assert elapsed < 30  # nowhere near the 60s stall

    def test_timeouts_are_not_retried(self):
        result = Scheduler(
            [JobSpec.make("lps", "none", scale=SCALE, fault="sleep:60")],
            jobs=1, timeout=0.5, retries=3, **FAST_RETRY,
        ).run()
        (outcome,) = result.results.values()
        assert outcome.kind == "JobTimeout"
        assert outcome.attempts == 1


class TestWatchdogOverThePipe:
    def test_livelocked_simulation_fails_with_state_dump(self):
        config = GPUConfig.scaled().with_(watchdog_cycles=3_000)
        specs = grid_specs(
            ["lps"], ["none", "snake"], config=config, scale=SCALE,
            faults={("lps", "snake"): "livelock"},
        )
        result = Scheduler(specs, jobs=2).run()
        hung = result.cells()["lps"]["snake"]
        survived = result.cells()["lps"]["none"]
        assert hung.failed
        assert hung.kind == "SimulationHang"
        # The diagnostic dump crossed the worker pipe intact.
        assert hung.state_dump["sms"]
        assert any(sm["warps"] for sm in hung.state_dump["sms"])
        assert "l2" in hung.state_dump and "dram" in hung.state_dump
        # ...and the rest of the sweep still completed.
        assert isinstance(survived, SimStats)


class TestObsEvents:
    def test_lifecycle_events_are_emitted(self):
        from repro.obs.events import EventBus, EventKind

        class Recorder:
            def __init__(self):
                self.events = []

            def accept(self, event):
                self.events.append(event)

            def close(self):
                pass

        bus = EventBus()
        recorder = bus.attach(Recorder())
        Scheduler(
            [JobSpec.make("lps", "none", scale=SCALE)], jobs=0, obs=bus,
        ).run()
        runner_events = [
            e for e in recorder.events if e.kind is EventKind.RUNNER_JOB
        ]
        phases = [e.phase for e in runner_events]
        assert "start" in phases
        assert "done" in phases
