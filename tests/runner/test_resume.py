"""Interrupt / --resume semantics (the PR's acceptance scenario).

A sweep killed partway through must resume from its checkpoint, run only
the missing cells (no duplicated jobs), and produce figure dictionaries
byte-identical to an uninterrupted run.
"""

import pytest

from repro.analysis import experiments
from repro.runner import Checkpoint, Scheduler, grid_specs

SCALE = 0.05
APPS = ["lps", "hotspot"]
MECHS = ["none", "snake"]


class _StopAfter(Exception):
    """Stands in for the operator killing the sweep."""


def _interrupt_after(n):
    seen = []

    def on_result(key, spec, outcome):
        seen.append(key)
        if len(seen) >= n:
            raise _StopAfter()

    return on_result


class TestResume:
    def test_interrupted_sweep_resumes_without_duplicates(self, tmp_path):
        specs = grid_specs(APPS, MECHS, scale=SCALE)
        path = tmp_path / "sweep.jsonl"

        with pytest.raises(_StopAfter):
            Scheduler(
                specs, jobs=0, checkpoint=Checkpoint(path),
                on_result=_interrupt_after(2),
            ).run()
        # The two finished cells were durable before the interrupt.
        assert len(Checkpoint.load(path)) == 2

        resumed = Scheduler(
            specs, jobs=0, checkpoint=Checkpoint.load(path), resume=True,
        ).run()
        assert resumed.ok
        assert resumed.reused == 2  # checkpointed cells not re-run
        assert resumed.executed == 2  # only the missing cells ran
        assert len(resumed.results) == len(specs)
        assert len(Checkpoint.load(path)) == len(specs)

    def test_killed_workers_mid_sweep_then_resume(self, tmp_path):
        """Orchestrator dies while subprocess workers are in flight (they
        are SIGKILLed); --resume completes the grid with no duplicated
        jobs."""
        specs = grid_specs(APPS, MECHS, scale=SCALE)
        path = tmp_path / "sweep.jsonl"

        with pytest.raises(_StopAfter):
            Scheduler(
                specs, jobs=2, checkpoint=Checkpoint(path),
                on_result=_interrupt_after(1),
            ).run()
        done = len(Checkpoint.load(path))
        assert 1 <= done < len(specs)

        resumed = Scheduler(
            specs, jobs=2, checkpoint=Checkpoint.load(path), resume=True,
        ).run()
        assert resumed.ok
        assert resumed.reused == done
        assert resumed.executed == len(specs) - done  # no duplicated jobs
        assert len(Checkpoint.load(path)) == len(specs)

    def test_resumed_figures_are_byte_identical(self, tmp_path):
        specs = grid_specs(APPS, MECHS, scale=SCALE)
        path = tmp_path / "sweep.jsonl"

        with pytest.raises(_StopAfter):
            Scheduler(
                specs, jobs=0, checkpoint=Checkpoint(path),
                on_result=_interrupt_after(2),
            ).run()
        resumed = Scheduler(
            specs, jobs=0, checkpoint=Checkpoint.load(path), resume=True,
        ).run()
        uninterrupted = Scheduler(specs, jobs=0).run()

        assert set(resumed.results) == set(uninterrupted.results)
        for key in resumed.results:
            assert (
                resumed.results[key].to_json_dict()
                == uninterrupted.results[key].to_json_dict()
            )
        for derive in (
            experiments.figure16_from,
            experiments.figure17_from,
            experiments.figure18_from,
        ):
            assert derive(resumed.cells()) == derive(uninterrupted.cells())

    def test_without_resume_the_checkpoint_is_discarded(self, tmp_path):
        specs = grid_specs(["lps"], ["none"], scale=SCALE)
        path = tmp_path / "sweep.jsonl"
        Scheduler(specs, jobs=0, checkpoint=Checkpoint(path)).run()
        fresh = Scheduler(specs, jobs=0, checkpoint=Checkpoint.load(path)).run()
        assert fresh.reused == 0
        assert fresh.executed == 1

    def test_retry_failed_reruns_failed_cells(self, tmp_path):
        from repro.runner import JobSpec

        path = tmp_path / "sweep.jsonl"
        bad = JobSpec.make("no-such-app", "none", scale=SCALE)
        first = Scheduler([bad], jobs=0, checkpoint=Checkpoint(path)).run()
        assert first.failed == 1

        kept = Scheduler(
            [bad], jobs=0, checkpoint=Checkpoint.load(path), resume=True,
        ).run()
        assert kept.reused == 1 and kept.executed == 0
        assert kept.failed == 1  # reused failure still counts as failed

        retried = Scheduler(
            [bad], jobs=0, checkpoint=Checkpoint.load(path), resume=True,
            retry_failed=True,
        ).run()
        assert retried.reused == 0 and retried.executed == 1
