"""Differential tests for the event-driven skip-ahead core.

The contract (docs/PERFORMANCE.md): the production simulator and the
step-every-cycle reference model (:mod:`repro.reference`) are
**cycle-identical** — not statistically close, byte-equal on every
counter, for every mechanism, storage mode, topology, and even under
chaos faults (the shared RNG stream must be consulted in the same order
at the same cycles).
"""

import pytest

from repro import reference
from repro.gpusim import FaultInjector, FaultPlan, GPUConfig, simulate
from repro.workloads import build_kernel

SCALE = 0.15


def both_loops(app, mechanism, scale=SCALE, seed=1, config=None, **kwargs):
    """Run one cell on the production simulator and on the reference
    model; returns the two SimStats dicts."""
    results = []
    for run in (simulate, reference.simulate):
        kernel = build_kernel(app, scale=scale, seed=seed)
        stats = run(
            kernel,
            prefetcher=mechanism,
            config=config or GPUConfig.scaled(),
            **kwargs,
        )
        results.append(stats.as_dict())
    return results


class TestCycleIdentical:
    @pytest.mark.parametrize("app,mechanism", [
        ("lps", "none"),
        ("lps", "snake"),
        ("hotspot", "snake"),
        ("hotspot", "intra"),
        ("backprop", "s-snake"),
        ("mum", "snake-dt"),
    ])
    def test_stats_identical_across_mechanisms(self, app, mechanism):
        production, ref = both_loops(app, mechanism)
        assert production == ref

    @pytest.mark.parametrize("seed", [1, 2, 7])
    def test_stats_identical_across_seeds(self, seed):
        production, ref = both_loops("lps", "snake", seed=seed)
        assert production == ref

    def test_stats_identical_on_wider_gpu(self):
        config = GPUConfig.scaled(num_sms=4)
        production, ref = both_loops("hotspot", "snake", config=config)
        assert production == ref

    def test_stats_identical_with_sectored_l1(self):
        config = GPUConfig.scaled().with_(l1_sector_bytes=32)
        production, ref = both_loops("lps", "snake", config=config)
        assert production == ref

    def test_stats_identical_with_sanitizer(self):
        """The sanitizer audits invariants mid-run; it must see the same
        state at the same audit points under both models."""
        config = GPUConfig.scaled().with_(sanitize=True)
        production, ref = both_loops("backprop", "snake", config=config)
        assert production == ref


class TestFigureCSVs:
    def test_sweep_csv_identical(self, tmp_path, monkeypatch):
        """The figure pipeline (in-process sweep -> coverage matrix ->
        CSV) must produce byte-identical files from either model."""
        from repro.analysis import export
        from repro.analysis.experiments import figure16_from
        from repro.runner import grid_specs, jobs, run_jobs

        paths = []
        for model in ("production", "reference"):
            if model == "reference":
                monkeypatch.setattr(jobs, "GPU", reference.ReferenceGPU)
            specs = grid_specs(
                ["lps", "hotspot"], ["none", "snake"],
                config=GPUConfig.scaled(), scale=SCALE, seed=1,
            )
            result = run_jobs(specs, jobs=0)
            assert result.ok
            out = tmp_path / ("fig16_%s.csv" % model)
            export.to_csv(figure16_from(result.cells()), str(out))
            paths.append(out)
        assert paths[0].read_bytes() == paths[1].read_bytes()


class _FaultRecorder:
    """Minimal BusLike that records every FaultEvent's firing site/cycle."""

    enabled = True

    def __init__(self):
        self.events = []

    def emit(self, event):
        self.events.append(
            (event.cycle, event.sm_id, event.site, event.detail)
        )


class TestChaosParity:
    def test_faults_fire_at_the_same_cycles(self):
        """Chaos injection consults one seeded RNG stream in simulation
        order; if the event core visited components in any different
        order the firing sequence (site, cycle) would diverge."""
        traces = []
        stats = []
        for run in (simulate, reference.simulate):
            recorder = _FaultRecorder()
            injector = FaultInjector(
                FaultPlan.storm(seed=3, delay_cycles=200), obs=recorder
            )
            kernel = build_kernel("hotspot", scale=SCALE, seed=1)
            result = run(
                kernel, prefetcher="snake", config=GPUConfig.scaled(),
                faults=injector,
            )
            assert injector.total_fired > 0
            traces.append(recorder.events)
            stats.append(result.as_dict())
        assert traces[0] == traces[1]
        assert stats[0] == stats[1]
