"""Scheduler semantics on a virtual clock: leases, stealing, recovery.

Everything here runs on :class:`InlineTransport` + :class:`VirtualClock`
with seeded fault injectors, so lease expiry, worker-lost requeue,
poison quarantine and duplicate suppression are exercised
deterministically with no real waiting.
"""

from repro.gpusim.faults import RunnerFaultInjector, RunnerFaultPlan
from repro.gpusim.stats import SimStats
from repro.obs.events import EventBus, EventKind, Sink
from repro.runner import Checkpoint, grid_specs, job_hash, shard_of
from repro.runner.scheduler import Scheduler
from repro.runner.transport import InlineTransport, VirtualClock

SCALE = 0.05


def make_specs(apps=("lps", "hotspot"), mechanisms=("none",)):
    return grid_specs(list(apps), list(mechanisms), scale=SCALE)


def run_scheduled(specs, *, injector=None, workers=2, lease_s=0.2,
                  retries=2, max_losses=3, **kwargs):
    transport = InlineTransport(workers=workers, faults=injector)
    return Scheduler(
        specs, transport=transport, clock=VirtualClock(), lease_s=lease_s,
        retries=retries, max_losses=max_losses, backoff_s=0.01,
        faults=injector, **kwargs,
    ).run()


class RecordingSink(Sink):
    def __init__(self):
        self.events = []

    def accept(self, event):
        self.events.append(event)


class TestPlainScheduling:
    def test_completes_a_grid(self):
        specs = make_specs(mechanisms=("none", "snake"))
        result = run_scheduled(specs)
        assert result.ok
        assert result.executed == len(specs)
        assert all(isinstance(v, SimStats) for v in result.results.values())

    def test_matches_fault_free_reference(self):
        specs = make_specs()
        reference = {k: v.to_json_dict()
                     for k, v in run_scheduled(specs).results.items()}
        again = {k: v.to_json_dict()
                 for k, v in run_scheduled(specs, workers=3).results.items()}
        assert reference == again

    def test_shards_are_deterministic(self):
        key = job_hash(make_specs()[0])
        assert shard_of(key, 4) == shard_of(key, 4)
        assert shard_of(key, 1) == 0
        assert 0 <= shard_of(key, 3) < 3

    def test_work_stealing_keeps_all_workers_busy(self):
        # Find specs that all shard onto worker 0 of 2: worker 1 can only
        # run them by stealing.
        specs = [
            s for s in make_specs(
                apps=("lps", "hotspot", "backprop", "histo"),
                mechanisms=("none", "snake"),
            )
            if shard_of(job_hash(s), 2) == 0
        ]
        assert len(specs) >= 2
        result = run_scheduled(specs, workers=2)
        assert result.ok
        assert result.steals >= 1


class TestCrashRecovery:
    def test_killed_worker_retries_until_budget(self):
        specs = make_specs(apps=("lps",))
        plan = RunnerFaultPlan.single("worker.kill", rate=1.0, max_per_job=3)
        result = run_scheduled(
            specs, injector=RunnerFaultInjector(plan), retries=2,
        )
        (failure,) = result.results.values()
        assert failure.failed and failure.kind == "JobCrash"
        assert "signal" in failure.message
        assert failure.attempts == 3  # retries=2 -> three launches, all killed

    def test_enough_retries_outlast_the_fault_cap(self):
        specs = make_specs(apps=("lps",))
        plan = RunnerFaultPlan.single("worker.kill", rate=1.0, max_per_job=2)
        result = run_scheduled(
            specs, injector=RunnerFaultInjector(plan), retries=2,
        )
        assert result.ok  # attempts 1-2 killed, attempt 3 clean

    def test_kill_at_claim_phase_runs_nothing(self, monkeypatch):
        self._kill_phase_case(monkeypatch, "claim")

    def test_kill_at_report_phase_loses_the_result(self, monkeypatch):
        self._kill_phase_case(monkeypatch, "report")

    def _kill_phase_case(self, monkeypatch, phase):
        monkeypatch.setattr(
            RunnerFaultInjector, "kill_phase", lambda self, key, attempt: phase
        )
        specs = make_specs(apps=("lps",))
        plan = RunnerFaultPlan.single("worker.kill", rate=1.0, max_per_job=1)
        result = run_scheduled(
            specs, injector=RunnerFaultInjector(plan), retries=2,
        )
        assert result.ok
        (stats,) = result.results.values()
        assert isinstance(stats, SimStats)


class TestLeaseRecovery:
    def stall_injector(self, max_per_job=1):
        plan = RunnerFaultPlan.single(
            "worker.heartbeat_stall", rate=1.0, max_per_job=max_per_job,
            delay_s=0.5,
        )
        return RunnerFaultInjector(plan)

    def test_stalled_worker_loses_its_lease_and_the_job_recovers(self):
        specs = make_specs(apps=("lps",))
        result = run_scheduled(
            specs, injector=self.stall_injector(), lease_s=0.2,
        )
        assert result.ok
        assert result.losses >= 1
        (stats,) = result.results.values()
        assert isinstance(stats, SimStats)

    def test_repeated_losses_quarantine_as_poison(self):
        specs = make_specs(apps=("lps", "hotspot"))
        # Stall every attempt forever; cap losses at 2.
        result = run_scheduled(
            specs, injector=self.stall_injector(max_per_job=99),
            lease_s=0.2, max_losses=2, retries=99,
        )
        assert not result.ok
        assert result.failed == len(specs)
        for failure in result.results.values():
            assert failure.kind == "poison"
            assert "quarantined" in failure.message

    def test_worker_lost_emits_taxonomy_events(self):
        sink = RecordingSink()
        bus = EventBus([sink])
        specs = make_specs(apps=("lps",))
        run_scheduled(
            specs, injector=self.stall_injector(), lease_s=0.2, obs=bus,
        )
        lease_actions = [
            e.action for e in sink.events
            if e.kind == EventKind.RUNNER_LEASE
        ]
        assert "grant" in lease_actions
        assert "expire" in lease_actions
        retry_kinds = [
            e.error_kind for e in sink.events
            if e.kind == EventKind.RUNNER_JOB and e.phase == "retry"
        ]
        assert "worker-lost" in retry_kinds


class TestExactlyOnce:
    def test_duplicate_deliveries_settle_once(self):
        specs = make_specs(apps=("lps", "hotspot"))
        plan = RunnerFaultPlan.single("transport.dup", rate=1.0, max_per_job=5)
        settled = []
        result = run_scheduled(
            specs, injector=RunnerFaultInjector(plan),
            on_result=lambda key, spec, outcome: settled.append(key),
        )
        assert result.ok
        assert result.duplicates >= 1
        assert sorted(settled) == sorted(result.results)  # one call per key
        assert result.executed == len(specs)

    def test_dropped_results_recover_through_the_lease(self):
        specs = make_specs(apps=("lps",))
        plan = RunnerFaultPlan.single("transport.drop", rate=1.0, max_per_job=1)
        result = run_scheduled(
            specs, injector=RunnerFaultInjector(plan), lease_s=0.2,
            retries=3, max_losses=3,
        )
        assert result.ok
        assert result.losses >= 1

    def test_checkpoint_settles_exactly_once_under_dup(self, tmp_path):
        specs = make_specs(apps=("lps", "hotspot"))
        reference = Checkpoint(tmp_path / "reference.jsonl")
        run_scheduled(specs, checkpoint=reference)
        faulted = Checkpoint(tmp_path / "faulted.jsonl")
        plan = RunnerFaultPlan.single("transport.dup", rate=1.0, max_per_job=5)
        run_scheduled(
            specs, injector=RunnerFaultInjector(plan), checkpoint=faulted,
        )
        assert (
            Checkpoint.load(faulted.path).canonical_bytes()
            == Checkpoint.load(reference.path).canonical_bytes()
        )


class TestDrain:
    def test_drain_finishes_in_flight_and_reports_remainder(self, tmp_path):
        specs = make_specs(
            apps=("lps", "hotspot"), mechanisms=("none", "snake")
        )
        checkpoint = Checkpoint(tmp_path / "ck.jsonl")
        transport = InlineTransport(workers=1)
        scheduler = Scheduler(
            specs, transport=transport, clock=VirtualClock(),
            checkpoint=checkpoint, backoff_s=0.01,
        )

        calls = []

        def drain_after_first(key, spec, outcome):
            calls.append(key)
            scheduler.request_drain()

        scheduler._on_result = drain_after_first  # noqa: SLF001 - test hook
        result = scheduler.run()
        assert result.drained
        assert result.executed >= 1
        assert result.remaining == len(specs) - result.executed
        assert result.remaining >= 1
        # Every settled cell is durable; resume completes the rest.
        resumed = Scheduler(
            specs, jobs=0, checkpoint=Checkpoint.load(checkpoint.path),
            resume=True,
        ).run()
        assert resumed.ok
        assert resumed.reused == result.executed
        assert resumed.executed == len(specs) - result.executed


class TestPoolParity:
    def test_inline_scheduler_never_retries(self):
        from repro.runner import JobSpec

        spec = JobSpec.make("lps", "does-not-exist", scale=SCALE)
        result = Scheduler([spec], jobs=0, retries=5).run()
        (failure,) = result.results.values()
        assert failure.failed
        assert failure.kind == "InvalidConfig"
        assert failure.attempts == 1
