"""JobSpec identity (deterministic hashing) and in-process execution."""

import pytest

from repro.bench.schema import BENCH_SCHEMA_VERSION
from repro.gpusim import GPUConfig
from repro.runner import (
    InvalidConfig,
    JobSpec,
    engine_fingerprint,
    execute_job,
    job_hash,
)

SCALE = 0.05


class TestJobHash:
    def test_deterministic(self):
        a = JobSpec.make("lps", "snake", scale=0.5, seed=3)
        b = JobSpec.make("lps", "snake", scale=0.5, seed=3)
        assert job_hash(a) == job_hash(b)

    def test_every_axis_changes_the_hash(self):
        base = JobSpec.make("lps", "snake", scale=0.5, seed=3)
        for other in (
            JobSpec.make("hotspot", "snake", scale=0.5, seed=3),
            JobSpec.make("lps", "none", scale=0.5, seed=3),
            JobSpec.make("lps", "snake", scale=0.25, seed=3),
            JobSpec.make("lps", "snake", scale=0.5, seed=4),
            JobSpec.make("lps", "snake", scale=0.5, seed=3, fault="livelock"),
        ):
            assert job_hash(other) != job_hash(base)

    def test_mech_kwargs_change_the_hash(self):
        """The old sweep-cache key ignored mech_kwargs entirely; the job
        hash must not (same grid cell, different eviction policy)."""
        plain = JobSpec.make("lps", "snake")
        popcount = JobSpec.make("lps", "snake", eviction="pop")
        assert job_hash(plain) != job_hash(popcount)

    def test_mech_kwarg_order_is_irrelevant(self):
        a = JobSpec.make("lps", "snake", eviction="pop", degree=2)
        b = JobSpec.make("lps", "snake", degree=2, eviction="pop")
        assert job_hash(a) == job_hash(b)

    def test_config_changes_the_hash(self):
        base = JobSpec.make("lps", "snake", config=GPUConfig.scaled())
        tuned = JobSpec.make(
            "lps", "snake", config=GPUConfig.scaled().with_(tail_entries=20)
        )
        assert job_hash(base) != job_hash(tuned)

    def test_hash_survives_dict_round_trip(self):
        spec = JobSpec.make(
            "lps", "snake", config=GPUConfig.scaled(), scale=0.5, seed=7,
            eviction="pop",
        )
        back = JobSpec.from_dict(spec.to_dict())
        assert back == spec
        assert job_hash(back) == job_hash(spec)

    def test_label_names_the_cell(self):
        spec = JobSpec.make("lps", "snake", eviction="pop")
        assert "lps" in spec.label()
        assert "snake" in spec.label()
        assert "eviction=pop" in spec.label()


class TestEngineFingerprint:
    """Results depend on the simulating *implementation* too: a
    bench-schema bump invalidates recorded performance identities."""

    def test_default_is_skip_ahead(self):
        """The skip-ahead core is the only engine, so the fingerprint no
        longer names a loop."""
        spec = JobSpec.make("lps", "snake")
        assert engine_fingerprint(spec) == {"bench_schema": BENCH_SCHEMA_VERSION}


class TestExecuteJob:
    def test_runs_a_real_cell(self):
        stats = execute_job(JobSpec.make("lps", "none", scale=SCALE))
        assert stats.instructions > 0
        assert stats.cycles > 0

    def test_unknown_app_is_invalid_config(self):
        with pytest.raises(InvalidConfig):
            execute_job(JobSpec.make("no-such-app", "none", scale=SCALE))

    def test_unknown_mechanism_is_invalid_config(self):
        with pytest.raises(InvalidConfig):
            execute_job(JobSpec.make("lps", "no-such-mech", scale=SCALE))

    def test_bad_config_is_invalid_config(self):
        spec = JobSpec.make("lps", "none", config={"num_sms": 0}, scale=SCALE)
        with pytest.raises(InvalidConfig):
            execute_job(spec)

    def test_unknown_config_field_is_invalid_config(self):
        spec = JobSpec.make("lps", "none", config={"not_a_field": 1}, scale=SCALE)
        with pytest.raises(InvalidConfig):
            execute_job(spec)

    def test_unknown_fault_is_invalid_config(self):
        with pytest.raises(InvalidConfig):
            execute_job(JobSpec.make("lps", "none", scale=SCALE, fault="gremlins"))
