"""The bench suite runner: measurement, payload writing, baseline
discovery, and the end-to-end CLI gate (on a tiny pinned case)."""

import json

import pytest

from repro.bench.schema import validate_payload
from repro.bench.suite import (
    CASES,
    BenchCase,
    find_baseline,
    load_payload,
    render_table,
    run_case,
    run_suite,
    write_payload,
)

#: tiny stand-in for the committed suite so tests stay fast
TINY = (
    BenchCase("tiny-lps-none", "lps", "none", 0.05),
    BenchCase("tiny-lps-snake", "lps", "snake", 0.05, quick=False),
)


class TestSuite:
    def test_quick_subset_is_nonempty_and_proper(self):
        quick = [c for c in CASES if c.quick]
        assert quick and len(quick) < len(CASES)

    def test_committed_cases_include_quickstart_pair(self):
        names = {c.name for c in CASES}
        assert {"quickstart-none", "quickstart-snake"} <= names

    def test_run_case_measures_both_loops(self):
        result = run_case(TINY[0])
        assert result["stats_match"] is True
        assert result["cycles"] > 0
        assert result["wall_s"] > 0 and result["legacy_wall_s"] > 0
        assert result["speedup_vs_legacy"] == pytest.approx(
            result["legacy_wall_s"] / result["wall_s"], rel=0.02
        )

    def test_run_suite_payload_is_schema_valid(self):
        payload = run_suite(cases=TINY, generated="2026-01-01")
        assert validate_payload(payload) == []
        assert payload["generated"] == "2026-01-01"
        assert len(payload["cases"]) == 2
        assert payload["peak_rss_mb"] > 0

    def test_run_suite_quick_filters_cases(self):
        payload = run_suite(cases=TINY, quick=True, generated="2026-01-01")
        assert [c["name"] for c in payload["cases"]] == ["tiny-lps-none"]
        assert payload["quick"] is True

    def test_render_table_mentions_every_case(self):
        payload = run_suite(cases=TINY, generated="2026-01-01")
        table = render_table(payload)
        for case in TINY:
            assert case.name in table


class TestPayloadIO:
    def test_write_and_load_round_trip(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        payload = run_suite(cases=TINY[:1], generated="2026-01-01")
        path = write_payload(payload)
        assert path.name == "BENCH_2026-01-01.json"
        assert load_payload(str(path)) == payload

    def test_load_rejects_invalid_payload(self, tmp_path):
        bad = tmp_path / "BENCH_x.json"
        bad.write_text(json.dumps({"schema_version": 1}))
        with pytest.raises(ValueError):
            load_payload(str(bad))

    def test_find_baseline_picks_newest_and_skips_excluded(self, tmp_path):
        old = tmp_path / "BENCH_2026-01-01.json"
        new = tmp_path / "BENCH_2026-02-01.json"
        old.write_text("{}")
        new.write_text("{}")
        assert find_baseline(str(tmp_path)) == new
        assert find_baseline(str(tmp_path), exclude=new) == old
        assert find_baseline(str(tmp_path / "empty")) is None


class TestCLI:
    def test_bench_command_end_to_end_gate(self, tmp_path, monkeypatch, capsys):
        """`bench --check` against a baseline written by a previous run
        of the same tiny suite must pass the gate."""
        from repro.bench import suite as suite_mod
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(suite_mod, "CASES", TINY)
        baseline = run_suite(cases=TINY, generated="2026-01-01")
        write_payload(baseline)

        # loose tolerance: at this tiny scale the wall-clock ratio is
        # noisy, and this test gates plumbing, not performance
        rc = main([
            "bench", "--out", "BENCH_now.json", "--check", "--tolerance", "0.5",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "bench gate" in out and "passed" in out
        assert (tmp_path / "BENCH_now.json").exists()

    def test_bench_check_fails_without_baseline(self, tmp_path, monkeypatch, capsys):
        from repro.bench import suite as suite_mod
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(suite_mod, "CASES", TINY)
        rc = main(["bench", "--no-write", "--check"])
        assert rc == 2
        assert "no committed BENCH_" in capsys.readouterr().err
