"""Automated paper-claims checker."""

from repro.analysis.claims import CLAIMS, ClaimResult, check_claims, render_claims


class TestClaimsStructure:
    def test_every_claim_has_source_and_statement(self):
        for claim in CLAIMS:
            assert claim.source
            assert len(claim.statement) > 10

    def test_sources_reference_paper_artifacts(self):
        sources = {c.source for c in CLAIMS}
        assert "abstract" in sources
        assert any(s.startswith("fig") for s in sources)
        assert "table3" in sources

    def test_render_counts_verdicts(self):
        results = [
            ClaimResult(claim=CLAIMS[0], holds=True, measured="x"),
            ClaimResult(claim=CLAIMS[1], holds=False, measured="y"),
        ]
        text = render_claims(results)
        assert "1/2 claims hold" in text
        assert "PASS" in text and "DEVIATION" in text


class TestClaimsRun:
    def test_most_claims_hold_at_small_scale(self):
        results = check_claims(scale=0.25, seed=2)
        held = sum(1 for r in results if r.holds)
        assert held >= len(results) - 3  # the shapes must survive downscaling

    def test_structural_claims_always_hold(self):
        results = {r.claim.statement: r for r in check_claims(scale=0.25, seed=2)}
        table3 = next(
            r for s, r in results.items() if "448" in s
        )
        assert table3.holds


class TestClaimsExitCode:
    """``snake-repro claims`` is a gate: any deviation fails the command."""

    def _run_with(self, monkeypatch, second_holds):
        from repro.analysis import claims
        from repro.cli import main

        results = [
            ClaimResult(claim=CLAIMS[0], holds=True, measured="x"),
            ClaimResult(claim=CLAIMS[1], holds=second_holds, measured="y"),
        ]
        monkeypatch.setattr(claims, "check_claims", lambda scale, seed: results)
        return main(["claims", "--scale", "0.25", "--seed", "1"])

    def test_one_deviation_exits_one(self, monkeypatch, capsys):
        assert self._run_with(monkeypatch, second_holds=False) == 1
        assert "DEVIATION" in capsys.readouterr().out

    def test_all_holding_exits_zero(self, monkeypatch, capsys):
        assert self._run_with(monkeypatch, second_holds=True) == 0
        assert "2/2 claims hold" in capsys.readouterr().out
