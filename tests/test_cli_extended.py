"""End-to-end tests for the data-handling CLI commands."""

import json

import pytest

from repro.cli import main


class TestCollectAnalyze:
    def test_collect_then_analyze_roundtrip(self, tmp_path, capsys):
        out_dir = tmp_path / "study"
        code = main(
            ["collect", "--out", str(out_dir), "--services", "indeed",
             "--duration", "40"]
        )
        assert code == 0
        assert (out_dir / "manifest.json").exists()
        saved = capsys.readouterr().out
        assert "saved 4 sessions" in saved  # 2 OSes x 2 media

        code = main(["analyze", str(out_dir), "--no-recon"])
        assert code == 0
        analyzed = capsys.readouterr().out
        assert "All" in analyzed
        assert "Unique ID" in analyzed

    def test_reference_analyze_detects_with_linear_matcher(self, tmp_path, capsys, monkeypatch):
        from repro.core import pipeline
        from repro.pii.matcher import matcher_for
        from repro.qa import reference

        built = []

        class CountingLinear(reference.LinearGroundTruthMatcher):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(reference, "LinearGroundTruthMatcher", CountingLinear)
        out_dir = tmp_path / "study"
        main(["collect", "--out", str(out_dir), "--services", "indeed", "--duration", "40"])
        capsys.readouterr()
        assert main(["analyze", str(out_dir)]) == 0
        product = capsys.readouterr().out
        assert reference.main(["analyze", str(out_dir)]) == 0
        assert capsys.readouterr().out == product
        # Every session was labelled and analyzed by the linear scan, and
        # the product factory is back in place afterwards.
        assert len(built) == 8
        assert pipeline.matcher_for is matcher_for

    def test_collect_manifest_carries_ground_truth(self, tmp_path):
        out_dir = tmp_path / "study"
        main(["collect", "--out", str(out_dir), "--services", "indeed", "--duration", "30"])
        manifest = json.loads((out_dir / "manifest.json").read_text())
        session = manifest["sessions"][0]
        assert "unique_id" in session["ground_truth"]
        assert session["service"] == "indeed"


class TestHarCommand:
    def test_har_export(self, tmp_path, capsys):
        out = tmp_path / "session.har"
        code = main(
            ["har", "indeed", "--medium", "app", "--os", "ios",
             "--duration", "30", "--out", str(out)]
        )
        assert code == 0
        har = json.loads(out.read_text())
        assert har["log"]["version"] == "1.2"
        assert har["log"]["entries"]
        hosts = {e["comment"].split("host=")[1] for e in har["log"]["entries"]}
        assert any("indeed.com" in h for h in hosts)

    def test_har_unknown_service(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["har", "ghost", "--out", str(tmp_path / "x.har")])


class TestReportCommand:
    def test_report_markdown(self, capsys):
        code = main(["report", "--services", "weather,netflix", "--duration", "40", "--no-recon"])
        assert code == 0
        out = capsys.readouterr().out
        assert "# EXPERIMENTS" in out
        assert "| Quantity | Paper | Measured |" in out


class TestBlockingCommand:
    def test_blocking_single_service(self, capsys):
        code = main(["blocking", "--services", "foodnetwork", "--duration", "60"])
        assert code == 0
        out = capsys.readouterr().out
        assert "gigya.com" in out  # the filter-list blind spot
        assert "overall leak reduction" in out


class TestReachCommand:
    def test_reach_output(self, capsys):
        code = main(
            ["reach", "--services", "weather,yelp", "--duration", "40", "--no-recon"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "A&A domains observed" in out
        assert "google-analytics.com" in out
