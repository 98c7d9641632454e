"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    @pytest.mark.parametrize(
        "args",
        [
            ["stats", "--period", "0"],
            ["stats", "--period", "-0.01"],
            ["stats", "--period", "nan"],
            ["stats", "--period", "inf"],
            ["stats", "--period", "soon"],
            ["chaos", "--probe-period", "0"],
            ["chaos", "--probe-period", "nan"],
        ],
    )
    def test_bad_period_is_a_usage_error(self, args, capsys):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        assert "finite number of seconds > 0" in capsys.readouterr().err

    def test_period_accepts_positive_seconds(self):
        args = build_parser().parse_args(["stats", "--period", "0.005"])
        assert args.period == 0.005


class TestInfo:
    def test_default_topology(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "paper-fat-tree" in out
        assert "switches:      10" in out
        assert "hosts:         8" in out

    def test_ring(self, capsys):
        assert main(["info", "--topology", "ring"]) == 0
        out = capsys.readouterr().out
        assert "switches:      20" in out


class TestDemo:
    def test_demo_runs_and_reports(self, capsys):
        assert main(["demo", "--events", "30", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "events published:   30" in out
        assert "mean delay" in out
        assert "flow entries" in out

    def test_demo_deterministic(self, capsys):
        main(["demo", "--events", "20", "--seed", "5"])
        first = capsys.readouterr().out
        main(["demo", "--events", "20", "--seed", "5"])
        second = capsys.readouterr().out
        assert first == second


class TestSoak:
    def test_soak_passes(self, capsys):
        assert main(["soak", "--steps", "40", "--seed", "2",
                     "--topology", "line"]) == 0
        assert "soak OK" in capsys.readouterr().out


class TestRender:
    def test_render_draws_grid_and_trie(self, capsys):
        assert main(
            ["render", "--a", "500", "750", "--width", "16", "--height", "8"]
        ) == 0
        out = capsys.readouterr().out
        assert "#" in out
        assert "<root>" in out
        assert "dz cells" in out


class TestReport:
    def test_demo_snapshot_then_report(self, tmp_path, capsys):
        snapshot = tmp_path / "snap.json"
        assert main(
            ["demo", "--events", "15", "--snapshot-out", str(snapshot)]
        ) == 0
        capsys.readouterr()
        assert snapshot.exists()
        assert main(["report", str(snapshot)]) == 0
        out = capsys.readouterr().out
        assert "run summary" in out
        assert "events.published" in out
        assert "request:advertise" in out

    def test_report_csv(self, tmp_path, capsys):
        snapshot = tmp_path / "snap.json"
        main(["demo", "--events", "5", "--snapshot-out", str(snapshot)])
        capsys.readouterr()
        assert main(["report", str(snapshot), "--csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("kind,name,value")
        assert "counter,events.published,5" in out

    def test_snapshot_bytes_stable_across_runs(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["demo", "--events", "10", "--snapshot-out", str(a)])
        main(["demo", "--events", "10", "--snapshot-out", str(b)])
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()


class TestFpr:
    def test_fpr_point(self, capsys):
        code = main(
            [
                "fpr",
                "--model",
                "zipfian",
                "--subscriptions",
                "50",
                "--dz-length",
                "10",
                "--events",
                "200",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "FPR =" in out

    def test_fpr_improves_with_length(self, capsys):
        def rate(length):
            main(
                [
                    "fpr",
                    "--model",
                    "uniform",
                    "--subscriptions",
                    "40",
                    "--dz-length",
                    str(length),
                    "--events",
                    "300",
                ]
            )
            out = capsys.readouterr().out
            return float(out.split("FPR = ")[1].split("%")[0])

        assert rate(18) <= rate(4)


class TestCheck:
    def test_check_single_scenario_clean(self, capsys):
        code = main(
            ["check", "--topology", "line", "--install-mode", "reconcile",
             "--steps", "8"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "line [reconcile, partitions=1]: OK" in out
        assert "check OK" in out

    def test_check_both_modes(self, capsys):
        code = main(["check", "--topology", "line", "--steps", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "[reconcile" in out
        assert "[incremental" in out

    def test_check_json_document(self, capsys):
        import json

        code = main(
            ["check", "--topology", "line", "--install-mode", "reconcile",
             "--steps", "4", "--json"]
        )
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["ok"] is True
        scenario = document["scenarios"][0]
        assert scenario["topology"] == "line"
        assert scenario["verifier_runs"] == 4
        assert scenario["reports"] == []

    def test_check_exits_nonzero_on_violations(self, capsys, monkeypatch):
        import repro.analysis.verify as verify_module
        from repro.analysis.invariants import Violation

        real = verify_module.verify_controller

        def corrupted(controller, **kwargs):
            report = real(controller, **kwargs)
            violation = Violation(
                kind="drift",
                controller=controller.name,
                subject="R1",
                message="synthetic violation for the exit-code test",
            )
            return type(report)(
                controller=report.controller,
                violations=report.violations + (violation,),
                checks_run=report.checks_run,
            )

        monkeypatch.setattr(verify_module, "verify_controller", corrupted)
        code = main(
            ["check", "--topology", "line", "--install-mode", "reconcile",
             "--steps", "2"]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "FAILED" in captured.out + captured.err
        assert "synthetic violation" in captured.out

    def test_check_self_test_detects_every_fault(self, capsys):
        code = main(["check", "--self-test"])
        assert code == 0
        out = capsys.readouterr().out
        assert "self-test OK" in out
        for fault in (
            "dropped_flow_mod",
            "flipped_port",
            "duplicated_tree_dz",
            "stale_entry_after_unsubscribe",
        ):
            assert f"{fault}: detected" in out

    def test_check_self_test_json(self, capsys):
        import json

        code = main(["check", "--self-test", "--json"])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["ok"] is True
        assert len(document["faults"]) == 4
        assert all(f["detected"] for f in document["faults"])

    def test_check_deterministic_output(self, capsys):
        args = ["check", "--topology", "line", "--install-mode",
                "reconcile", "--steps", "6", "--seed", "9"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        second = capsys.readouterr().out
        assert first == second


class TestTrace:
    def test_trace_renders_all_sections(self, capsys):
        assert main(["trace", "--events", "20", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "trace: 20 events" in out
        assert "deliveries:" in out
        assert "delay attribution" in out
        assert "table-miss" in out
        assert "per-link hotness" in out
        assert "path stretch" in out

    def test_trace_fail_link_adds_link_down(self, capsys):
        assert main(
            ["trace", "--events", "30", "--seed", "3", "--fail-link"]
        ) == 0
        assert "link-down" in capsys.readouterr().out

    def test_trace_exports_valid_json(self, tmp_path, capsys):
        import json

        out_file = tmp_path / "trace.json"
        chrome_file = tmp_path / "chrome.json"
        assert main(
            ["trace", "--events", "10", "--out", str(out_file),
             "--chrome-out", str(chrome_file)]
        ) == 0
        capsys.readouterr()
        document = json.loads(out_file.read_text())
        assert document["workload"]["events"] == 10
        assert document["report"]["summary"]["deliveries"] >= 1
        assert document["records"]
        chrome = json.loads(chrome_file.read_text())
        assert chrome["traceEvents"]

    def test_trace_sampling_reduces_records(self, capsys):
        main(["trace", "--events", "40", "--sample-every", "1000000"])
        out = capsys.readouterr().out
        assert " 0 hop records" in out

    def test_trace_deterministic_output(self, capsys):
        """Within one process packet ids keep counting up between runs, so
        compare everything but the raw ids (the cross-process byte-identity
        check lives in tests/properties/test_determinism.py)."""
        import re

        args = ["trace", "--events", "25", "--seed", "7", "--limit", "2"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        second = capsys.readouterr().out
        mask = lambda s: re.sub(r"packet \d+", "packet N", s)  # noqa: E731
        assert mask(first) == mask(second)


class TestChaos:
    def test_chaos_text_summary(self, capsys):
        assert main(["chaos", "--topology", "line", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "chaos: line, seed 1" in out
        assert "link-cut" in out
        assert "link-flap" in out
        assert "switch-crash" in out
        assert "partition" in out
        assert "verifier ok" in out
        assert "0 client(s) still suspended" in out

    def test_chaos_fat_tree_alias(self, capsys):
        """The chaos-local "fat-tree" alias resolves to the paper testbed
        without appearing in the shared topology registry."""
        from repro.cli import _CHAOS_TOPOLOGIES, _TOPOLOGIES

        assert "fat-tree" in _CHAOS_TOPOLOGIES
        assert "fat-tree" not in _TOPOLOGIES
        assert main(["chaos", "--topology", "fat-tree", "--seed", "1"]) == 0
        assert "chaos: fat-tree" in capsys.readouterr().out

    def test_chaos_json_is_deterministic(self, capsys):
        args = ["chaos", "--topology", "line", "--seed", "2", "--json"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second
        import json

        document = json.loads(first)
        assert document["final"]["verifier_ok"] is True
        assert len(document["episodes"]) == 4
        for episode in document["episodes"]:
            assert episode["detection"]["latency_s"] is not None

    def test_chaos_out_writes_report(self, tmp_path, capsys):
        import json

        out_file = tmp_path / "slo.json"
        assert main(
            ["chaos", "--topology", "ring", "--seed", "0",
             "--out", str(out_file)]
        ) == 0
        capsys.readouterr()
        document = json.loads(out_file.read_text())
        assert document["schedule"]["seed"] == 0
        assert document["final"]["verifier_ok"] is True


class TestStats:
    def test_stats_text_summary(self, capsys):
        assert main(
            ["stats", "--topology", "line", "--events", "60", "--seed", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "stats: line, 60 events, seed 1" in out
        assert "poll rounds:" in out
        assert "control plane:" in out
        assert "heavy hitters" in out
        assert "per-switch polling:" in out
        assert "reconciliation vs oracle: max per-rule error 0 packet(s)" \
            in out

    def test_stats_json_is_deterministic(self, capsys):
        import json

        args = ["stats", "--topology", "ring", "--events", "40",
                "--seed", "2", "--json"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second
        document = json.loads(first)
        assert document["reconciliation"]["max_rule_error_packets"] == 0
        assert document["telemetry"]["rounds_completed"] >= 1
        assert document["control_plane"]["bytes_to_controller"] > 0
        assert document["telemetry"]["heavy_hitters"], "skew found hitters"

    def test_stats_out_and_prom_files(self, tmp_path, capsys):
        import json

        out_file = tmp_path / "stats.json"
        prom_file = tmp_path / "metrics.prom"
        assert main(
            ["stats", "--topology", "line", "--events", "30",
             "--out", str(out_file), "--prom", str(prom_file)]
        ) == 0
        capsys.readouterr()
        document = json.loads(out_file.read_text())
        assert document["workload"]["topology"] == "line"
        prom = prom_file.read_text()
        assert "telemetry_poll_rounds_total" in prom
        assert prom.endswith("# EOF\n")

    def test_stats_snapshot_matches_committed_artifact(self, capsys):
        """The committed BENCH_PR5 snapshot is exactly what the CLI
        produces for its recorded workload — regression-pins the whole
        telemetry pipeline end to end."""
        import json
        import pathlib

        snapshot = pathlib.Path(
            __file__
        ).parent.parent / "benchmarks" / "_snapshots" / "BENCH_PR5.json"
        recorded = json.loads(snapshot.read_text())
        workload = recorded["workload"]
        assert main(
            ["stats", "--topology", workload["topology"],
             "--events", str(workload["events"]),
             "--seed", str(workload["seed"]), "--json"]
        ) == 0
        produced = json.loads(capsys.readouterr().out)
        assert produced == recorded
