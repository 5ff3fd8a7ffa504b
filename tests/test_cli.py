"""CLI smoke tests (argument wiring and output sanity)."""

import argparse
import json

import pytest

from repro import api
from repro.api.registry import WORKLOADS, QueryField, WorkloadSpec, integer
from repro.cli import build_parser, build_profile_parser, main
from repro.machine.cost import CostRecord


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_exp_args(self):
        args = build_parser().parse_args(["exp", "e1", "--full"])
        assert args.id == "e1" and args.full

    def test_exp_engine_flags(self):
        args = build_parser().parse_args(
            ["exp", "all", "--jobs", "4", "--no-cache", "--cache-dir", "/tmp/c"]
        )
        assert args.jobs == 4 and args.cache is False
        assert args.cache_dir == "/tmp/c"

    def test_exp_engine_defaults(self):
        args = build_parser().parse_args(["exp", "e1"])
        assert args.jobs == 1 and args.cache is True

    def test_sort_defaults(self):
        args = build_parser().parse_args(["sort"])
        assert args.sorter == "aem_mergesort" and args.m == 128


def _subcommand(name: str) -> argparse.ArgumentParser:
    (sub,) = [
        a for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    ]
    return sub.choices[name]


def _field_actions(parser, skip) -> dict:
    """The parser's flags by dest, minus the ones in ``skip``."""
    return {a.dest: a for a in parser._actions if a.dest not in {"help", *skip}}


class TestRegistryDrivenCommands:
    """Runner subcommands and ``profile`` targets mirror ``/workloads``."""

    def _assert_mirrors_schema(self, actions: dict, name: str) -> None:
        schema = api.WORKLOADS[name].describe()["fields"]
        assert set(actions) == {field.lower() for field in schema}
        for field, entry in schema.items():
            action = actions[field.lower()]
            assert action.option_strings[0] == "--" + field.lower().replace("_", "-")
            assert action.help == entry["help"] and entry["help"]
            assert list(action.choices or []) == entry.get("choices", [])
            if field != "n" and "default" in entry:
                assert action.default == entry["default"]

    @pytest.mark.parametrize("name", api.workload_names())
    def test_subcommand_flags_match_schema(self, name):
        actions = _field_actions(
            _subcommand(name), skip={"json", "progress", "telemetry_dir"}
        )
        self._assert_mirrors_schema(actions, name)

    @pytest.mark.parametrize("name", api.workload_names())
    def test_profile_target_flags_match_schema(self, name):
        parser = build_profile_parser(name)
        actions = _field_actions(parser, skip={"weight", "top", "out"})
        self._assert_mirrors_schema(actions, name)
        assert parser.parse_args([]).n == 4096

    def test_new_workload_gets_a_subcommand(self, monkeypatch, capsys):
        def measure_toy(N, params, *, width=3, seed=0, counting=False):
            return CostRecord(Q=N * width, Qr=N, Qw=0, T=0, peak_mem=0)

        monkeypatch.setitem(
            WORKLOADS,
            "toy",
            WorkloadSpec(
                name="toy",
                measure=measure_toy,
                fields=(
                    QueryField("n", integer, help="items"),
                    QueryField("width", integer, default=3, help="item width"),
                ),
                help="a throwaway workload",
            ),
        )
        with pytest.raises(SystemExit):  # no default n: --n is required
            build_parser().parse_args(["toy"])
        assert main(["toy", "--n", "5", "--width", "2", "--json"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["command"] == "toy" and rec["width"] == 2
        assert rec["Q"] == 10 and rec["counting"] is False
        assert main(["toy", "--n", "5"]) == 0
        assert "a throwaway workload" in capsys.readouterr().out

    def test_aliases_keep_the_typed_name(self, capsys):
        args = build_parser().parse_args(["search", "--queries", "5", "--terms", "3"])
        assert (args.command, args.workload) == ("search", "search_query")
        assert (args.n_queries, args.terms_per_query) == (5, 3)
        assert main(["index", "--n", "500", "--counting", "--json"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["command"] == "index" and rec["counting"] is True

    def test_bad_machine_parameters_are_a_usage_error(self, capsys):
        assert main(["sort", "--n", "100", "--m", "4", "--b", "8"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-aem: error: bad machine parameters")
        assert "Traceback" not in err

    def test_unknown_experiment_is_a_usage_error(self, capsys):
        assert main(["exp", "nope"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("exp: unknown experiment 'nope'")
        assert "Traceback" not in err

    def test_unknown_distribution_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sort", "--distribution", "bogus"])
        assert exc.value.code == 2
        assert "--distribution" in capsys.readouterr().err

    def test_inspect_family_has_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["inspect", "--family", "bogus"])


class TestCommands:
    def test_bounds(self, capsys):
        assert main(["bounds", "--n", "4096", "--m", "64", "--b", "8", "--omega", "4"]) == 0
        out = capsys.readouterr().out
        assert "Theorem 4.5" in out and "regime" in out

    def test_sort(self, capsys):
        assert main(["sort", "--n", "300", "--m", "64", "--b", "8", "--omega", "2"]) == 0
        assert "Qr=" in capsys.readouterr().out

    def test_permute(self, capsys):
        assert main(["permute", "--n", "256", "--m", "64", "--b", "8", "--omega", "2"]) == 0
        assert "lower bound" in capsys.readouterr().out

    def test_spmxv(self, capsys):
        assert (
            main(
                [
                    "spmxv",
                    "--n", "64",
                    "--delta", "2",
                    "--m", "64",
                    "--b", "8",
                    "--omega", "2",
                ]
            )
            == 0
        )
        assert "spmxv" in capsys.readouterr().out

    def test_exp_single(self, capsys):
        assert main(["exp", "e12"]) == 0
        out = capsys.readouterr().out
        assert "E12" in out and "PASS" in out

    def test_inspect(self, capsys):
        assert (
            main(
                ["inspect", "--n", "128", "--m", "32", "--b", "4",
                 "--omega", "2", "--ops", "10"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "residency" in out and "block" in out

    def test_inspect_round_based(self, capsys):
        assert (
            main(
                ["inspect", "--n", "128", "--m", "32", "--b", "4",
                 "--omega", "2", "--round-based"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "round-based" in out and "── round" in out


class TestJsonOutput:
    def test_sort_json(self, capsys):
        assert (
            main(["sort", "--n", "300", "--m", "64", "--b", "8",
                  "--omega", "2", "--json"])
            == 0
        )
        rec = json.loads(capsys.readouterr().out)
        assert rec["command"] == "sort" and rec["sorter"] == "aem_mergesort"
        assert rec["Q"] == rec["Qr"] + 2 * rec["Qw"]
        assert rec["params"] == {"M": 64, "B": 8, "omega": 2}

    def test_permute_json(self, capsys):
        assert (
            main(["permute", "--n", "256", "--m", "64", "--b", "8",
                  "--omega", "2", "--json"])
            == 0
        )
        rec = json.loads(capsys.readouterr().out)
        assert rec["command"] == "permute"
        assert {"Qr", "Qw", "Q", "lower_bound_general"} <= set(rec)

    def test_spmxv_json(self, capsys):
        assert (
            main(["spmxv", "--n", "64", "--delta", "2", "--m", "64",
                  "--b", "8", "--omega", "2", "--json"])
            == 0
        )
        rec = json.loads(capsys.readouterr().out)
        assert rec["command"] == "spmxv" and rec["delta"] == 2

    def test_exp_json(self, capsys):
        assert main(["exp", "e12", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        results = payload["results"]
        assert len(results) == 1
        assert results[0]["eid"] == "E12" and results[0]["passed"] is True
        assert isinstance(results[0]["records"], list)
        engine = payload["engine"]
        assert engine["jobs"] == 1 and engine["cache_enabled"] is True
        assert {"executed", "cache_hits", "cache_misses", "measurements"} <= set(engine)

    def test_exp_json_engine_counts_cache_hits(self, capsys, tmp_path):
        args = ["exp", "e5", "--json", "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        cold = json.loads(capsys.readouterr().out)["engine"]
        assert cold["executed"] == 8 and cold["cache_hits"] == 0
        assert main(args) == 0
        warm = json.loads(capsys.readouterr().out)["engine"]
        assert warm["executed"] == 0 and warm["cache_hits"] == 8

    def test_json_matches_rendered_costs(self, capsys):
        args = ["sort", "--n", "300", "--m", "64", "--b", "8", "--omega", "2"]
        assert main(args + ["--json"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert main(args) == 0
        rendered = capsys.readouterr().out
        assert f"Qr={rec['Qr']}" in rendered and f"Qw={rec['Qw']}" in rendered


class TestExpEngine:
    # e5 is the smallest engine-routed experiment (8 measurements through
    # sweep_map), so its cache/parallel behavior exercises the real path.
    def test_exp_parallel_output_matches_serial(self, capsys, tmp_path):
        base = ["exp", "e5", "--no-cache"]
        assert main(base) == 0
        serial = capsys.readouterr().out
        assert main(base + ["--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial

    def test_exp_warm_cache_rerun_hits(self, capsys, tmp_path):
        args = ["exp", "e5", "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        cold = capsys.readouterr()
        assert "[engine]" in cold.err and "0 cache hit(s)" in cold.err
        assert "8 executed" in cold.err and "8 miss(es)" in cold.err
        assert len(list(tmp_path.iterdir())) == 8
        assert main(args) == 0
        warm = capsys.readouterr()
        assert warm.out == cold.out  # records identical from cache replay
        assert "0 executed" in warm.err and "8 cache hit(s)" in warm.err
        assert "0 miss(es)" in warm.err

    def test_exp_no_cache_never_writes(self, capsys, tmp_path):
        args = ["exp", "e5", "--no-cache", "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        capsys.readouterr()
        assert list(tmp_path.iterdir()) == []


class TestProgress:
    def test_sort_progress_renders_to_stderr(self, capsys):
        assert (
            main(["sort", "--n", "300", "--m", "64", "--b", "8",
                  "--omega", "2", "--progress"])
            == 0
        )
        captured = capsys.readouterr()
        assert "Qr=" in captured.err and "[sort]" in captured.err
        assert "Qr=" in captured.out  # normal readout still printed

    def test_progress_on_pipe_is_single_line(self, capsys, monkeypatch):
        """A captured (non-TTY) stderr gets the close() summary only."""
        monkeypatch.delenv("REPRO_PROGRESS", raising=False)
        assert (
            main(["sort", "--n", "300", "--m", "64", "--b", "8",
                  "--omega", "2", "--progress"])
            == 0
        )
        err = capsys.readouterr().err
        assert "\r" not in err
        assert err.count("[sort]") == 1


class TestTelemetryDir:
    def test_sort_writes_manifest_and_trace(self, capsys, tmp_path):
        from repro.telemetry import validate_trace
        from repro.telemetry.manifest import read_manifest

        assert (
            main(["sort", "--n", "300", "--m", "64", "--b", "8", "--omega", "2",
                  "--telemetry-dir", str(tmp_path)])
            == 0
        )
        out = capsys.readouterr().out
        records = read_manifest(tmp_path)
        assert len(records) == 1
        rec = records[0]
        assert rec["command"] == "sort" and rec["config"]["n"] == 300
        assert rec["cost"]["Q"] == rec["cost"]["Qr"] + 2 * rec["cost"]["Qw"]
        assert rec["wall_s"] > 0 and "version" in rec
        # The metrics aggregate agrees with the printed cost readout.
        assert f"Qr={rec['metrics']['reads']}" in out
        assert rec["metrics"]["wear"]["blocks_written"] > 0
        trace = json.loads((tmp_path / "trace.json").read_text())
        validate_trace(trace)
        assert any(e["ph"] == "B" for e in trace["traceEvents"])

    def test_exp_writes_manifest_and_engine_trace(self, capsys, tmp_path):
        """Acceptance: `repro-aem exp e1 --telemetry-dir OUT` leaves a
        JSONL manifest record and a schema-valid trace.json behind."""
        from repro.telemetry import validate_trace
        from repro.telemetry.manifest import read_manifest

        tel = tmp_path / "out"
        assert (
            main(["exp", "e1", "--no-cache", "--telemetry-dir", str(tel)]) == 0
        )
        capsys.readouterr()
        records = read_manifest(tel)
        assert len(records) == 1
        rec = records[0]
        assert rec["command"] == "exp" and rec["config"]["id"] == "e1"
        assert rec["engine"]["executed"] > 0
        assert rec["results"][0]["eid"] == "E1" and rec["results"][0]["passed"]
        trace = json.loads((tel / "trace.json").read_text())
        validate_trace(trace)
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert len(spans) == rec["engine"]["measurements"]

    def test_manifest_appends_across_runs(self, capsys, tmp_path):
        from repro.telemetry.manifest import read_manifest

        base = ["--n", "128", "--m", "64", "--b", "8", "--omega", "2",
                "--telemetry-dir", str(tmp_path)]
        assert main(["permute"] + base) == 0
        assert main(["spmxv", "--delta", "2"] + base) == 0
        capsys.readouterr()
        commands = [r["command"] for r in read_manifest(tmp_path)]
        assert commands == ["permute", "spmxv"]


class TestCheckCommand:
    def test_parser_wired(self):
        args = build_parser().parse_args(["check", "--lint"])
        assert args.lint and not args.traces and not args.all

    def test_lint_half_passes_on_clean_tree(self, capsys):
        assert main(["check", "--lint"]) == 0
        out = capsys.readouterr().out
        assert "check passed" in out

    def test_violations_mean_nonzero_exit(self, capsys, monkeypatch):
        import repro.sanitize
        from repro.sanitize import LintViolation

        monkeypatch.setattr(
            repro.sanitize,
            "run_lint_checks",
            lambda log=None: [LintViolation("AEM101", "x.py", 3, "planted")],
        )
        assert main(["check", "--lint"]) == 1
        err = capsys.readouterr().err
        assert "planted" in err and "FAILED" in err

    def test_crash_inside_command_means_nonzero_exit(self, capsys, monkeypatch):
        import repro.sanitize

        def boom(log=None):
            raise RuntimeError("battery exploded")

        monkeypatch.setattr(repro.sanitize, "run_trace_checks", boom)
        assert main(["check", "--traces"]) == 1
        err = capsys.readouterr().err
        assert "repro-aem: error: RuntimeError: battery exploded" in err

    def test_repro_debug_reraises(self, monkeypatch):
        import repro.sanitize

        def boom(log=None):
            raise RuntimeError("battery exploded")

        monkeypatch.setattr(repro.sanitize, "run_trace_checks", boom)
        monkeypatch.setenv("REPRO_DEBUG", "1")
        with pytest.raises(RuntimeError, match="battery exploded"):
            main(["check", "--traces"])


class TestCheckAnalysis:
    """The dataflow half of ``check``: --analysis, --format, baselines."""

    def _plant(self, monkeypatch, findings, suppressed=()):
        import repro.sanitize

        monkeypatch.setattr(
            repro.sanitize,
            "run_analysis_checks",
            lambda baseline=None, log=None: (list(findings), list(suppressed)),
        )

    def _finding(self):
        from repro.sanitize import Finding

        return Finding("AEM201", "repro/x.py", 3, "f", "planted imbalance")

    def test_parser_wired(self):
        args = build_parser().parse_args(
            ["check", "--analysis", "--format", "sarif", "--baseline", "b.json"]
        )
        assert args.analysis and not args.lint and not args.traces
        assert args.format == "sarif" and args.baseline == "b.json"

    def test_format_rejects_unknown(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["check", "--format", "xml"])

    def test_analysis_clean_tree_passes(self, capsys):
        assert main(["check", "--analysis"]) == 0
        assert "check passed" in capsys.readouterr().out

    def test_analysis_findings_mean_nonzero_exit(self, capsys, monkeypatch):
        self._plant(monkeypatch, [self._finding()])
        assert main(["check", "--analysis"]) == 1
        err = capsys.readouterr().err
        assert "planted imbalance" in err and "FAILED" in err

    def test_json_format_owns_stdout(self, capsys, monkeypatch):
        self._plant(monkeypatch, [self._finding()], suppressed=[self._finding()])
        assert main(["check", "--analysis", "--format", "json"]) == 1
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert doc["summary"] == {
            "total": 1,
            "suppressed_by_baseline": 1,
            "by_rule": {"AEM201": 1},
        }
        assert doc["findings"][0]["message"] == "planted imbalance"
        # progress and failures stay off the machine-readable stream
        assert "FAILED" in captured.err

    def test_clean_json_run_keeps_stdout_machine_readable(self, capsys, monkeypatch):
        self._plant(monkeypatch, [])
        assert main(["check", "--analysis", "--format", "json"]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["findings"] == []
        assert "check passed" in captured.err

    def test_sarif_format_lifts_lint_violations(self, capsys, monkeypatch):
        import repro.sanitize
        from repro.sanitize import LintViolation

        monkeypatch.setattr(
            repro.sanitize,
            "run_lint_checks",
            lambda log=None: [LintViolation("AEM104", "repro/y.py", 7, "planted")],
        )
        assert main(["check", "--lint", "--format", "sarif"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        (result,) = doc["runs"][0]["results"]
        assert result["ruleId"] == "AEM104"
        assert result["locations"][0]["physicalLocation"]["region"]["startLine"] == 7

    def test_update_baseline_writes_file(self, tmp_path, capsys, monkeypatch):
        import repro.sanitize

        planted = self._finding()
        monkeypatch.setattr(
            repro.sanitize, "analyze_project", lambda root: [planted]
        )
        path = tmp_path / "baseline.json"
        assert main(
            ["check", "--analysis", "--update-baseline", "--baseline", str(path)]
        ) == 0
        doc = json.loads(path.read_text())
        assert [s["fingerprint"] for s in doc["suppressions"]] == [
            planted.fingerprint
        ]
        assert "baseline written" in capsys.readouterr().out

    def test_baseline_flag_reaches_runner(self, tmp_path, capsys):
        from repro.sanitize import write_baseline

        planted = self._finding()
        path = tmp_path / "baseline.json"
        write_baseline(path, [planted])
        # baseline only suppresses matching fingerprints; the real tree is
        # clean so the run still passes and reports the suppression count.
        assert main(["check", "--analysis", "--baseline", str(path)]) == 0
