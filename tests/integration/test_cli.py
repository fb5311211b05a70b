"""Tests for the ``python -m repro`` command-line interface."""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.__main__ import main


class TestDescribe:
    def test_describe_prints_data_sheet(self, capsys):
        assert main(["describe", "2", "1"]) == 0
        out = capsys.readouterr().out
        assert "O(2, 1)" in out
        assert "agreement profile" in out
        assert "paper's ascending-chain" in out

    def test_describe_rejects_bad_level(self):
        with pytest.raises(ValueError):
            main(["describe", "2", "0"])


class TestCurves:
    def test_curves_output_shape(self, capsys):
        assert main(["curves", "2", "--kmax", "2", "--nmax", "10"]) == 0
        out = capsys.readouterr().out
        assert "2-consensus" in out
        assert "O(2,1)" in out
        assert "O(2,2)" in out

    def test_curves_values(self, capsys):
        main(["curves", "3", "--kmax", "1", "--nmax", "6"])
        out = capsys.readouterr().out
        assert "3-consensus" in out


class TestCheck:
    def test_check_small_member_exhaustive(self, capsys):
        assert main(["check", "1", "1"]) == 0
        out = capsys.readouterr().out
        assert "all" in out and "OK" in out

    def test_check_medium_member_sampled(self, capsys):
        assert main(["check", "2", "2"]) == 0
        out = capsys.readouterr().out
        assert "300 random schedules" in out


class TestCommon2:
    def test_certificates_printed(self, capsys):
        assert main(["common2", "--levels", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count("Common2") == 2

    def test_default_levels(self, capsys):
        assert main(["common2"]) == 0
        assert capsys.readouterr().out.count("Common2") == 3


class TestObservability:
    def test_trace_out_then_stats(self, tmp_path, capsys):
        """The acceptance loop: check --trace-out produces a file that the
        stats command summarizes without error."""
        trace = tmp_path / "run.jsonl"
        assert main(["check", "1", "1", "--trace-out", str(trace)]) == 0
        capsys.readouterr()
        lines = [json.loads(line) for line in trace.read_text().splitlines()]
        assert lines, "trace file must not be empty"
        names = {record["event"] for record in lines}
        assert "step" in names
        assert "schedule_explored" in names
        assert "span_end" in names
        assert main(["stats", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "steps_total" in out
        assert "by process" in out
        assert "by object" in out
        assert "schedules_explored" in out
        assert "phase timings" in out

    def test_trace_out_bus_restored_after_run(self, tmp_path):
        from repro.obs import events

        assert main(["check", "1", "1", "--trace-out", str(tmp_path / "t.jsonl")]) == 0
        assert not events.is_enabled()

    def test_progress_flag_writes_to_stderr(self, capsys):
        assert main(["check", "1", "1", "--progress"]) == 0
        err = capsys.readouterr().err
        assert "progress:" in err
        assert "steps" in err

    def test_stats_missing_file_fails_cleanly(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path / "absent.jsonl")]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_stats_empty_file_fails_cleanly(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["stats", str(empty)]) == 1
        assert "no events" in capsys.readouterr().err

    def test_stats_skips_corrupt_lines_and_reports_count(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        assert main(["check", "1", "1", "--trace-out", str(trace)]) == 0
        capsys.readouterr()
        with open(trace, "a", encoding="utf-8") as handle:
            handle.write('{"event": "step", "pid": 0, "obj\n')  # truncated
            handle.write("not json at all\n")
            handle.write('["a", "list", "record"]\n')
        assert main(["stats", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "3 corrupt lines skipped" in out
        assert "steps_total" in out

    def test_stats_aggregates_multiple_traces(self, tmp_path, capsys):
        first = tmp_path / "one.jsonl"
        second = tmp_path / "two.jsonl"
        assert main(["check", "1", "1", "--trace-out", str(first)]) == 0
        assert main(["check", "1", "1", "--trace-out", str(second)]) == 0
        capsys.readouterr()

        def steps_total(stdout):
            for line in stdout.splitlines():
                if line.strip().startswith("steps_total:"):
                    return int(line.split(":")[1].strip().split()[0])
            raise AssertionError("no steps_total line in digest")

        assert main(["stats", str(first)]) == 0
        single = steps_total(capsys.readouterr().out)
        assert main(["stats", str(first), str(second)]) == 0
        out = capsys.readouterr().out
        assert steps_total(out) == 2 * single
        assert "one.jsonl" in out and "two.jsonl" in out

    def test_stats_export_flags_write_valid_files(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        folded = tmp_path / "out.folded"
        html = tmp_path / "report.html"
        prom = tmp_path / "metrics.prom"
        assert main(["check", "1", "1", "--trace-out", str(trace)]) == 0
        assert (
            main(
                ["stats", str(trace), "--flame", str(folded),
                 "--html", str(html), "--metrics-out", str(prom)]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "span profile:" in out
        for stack in folded.read_text().splitlines():
            frames, count = stack.rsplit(" ", 1)
            assert frames and int(count) > 0
        report = html.read_text()
        assert report.startswith("<!DOCTYPE html>")
        assert "Span waterfall" in report
        prom_text = prom.read_text()
        assert "# TYPE steps_total counter" in prom_text
        assert 'schedule_depth_bucket{le="+Inf"}' in prom_text

    def test_live_metrics_equal_replayed_metrics(self, tmp_path, capsys):
        """--metrics-out on a run command and stats --metrics-out on its
        trace must render byte-identical Prometheus files: the trace is a
        complete account of the run."""
        trace = tmp_path / "run.jsonl"
        live = tmp_path / "live.prom"
        replayed = tmp_path / "replayed.prom"
        assert (
            main(["check", "1", "1", "--trace-out", str(trace),
                  "--metrics-out", str(live)])
            == 0
        )
        assert main(["stats", str(trace), "--metrics-out", str(replayed)]) == 0
        capsys.readouterr()
        assert live.read_text() == replayed.read_text() != ""

    def test_stats_write_failure_exits_two(self, tmp_path, capsys):
        # Missing parent directories are created, so the unwritable path
        # here has a *file* where a directory would have to be.
        trace = tmp_path / "run.jsonl"
        assert main(["check", "1", "1", "--trace-out", str(trace)]) == 0
        (tmp_path / "not-a-dir").write_text("")
        bad = tmp_path / "not-a-dir" / "out.folded"
        assert main(["stats", str(trace), "--flame", str(bad)]) == 2
        assert "cannot write" in capsys.readouterr().err


class TestBenchCompare:
    @staticmethod
    def bench_file(path, seconds):
        payload = {
            "schema": "repro-bench/1",
            "benches": {"bench_walk": {"seconds": seconds}},
        }
        path.write_text(json.dumps(payload))
        return str(path)

    def test_no_regression_exits_zero(self, tmp_path, capsys):
        path = self.bench_file(tmp_path / "b.json", 1.0)
        assert main(["bench-compare", path, path]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_regression_exits_one(self, tmp_path, capsys):
        old = self.bench_file(tmp_path / "old.json", 1.0)
        new = self.bench_file(tmp_path / "new.json", 1.5)
        assert main(["bench-compare", old, new]) == 1
        assert "wall time" in capsys.readouterr().err

    def test_threshold_flag(self, tmp_path):
        old = self.bench_file(tmp_path / "old.json", 1.0)
        new = self.bench_file(tmp_path / "new.json", 1.5)
        assert main(["bench-compare", old, new, "--threshold", "0.6"]) == 0


class TestWitnessAndExplain:
    @staticmethod
    def archive_bundle(directory):
        """A real Common2-point witness bundle for the CLI to chew on."""
        from repro.algorithms.consensus_from_n_consensus import (
            partition_set_consensus_spec,
        )
        from repro.obs.witness import capture_witnesses, witness_context
        from repro.runtime.explorer import find_execution

        inputs = ["a", "b", "c", "d", "e", "f"]
        with capture_witnesses(str(directory)) as store:
            with witness_context(
                spec={"builder": "n-consensus-partition", "n": 2,
                      "inputs": inputs},
                predicate={"name": "distinct-outputs-at-least", "count": 3},
                label="cli test witness",
            ):
                find_execution(
                    partition_set_consensus_spec(2, inputs),
                    lambda e: len(e.distinct_outputs()) >= 3,
                    max_depth=10,
                )
        return store.captured[0]

    def test_witness_dir_flag_activates_and_deactivates(self, tmp_path, capsys):
        from repro.obs.witness import get_active_store

        assert main(["check", "1", "1", "--witness-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert get_active_store() is None  # torn down in the finally

    def test_explain_bundle_end_to_end(self, tmp_path, capsys):
        bundle = self.archive_bundle(tmp_path)
        assert main(["explain", bundle]) == 0
        out = capsys.readouterr().out
        assert "fingerprint verified" in out
        assert "1-minimal" in out
        assert "Decision set:" in out

    def test_explain_output_byte_stable(self, tmp_path, capsys):
        bundle = self.archive_bundle(tmp_path)
        assert main(["explain", bundle]) == 0
        first = capsys.readouterr().out
        assert main(["explain", bundle]) == 0
        assert capsys.readouterr().out == first

    def test_explain_html_flag(self, tmp_path, capsys):
        bundle = self.archive_bundle(tmp_path)
        html = tmp_path / "lanes.html"
        assert main(["explain", bundle, "--html", str(html)]) == 0
        capsys.readouterr()
        assert html.read_text().startswith("<!DOCTYPE html>")

    def test_explain_no_shrink(self, tmp_path, capsys):
        bundle = self.archive_bundle(tmp_path)
        assert main(["explain", bundle, "--no-shrink"]) == 0
        assert "shrunk:" not in capsys.readouterr().out

    def test_explain_resolves_run_id_from_ledger(self, tmp_path, capsys):
        from repro.obs import ledger as run_ledger

        bundle = self.archive_bundle(tmp_path / "wit")
        ledger = str(tmp_path / "runs.jsonl")
        recorder = run_ledger.begin_run(path=ledger, command="test")
        run_ledger.annotate(witnesses=[bundle])
        run_ledger.finish_run(0)
        assert main(
            ["explain", recorder.run_id, "--ledger", ledger]
        ) == 0
        out = capsys.readouterr().out
        assert f"bundle: {bundle}" in out

    def test_explain_unknown_target_exits_two(self, tmp_path, capsys):
        assert main(
            ["explain", "nope", "--ledger", str(tmp_path / "absent.jsonl")]
        ) == 2
        assert "explain:" in capsys.readouterr().out

    def test_witness_path_lands_in_ledger_and_runs_show(self, tmp_path, capsys):
        """A run that captures a witness records its path; runs show
        surfaces it (the acceptance-criteria loop, minus the slow suite)."""
        from repro.algorithms.consensus_from_n_consensus import (
            partition_set_consensus_spec,
        )
        from repro.obs import ledger as run_ledger
        from repro.obs.witness import capture_witnesses
        from repro.runtime.explorer import find_execution

        inputs = ["a", "b", "c", "d", "e", "f"]
        ledger = str(tmp_path / "runs.jsonl")
        recorder = run_ledger.begin_run(path=ledger, command="hunt")
        with capture_witnesses(str(tmp_path / "wit")) as store:
            find_execution(
                partition_set_consensus_spec(2, inputs),
                lambda e: len(e.distinct_outputs()) >= 3,
                max_depth=10,
            )
        run_ledger.finish_run(0)
        assert main(["runs", "show", recorder.run_id, "--ledger", ledger]) == 0
        out = capsys.readouterr().out
        assert store.captured[0] in out
        assert main(["runs", "list", "--ledger", ledger]) == 0
        assert "1 witness" in capsys.readouterr().out

    def test_stats_html_report_embeds_witness_lanes(self, tmp_path, capsys):
        """witness_captured events in a trace surface in the HTML report,
        with the lane table embedded from the bundle on disk."""
        import json as _json

        bundle = self.archive_bundle(tmp_path)
        trace = tmp_path / "run.jsonl"
        assert main(["check", "1", "1", "--trace-out", str(trace)]) == 0
        with open(trace, "a", encoding="utf-8") as handle:
            handle.write(_json.dumps({
                "event": "witness_captured", "path": bundle,
                "kind": "existence", "source": "explorer.find", "steps": 6,
            }) + "\n")
        html = tmp_path / "report.html"
        assert main(["stats", str(trace), "--html", str(html)]) == 0
        capsys.readouterr()
        report = html.read_text()
        assert "<h2>Witnesses</h2>" in report
        assert 'class="lanes"' in report
        assert "table.lanes" in report  # LANES_CSS included


class TestExecsetAndDiff:
    """The ``explore`` digest stream and the ``repro diff`` gate."""

    def explore(self, tmp_path, out, *extra):
        return main(
            ["explore", "--task", "consensus", "--n", "2", "--k", "1",
             "--execset-out", str(out), "--no-ledger", *extra]
        )

    def test_explore_writes_digest_stream_by_default(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_EXECSET_DIR", str(tmp_path / "sets"))
        assert main(
            ["explore", "--task", "consensus", "--n", "2", "--k", "1",
             "--no-ledger"]
        ) == 0
        out = capsys.readouterr().out
        assert "execution-set digest" in out
        files = list((tmp_path / "sets").glob("*.jsonl"))
        assert len(files) == 1

    def test_no_execset_disables(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_EXECSET_DIR", str(tmp_path / "sets"))
        assert main(
            ["explore", "--task", "consensus", "--n", "2", "--k", "1",
             "--no-ledger", "--no-execset"]
        ) == 0
        assert "execution-set digest" not in capsys.readouterr().out
        assert not (tmp_path / "sets").exists()

    def test_diff_identical_runs_exit_0_byte_stable(self, tmp_path, capsys):
        assert self.explore(tmp_path, tmp_path / "a.jsonl") == 0
        assert self.explore(tmp_path, tmp_path / "b.jsonl") == 0
        assert (tmp_path / "a.jsonl").read_bytes() == \
            (tmp_path / "b.jsonl").read_bytes()
        capsys.readouterr()
        assert main(
            ["diff", str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")]
        ) == 0
        first = capsys.readouterr().out
        assert "SAME SET" in first
        assert main(
            ["diff", str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")]
        ) == 0
        assert capsys.readouterr().out == first

    def test_diff_truncated_run_exit_1_with_explanation(
        self, tmp_path, capsys
    ):
        assert self.explore(tmp_path, tmp_path / "full.jsonl") == 0
        assert self.explore(
            tmp_path, tmp_path / "short.jsonl", "--max-depth", "1"
        ) == 0
        capsys.readouterr()
        code = main(
            ["diff", str(tmp_path / "full.jsonl"),
             str(tmp_path / "short.jsonl")]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "only in A" in out
        assert "first divergence" in out

    def test_diff_json_and_html(self, tmp_path, capsys):
        assert self.explore(tmp_path, tmp_path / "a.jsonl") == 0
        assert self.explore(tmp_path, tmp_path / "b.jsonl") == 0
        capsys.readouterr()
        html_path = tmp_path / "diff.html"
        assert main(
            ["diff", str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl"),
             "--json", "--html", str(html_path)]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["exit_code"] == 0
        assert report["digest"]["equal"] is True
        assert html_path.read_text().startswith("<!DOCTYPE html>")

    def test_diff_unknown_target_exits_3(self, tmp_path, capsys):
        assert main(
            ["diff", "no-such-thing", "also-missing",
             "--ledger", str(tmp_path / "absent.jsonl")]
        ) == 3
        assert "diff:" in capsys.readouterr().err

    def test_selfcheck_set_equal_exit_0(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_EXECSET_DIR", str(tmp_path / "sets"))
        assert main(
            ["explore", "--task", "consensus", "--n", "2", "--k", "1",
             "--no-ledger", "--selfcheck"]
        ) == 0
        assert "selfcheck: SET-EQUAL" in capsys.readouterr().out

    def test_selfcheck_rejects_resume(self, tmp_path, capsys):
        assert main(
            ["explore", "--selfcheck", "--resume",
             str(tmp_path / "ck.jsonl"), "--no-ledger"]
        ) == 2
        assert "--selfcheck" in capsys.readouterr().err

    def test_resumed_run_merges_digest(self, tmp_path, capsys):
        """Interrupt, resume, and the merged digest equals the digest
        of one uninterrupted run — set equality across sessions."""
        ledger_path = tmp_path / "runs.jsonl"
        checkpoint = tmp_path / "ck.jsonl"
        common = ["explore", "--task", "set-consensus", "--n", "1",
                  "--k", "1", "--ledger", str(ledger_path)]
        assert main(
            common + ["--execset-out", str(tmp_path / "full.jsonl")]
        ) == 0
        assert main(
            common + ["--execset-out", str(tmp_path / "part1.jsonl"),
                      "--checkpoint", str(checkpoint),
                      "--checkpoint-every", "1", "--max-steps", "2"]
        ) == 3
        assert main(
            common + ["--execset-out", str(tmp_path / "part2.jsonl"),
                      "--resume", str(checkpoint)]
        ) == 0
        capsys.readouterr()
        records = [
            json.loads(line)
            for line in ledger_path.read_text().splitlines()
        ]
        full, _, resumed = records
        assert resumed["execset"]["digest"] == full["execset"]["digest"]
        # And the ledger-resolved chain diffs clean against the file.
        assert main(
            ["diff", resumed["run_id"], str(tmp_path / "full.jsonl"),
             "--ledger", str(ledger_path)]
        ) == 0
        assert "SAME SET" in capsys.readouterr().out


class TestParser:
    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestStartup:
    def test_cli_import_loads_no_networkx_or_http_server(self):
        """Every serve worker and explore run starts a fresh interpreter:
        importing the CLI must not pay for the graph library or the HTTP
        server, which only the hierarchy graphs and --serve use."""
        probe = (
            "import sys, repro.__main__; "
            "print(sorted({'networkx', 'http.server'} & set(sys.modules)))"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
        result = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert result.returncode == 0, result.stderr[-2000:]
        assert result.stdout.strip() == "[]"
