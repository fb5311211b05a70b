"""Tests for the state-space audit (``repro.obs.audit``).

The audit must be (1) correct as a measurement — revisit accounting is
an identity, crash branches never alias crash-free configurations,
pair tallies are consistent; (2) deterministic — byte-identical renders
across runs; (3) inert — attaching an auditor never changes what the
explorer enumerates; and (4) surfaced everywhere the issue promises:
metrics gauges, ``/status``, HTML reports, the run ledger, and the CLI.
"""

import pytest

from repro.__main__ import main
from repro.algorithms.set_consensus_from_family import set_consensus_spec
from repro.analysis.commutativity import (
    PAIR_COMMUTE,
    PAIR_SAME_PROCESS,
    PAIR_STATE_DIVERGES,
    PAIR_SWAP_ILLEGAL,
    classify_adjacent_pair,
)
from repro.obs import ledger
from repro.obs.audit import StateAuditor, render_table, run_audit
from repro.obs.live import StatusBoard
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import render_audit_html, render_html
from repro.runtime.execution import RECOVER_CHOICE
from repro.runtime.explorer import Explorer

INPUTS3 = ["v0", "v1", "v2"]
INPUTS4 = ["v0", "v1", "v2", "v3"]


def small_spec(inputs=INPUTS3):
    return set_consensus_spec(2, 1, inputs)


class TestRevisitAccounting:
    def test_revisits_are_configurations_minus_distinct(self):
        auditor, _explorer = run_audit(
            small_spec(INPUTS4), max_depth=20, value_alphabet=INPUTS4
        )
        assert auditor.revisits == auditor.configurations - auditor.distinct_states
        assert auditor.revisits > 0  # N=4 genuinely revisits states
        assert 0.0 < auditor.revisit_ratio < 1.0

    def test_depth_rows_sum_to_totals(self):
        auditor, _explorer = run_audit(small_spec(INPUTS4), max_depth=20)
        rows = auditor.depth_rows()
        assert sum(visits for _d, visits, _r, _ratio in rows) == (
            auditor.configurations
        )
        assert sum(revisits for _d, _v, revisits, _ratio in rows) == (
            auditor.revisits
        )
        assert [row[0] for row in rows] == sorted(row[0] for row in rows)

    def test_orbit_quotient_never_exceeds_states(self):
        auditor, _explorer = run_audit(
            small_spec(INPUTS4), max_depth=20, value_alphabet=INPUTS4
        )
        assert 0 < auditor.distinct_orbits <= auditor.distinct_states
        assert 0.0 <= auditor.orbit_savings < 1.0


class TestDeterminism:
    def test_two_audits_render_byte_identical(self):
        first, _ = run_audit(
            small_spec(INPUTS4), max_depth=20, value_alphabet=INPUTS4
        )
        second, _ = run_audit(
            small_spec(INPUTS4), max_depth=20, value_alphabet=INPUTS4
        )
        assert first.summary() == second.summary()
        assert render_table(first, "x") == render_table(second, "x")
        assert render_audit_html(first) == render_audit_html(second)


class _CrashRecorder(StateAuditor):
    """Auditor that also records whether each fingerprint came from a
    configuration with a crashed process."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.by_crash = {}

    def observe_configuration(self, system, depth):
        super().observe_configuration(system, depth)
        from repro.obs.fingerprint import configuration_fingerprint

        crashed = any(
            process.status.value == "crashed" for process in system.processes
        )
        self.by_crash.setdefault(
            configuration_fingerprint(system), set()
        ).add(crashed)


class TestCrashFingerprints:
    def test_crashed_and_live_configurations_never_collide(self):
        auditor = _CrashRecorder(max_pairs=0)
        explorer = Explorer(
            small_spec(INPUTS3), max_depth=20, max_crashes=1, auditor=auditor
        )
        for _execution in explorer.executions():
            pass
        assert any(True in kinds for kinds in auditor.by_crash.values())
        assert any(False in kinds for kinds in auditor.by_crash.values())
        colliding = [
            fp for fp, kinds in auditor.by_crash.items() if len(kinds) > 1
        ]
        assert not colliding, (
            "crash decisions must be part of the fingerprint; colliding: "
            f"{colliding}"
        )


class TestExplorationUnchanged:
    def test_same_executions_with_and_without_auditor(self):
        plain = [
            execution.full_decisions
            for execution in Explorer(
                small_spec(INPUTS3), max_depth=20, max_crashes=1
            ).executions()
        ]
        audited_auditor = StateAuditor()
        audited = [
            execution.full_decisions
            for execution in Explorer(
                small_spec(INPUTS3),
                max_depth=20,
                max_crashes=1,
                auditor=audited_auditor,
            ).executions()
        ]
        assert plain == audited
        assert audited_auditor.executions == len(plain)


class TestPairClassification:
    def test_same_process_pairs_are_filtered(self):
        spec = small_spec(INPUTS3)
        execution = next(iter(Explorer(spec, max_depth=20).executions()))
        decisions = execution.full_decisions
        doubled = [decisions[0], decisions[0]] + decisions[1:]
        assert (
            classify_adjacent_pair(spec, doubled, 0) == PAIR_SAME_PROCESS
        )

    def test_cross_process_pairs_get_a_known_class(self):
        spec = small_spec(INPUTS3)
        execution = next(iter(Explorer(spec, max_depth=20).executions()))
        decisions = execution.full_decisions
        index = next(
            i
            for i in range(len(decisions) - 1)
            if decisions[i][0] != decisions[i + 1][0]
        )
        assert classify_adjacent_pair(spec, decisions, index) in {
            PAIR_COMMUTE,
            PAIR_STATE_DIVERGES,
            PAIR_SWAP_ILLEGAL,
        }

    def test_recovery_pairs_can_commute(self):
        """A recovery decision replays as a recovery, never as a step of
        the crashed pid: reviving a dead process next to another
        process's step commutes, so not every recovery-touching pair is
        swap-illegal."""
        spec = small_spec(INPUTS3)
        verdicts = {}
        explorer = Explorer(spec, max_depth=20, max_crashes=1, max_recoveries=1)
        for execution in explorer.executions():
            decisions = execution.full_decisions
            for index in range(len(decisions) - 1):
                (p, a), (q, b) = decisions[index], decisions[index + 1]
                if p != q and RECOVER_CHOICE in (a, b):
                    verdict = classify_adjacent_pair(spec, decisions, index)
                    verdicts[verdict] = verdicts.get(verdict, 0) + 1
        assert verdicts.get(PAIR_COMMUTE, 0) > 0
        assert verdicts.get(PAIR_SWAP_ILLEGAL, 0) < sum(verdicts.values())

    def test_pair_tallies_are_consistent(self):
        auditor, _ = run_audit(small_spec(INPUTS4), max_depth=20)
        assert sum(auditor.pairs.by_class.values()) == auditor.pairs.checked
        assert auditor.pairs.commuting <= auditor.pairs.checked
        assert auditor.pairs.commuting == auditor.pairs.by_class.get(
            PAIR_COMMUTE, 0
        )

    def test_max_pairs_cap_sets_truncated(self):
        auditor, _ = run_audit(small_spec(INPUTS4), max_depth=20, max_pairs=2)
        assert auditor.pairs.checked == 2
        assert auditor.pairs.truncated
        assert auditor.summary()["pairs_truncated"] is True
        assert "(sampling capped)" in render_table(auditor)

    def test_stride_samples_fewer_pairs_deterministically(self):
        dense, _ = run_audit(small_spec(INPUTS4), max_depth=20)
        sparse_a, _ = run_audit(
            small_spec(INPUTS4), max_depth=20, pair_stride=3
        )
        sparse_b, _ = run_audit(
            small_spec(INPUTS4), max_depth=20, pair_stride=3
        )
        assert 0 < sparse_a.pairs.checked < dense.pairs.checked
        assert sparse_a.summary() == sparse_b.summary()


class TestSurfaces:
    def summary_fields(self):
        auditor, _ = run_audit(
            small_spec(INPUTS4), max_depth=20, value_alphabet=INPUTS4
        )
        payload = auditor.summary()
        payload["depths"] = {"0": [1, 0]}
        payload["pair_classes"] = dict(auditor.pairs.by_class)
        return auditor, payload

    def test_metrics_gauges_from_audit_summary(self):
        auditor, payload = self.summary_fields()
        registry = MetricsRegistry()
        registry.consume_event("audit_summary", payload)
        gauges = registry.snapshot()["gauges"]
        assert gauges["audit_configurations"] == auditor.configurations
        assert gauges["audit_revisit_ratio"] == pytest.approx(
            payload["revisit_ratio"]
        )
        assert gauges["audit_commuting_fraction"] == pytest.approx(
            payload["commuting_fraction"]
        )
        assert gauges["audit_orbit_savings"] == pytest.approx(
            payload["orbit_savings"]
        )
        exposition = registry.render_prometheus()
        assert "audit_revisit_ratio" in exposition

    def test_status_board_carries_audit(self):
        _auditor, payload = self.summary_fields()
        board = StatusBoard(command="audit")
        board("audit_summary", payload)
        snapshot = board.snapshot()
        assert snapshot["audit"]["revisit_ratio"] == payload["revisit_ratio"]

    def test_html_report_gains_audit_section(self):
        from repro.obs.profile import Profiler

        _auditor, payload = self.summary_fields()
        registry = MetricsRegistry()
        registry.consume_event("audit_summary", payload)
        html = render_html(registry, Profiler())
        assert "state-space audit" in html.lower()
        bare = render_html(MetricsRegistry(), Profiler())
        assert "state-space audit" not in bare.lower()

    def test_standalone_audit_html(self):
        auditor, _payload = self.summary_fields()
        html = render_audit_html(auditor, title="audit page")
        assert html.startswith("<!DOCTYPE html>") or "<html" in html
        assert "revisit" in html.lower()
        assert str(auditor.distinct_states) in html


class TestLedgerIntegration:
    def record(self, run_id, audit=None):
        record = {
            "run_id": run_id,
            "command": "audit",
            "verdict": "proved",
            "exit_code": 0,
            "argv": ["audit"],
        }
        if audit is not None:
            record["audit"] = audit
        return record

    def test_compare_includes_audit_when_present(self):
        audit_a = {
            "configurations": 100,
            "distinct_states": 60,
            "revisit_ratio": 0.4,
            "commuting_fraction": 0.5,
            "orbit_savings": 0.1,
        }
        audit_b = dict(audit_a, revisit_ratio=0.45)
        lines, agree = ledger.compare_runs(
            self.record("a", audit_a), self.record("b", audit_b)
        )
        assert agree
        text = "\n".join(lines)
        assert "audit:" in text
        assert "0.4000" in text and "0.4500" in text

    def test_compare_tolerates_missing_audit(self):
        lines, _agree = ledger.compare_runs(
            self.record("a"), self.record("b")
        )
        assert "audit:" not in "\n".join(lines)
        audit = {"configurations": 10, "revisit_ratio": 0.1}
        lines, _agree = ledger.compare_runs(
            self.record("a", audit), self.record("b")
        )
        text = "\n".join(lines)
        assert "audit:" in text and "—" in text


class TestCli:
    ARGS = [
        "audit", "--task", "set-consensus", "--n", "2", "--k", "1",
        "--no-ledger",
    ]

    def test_byte_stable_stdout(self, capsys):
        assert main(list(self.ARGS)) == 0
        first = capsys.readouterr().out
        assert main(list(self.ARGS)) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "revisit ratio" in first
        assert "commuting fraction" in first
        assert "orbit savings" in first

    def test_html_written_and_message_on_stderr(self, tmp_path, capsys):
        out = tmp_path / "audit.html"
        assert main(list(self.ARGS) + ["--html", str(out)]) == 0
        captured = capsys.readouterr()
        assert str(out) not in captured.out  # stdout stays byte-stable
        assert str(out) in captured.err
        assert "revisit" in out.read_text(encoding="utf-8").lower()

    def test_ledger_records_audit_summary(self, tmp_path, capsys):
        path = tmp_path / "runs.jsonl"
        assert main(
            ["audit", "--task", "set-consensus", "--n", "2", "--k", "1",
             "--ledger", str(path)]
        ) == 0
        records, _skipped = ledger.read_ledger(str(path))
        assert len(records) == 1
        audit = records[0]["audit"]
        assert set(audit) == {
            "configurations",
            "distinct_states",
            "revisit_ratio",
            "commuting_fraction",
            "orbit_savings",
        }
        assert audit["configurations"] > 0


class TestSuiteRows:
    def test_headroom_rows_are_informational_and_deterministic(self):
        from repro.experiments.suite import _audit_headroom_row

        row = _audit_headroom_row(
            "E5",
            "state-space audit: O(2,1) set consensus, N=4",
            small_spec(INPUTS4),
            INPUTS4,
        )
        again = _audit_headroom_row(
            "E5",
            "state-space audit: O(2,1) set consensus, N=4",
            small_spec(INPUTS4),
            INPUTS4,
        )
        assert row.ok is True
        assert row.markdown() == again.markdown()
        assert "revisit" in row.measured
