"""``repro diff``: compare two explorations as *sets of executions*.

Two runs that report the same verdict and the same execution count can
still have visited different executions — exactly the failure mode that
frontier sharding and DPOR/symmetry reductions must be audited against
(ROADMAP items 1 and 2).  This module compares two runs on execution-set
*identity*: the content-addressed digests and per-execution records of
:mod:`repro.obs.execset`.

Targets are resolved flexibly: an existing file path is read as a
``repro-execset/1`` stream; anything else is treated as a (possibly
abbreviated) run-ledger id, resolved through
:func:`repro.obs.ledger.resume_chain` so a resumed multi-session
exploration compares as one merged set.

The report covers:

* **set digest** — equal digests mean the same set of executions,
  whatever order they were visited in (and across shard/resume splits);
* **set difference** — executions only one run visited, with example
  ids and depths;
* **verdicts** — from the ledger (file targets compare as ``n/a``);
* **per-depth visit histograms**, **audit summaries**, and
  **wall-clock/throughput**;
* **divergence explanation** — a minimal missing execution is replayed
  via ``SystemSpec.replay`` and rendered as an :mod:`repro.obs.explain`
  lane diagram, with the first decision where the two runs' trees
  diverge pinpointed.

Exit codes (also under ``exit_code`` in ``--json`` output):

====  ============================================================
0     same execution set, same verdict
1     same verdict but different (or undeterminable) execution set
      — legitimate for *sound* reductions, which must change the
      set without changing the verdict
2     verdict divergence — the alarm the gate exists for
3     usage error (unknown run id, unreadable file, cyclic ledger)
====  ============================================================

All three renderings (table, ``--json``, ``--html``) are deterministic
functions of the two targets — no wall-clock, sorted iteration — so CI
can ``cmp`` repeated invocations byte-for-byte.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from html import escape
from typing import Any, Dict, List, Optional, Tuple

from repro.obs import execset as _execset
from repro.obs import ledger as _ledger

FORMAT = "repro-diff/1"

EXIT_SAME = 0
EXIT_SET_DIFFERS = 1
EXIT_VERDICT_DIVERGES = 2
EXIT_USAGE = 3

#: Example executions listed per side in the table/HTML report (the
#: JSON report lists up to 10x this; the counts are always exact).
EXAMPLE_LIMIT = 5


# ----------------------------------------------------------------------
# Target resolution
# ----------------------------------------------------------------------
@dataclass
class RunSet:
    """One side of a diff: a run's execution set plus ledger context."""

    label: str
    #: ``id -> record`` over every execset file backing this target.
    records: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: Whole-exploration merged digest (``None`` = not recorded).
    digest: Optional[str] = None
    #: True when :attr:`records` provably covers :attr:`digest` (fresh
    #: single-file run, or a resume chain with every shard file found).
    complete: bool = False
    verdict: Optional[str] = None
    duration: Optional[float] = None
    executions: Optional[int] = None
    audit: Optional[Dict[str, Any]] = None
    #: Spec provenance from the execset header (task/n/k), for replay.
    spec: Dict[str, Any] = field(default_factory=dict)
    run_ids: List[str] = field(default_factory=list)
    sources: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def summary(self) -> Dict[str, Any]:
        return {
            "label": self.label,
            "digest": self.digest,
            "records": len(self.records),
            "complete": self.complete,
            "verdict": self.verdict,
            "duration_seconds": self.duration,
            "executions": self.executions,
            "run_ids": self.run_ids,
            "sources": self.sources,
            "spec": self.spec,
            "notes": self.notes,
        }


def _absorb_file(target: RunSet, path: str) -> None:
    parsed = _execset.read_execset(path)
    target.sources.append(path)
    for record_id, record in parsed.records.items():
        target.records.setdefault(record_id, record)
    if not target.spec and parsed.spec:
        target.spec = parsed.spec
    if parsed.skipped:
        target.notes.append(f"{path}: {parsed.skipped} corrupt line(s) skipped")
    if not parsed.consistent:
        target.notes.append(
            f"{path}: footer digest does not match its records "
            "(file corrupt or truncated)"
        )


def load_file_target(path: str) -> RunSet:
    """A diff side backed directly by one ``repro-execset/1`` file."""
    target = RunSet(label=path)
    _absorb_file(target, path)
    parsed = _execset.read_execset(path)
    target.digest = parsed.merged_digest
    target.executions = parsed.footer.get("total_records", len(target.records))
    if parsed.partial:
        # A resumed run's file whose parent shards are elsewhere: the
        # digest covers the whole exploration, the records do not.
        target.complete = False
        target.notes.append(
            f"{path}: covers {len(parsed.records)} of "
            f"{parsed.footer.get('total_records', '?')} executions "
            f"(resumed run; {parsed.base_records} inherited) — set "
            "difference reflects only the records present"
        )
    else:
        target.complete = parsed.consistent
    return target


def load_ledger_target(
    target_id: str, ledger_path: str
) -> RunSet:
    """A diff side named by a run id: the whole resume chain, merged.

    Raises ``ValueError`` for unknown/ambiguous ids and cyclic ledgers
    (the caller maps that to exit 3).
    """
    records, _skipped = _ledger.read_ledger(ledger_path)
    chain = _ledger.resume_chain(records, target_id)
    target = RunSet(label=target_id)
    target.run_ids = [str(r.get("run_id")) for r in chain]
    if len(target.run_ids) == 1:
        target.label = target.run_ids[0]
    else:
        target.label = f"{target.run_ids[0]} .. {target.run_ids[-1]}"
    last = chain[-1]
    target.verdict = last.get("verdict")
    target.executions = last.get("executions")
    durations = [
        r.get("duration_seconds")
        for r in chain
        if isinstance(r.get("duration_seconds"), (int, float))
    ]
    if durations:
        target.duration = round(sum(durations), 3)
    for record in reversed(chain):
        if isinstance(record.get("audit"), dict):
            target.audit = record["audit"]
            break
    claimed: Optional[str] = None
    expected_records: Optional[int] = None
    missing_files = 0
    for record in chain:
        execset_info = record.get("execset")
        if not isinstance(execset_info, dict):
            continue
        digest = execset_info.get("digest")
        if digest:  # the newest chain link's digest covers the union
            claimed = str(digest)
        if isinstance(execset_info.get("records"), int):
            expected_records = execset_info["records"]
        path = execset_info.get("path")
        if isinstance(path, str) and path and os.path.exists(path):
            _absorb_file(target, path)
        elif path:
            missing_files += 1
            target.notes.append(f"execset file not found: {path}")
    target.digest = claimed
    if claimed is None:
        target.notes.append(
            "no execution-set digest recorded for this run "
            "(predates digests or ran with --no-execset)"
        )
    if missing_files == 0 and target.records:
        computed = _execset.set_digest(target.records)
        if claimed is None:
            target.digest = computed
            target.complete = True
        elif computed == claimed:
            target.complete = True
        else:
            target.notes.append(
                "merged records do not reproduce the recorded digest "
                f"({_execset.short_digest(computed)} vs "
                f"{_execset.short_digest(claimed)}) — shard files "
                "incomplete or modified; set difference reflects only "
                "the records present"
            )
    if expected_records is not None and len(target.records) not in (
        0,
        expected_records,
    ):
        target.notes.append(
            f"ledger records {expected_records} executions, "
            f"{len(target.records)} found on disk"
        )
    return target


def load_target(target: str, ledger_path: str) -> RunSet:
    """Resolve one ``repro diff`` operand: file path, else run id."""
    if os.path.exists(target):
        return load_file_target(target)
    return load_ledger_target(target, ledger_path)


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------
def _depth_histogram(records: Dict[str, Dict[str, Any]]) -> Dict[int, int]:
    histogram: Dict[int, int] = {}
    for record in records.values():
        depth = record.get("depth")
        if isinstance(depth, int):
            histogram[depth] = histogram.get(depth, 0) + 1
    return histogram


def _examples(
    records: Dict[str, Dict[str, Any]], ids: List[str], limit: int
) -> List[Dict[str, Any]]:
    ordered = sorted(
        ids, key=lambda i: (records[i].get("depth", 0), i)
    )
    return [
        {"id": record_id, "depth": records[record_id].get("depth")}
        for record_id in ordered[:limit]
    ]


def _pick_minimal(
    records: Dict[str, Dict[str, Any]], ids: List[str]
) -> Optional[Dict[str, Any]]:
    """The shallowest missing execution (ties broken by id) — the one
    worth replaying as the divergence exhibit."""
    if not ids:
        return None
    best = min(ids, key=lambda i: (records[i].get("depth", 0), i))
    return records[best]


def _first_divergence(
    missing: Dict[str, Any], other: Dict[str, Dict[str, Any]]
) -> Dict[str, Any]:
    """Where the other run's tree stops covering ``missing``.

    Finds the longest prefix of the missing execution's decisions shared
    with *any* execution the other run visited: the next decision is the
    exact branch the other run never took — the first point where the
    two exploration trees diverge.
    """
    decisions = [tuple(d) for d in missing.get("decisions") or []]
    best = 0
    sharers = 0
    for record in other.values():
        theirs = [tuple(d) for d in record.get("decisions") or []]
        common = 0
        for mine, their in zip(decisions, theirs):
            if mine != their:
                break
            common += 1
        if common > best:
            best, sharers = common, 1
        elif common == best:
            sharers += 1
    result: Dict[str, Any] = {"index": best, "shared_by_other": sharers}
    if best < len(decisions):
        pid, choice = decisions[best]
        result["decision"] = [pid, choice]
    return result


def _render_lanes(
    missing: Dict[str, Any], spec_meta: Dict[str, Any]
) -> Tuple[Optional[str], Optional[str], Optional[str]]:
    """Replay a missing execution: ``(lane_text, lane_html, error)``.

    Spec provenance comes from the execset header and resolves through
    the witness builder registry; when it cannot (library-driven specs),
    the diff still reports the divergence — just without the picture.
    """
    from repro.obs import explain as _explain
    from repro.obs import witness as _witness

    if not spec_meta:
        return None, None, "no spec provenance in the execset header"
    try:
        spec = _witness.resolve_spec({"spec": dict(spec_meta)})
        decisions = [
            (int(pid), int(choice))
            for pid, choice in (missing.get("decisions") or [])
        ]
        execution = spec.replay(decisions).finalize()
        view = _explain.view_from_execution(execution)
        return (
            _explain.lane_diagram(view),
            _explain.lanes_html(
                view, caption=f"missing execution {missing.get('id')}"
            ),
            None,
        )
    except Exception as error:  # noqa: BLE001 — a broken exhibit must
        # not take down the diff report it illustrates
        return None, None, f"replay failed: {error}"


def compare(a: RunSet, b: RunSet, explain: bool = True) -> Dict[str, Any]:
    """Compare two resolved targets into a JSON-ready report.

    Pure function of its inputs (no wall-clock): the same two targets
    always produce the same report, which is what lets CI byte-compare
    repeated renderings.
    """
    only_a = sorted(set(a.records) - set(b.records))
    only_b = sorted(set(b.records) - set(a.records))
    if a.digest and b.digest:
        digests_equal: Optional[bool] = a.digest == b.digest
    else:
        digests_equal = None
    if a.complete and b.complete:
        same_set: Optional[bool] = not only_a and not only_b
    else:
        same_set = digests_equal
    verdicts_known = a.verdict is not None and b.verdict is not None
    verdicts_equal = a.verdict == b.verdict if verdicts_known else None
    if verdicts_equal is False:
        exit_code = EXIT_VERDICT_DIVERGES
    elif same_set:
        exit_code = EXIT_SAME
    else:
        exit_code = EXIT_SET_DIFFERS

    depths_a = _depth_histogram(a.records)
    depths_b = _depth_histogram(b.records)
    histogram = {
        str(depth): [depths_a.get(depth, 0), depths_b.get(depth, 0)]
        for depth in sorted(set(depths_a) | set(depths_b))
    }

    def throughput(side: RunSet) -> Optional[float]:
        if (
            isinstance(side.executions, int)
            and isinstance(side.duration, (int, float))
            and side.duration > 0
        ):
            return round(side.executions / side.duration, 1)
        return None

    report: Dict[str, Any] = {
        "format": FORMAT,
        "a": a.summary(),
        "b": b.summary(),
        "digest": {
            "a": a.digest,
            "b": b.digest,
            "equal": digests_equal,
        },
        "same_set": same_set,
        "only_in_a": {
            "count": len(only_a),
            "examples": _examples(a.records, only_a, EXAMPLE_LIMIT * 10),
        },
        "only_in_b": {
            "count": len(only_b),
            "examples": _examples(b.records, only_b, EXAMPLE_LIMIT * 10),
        },
        "depth_histogram": histogram,
        "verdict": {
            "a": a.verdict,
            "b": b.verdict,
            "equal": verdicts_equal,
        },
        "audit": {"a": a.audit, "b": b.audit},
        "timing": {
            "duration_seconds": [a.duration, b.duration],
            "executions": [a.executions, b.executions],
            "rate": [throughput(a), throughput(b)],
        },
        "exit_code": exit_code,
    }
    if a.spec and b.spec and a.spec != b.spec:
        report.setdefault("notes", []).append(
            "spec provenance differs: "
            f"A {json.dumps(a.spec, sort_keys=True)} vs "
            f"B {json.dumps(b.spec, sort_keys=True)}"
        )

    if explain and (only_a or only_b):
        if only_a:
            side, other = "A", b.records
            missing = _pick_minimal(a.records, only_a)
        else:
            side, other = "B", a.records
            missing = _pick_minimal(b.records, only_b)
        assert missing is not None
        divergence: Dict[str, Any] = {
            "side": side,
            "id": missing.get("id"),
            "depth": missing.get("depth"),
            "decisions": missing.get("decisions"),
            "first_divergence": _first_divergence(missing, other),
        }
        lane_text, lane_html, error = _render_lanes(
            missing, a.spec if side == "A" else b.spec or a.spec
        )
        if lane_text:
            divergence["lanes"] = lane_text
        if lane_html:
            divergence["lanes_html"] = lane_html
        if error:
            divergence["render_error"] = error
        report["divergence"] = divergence
    return report


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _marker(equal: Optional[bool], same: str = "SAME") -> str:
    if equal is None:
        return "n/a"
    return same if equal else "DIFFERS"


def render_table(report: Dict[str, Any]) -> str:
    """The stdout rendering: aligned, deterministic, greppable."""
    a, b = report["a"], report["b"]
    lines: List[str] = []
    lines.append(f"A: {a['label']}")
    lines.append(f"B: {b['label']}")
    digest = report["digest"]
    lines.append(
        "set digest: "
        f"{_execset.short_digest(digest['a'])} vs "
        f"{_execset.short_digest(digest['b'])} "
        f"({_marker(digest['equal'], 'SAME SET')})"
    )
    lines.append(f"records: {a['records']} vs {b['records']}")
    for side, key in (("A", "only_in_a"), ("B", "only_in_b")):
        entry = report[key]
        if not entry["count"]:
            continue
        examples = ", ".join(
            f"{e['id']} (depth {e['depth']})"
            for e in entry["examples"][:EXAMPLE_LIMIT]
        )
        suffix = ", ..." if entry["count"] > EXAMPLE_LIMIT else ""
        lines.append(
            f"only in {side}: {entry['count']} execution(s): "
            f"{examples}{suffix}"
        )
    verdict = report["verdict"]
    lines.append(
        f"verdict: {verdict['a'] or 'n/a'} vs {verdict['b'] or 'n/a'} "
        f"({_marker(verdict['equal'], '=')})"
    )
    histogram = report["depth_histogram"]
    if histogram:
        lines.append("per-depth visits:")
        lines.append("  depth      A      B")
        for depth, (count_a, count_b) in histogram.items():
            flag = "" if count_a == count_b else "  <-"
            lines.append(f"  {depth:>5} {count_a:>6} {count_b:>6}{flag}")
    audit_lines = _ledger._compare_audit(
        report["audit"]["a"], report["audit"]["b"]
    )
    lines.extend(audit_lines)
    timing = report["timing"]
    dur_a, dur_b = timing["duration_seconds"]
    if dur_a is not None or dur_b is not None:
        lines.append(
            "duration: "
            f"{_ledger._fmt_duration(dur_a)} vs {_ledger._fmt_duration(dur_b)}"
        )
    rate_a, rate_b = timing["rate"]
    if rate_a is not None or rate_b is not None:
        lines.append(
            "throughput: "
            f"{rate_a if rate_a is not None else '?'} vs "
            f"{rate_b if rate_b is not None else '?'} executions/s"
        )
    for side in (a, b):
        for note in side["notes"]:
            lines.append(f"note ({side['label']}): {note}")
    for note in report.get("notes", []):
        lines.append(f"note: {note}")
    divergence = report.get("divergence")
    if divergence:
        first = divergence["first_divergence"]
        lines.append(
            f"divergence exhibit: execution {divergence['id']} "
            f"(depth {divergence['depth']}, only in {divergence['side']})"
        )
        decision = first.get("decision")
        decision_text = (
            f"decision [pid {decision[0]}, choice {decision[1]}]"
            if decision
            else "end of execution"
        )
        lines.append(
            f"first divergence: index {first['index']} — {decision_text} "
            f"(prefix shared by {first['shared_by_other']} execution(s) "
            "on the other side)"
        )
        if divergence.get("lanes"):
            lines.append(divergence["lanes"])
        elif divergence.get("render_error"):
            lines.append(f"(lane view unavailable: {divergence['render_error']})")
    meanings = {
        EXIT_SAME: "same execution set, same verdict",
        EXIT_SET_DIFFERS: "different execution set (verdicts agree)",
        EXIT_VERDICT_DIVERGES: "VERDICT DIVERGENCE",
    }
    code = report["exit_code"]
    lines.append(f"exit: {code} ({meanings.get(code, 'usage')})")
    return "\n".join(lines)


def render_json_report(report: Dict[str, Any]) -> str:
    return json.dumps(report, indent=2, sort_keys=True, default=repr)


def _html_row(label: str, value_a: str, value_b: str, marker: str = "") -> str:
    return (
        f"<tr><th>{escape(label)}</th><td>{escape(value_a)}</td>"
        f"<td>{escape(value_b)}</td><td>{escape(marker)}</td></tr>"
    )


def render_html(report: Dict[str, Any], title: str = "repro diff") -> str:
    """Standalone HTML report (same determinism contract as the table)."""
    from repro.obs.explain import LANES_CSS
    from repro.obs.report import page

    a, b = report["a"], report["b"]
    digest = report["digest"]
    verdict = report["verdict"]
    out: List[str] = [
        f"<p>A: <code>{escape(str(a['label']))}</code><br>"
        f"B: <code>{escape(str(b['label']))}</code></p>",
        "<table>",
        "<tr><th></th><th>A</th><th>B</th><th></th></tr>",
        _html_row(
            "set digest",
            _execset.short_digest(digest["a"]),
            _execset.short_digest(digest["b"]),
            _marker(digest["equal"], "SAME SET"),
        ),
        _html_row("records", str(a["records"]), str(b["records"])),
        _html_row(
            "verdict",
            str(verdict["a"] or "n/a"),
            str(verdict["b"] or "n/a"),
            _marker(verdict["equal"], "="),
        ),
        _html_row(
            "only-in-side executions",
            str(report["only_in_a"]["count"]),
            str(report["only_in_b"]["count"]),
        ),
        "</table>",
    ]
    histogram = report["depth_histogram"]
    if histogram:
        out.append("<h2>Per-depth visits</h2>")
        out.append("<table><tr><th>depth</th><th>A</th><th>B</th></tr>")
        for depth, (count_a, count_b) in histogram.items():
            out.append(
                f"<tr><td>{escape(depth)}</td><td>{count_a}</td>"
                f"<td>{count_b}</td></tr>"
            )
        out.append("</table>")
    notes = [
        f"({side['label']}) {note}"
        for side in (a, b)
        for note in side["notes"]
    ] + list(report.get("notes", []))
    if notes:
        out.append("<h2>Notes</h2><ul>")
        out.extend(f"<li>{escape(str(note))}</li>" for note in notes)
        out.append("</ul>")
    divergence = report.get("divergence")
    if divergence:
        first = divergence["first_divergence"]
        out.append("<h2>Divergence exhibit</h2>")
        out.append(
            f"<p>Execution <code>{escape(str(divergence['id']))}</code> "
            f"(depth {divergence['depth']}) was visited only by "
            f"{escape(str(divergence['side']))}; the trees diverge at "
            f"decision index {first['index']}.</p>"
        )
        if divergence.get("lanes_html"):
            out.append(divergence["lanes_html"])
        elif divergence.get("render_error"):
            out.append(
                "<p>(lane view unavailable: "
                f"{escape(str(divergence['render_error']))})</p>"
            )
    meanings = {
        EXIT_SAME: "same execution set, same verdict",
        EXIT_SET_DIFFERS: "different execution set (verdicts agree)",
        EXIT_VERDICT_DIVERGES: "VERDICT DIVERGENCE",
    }
    code = report["exit_code"]
    out.append(
        f"<p>exit: <strong>{code}</strong> "
        f"({escape(meanings.get(code, 'usage'))})</p>"
    )
    return page(title, "\n".join(out), LANES_CSS)


# ----------------------------------------------------------------------
# Entry point shared by the CLI
# ----------------------------------------------------------------------
def diff_targets(
    target_a: str,
    target_b: str,
    ledger_path: Optional[str] = None,
    explain: bool = True,
) -> Dict[str, Any]:
    """Resolve and compare two operands (the ``repro diff`` core).

    Raises ``ValueError`` for unresolvable targets — the CLI maps that
    to exit :data:`EXIT_USAGE`.
    """
    path = ledger_path or _ledger.default_ledger_path()
    a = load_target(target_a, path)
    b = load_target(target_b, path)
    return compare(a, b, explain=explain)
