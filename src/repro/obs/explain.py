"""Witness explanation: ddmin shrinking and human-readable rendering.

A captured counterexample (see :mod:`repro.obs.witness`) is *replayable*
but rarely *readable* — the first refuting execution an exhaustive DFS
finds routinely carries dozens of steps that have nothing to do with the
violation.  This module turns an archived witness into an explanation in
two moves:

1. **Shrink** — :func:`shrink_execution` runs Zeller-style delta
   debugging (:func:`ddmin`) over the witness's full decision sequence
   (fault decisions — crashes *and* recoveries — included), replay-
   validating every candidate through
   :meth:`~repro.runtime.system.SystemSpec.replay` and keeping only
   subsequences that still satisfy the witness predicate.  The result is
   **1-minimal**: removing any single decision either breaks the replay
   or no longer violates the property.  The search is deterministic —
   same spec, decisions, and predicate always shrink to the same
   schedule — so explanations are byte-stable across reruns and
   machines.
2. **Render** — three views over the shrunk execution, all built from
   the same neutral :class:`StepView` sequence so they agree with each
   other: :func:`lane_diagram` (ASCII space-time lanes, one column per
   process, with the happens-before edges of the logical operation
   history below), :func:`lanes_html` (the same lanes as an embeddable
   HTML table, used by the run report), and :func:`narrative`
   (step-by-step prose ending in the decision-set summary).

``python -m repro explain <witness.jsonl | RUN_ID>`` (:func:`run_explain`)
glues it together: resolve a bundle path or a ledger-linked run id,
replay, shrink, render.  Shrinking emits a ``witness_shrunk`` event,
which the metrics registry folds into ``witness_shrink_steps`` /
``witness_min_length`` histograms.

Everything here is deliberately wall-clock free: positions in diagrams
are logical step indices, and no renderer embeds a timestamp, so two
invocations over the same bundle produce identical bytes (asserted in
CI).  See docs/EXPLAIN.md for the reading guide.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from html import escape
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs import events as _events
from repro.obs.report import page
from repro.runtime.execution import Execution
from repro.runtime.history import History, history_from_execution
from repro.runtime.system import SystemSpec

Decision = Tuple[int, int]


# ----------------------------------------------------------------------
# ddmin — deterministic delta debugging over decision sequences
# ----------------------------------------------------------------------
def ddmin(
    items: Sequence[Any],
    test: Callable[[List[Any]], bool],
    *,
    max_tests: int = 100_000,
) -> Tuple[List[Any], int]:
    """Minimize ``items`` to a 1-minimal subsequence still passing ``test``.

    Classic ddmin (Zeller & Hildebrandt): partition into ``n`` chunks,
    try removing each chunk (complement testing), double granularity
    when stuck.  Returns ``(minimal, tests_run)``.

    Guarantees:

    * the result passes ``test`` (assuming the input did — this is
      *checked*: a ``ValueError`` is raised otherwise, because a witness
      that fails its own predicate is a bug worth surfacing, not
      shrinking);
    * the result is **1-minimal**: no single element can be removed
      without failing ``test``;
    * the run is deterministic — chunks are tried in a fixed order and
      nothing samples randomness, so equal inputs give equal outputs.

    ``test`` must itself be deterministic; results are memoized by
    candidate content, so a flaky predicate would be masked rather than
    averaged.  ``max_tests`` is a runaway backstop, far above anything a
    witness-sized sequence can hit.
    """
    memo: Dict[Tuple[Any, ...], bool] = {}
    tests_run = 0

    def run_test(candidate: List[Any]) -> bool:
        nonlocal tests_run
        key = tuple(candidate)
        if key in memo:
            return memo[key]
        if tests_run >= max_tests:
            return False
        tests_run += 1
        memo[key] = bool(test(candidate))
        return memo[key]

    current = list(items)
    if not run_test(current):
        raise ValueError("ddmin: the unshrunk input does not pass the test")
    granularity = 2
    while len(current) >= 2:
        chunk = max(1, len(current) // granularity)
        reduced = False
        for start in range(0, len(current), chunk):
            candidate = current[:start] + current[start + chunk:]
            if candidate and run_test(candidate):
                current = candidate
                granularity = max(granularity - 1, 2)
                reduced = True
                break
        if not reduced:
            if granularity >= len(current):
                break
            granularity = min(len(current), granularity * 2)
    return current, tests_run


@dataclass
class ShrinkResult:
    """Outcome of :func:`shrink_execution`.

    ``execution`` is the replayed, finalized run of the minimal decision
    sequence ``decisions``; ``original_length`` counts the unshrunk
    decisions (crash decisions included) for the removed-steps account.
    """

    execution: Execution
    decisions: List[Decision] = field(default_factory=list)
    original_length: int = 0
    tests: int = 0

    @property
    def min_length(self) -> int:
        return len(self.decisions)

    @property
    def removed(self) -> int:
        return self.original_length - self.min_length


def shrink_execution(
    spec: SystemSpec,
    execution: Execution,
    predicate: Callable[[Execution], bool],
) -> ShrinkResult:
    """ddmin a witness execution down to a 1-minimal refuting schedule.

    Candidates are subsequences of :attr:`Execution.full_decisions`, so
    fault decisions (crashes and recoveries) shrink away exactly like
    step decisions when the violation does not need them — a recovery
    whose crash was dropped replays as a no-op, so holes cannot corrupt
    the candidate.  A candidate passes only if it still
    *replays* — dropping a decision routinely invalidates later ones
    (the pid is no longer enabled, the outcome index is out of range,
    the protocol trips over a hole in its own state), and any exception
    from the replay is treated as "predicate not satisfied", not an
    error — and its finalized execution still satisfies ``predicate``.

    Raises ``ValueError`` when the witness itself fails ``predicate``
    (spec drift caught by the caller's fingerprint check should make
    this near-impossible; a fresh capture bug should be loud).
    """
    original = list(execution.full_decisions)
    best: Dict[Tuple[Decision, ...], Execution] = {}

    def attempt(candidate: List[Decision]) -> bool:
        try:
            replayed = spec.replay(candidate).finalize()
        except Exception:
            return False
        if predicate(replayed):
            best[tuple(candidate)] = replayed
            return True
        return False

    try:
        minimal, tests = ddmin(original, attempt)
    except ValueError:
        raise ValueError(
            "witness execution does not satisfy its own predicate on "
            "replay — the capture or its provenance is wrong"
        )
    result = ShrinkResult(
        execution=best[tuple(minimal)],
        decisions=minimal,
        original_length=len(original),
        tests=tests,
    )
    if _events.is_enabled():
        _events.emit(
            "witness_shrunk",
            original_length=result.original_length,
            min_length=result.min_length,
            removed=result.removed,
            tests=result.tests,
        )
    return result


# ----------------------------------------------------------------------
# StepView — the renderer-neutral event sequence
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StepView:
    """One lane-diagram event: an atomic step, a crash-stop, or a
    recovery.

    Everything is pre-stringified (args and responses as ``repr`` text)
    so views built live from an :class:`Execution` and views rebuilt
    from an archived bundle's compact ``steps`` table render
    identically.
    """

    kind: str  # "step" | "crash" | "recover"
    pid: int
    target: str = ""
    method: str = ""
    args: Tuple[str, ...] = ()
    response: str = ""

    def cell(self) -> str:
        if self.kind == "crash":
            return "CRASH"
        if self.kind == "recover":
            return "RECOVER"
        return f"{self.target}.{self.method}({', '.join(self.args)}) -> {self.response}"


class _FaultCursor:
    """Interleaves ``(step_index, pid)`` crash and recovery records into
    fault :class:`StepView` rows, in the same order
    :func:`~repro.runtime.execution.merge_fault_decisions` emits them
    (crashes of live pids first, then recoveries of crashed pids, per
    step index) — so lane diagrams and replayed decision sequences
    always agree on event order."""

    def __init__(self, crashes, recoveries):
        self.crashes = list(crashes)
        self.recoveries = list(recoveries)
        self.crashed: set = set()
        self._ci = 0
        self._ri = 0

    def drain(self, at: float) -> List[StepView]:
        views: List[StepView] = []
        while True:
            if (
                self._ci < len(self.crashes)
                and self.crashes[self._ci][0] <= at
                and self.crashes[self._ci][1] not in self.crashed
            ):
                pid = self.crashes[self._ci][1]
                self.crashed.add(pid)
                views.append(StepView(kind="crash", pid=pid))
                self._ci += 1
                continue
            if (
                self._ri < len(self.recoveries)
                and self.recoveries[self._ri][0] <= at
                and self.recoveries[self._ri][1] in self.crashed
            ):
                pid = self.recoveries[self._ri][1]
                self.crashed.discard(pid)
                views.append(StepView(kind="recover", pid=pid))
                self._ri += 1
                continue
            return views


@dataclass
class WitnessView:
    """A renderable witness: events plus the per-process outcome."""

    views: List[StepView]
    pids: List[int]
    outputs: Dict[int, str]  # pid -> repr of the decided value
    statuses: Dict[int, str]  # pid -> final status string
    history: Optional[History] = None

    def decision_set(self) -> List[str]:
        return sorted(set(self.outputs.values()))


def view_from_execution(execution: Execution) -> WitnessView:
    """Build the renderable view of a live (or replayed) execution."""
    views: List[StepView] = []
    faults = _FaultCursor(execution.crashes, execution.recoveries)
    for step in execution.steps:
        views.extend(faults.drain(step.index))
        views.append(
            StepView(
                kind="step",
                pid=step.pid,
                target=step.operation.target,
                method=step.operation.method,
                args=tuple(repr(a) for a in step.operation.args),
                response=repr(step.response),
            )
        )
    views.extend(faults.drain(float("inf")))
    try:
        history = history_from_execution(execution)
        if not history.events:
            history = None
    except Exception:
        history = None  # no call/return annotations — lanes only
    return WitnessView(
        views=views,
        pids=sorted(execution.statuses),
        outputs={pid: repr(execution.outputs[pid]) for pid in execution.outputs},
        statuses={
            pid: execution.statuses[pid].value for pid in execution.statuses
        },
        history=history,
    )


def view_from_record(record: Dict[str, Any]) -> WitnessView:
    """Build the renderable view straight from an archived bundle.

    Used when the witness's spec provenance cannot be resolved: the
    compact ``steps`` table (args/responses already ``repr``-ed at
    capture time) renders without replaying — no happens-before edges,
    since those need the replay's annotations.
    """
    views: List[StepView] = []
    trace = record.get("trace", {})
    faults = _FaultCursor(
        [(at, pid) for at, pid in trace.get("crashes", [])],
        [(at, pid) for at, pid in trace.get("recoveries", [])],
    )
    for index, (pid, target, method, args, response) in enumerate(
        record.get("steps", [])
    ):
        views.extend(faults.drain(index))
        views.append(
            StepView(
                kind="step",
                pid=int(pid),
                target=str(target),
                method=str(method),
                args=tuple(str(a) for a in args),
                response=str(response),
            )
        )
    views.extend(faults.drain(float("inf")))
    statuses = {
        int(pid): str(status) for pid, status in record.get("statuses", {}).items()
    }
    return WitnessView(
        views=views,
        pids=sorted(statuses),
        outputs={
            int(pid): str(value)
            for pid, value in record.get("outputs", {}).items()
        },
        statuses=statuses,
    )


# ----------------------------------------------------------------------
# Renderer 1: ASCII space-time lane diagram
# ----------------------------------------------------------------------
def _hb_edges(history: History) -> List[Tuple[Any, Any]]:
    """Happens-before edges of the complete logical operations, reduced
    to the covering relation (transitive reduction) so the list shows
    the *structure*, not every consequence of it."""
    done = sorted(history.complete, key=lambda e: (e.invoked_at, e.pid))
    edges = []
    for a in done:
        for b in done:
            if a is b or not a.precedes(b):
                continue
            if any(
                c is not a and c is not b and a.precedes(c) and c.precedes(b)
                for c in done
            ):
                continue
            edges.append((a, b))
    return edges


def lane_diagram(view: WitnessView) -> str:
    """ASCII space-time diagram: one column (lane) per process, one row
    per event, time flowing top to bottom.

    Idle lanes show ``.`` at each tick so the eye can follow a process
    through time; crash rows mark the lane with ``CRASH`` and the lane
    goes silent below — until a ``RECOVER`` row revives it (the lane
    resumes ticking, its program restarted from scratch).  After the
    event rows, each lane closes with the process's outcome, and — when
    the logical-operation history is available — the happens-before
    edges (transitive reduction) are listed below the diagram.
    """
    pids = view.pids or sorted({v.pid for v in view.views})
    cells: List[Dict[int, str]] = [
        {v.pid: v.cell()} for v in view.views
    ]
    outcome_row: Dict[int, str] = {}
    for pid in pids:
        status = view.statuses.get(pid, "?")
        if pid in view.outputs:
            outcome_row[pid] = f"=> {view.outputs[pid]}"
        else:
            outcome_row[pid] = f"({status})"
    widths = {
        pid: max(
            [len(f"p{pid}"), len(outcome_row.get(pid, ""))]
            + [len(row[pid]) for row in cells if pid in row]
        )
        for pid in pids
    }
    index_width = max(4, len(str(max(len(cells) - 1, 0))))
    lines = [
        " " * index_width
        + "  "
        + "  ".join(f"p{pid}".ljust(widths[pid]) for pid in pids)
    ]
    lines.append(
        "-" * index_width + "  " + "  ".join("-" * widths[pid] for pid in pids)
    )
    crashed: set = set()
    for index, row in enumerate(cells):
        parts = []
        for pid in pids:
            if pid in row:
                parts.append(row[pid].ljust(widths[pid]))
            elif pid in crashed:
                parts.append(" " * widths[pid])
            else:
                parts.append(".".ljust(widths[pid]))
        lines.append(str(index).rjust(index_width) + "  " + "  ".join(parts))
        event = view.views[index]
        if event.kind == "crash":
            crashed.add(event.pid)
        elif event.kind == "recover":
            crashed.discard(event.pid)
    lines.append(
        " " * index_width
        + "  "
        + "  ".join(outcome_row.get(pid, "").ljust(widths[pid]) for pid in pids)
    )
    if view.history is not None:
        edges = _hb_edges(view.history)
        if edges:
            lines.append("")
            lines.append("happens-before (logical operations, covering edges):")
            for a, b in edges:
                lines.append(f"  {a}  -->  {b}")
        pending = view.history.pending
        if pending:
            lines.append("pending (never responded):")
            for event in sorted(pending, key=lambda e: (e.invoked_at, e.pid)):
                lines.append(f"  {event}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Renderer 2: HTML lane view (embeddable fragment + standalone page)
# ----------------------------------------------------------------------
LANES_CSS = """
table.lanes { border-collapse: collapse; font-family: ui-monospace,
              SFMono-Regular, Menlo, monospace; font-size: .8rem; }
table.lanes th, table.lanes td { border: 1px solid #e0e0e0;
              padding: .15rem .5rem; text-align: left; }
table.lanes th { background: #f5f5f7; }
table.lanes td.idle { color: #ccc; text-align: center; }
table.lanes td.gone { background: #fafafa; }
table.lanes td.crash { background: #fdecea; color: #c62828;
              font-weight: 600; }
table.lanes td.recover { background: #e8f5e9; color: #2e7d32;
              font-weight: 600; }
table.lanes td.op { background: #eef3fb; }
table.lanes tr.outcome td { border-top: 2px solid #bbb;
              font-weight: 600; }
"""


def lanes_html(view: WitnessView, caption: str = "") -> str:
    """The lane diagram as an embeddable ``<table class="lanes">``.

    Pure CSS (styles in :data:`LANES_CSS`), no scripts — interactivity
    is the browser's own hover/selection over a real table, keeping the
    run report dependency-free and safe to mail around.
    """
    pids = view.pids or sorted({v.pid for v in view.views})
    out = ['<table class="lanes">']
    if caption:
        out.append(f"<caption>{escape(caption)}</caption>")
    out.append(
        "<tr><th>#</th>"
        + "".join(f"<th>p{pid}</th>" for pid in pids)
        + "</tr>"
    )
    crashed: set = set()
    for index, event in enumerate(view.views):
        row = [f"<tr><td>{index}</td>"]
        for pid in pids:
            if pid == event.pid:
                if event.kind == "crash":
                    row.append('<td class="crash">CRASH</td>')
                elif event.kind == "recover":
                    row.append('<td class="recover">RECOVER</td>')
                else:
                    row.append(f'<td class="op">{escape(event.cell())}</td>')
            elif pid in crashed:
                row.append('<td class="gone"></td>')
            else:
                row.append('<td class="idle">·</td>')
        row.append("</tr>")
        out.append("".join(row))
        if event.kind == "crash":
            crashed.add(event.pid)
        elif event.kind == "recover":
            crashed.discard(event.pid)
    outcome = ['<tr class="outcome"><td></td>']
    for pid in pids:
        if pid in view.outputs:
            outcome.append(f"<td>=&gt; {escape(view.outputs[pid])}</td>")
        else:
            outcome.append(f"<td>({escape(view.statuses.get(pid, '?'))})</td>")
    outcome.append("</tr>")
    out.append("".join(outcome))
    out.append("</table>")
    return "\n".join(out)


def lanes_page(view: WitnessView, title: str = "witness lanes") -> str:
    """A standalone HTML page around :func:`lanes_html` (the ``--html``
    output of ``repro explain``)."""
    return page(title, lanes_html(view), LANES_CSS)


# ----------------------------------------------------------------------
# Renderer 3: step-by-step narrative
# ----------------------------------------------------------------------
def narrative(view: WitnessView) -> str:
    """Prose account of the execution, one sentence per event, closing
    with each process's fate and the decision-set summary."""
    lines: List[str] = []
    counts: Dict[int, int] = {}
    for index, event in enumerate(view.views):
        if event.kind == "crash":
            taken = counts.get(event.pid, 0)
            returns = any(
                later.kind == "recover" and later.pid == event.pid
                for later in view.views[index + 1:]
            )
            fate = "it will come back" if returns else "it never moves again"
            lines.append(
                f"{index:3d}. p{event.pid} crashes after taking {taken} "
                f"step{'s' if taken != 1 else ''}; {fate}."
            )
            continue
        if event.kind == "recover":
            lines.append(
                f"{index:3d}. p{event.pid} recovers with amnesia; its "
                "program restarts from scratch while shared objects keep "
                "their state."
            )
            continue
        counts[event.pid] = counts.get(event.pid, 0) + 1
        call = f"{event.target}.{event.method}({', '.join(event.args)})"
        lines.append(
            f"{index:3d}. p{event.pid} applies {call} and observes "
            f"{event.response}."
        )
    lines.append("")
    for pid in view.pids:
        if pid in view.outputs:
            lines.append(f"p{pid} decides {view.outputs[pid]}.")
        else:
            status = view.statuses.get(pid, "?")
            if status == "crashed":
                lines.append(f"p{pid} crashed before deciding.")
            else:
                lines.append(f"p{pid} never decides (status: {status}).")
    decisions = view.decision_set()
    lines.append(
        f"Decision set: {{{', '.join(decisions)}}} — "
        f"{len(decisions)} distinct value{'s' if len(decisions) != 1 else ''}."
    )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# The `repro explain` core
# ----------------------------------------------------------------------
def resolve_witness_target(
    target: str, ledger_path: Optional[str] = None
) -> List[str]:
    """Resolve the CLI's ``<witness.jsonl | RUN_ID>`` argument to bundle
    paths: an existing file is itself; anything else is looked up in the
    run ledger and must name a record with captured witnesses."""
    if os.path.exists(target):
        return [target]
    from repro.obs import ledger as run_ledger

    path = ledger_path or run_ledger.default_ledger_path()
    records, _skipped = run_ledger.read_ledger(path)
    record = run_ledger.find_record(records, target)  # raises ValueError
    witnesses = record.get("witnesses")
    if not witnesses:
        raise ValueError(
            f"run {record.get('run_id')} has no captured witnesses "
            "(was it run with --witness-dir?)"
        )
    return [str(w) for w in witnesses]


def explain_record(
    record: Dict[str, Any],
    *,
    shrink: bool = True,
    out: Callable[[str], None] = print,
) -> Tuple[WitnessView, Optional[ShrinkResult]]:
    """Replay, shrink, and print one witness record.

    Falls back to rendering the archived step table (no shrink, no
    happens-before edges) when the bundle carries no resolvable spec or
    predicate provenance — an archived witness should always *show*
    something, even when the code that can replay it is absent.
    """
    from repro.obs import witness as _witness

    kind = record.get("kind", "?")
    label = record.get("label") or record.get("trace", {}).get("label") or ""
    header = f"witness: {kind}"
    if label:
        header += f" — {label}"
    if record.get("reason"):
        header += f" ({record['reason']})"
    out(header)
    out(f"source: {record.get('source', '?')}")

    spec = predicate = None
    provenance_problem = None
    try:
        spec = _witness.resolve_spec(record)
        predicate = _witness.resolve_predicate(record)
    except ValueError as error:
        provenance_problem = str(error)

    shrink_result: Optional[ShrinkResult] = None
    if spec is not None and predicate is not None:
        execution = _witness.replay_witness(record, spec)  # fingerprint-checked
        recoveries = (
            f", {len(execution.recoveries)} recovery(ies)"
            if execution.recoveries
            else ""
        )
        out(
            f"replayed: {len(execution.steps)} steps, "
            f"{len(execution.crashes)} crash(es){recoveries}, "
            "fingerprint verified"
        )
        if shrink:
            shrink_result = shrink_execution(spec, execution, predicate)
            out(
                f"shrunk: {shrink_result.original_length} -> "
                f"{shrink_result.min_length} decisions "
                f"({shrink_result.removed} removed, "
                f"{shrink_result.tests} replays tried, 1-minimal)"
            )
            view = view_from_execution(shrink_result.execution)
        else:
            view = view_from_execution(execution)
    else:
        out(
            "note: rendering the archived steps without replay "
            f"({provenance_problem})"
        )
        view = view_from_record(record)

    out("")
    out(lane_diagram(view))
    out("")
    out(narrative(view))
    return view, shrink_result


def run_explain(
    target: str,
    *,
    shrink: bool = True,
    html_out: Optional[str] = None,
    ledger_path: Optional[str] = None,
    out: Callable[[str], None] = print,
) -> int:
    """CLI core of ``repro explain``; returns the exit code.

    2 — the target or its witnesses could not be resolved/read;
    0 — every witness in the bundle(s) rendered.
    """
    from repro.errors import ProtocolError
    from repro.obs import witness as _witness

    try:
        paths = resolve_witness_target(target, ledger_path)
    except ValueError as error:
        out(f"explain: {error}")
        return 2
    pages: List[str] = []
    first = True
    for path in paths:
        try:
            records, skipped = _witness.read_witness(path)
        except OSError as error:
            out(f"explain: cannot read {path}: {error}")
            return 2
        if not records:
            out(f"explain: no witness records in {path}"
                + (f" ({skipped} corrupt lines skipped)" if skipped else ""))
            return 2
        for record in records:
            if not first:
                out("")
                out("=" * 60)
                out("")
            first = False
            out(f"bundle: {path}")
            try:
                view, _shrunk = explain_record(record, shrink=shrink, out=out)
            except (ProtocolError, ValueError) as error:
                out(f"explain: {error}")
                return 2
            if html_out:
                title = record.get("label") or f"{record.get('kind', 'witness')}"
                pages.append(lanes_html(view, caption=title))
    if html_out:
        from repro.fsutil import ensure_parent

        html = page(
            f"repro explain — {target}", "\n<hr>\n".join(pages), LANES_CSS
        )
        with open(ensure_parent(html_out), "w", encoding="utf-8") as handle:
            handle.write(html)
        out("")
        out(f"wrote HTML lane view to {html_out}")
    return 0
