"""Stitch daemon and worker traces into one causal tree, and render it.

A ``repro serve`` job leaves several JSONL event traces behind: the
daemon-side job trace (``trace-daemon.jsonl`` — ``queue_wait``,
``attempt_N``, ``resume_gap`` spans written by
:class:`repro.obs.jobs.JobTrace`) and one worker trace per attempt
(``trace-1.jsonl`` …, written by the worker's ``--trace-out`` sink).
Every span in those files carries the deterministic
``span_id``/``parent_id``/``trace_id`` identity minted by
:mod:`repro.obs.spans`, and each worker's outermost span is parented
under the daemon's per-attempt span via ``REPRO_TRACEPARENT`` — so
stitching is pure id-joining: no clocks, no heuristics.

:func:`stitch_files` builds the tree; layout then computes, per span:

* **effective seconds** — the recorded duration, or (for a span whose
  worker was killed before ``span_end``) the sum of its children's;
* **start offset** — reconstructed, not measured: each child starts
  where its previous sibling ended, at the parent's start for the first
  child (the same convention as the run report's waterfall, so
  identical inputs render byte-identically);
* **self seconds** — effective time minus the children's;
* **critical path** — the root-to-leaf descent that always follows the
  most expensive child (the dominant-cost chain, starred in both
  renderings).

Renderers: a byte-stable ASCII waterfall (``repro trace show``), an
embeddable/standalone HTML waterfall (reusing
:data:`repro.obs.report.BASE_CSS`), a nested-dict export for the
service's ``/jobs/<id>/trace`` endpoint, and a flat JSONL export
(``repro-stitched-trace/1``) for CI artifacts.
"""

from __future__ import annotations

import json
import os
import re
import sys
from html import escape
from typing import Any, Dict, List, Optional, Tuple

from repro.obs import events as _events
from repro.obs import ledger as _ledger
from repro.obs.report import page

#: First line of the flat JSONL export.
STITCHED_FORMAT = "repro-stitched-trace/1"

#: The daemon-side job trace filename inside a job directory.
DAEMON_TRACE = "trace-daemon.jsonl"

_ATTEMPT_TRACE = re.compile(r"^trace-(\d+)\.jsonl$")


class TraceSpan:
    """One span instance in a stitched trace."""

    __slots__ = (
        "name", "span_id", "parent_id", "trace_id", "seconds", "error",
        "fields", "source", "order", "children",
        "start", "effective", "self_seconds", "critical",
    )

    def __init__(
        self,
        name: str,
        span_id: str,
        parent_id: Optional[str],
        trace_id: Optional[str],
        source: str,
        order: int,
        fields: Optional[Dict[str, Any]] = None,
    ):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.trace_id = trace_id
        self.source = source
        self.order = order
        self.fields: Dict[str, Any] = dict(fields or {})
        self.seconds: Optional[float] = None  # None = never closed
        self.error: Optional[str] = None
        self.children: List["TraceSpan"] = []
        # layout results (filled by _layout)
        self.start = 0.0
        self.effective = 0.0
        self.self_seconds = 0.0
        self.critical = False

    @property
    def closed(self) -> bool:
        return self.seconds is not None


class StitchedTrace:
    """The result of stitching: roots, all spans in join order, and
    accounting of what the source files contained."""

    def __init__(self) -> None:
        self.roots: List[TraceSpan] = []
        self.spans: List[TraceSpan] = []
        self.sources: List[str] = []
        self.trace_id: Optional[str] = None
        #: span_start records dropped (no id, or a duplicate id).
        self.dropped = 0
        #: spans whose parent id never appeared (promoted to roots).
        self.orphans = 0

    # -- aggregates ----------------------------------------------------
    @property
    def span_count(self) -> int:
        return len(self.spans)

    @property
    def duration_seconds(self) -> float:
        return sum(root.effective for root in self.roots)

    def self_seconds_by_name(self) -> Dict[str, float]:
        """Total self time per span name (the ``span_self_seconds``
        Prometheus samples)."""
        totals: Dict[str, float] = {}
        for node in self.spans:
            totals[node.name] = totals.get(node.name, 0.0) + node.self_seconds
        return totals

    def find(self, name: str) -> List[TraceSpan]:
        return [node for node in self.spans if node.name == name]

    def walk(self) -> List[TraceSpan]:
        """Preorder traversal (roots in order, children before siblings)."""
        out: List[TraceSpan] = []

        def visit(node: TraceSpan) -> None:
            out.append(node)
            for child in node.children:
                visit(child)

        for root in self.roots:
            visit(root)
        return out


# ----------------------------------------------------------------------
# Reading and stitching
# ----------------------------------------------------------------------
def _span_events(path: str) -> List[Tuple[str, Dict[str, Any]]]:
    out = []
    for name, fields in _events.read_jsonl(path):
        if name in ("span_start", "span_end"):
            out.append((name, fields))
    return out


def stitch_files(paths: List[str]) -> StitchedTrace:
    """Join span events from ``paths`` (daemon trace first, then worker
    attempts in order) into one tree keyed purely on span ids.

    Files that cannot be read are skipped — a SIGKILLed attempt may have
    died before its sink wrote a single line.  ``span_start`` records
    without a ``span_id`` (pre-identity traces) are counted in
    ``dropped`` rather than guessed at.
    """
    trace = StitchedTrace()
    by_id: Dict[str, TraceSpan] = {}
    order = 0
    for path in paths:
        try:
            events = _span_events(path)
        except OSError:
            continue
        trace.sources.append(path)
        source = os.path.basename(path)
        for name, fields in events:
            span_id = fields.get("span_id")
            span_name = str(fields.get("span", "?"))
            if not isinstance(span_id, str) or not span_id:
                trace.dropped += 1
                continue
            if name == "span_start":
                if span_id in by_id:
                    trace.dropped += 1
                    continue
                parent_id = fields.get("parent_id")
                node = TraceSpan(
                    name=span_name,
                    span_id=span_id,
                    parent_id=parent_id if isinstance(parent_id, str) else None,
                    trace_id=(
                        fields["trace_id"]
                        if isinstance(fields.get("trace_id"), str)
                        else None
                    ),
                    source=source,
                    order=order,
                    fields={
                        k: v
                        for k, v in fields.items()
                        if k not in (
                            "span", "span_id", "parent_id", "trace_id", "depth"
                        )
                    },
                )
                order += 1
                by_id[span_id] = node
                trace.spans.append(node)
                if trace.trace_id is None and node.trace_id is not None:
                    trace.trace_id = node.trace_id
            else:  # span_end
                node = by_id.get(span_id)
                if node is None:
                    trace.dropped += 1
                    continue
                seconds = fields.get("seconds")
                if isinstance(seconds, (int, float)) and not isinstance(
                    seconds, bool
                ):
                    node.seconds = float(seconds)
                error = fields.get("error")
                if error is not None:
                    node.error = str(error)
    for node in trace.spans:
        parent = by_id.get(node.parent_id) if node.parent_id else None
        if parent is not None and parent is not node:
            parent.children.append(node)
        else:
            if node.parent_id:
                trace.orphans += 1
            trace.roots.append(node)
    for node in trace.spans:
        node.children.sort(key=lambda child: child.order)
    trace.roots.sort(key=lambda root: root.order)
    _layout(trace)
    return trace


def _layout(trace: StitchedTrace) -> None:
    """Fill effective/start/self/critical on every span (see module
    docstring for the conventions)."""

    def effective(node: TraceSpan) -> float:
        child_total = sum(effective(child) for child in node.children)
        if node.seconds is None:
            node.effective = child_total
        else:
            node.effective = float(node.seconds)
        node.self_seconds = max(0.0, node.effective - child_total)
        return node.effective

    def place(node: TraceSpan, start: float) -> None:
        node.start = start
        cursor = start
        for child in node.children:
            place(child, cursor)
            cursor += child.effective

    def mark_critical(node: TraceSpan) -> None:
        node.critical = True
        if not node.children:
            return
        best = node.children[0]
        for child in node.children[1:]:
            if child.effective > best.effective:
                best = child
        mark_critical(best)

    cursor = 0.0
    for root in trace.roots:
        effective(root)
        place(root, cursor)
        cursor += root.effective
    if trace.roots:
        dominant = trace.roots[0]
        for root in trace.roots[1:]:
            if root.effective > dominant.effective:
                dominant = root
        mark_critical(dominant)


# ----------------------------------------------------------------------
# Locating trace files
# ----------------------------------------------------------------------
def job_dir_trace_files(job_dir: str) -> List[str]:
    """The stitchable files of one job directory: the daemon trace (when
    present) followed by the per-attempt worker traces in attempt order."""
    files: List[str] = []
    daemon = os.path.join(job_dir, DAEMON_TRACE)
    if os.path.isfile(daemon):
        files.append(daemon)
    attempts: List[Tuple[int, str]] = []
    try:
        names = os.listdir(job_dir)
    except OSError:
        return files
    for name in names:
        match = _ATTEMPT_TRACE.match(name)
        if match:
            attempts.append((int(match.group(1)), os.path.join(job_dir, name)))
    files.extend(path for _n, path in sorted(attempts))
    return files


def run_trace_files(
    records: List[Dict[str, Any]], run_id: str, ledger_dir: str = "."
) -> List[str]:
    """Trace files of a ledger run's whole resume chain, oldest first.

    Each chain record contributes its ``artifacts.trace_out`` path,
    resolved as written or (for relative paths recorded from another
    working directory) relative to the ledger's own directory.  Raises
    ``ValueError`` for an unknown/ambiguous run id (from
    :func:`repro.obs.ledger.resume_chain`).
    """
    files: List[str] = []
    for record in _ledger.resume_chain(records, run_id):
        artifacts = record.get("artifacts")
        trace_out = (
            artifacts.get("trace_out") if isinstance(artifacts, dict) else None
        )
        if not isinstance(trace_out, str) or not trace_out:
            continue
        for candidate in (trace_out, os.path.join(ledger_dir, trace_out)):
            if os.path.isfile(candidate) and candidate not in files:
                files.append(candidate)
                break
    return files


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _fmt_seconds(node: TraceSpan) -> str:
    if node.seconds is None:
        return f"{node.effective:.3f}s?"  # unclosed: children's total
    return f"{node.effective:.3f}s"


def render_ascii(trace: StitchedTrace, bar_width: int = 32) -> str:
    """Byte-stable text waterfall: tree, durations, self time, bars.

    Everything printed derives from the trace files alone (no clocks,
    no paths beyond basenames), so two invocations over the same job
    render identical bytes — CI `cmp`s them.
    """
    if not trace.spans:
        return "(no spans found)"
    total = trace.duration_seconds
    header = (
        f"trace {trace.trace_id or '?'} · {len(trace.sources)} file(s) · "
        f"{trace.span_count} spans · {total:.3f}s"
    )
    lines = [header]
    if trace.dropped or trace.orphans:
        lines.append(
            f"({trace.dropped} unidentifiable span record(s) dropped, "
            f"{trace.orphans} orphan(s) promoted to roots)"
        )
    lines.append(
        f"{'span':<34} {'total':>9} {'self':>9}  waterfall"
        f"{'':<{max(0, bar_width - 9)}}critical"
    )

    def bar(node: TraceSpan) -> str:
        if total <= 0:
            return ""
        left = int(round(bar_width * node.start / total))
        width = max(1, int(round(bar_width * node.effective / total)))
        left = min(left, bar_width - 1)
        width = min(width, bar_width - left)
        return "·" * left + "#" * width + " " * (bar_width - left - width)

    def walk(node: TraceSpan, depth: int) -> None:
        label = "  " * depth + node.name
        if node.error:
            label += f" [{node.error}]"
        if not node.closed:
            label += " [unclosed]"
        lines.append(
            f"{label:<34} {_fmt_seconds(node):>9} "
            f"{node.self_seconds:>8.3f}s  {bar(node)}"
            + ("  *" if node.critical else "")
        )
        for child in node.children:
            walk(child, depth + 1)

    for root in trace.roots:
        walk(root, 0)
    lines.append(
        "(* = critical path: the dominant-cost descent; offsets are "
        "reconstructed from span order, durations are measured)"
    )
    return "\n".join(lines)


#: Extra stylesheet for the waterfall page/section, on top of BASE_CSS.
WATERFALL_CSS = """
.wf .bar.crit { background: #c44e52; }
.wf .lbl .t { opacity: .8; }
.trace-meta { color: #777; font-size: .85rem; margin: .3rem 0 .8rem; }
"""


def waterfall_section(trace: StitchedTrace, max_rows: int = 120) -> str:
    """An embeddable HTML fragment: the stitched waterfall (no <html>
    wrapper; style with BASE_CSS + WATERFALL_CSS)."""
    if not trace.spans:
        return '<p class="muted">no spans found</p>'
    total = trace.duration_seconds
    parts = [
        '<p class="trace-meta">'
        + escape(
            f"trace {trace.trace_id or '?'} · {len(trace.sources)} file(s) · "
            f"{trace.span_count} spans · {total:.3f}s · "
            "red = critical path (dominant-cost descent)"
        )
        + "</p>"
    ]
    nodes = trace.walk()
    shown = nodes
    if len(nodes) > max_rows:
        parts.append(
            f'<p class="muted">showing the {max_rows} longest of '
            f"{len(nodes)} spans</p>"
        )
        shown = sorted(nodes, key=lambda n: -n.effective)[:max_rows]
        shown.sort(key=lambda n: n.order)
    depth_of: Dict[str, int] = {}
    for node in nodes:
        parent_depth = depth_of.get(node.parent_id or "", -1)
        depth_of[node.span_id] = parent_depth + 1
    for node in shown:
        left = 100.0 * node.start / total if total else 0.0
        width = max(0.3, 100.0 * node.effective / total if total else 0.0)
        label = f"{node.name} — {_fmt_seconds(node)}"
        if node.error:
            label += f" [{node.error}]"
        if not node.closed:
            label += " [unclosed]"
        indent = depth_of.get(node.span_id, 0) * 0.6
        crit = " crit" if node.critical else ""
        parts.append(
            f'<div class="wf" style="margin-left:{indent:.1f}rem">'
            f'<div class="bar{crit}" '
            f'style="left:{left:.2f}%;width:{width:.2f}%"></div>'
            f'<div class="lbl" style="left:calc({left:.2f}% + .3rem)">'
            f"{escape(label)}</div></div>"
        )
    parts.append(
        '<p class="muted">durations are measured; horizontal offsets are '
        "reconstructed (spans carry no wall-clock timestamps so identical "
        "jobs render byte-identically).</p>"
    )
    return "\n".join(parts)


def waterfall_page(trace: StitchedTrace, title: str) -> str:
    """A standalone, dependency-free HTML page around the waterfall."""
    return page(title, waterfall_section(trace), WATERFALL_CSS)


# ----------------------------------------------------------------------
# Structured exports
# ----------------------------------------------------------------------
def _node_dict(node: TraceSpan) -> Dict[str, Any]:
    out: Dict[str, Any] = {
        "span": node.name,
        "span_id": node.span_id,
        "parent_id": node.parent_id,
        "seconds": node.seconds,
        "self_seconds": round(node.self_seconds, 9),
        "start": round(node.start, 9),
        "critical": node.critical,
        "source": node.source,
    }
    if node.error:
        out["error"] = node.error
    if not node.closed:
        out["unclosed"] = True
    out["children"] = [_node_dict(child) for child in node.children]
    return out


def trace_as_dict(trace: StitchedTrace) -> Dict[str, Any]:
    """The ``/jobs/<id>/trace`` payload: tree plus accounting."""
    return {
        "trace_id": trace.trace_id,
        "sources": [os.path.basename(path) for path in trace.sources],
        "spans": trace.span_count,
        "duration_seconds": round(trace.duration_seconds, 9),
        "dropped": trace.dropped,
        "orphans": trace.orphans,
        "tree": [_node_dict(root) for root in trace.roots],
    }


def stitched_jsonl_lines(trace: StitchedTrace) -> List[str]:
    """Flat JSONL export: a header line, then one line per span in
    preorder — the CI artifact format (``repro-stitched-trace/1``)."""
    header = {
        "format": STITCHED_FORMAT,
        "trace_id": trace.trace_id,
        "sources": [os.path.basename(path) for path in trace.sources],
        "spans": trace.span_count,
        "duration_seconds": round(trace.duration_seconds, 9),
    }
    lines = [json.dumps(header, sort_keys=True, separators=(",", ":"))]
    for node in trace.walk():
        record = {
            key: value
            for key, value in _node_dict(node).items()
            if key != "children"
        }
        lines.append(json.dumps(record, sort_keys=True, separators=(",", ":")))
    return lines


# ----------------------------------------------------------------------
# The ``repro trace show`` command body
# ----------------------------------------------------------------------
def run_trace_show(
    target: str,
    html_out: Optional[str] = None,
    jsonl_out: Optional[str] = None,
    as_json: bool = False,
    ledger_path: Optional[str] = None,
) -> int:
    """Resolve ``target`` (job dir, single trace file, or ledger run
    id), stitch, and render.  Exit 2 on an unknown target or a target
    with no stitchable spans; stdout output is byte-stable."""
    from repro.fsutil import ensure_parent

    if os.path.isdir(target):
        files = job_dir_trace_files(target)
        title = f"trace — {os.path.basename(os.path.normpath(target))}"
        if not files:
            print(
                f"trace show: no trace files in {target} "
                f"(expected {DAEMON_TRACE} / trace-N.jsonl)",
                file=sys.stderr,
            )
            return 2
    elif os.path.isfile(target):
        files = [target]
        title = f"trace — {os.path.basename(target)}"
    else:
        path = ledger_path or _ledger.default_ledger_path()
        records, _skipped = _ledger.read_ledger(path)
        try:
            files = run_trace_files(
                records, target, ledger_dir=os.path.dirname(path) or "."
            )
        except ValueError as error:
            print(f"trace show: {error}", file=sys.stderr)
            return 2
        title = f"trace — run {target}"
        if not files:
            print(
                f"trace show: run {target!r} recorded no --trace-out "
                "artifacts to stitch",
                file=sys.stderr,
            )
            return 2
    trace = stitch_files(files)
    if not trace.spans:
        print(
            f"trace show: no spans in {', '.join(files)} (traces predate "
            "span identity?)",
            file=sys.stderr,
        )
        return 2
    if as_json:
        print(json.dumps(trace_as_dict(trace), indent=2, sort_keys=True))
    else:
        print(render_ascii(trace))
    try:
        if html_out:
            with open(ensure_parent(html_out), "w", encoding="utf-8") as handle:
                handle.write(waterfall_page(trace, title))
            print(f"wrote HTML waterfall to {html_out}", file=sys.stderr)
        if jsonl_out:
            with open(ensure_parent(jsonl_out), "w", encoding="utf-8") as handle:
                handle.write("\n".join(stitched_jsonl_lines(trace)) + "\n")
            print(f"wrote stitched trace to {jsonl_out}", file=sys.stderr)
    except OSError as error:
        print(f"trace show: cannot write output: {error}", file=sys.stderr)
        return 2
    return 0
