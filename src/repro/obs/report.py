"""Self-contained HTML run reports from a metrics registry + profiler.

``render_html`` turns the digest data (a :class:`MetricsRegistry` and a
:class:`~repro.obs.profile.Profiler`, both fed from the same event
stream) into one dependency-free HTML file: inline CSS, no scripts, no
external fetches — safe to attach to a CI run or mail around.  Exposed
on the CLI as ``repro stats TRACE --html out.html``.

Sections: verdict summary, exploration coverage, state-audit headroom
(when the trace carries an ``audit_summary`` event), span waterfall,
top-N step tables, bucketed distributions (schedule depth, run steps,
frontier branching), and the replay-overhead account.
:func:`render_audit_html` additionally renders the standalone
``repro audit --html`` report straight from a
:class:`~repro.obs.audit.StateAuditor`.

The waterfall has no wall-clock timestamps to draw from (events are
deliberately unstamped so identical runs produce identical traces);
spans are placed at *reconstructed* offsets — each child starts where
its previous sibling ended, at the parent's start for the first child.
Gaps (parent self-time) therefore accumulate at the right edge of each
parent bar; durations are exact, offsets are the deterministic
approximation.
"""

from __future__ import annotations

from html import escape
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.metrics import BUCKET_BOUNDS, Histogram, MetricsRegistry
from repro.obs.profile import Profiler, SpanNode

#: The stylesheet every page in the toolchain starts from (see
#: :func:`page`), so they all share one visual language.
BASE_CSS = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2rem auto; max-width: 60rem; color: #1a1a2e; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 2rem;
     border-bottom: 1px solid #ddd; padding-bottom: .3rem; }
table { border-collapse: collapse; margin: .5rem 0; }
th, td { text-align: left; padding: .2rem .8rem .2rem 0;
         font-variant-numeric: tabular-nums; }
th { border-bottom: 1px solid #bbb; font-weight: 600; }
td.num, th.num { text-align: right; }
.muted { color: #777; font-size: .85rem; }
.wf { position: relative; height: 1.25rem; margin: 1px 0; }
.wf .bar { position: absolute; top: 0; bottom: 0; background: #4c72b0;
           border-radius: 2px; opacity: .85; }
.wf .lbl { position: absolute; left: .3rem; top: 0; line-height: 1.25rem;
           font-size: .75rem; color: #fff; white-space: nowrap;
           text-shadow: 0 0 2px rgba(0,0,0,.5); }
.hist .row { display: flex; align-items: center; gap: .5rem;
             font-size: .8rem; }
.hist .bound { width: 7rem; text-align: right;
               font-variant-numeric: tabular-nums; }
.hist .bar { background: #55a868; height: .7rem; border-radius: 2px; }
.hist .n { color: #777; }
.ok { color: #2e7d32; } .bad { color: #c62828; font-weight: 600; }
"""


def page(title: str, body: str, css: str = "") -> str:
    """The HTML page shell every page uses: a self-contained document
    titled and headed ``title`` around ``body``, styled by
    :data:`BASE_CSS` plus the page's own ``css``."""
    return (
        "<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">"
        f"<title>{escape(title)}</title>"
        f"<style>{BASE_CSS}{css}</style></head>\n<body>\n"
        f"<h1>{escape(title)}</h1>\n{body}\n</body></html>\n"
    )


def _fmt(value: float) -> str:
    return format(value, ".6g")


# ----------------------------------------------------------------------
# Section builders (each returns a list of HTML lines)
# ----------------------------------------------------------------------
def _summary_section(registry: MetricsRegistry, profiler: Profiler) -> List[str]:
    if registry.is_empty() and not profiler.steps_total:
        return []
    rows: List[Tuple[str, str, str]] = []  # (label, value, css class)
    steps = registry.counter_total("steps_total")
    rows.append(("simulator steps", f"{steps:,}", ""))
    if profiler.steps_on_path:
        rows.append(
            (
                "replay overhead",
                f"{profiler.steps_replayed:,} replayed / "
                f"{profiler.steps_on_path:,} on-path "
                f"({profiler.replay_overhead():.2f}x)",
                "",
            )
        )
    for name in ("decisions_total", "schedules_explored", "schedules_truncated",
                 "states_visited", "valency_executions", "faults_injected",
                 "checkpoints_written_total", "explorations_interrupted"):
        total = registry.counter_total(name)
        if total:
            rows.append((name.replace("_", " "), f"{total:,}", ""))
    for verdict, count in sorted(
        registry.sum_by_label("runs_by_verdict", "verdict").items()
    ):
        css = "ok" if str(verdict) == "ok" else "bad"
        rows.append((f"runs with verdict “{verdict}”", f"{count:,}", css))
    for kind, count in sorted(
        registry.sum_by_label("budget_exhausted_total", "kind").items()
    ):
        rows.append((f"budget exhausted ({kind})", f"{count:,}", "bad"))
    out = ["<h2>Run summary</h2>", "<table>"]
    for label, value, css in rows:
        cls = f' class="{css}"' if css else ""
        out.append(
            f"<tr><td>{escape(label)}</td>"
            f"<td class=\"num\"><span{cls}>{escape(value)}</span></td></tr>"
        )
    out.append("</table>")
    return out


def _coverage_section(registry: MetricsRegistry) -> List[str]:
    """Exploration coverage/ETA as last seen by ``explore_heartbeat``.

    Replayed traces reconstruct the same gauges the live run served, so
    the report of an interrupted run shows how far it believed it was.
    """
    gauges = registry.snapshot()["gauges"]
    if "explore_executions" not in gauges:
        return []
    rows: List[Tuple[str, str]] = [
        ("executions enumerated", f"{gauges['explore_executions']:,}"),
        ("pending frontier prefixes", f"{gauges.get('explore_frontier', 0):,}"),
    ]
    if "explore_rate" in gauges:
        rows.append(("execution rate (EWMA)", f"{gauges['explore_rate']:,.1f}/s"))
    if "explore_remaining_estimate" in gauges:
        rows.append(
            ("estimated remaining", f"{gauges['explore_remaining_estimate']:,.0f}")
        )
    if "explore_coverage" in gauges:
        rows.append(("estimated coverage", f"{gauges['explore_coverage']:.1%}"))
    if "explore_eta_seconds" in gauges:
        rows.append(("ETA at last heartbeat", f"{gauges['explore_eta_seconds']:,.1f}s"))
    out = ["<h2>Exploration coverage</h2>", "<table>"]
    for label, value in rows:
        out.append(
            f"<tr><td>{escape(label)}</td>"
            f'<td class="num">{escape(value)}</td></tr>'
        )
    out.append("</table>")
    out.append(
        '<p class="muted">frontier-weighted estimates from the last '
        "explore_heartbeat — heuristic, not a bound.</p>"
    )
    return out


def _audit_section(registry: MetricsRegistry) -> List[str]:
    """State-space audit headroom as carried by ``audit_*`` gauges.

    Present in replayed traces whenever the run emitted an
    ``audit_summary`` event (``repro audit``, or any exploration with an
    attached :class:`~repro.obs.audit.StateAuditor`).
    """
    gauges = registry.snapshot()["gauges"]
    if "audit_configurations" not in gauges:
        return []
    rows: List[Tuple[str, str]] = [
        ("configurations visited", f"{gauges['audit_configurations']:,}"),
        ("distinct states", f"{gauges.get('audit_distinct_states', 0):,}"),
        (
            "revisit ratio (state-cache headroom)",
            f"{gauges.get('audit_revisit_ratio', 0.0):.1%}",
        ),
        ("distinct orbits", f"{gauges.get('audit_distinct_orbits', 0):,}"),
        (
            "orbit savings (symmetry headroom)",
            f"{gauges.get('audit_orbit_savings', 0.0):.1%}",
        ),
        ("adjacent pairs classified", f"{gauges.get('audit_pairs_checked', 0):,}"),
        (
            "commuting fraction (DPOR headroom)",
            f"{gauges.get('audit_commuting_fraction', 0.0):.1%}",
        ),
    ]
    out = ["<h2>State-space audit</h2>", "<table>"]
    for label, value in rows:
        out.append(
            f"<tr><td>{escape(label)}</td>"
            f'<td class="num">{escape(value)}</td></tr>'
        )
    out.append("</table>")
    out.append(
        '<p class="muted">redundancy a state cache / DPOR / pid-symmetry '
        "quotient would eliminate — estimators, not sound reductions "
        "(see docs/OBSERVABILITY.md, “State-space audit”).</p>"
    )
    return out


def render_audit_html(auditor: Any, title: str = "repro state-space audit") -> str:
    """Standalone audit report (``repro audit --html``): the headroom
    table plus the per-depth revisit histogram, deterministic bytes."""
    summary = auditor.summary()
    rows: List[Tuple[str, str]] = [
        ("executions", f"{summary['executions']:,}"),
        ("configurations visited", f"{summary['configurations']:,}"),
        ("distinct states", f"{summary['distinct_states']:,}"),
        ("revisit ratio (state-cache headroom)", f"{summary['revisit_ratio']:.1%}"),
        ("distinct orbits", f"{summary['distinct_orbits']:,}"),
        ("orbit savings (symmetry headroom)", f"{summary['orbit_savings']:.1%}"),
        (
            "adjacent pairs classified",
            f"{summary['pairs_checked']:,}"
            + (" (sampling capped)" if summary.get("pairs_truncated") else ""),
        ),
        (
            "commuting fraction (DPOR headroom)",
            f"{summary['commuting_fraction']:.1%}",
        ),
    ]
    body: List[str] = ["<h2>Reduction headroom</h2>", "<table>"]
    for label, value in rows:
        body.append(
            f"<tr><td>{escape(label)}</td>"
            f'<td class="num">{escape(value)}</td></tr>'
        )
    body.append("</table>")
    depth_rows = auditor.depth_rows()
    if depth_rows:
        body.append("<h2>Revisit ratio by depth</h2>")
        body.append("<table>")
        body.append(
            '<tr><th class="num">depth</th><th class="num">visits</th>'
            '<th class="num">revisits</th><th class="num">ratio</th></tr>'
        )
        for depth, visits, revisits, ratio in depth_rows:
            body.append(
                f'<tr><td class="num">{depth}</td>'
                f'<td class="num">{visits:,}</td>'
                f'<td class="num">{revisits:,}</td>'
                f'<td class="num">{ratio:.1%}</td></tr>'
            )
        body.append("</table>")
    body.append(
        '<p class="muted">estimators for the ROADMAP hot-loop reductions '
        "(state cache / DPOR / pid symmetry) — see docs/OBSERVABILITY.md, "
        "“State-space audit”.</p>"
    )
    return page(title, "\n".join(body))


def _waterfall_section(profiler: Profiler, max_rows: int = 60) -> List[str]:
    intervals: List[Tuple[str, int, float, float]] = []  # name, depth, start, dur

    def walk(node: SpanNode, start: float, depth: int) -> None:
        for child in node.children:
            seconds = child.seconds or 0.0
            intervals.append((child.name, depth, start, seconds))
            walk(child, start, depth + 1)
            start += seconds

    walk(profiler.root, 0.0, 0)
    if not intervals:
        return []
    total = sum(seconds for _, depth, _, seconds in intervals if depth == 0)
    out = ["<h2>Span waterfall</h2>"]
    if len(intervals) > max_rows:
        out.append(
            f'<p class="muted">showing the {max_rows} longest of '
            f"{len(intervals)} spans</p>"
        )
        intervals = sorted(intervals, key=lambda iv: -iv[3])[:max_rows]
        intervals.sort(key=lambda iv: (iv[2], iv[1]))
    for name, depth, start, seconds in intervals:
        left = 100.0 * start / total if total else 0.0
        width = max(0.3, 100.0 * seconds / total if total else 0.0)
        label = escape(f"{name} — {_fmt(seconds)}s")
        indent = depth * 0.6
        out.append(
            f'<div class="wf" style="margin-left:{indent:.1f}rem">'
            f'<div class="bar" style="left:{left:.2f}%;width:{width:.2f}%"></div>'
            f'<div class="lbl" style="left:calc({left:.2f}% + .3rem)">{label}</div>'
            f"</div>"
        )
    out.append(
        '<p class="muted">durations are measured; horizontal offsets are '
        "reconstructed (spans carry no wall-clock timestamps so identical "
        "runs stay byte-identical).</p>"
    )
    return out


def _steps_tables_section(registry: MetricsRegistry, top_n: int = 20) -> List[str]:
    by_call: Dict[Tuple[str, str], int] = {}
    for labels, value in registry.counters_named("steps_total").items():
        label_map = dict(labels)
        key = (str(label_map.get("object")), str(label_map.get("method")))
        by_call[key] = by_call.get(key, 0) + value
    if not by_call:
        return []
    total = sum(by_call.values())
    out = [f"<h2>Top {min(top_n, len(by_call))} step sites</h2>", "<table>",
           '<tr><th>object.method</th><th class="num">steps</th>'
           '<th class="num">share</th></tr>']
    ranked = sorted(by_call.items(), key=lambda item: (-item[1], item[0]))[:top_n]
    for (obj, method), count in ranked:
        share = 100.0 * count / total if total else 0.0
        out.append(
            f"<tr><td>{escape(obj)}.{escape(method)}</td>"
            f'<td class="num">{count:,}</td>'
            f'<td class="num">{share:.1f}%</td></tr>'
        )
    out.append("</table>")
    by_pid = registry.sum_by_label("steps_total", "pid")
    if by_pid:
        out.append("<table>")
        out.append('<tr><th>process</th><th class="num">steps</th></tr>')
        for pid, count in sorted(by_pid.items(), key=lambda item: str(item[0])):
            out.append(
                f"<tr><td>p{escape(str(pid))}</td>"
                f'<td class="num">{count:,}</td></tr>'
            )
        out.append("</table>")
    return out


def _histogram_rows(histogram: Histogram) -> List[str]:
    populated = [
        (index, count) for index, count in enumerate(histogram.buckets) if count
    ]
    if not populated:
        return []
    biggest = max(count for _, count in populated)
    out = ['<div class="hist">']
    for index, count in populated:
        bound = (
            f"≤ {_fmt(BUCKET_BOUNDS[index])}"
            if index < len(BUCKET_BOUNDS)
            else f"> {_fmt(BUCKET_BOUNDS[-1])}"
        )
        width = max(2.0, 60.0 * count / biggest)
        out.append(
            f'<div class="row"><span class="bound">{bound}</span>'
            f'<span class="bar" style="width:{width:.1f}%"></span>'
            f'<span class="n">{count:,}</span></div>'
        )
    out.append("</div>")
    out.append(
        f'<p class="muted">n={histogram.count:,}, min {_fmt(histogram.minimum or 0)}, '
        f"p50 {_fmt(histogram.p50)}, p90 {_fmt(histogram.p90)}, "
        f"p99 {_fmt(histogram.p99)}, max {_fmt(histogram.maximum or 0)}</p>"
    )
    return out


def _distributions_section(registry: MetricsRegistry) -> List[str]:
    out: List[str] = []
    for name, title in (
        ("schedule_depth", "Schedule depth"),
        ("run_steps", "Steps per run"),
        ("frontier_branches", "Frontier branching factor"),
        ("witness_shrink_steps", "Witness shrink (decisions removed)"),
        ("witness_min_length", "Shrunk witness length"),
    ):
        histogram = registry.get_histogram(name)
        if histogram is None or not histogram.count:
            continue
        out.append(f"<h2>{escape(title)}</h2>")
        out.extend(_histogram_rows(histogram))
    return out


def _witness_section(witnesses: List[Dict[str, Any]]) -> List[str]:
    """Captured witness bundles, with embedded lane views where the
    bundle is still readable on this machine.

    ``witnesses`` entries are ``witness_captured`` event fields (path/
    kind/source/steps).  The lane table is rebuilt from each bundle's
    archived step table — no replay, so the section renders even when
    the spec that produced the witness is unavailable.
    """
    if not witnesses:
        return []
    out = ["<h2>Witnesses</h2>", "<table>",
           '<tr><th>bundle</th><th>kind</th><th>source</th>'
           '<th class="num">steps</th></tr>']
    for entry in witnesses:
        path = str(entry.get("path", "?"))
        out.append(
            f"<tr><td>{escape(path)}</td>"
            f"<td>{escape(str(entry.get('kind', '?')))}</td>"
            f"<td>{escape(str(entry.get('source', '?')))}</td>"
            f'<td class="num">{escape(str(entry.get("steps", "?")))}</td></tr>'
        )
    out.append("</table>")
    out.append(
        '<p class="muted">replay, shrink, and narrate any bundle with '
        "<code>repro explain &lt;bundle&gt;</code>.</p>"
    )
    from repro.obs import explain as _explain
    from repro.obs import witness as _witness

    for entry in witnesses:
        path = str(entry.get("path", ""))
        try:
            records, _skipped = _witness.read_witness(path)
        except OSError:
            continue
        for record in records:
            view = _explain.view_from_record(record)
            label = record.get("label") or record.get("kind", "witness")
            out.append(f"<h3>{escape(str(label))}</h3>")
            out.append(_explain.lanes_html(view))
    return out


def render_html(
    registry: MetricsRegistry,
    profiler: Profiler,
    title: str = "repro run report",
    sources: Optional[List[str]] = None,
    events: int = 0,
    skipped: int = 0,
    witnesses: Optional[List[Dict[str, Any]]] = None,
) -> str:
    """Render the full report; returns a complete HTML document.

    ``witnesses`` — ``witness_captured`` event fields collected from the
    trace (the CLI's ``stats`` command gathers them during replay); each
    gets a row in the witness table and, when its bundle file is still
    readable, an embedded HTML lane view.
    """
    body: List[str] = []
    meta_bits: List[str] = []
    if sources:
        meta_bits.append("trace: " + ", ".join(sources))
    if events:
        meta_bits.append(f"{events:,} events")
    if skipped:
        meta_bits.append(f"{skipped:,} corrupt lines skipped")
    if meta_bits:
        body.append(f'<p class="muted">{escape(" · ".join(meta_bits))}</p>')
    body.extend(_summary_section(registry, profiler))
    body.extend(_coverage_section(registry))
    body.extend(_audit_section(registry))
    body.extend(_waterfall_section(profiler))
    body.extend(_steps_tables_section(registry))
    body.extend(_distributions_section(registry))
    body.extend(_witness_section(list(witnesses or [])))
    css = ""
    if witnesses:
        # Lane-view styling ships with the explainer; pulled in lazily so
        # importing this module never drags in the runtime layer.
        from repro.obs.explain import LANES_CSS

        css = LANES_CSS
    if len(body) <= 1:
        body.append("<p>(no metrics recorded)</p>")
    return page(title, "\n".join(body), css)
