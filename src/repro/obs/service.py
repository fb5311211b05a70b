"""``repro serve``: the standing multi-run verdict service.

Where ``--serve`` (:mod:`repro.obs.live`) is a telemetry sidecar that
dies with its one run, ``repro serve`` is a daemon: it *owns* runs.
Exploration jobs arrive over HTTP, execute in supervised subprocess
workers (:mod:`repro.obs.jobs`), survive worker crashes via automatic
checkpoint resume, and leave their ledger records, witness bundles and
traces under one ``--data-dir`` that the read side serves back out.

Endpoints
---------
``GET /``
    Self-contained HTML dashboard: job table (state, verdict, attempts,
    progress), recent ledger rows with their execution-set digests,
    witness index.  Plain refreshable HTML — no JavaScript framework,
    same stylesheet as ``repro report``.
``POST /jobs``
    Submit a job.  Body: JSON object with ``task`` (an explore task
    name), ``n``, ``k``, ``max_crashes``, ``max_depth``, ``deadline``,
    ``max_steps``, ``checkpoint_every``, ``seed`` (recorded provenance
    for future randomized schedulers), ``label``.  Returns 201 with the
    job snapshot, 400 on a bad spec, 503 while draining.
``GET /jobs`` / ``GET /jobs/<id>``
    Queue listing / one job's full status: state, attempts, resume
    chain (``run_ids``), exit codes, and the worker's latest
    ``explore_heartbeat`` (executions, rate, coverage, ETA) tailed from
    its trace file.
``GET /jobs/<id>/events``
    The worker's JSONL trace as Server-Sent Events (``text/event-stream``;
    one ``data:`` line per bus event).  ``?follow=0`` dumps what exists
    and closes (CI-friendly); the default follows until the job reaches
    a final state.
``GET /jobs/<id>/trace``
    The job's stitched causal trace (daemon spans + every worker
    attempt, joined on span ids by :mod:`repro.obs.trace_view`).
    JSON tree by default; ``?format=html`` renders the waterfall page,
    ``?format=text`` the byte-stable ASCII waterfall ``repro trace
    show`` prints.
``GET /metrics``
    Daemon-wide Prometheus text: uptime, jobs per state, per-job
    executions/rate gauges, ledger verdict tallies, witness count, and
    ``repro_execset_*`` gauges (streams, records, digest labels) peeked
    from each job's newest execution-set file.
``GET /runs`` / ``GET /runs/<id>``
    The daemon's ledger as JSON; ``?verdict=PROVED`` filters (same
    vocabulary as ``repro runs list --verdict``).
``GET /witnesses`` / ``/witnesses/<id>`` / ``/witnesses/<id>/lane``
    Witness index, raw ``repro-witness/1`` bundle, and the HTML lane
    view rendered by :mod:`repro.obs.explain`.

Handlers run on daemon threads and only ever read snapshots or files —
never a lock a worker holds — so a slow dashboard cannot stall an
exploration (the same guarantee ``--serve`` makes, scaled up).

The daemon runs on the sidecar's :class:`~repro.obs.live.HTTPSession`
and :class:`~repro.obs.live.SnapshotHandler`; what it adds is its route
set (:class:`ServiceHandler`) and draining the job manager before the
server shuts down.  The SSE stream reads the worker traces through the
same :class:`~repro.obs.jobs.TraceCursor` that feeds job progress.
"""

from __future__ import annotations

import json
import os
import time
from html import escape
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.obs import execset as _execset
from repro.obs import explain as _explain
from repro.obs import ledger as _ledger
from repro.obs import trace_view as _trace_view
from repro.obs import witness as _witness
from repro.obs.jobs import FINAL_STATES, JobManager, TraceCursor
from repro.obs.live import (
    EventRing,
    HTTPSession,
    SnapshotHandler,
    parse_tail_count,
)
from repro.obs.report import page

#: How long a followed SSE stream sleeps between trace polls.
SSE_POLL_INTERVAL = 0.25
#: A followed SSE stream gives up after this long without the job
#: finishing (belt and braces against orphaned client connections).
SSE_MAX_FOLLOW = 3600.0


def _witness_path(witness_dir: str, witness_id: str) -> Optional[str]:
    """Resolve ``/witnesses/<id>`` to a file, refusing path escapes.

    The id must be a plain bundle filename (with or without the
    ``.jsonl`` suffix) living directly in the witness directory —
    separators, ``..`` and symlinked escapes all resolve to ``None``.
    """
    name = witness_id if witness_id.endswith(".jsonl") else witness_id + ".jsonl"
    if os.path.basename(name) != name or name.startswith("."):
        return None
    path = os.path.join(witness_dir, name)
    base = os.path.realpath(witness_dir)
    if os.path.commonpath([os.path.realpath(path), base]) != base:
        return None
    return path if os.path.isfile(path) else None


def _list_witnesses(witness_dir: str) -> List[Dict[str, Any]]:
    entries = []
    try:
        names = sorted(os.listdir(witness_dir))
    except OSError:
        return []
    for name in names:
        if not name.endswith(".jsonl"):
            continue
        path = os.path.join(witness_dir, name)
        try:
            size = os.path.getsize(path)
        except OSError:
            continue
        entries.append({"id": name[: -len(".jsonl")], "bytes": size})
    return entries


def _job_execset_footers(manager: JobManager) -> List[Tuple[str, Dict[str, Any]]]:
    """``(job_id, footer)`` for each job's newest execution-set stream.

    Peeks footers (:func:`repro.obs.execset.peek_footer`) rather than
    parsing whole files — a dashboard refresh must stay cheap even when
    jobs explored millions of executions.  Jobs whose workers predate
    the execset format, or whose stream is still mid-write (no footer
    yet), are simply absent.
    """
    out: List[Tuple[str, Dict[str, Any]]] = []
    for job in manager.list_jobs():
        attempts = int(job.get("attempts", 0) or 0)
        for attempt in range(attempts, 0, -1):
            path = os.path.join(
                manager.jobs_dir, job["id"], f"execset-{attempt}.jsonl"
            )
            footer = _execset.peek_footer(path)
            if footer is not None:
                out.append((job["id"], footer))
                break
    return out


def render_service_metrics(manager: JobManager, ring: EventRing) -> str:
    """Daemon-wide Prometheus text exposition.

    Hand-rendered rather than going through the process-global
    :class:`MetricsRegistry`: the work happens in *subprocesses*, so the
    daemon aggregates from its own job table and ledger instead of
    in-process counters.
    """
    lines: List[str] = []

    def gauge(name: str, help_text: str, samples: List[Tuple[str, Any]]) -> None:
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} gauge")
        for labels, value in samples:
            lines.append(f"{name}{labels} {value}")

    gauge(
        "repro_service_uptime_seconds",
        "Seconds since the daemon started.",
        [("", round(time.time() - manager.started_at, 3))],
    )
    states, job_verdicts = manager.counts()
    gauge(
        "repro_service_jobs",
        "Jobs per lifecycle state.",
        [(f'{{state="{state}"}}', count) for state, count in sorted(states.items())],
    )
    if job_verdicts:
        gauge(
            "repro_service_job_verdicts",
            "Finished jobs per verdict.",
            [
                (f'{{verdict="{verdict}"}}', count)
                for verdict, count in sorted(job_verdicts.items())
            ],
        )
    executions: List[Tuple[str, Any]] = []
    rates: List[Tuple[str, Any]] = []
    for job in manager.list_jobs():
        snap = manager.job_snapshot(job["id"]) or {}
        explore = snap.get("explore") or {}
        if "executions" in explore:
            executions.append(
                (f'{{job="{job["id"]}"}}', explore["executions"])
            )
        if "rate" in explore:
            rates.append((f'{{job="{job["id"]}"}}', explore["rate"]))
    if executions:
        gauge(
            "repro_service_job_executions",
            "Maximal executions explored, per job (latest heartbeat).",
            executions,
        )
    if rates:
        gauge(
            "repro_service_job_rate",
            "Executions per second, per job (latest heartbeat).",
            rates,
        )
    records, skipped = manager.read_ledger()
    tallies: Dict[str, int] = {}
    for record in records:
        verdict = str(record.get("verdict", "error"))
        tallies[verdict] = tallies.get(verdict, 0) + 1
    gauge(
        "repro_service_runs_total",
        "Ledger records per verdict (every worker attempt that finished).",
        [
            (f'{{verdict="{verdict}"}}', count)
            for verdict, count in sorted(tallies.items())
        ]
        or [('{verdict="proved"}', 0)],
    )
    gauge(
        "repro_service_ledger_corrupt_lines",
        "Ledger lines skipped as corrupt.",
        [("", skipped)],
    )
    gauge(
        "repro_service_witnesses",
        "Witness bundles archived under the data dir.",
        [("", len(_list_witnesses(manager.witness_dir)))],
    )
    execsets = _job_execset_footers(manager)
    gauge(
        "repro_execset_streams",
        "Jobs with a completed execution-set digest stream.",
        [("", len(execsets))],
    )
    if execsets:
        record_samples: List[Tuple[str, Any]] = []
        digest_samples: List[Tuple[str, Any]] = []
        for job_id, footer in execsets:
            total = footer.get("total_records", footer.get("records", 0))
            record_samples.append((f'{{job="{job_id}"}}', total))
            digest = _execset.short_digest(
                footer.get("merged_digest") or footer.get("digest")
            )
            digest_samples.append(
                (f'{{job="{job_id}",digest="{digest}"}}', 1)
            )
        gauge(
            "repro_execset_records",
            "Distinct executions in the job's newest execset stream "
            "(including any resumed-from base).",
            record_samples,
        )
        gauge(
            "repro_execset_digest_info",
            "Execution-set digest per job; the digest is the label, the "
            "value is always 1.",
            digest_samples,
        )
    span_total, span_self = manager.trace_totals()
    gauge(
        "repro_service_trace_spans_total",
        "Spans in the stitched causal traces of finished jobs.",
        [("", span_total)],
    )
    if span_self:
        gauge(
            "repro_service_span_self_seconds",
            "Self time (excluding children) per span name, summed over "
            "finished jobs' stitched traces.",
            [
                (f'{{span="{name}"}}', round(seconds, 6))
                for name, seconds in sorted(span_self.items())
            ],
        )
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Dashboard
# ----------------------------------------------------------------------
_DASH_CSS = (
    _trace_view.WATERFALL_CSS
    + """
.state-queued { color: #777; } .state-running { color: #1565c0; }
.state-done { color: #2e7d32; } .state-error { color: #c62828; }
.state-interrupted { color: #e65100; }
code { background: #f4f4f6; padding: .05rem .3rem; border-radius: 3px; }
"""
)


def _job_row(snap: Dict[str, Any]) -> str:
    spec = snap.get("spec", {})
    describe = "{task}(n={n}, k={k}, f={f})".format(
        task=spec.get("task", "?"),
        n=spec.get("n", "?"),
        k=spec.get("k", "?"),
        f=spec.get("max_crashes", 0),
    )
    # .get() keeps job records from before the crash-recovery model
    # rendering; the budget shows only when a job actually set it.
    if spec.get("max_recoveries"):
        describe = describe[:-1] + f", r={spec['max_recoveries']})"
    explore = snap.get("explore") or {}
    progress = ""
    if "executions" in explore:
        progress = f"{explore['executions']} execs"
        if "rate" in explore:
            progress += f" @ {explore['rate']:.0f}/s"
        if "coverage" in explore:
            progress += f", {100 * explore['coverage']:.0f}%"
    state = escape(str(snap.get("state", "?")))
    verdict = escape(str(snap.get("verdict", "")))
    return (
        "<tr>"
        f"<td><a href=\"/jobs/{escape(snap['id'])}\">{escape(snap['id'])}</a></td>"
        f"<td>{escape(describe)}</td>"
        f"<td class=\"state-{state}\">{state}</td>"
        f"<td>{verdict or '—'}</td>"
        f"<td class=\"num\">{snap.get('attempts', 0)}</td>"
        f"<td>{escape(progress) or '—'}</td>"
        f"<td><a href=\"/jobs/{escape(snap['id'])}/trace?format=html\">trace</a></td>"
        "</tr>"
    )


def render_dashboard(manager: JobManager, ring: EventRing) -> str:
    """The ``GET /`` page: jobs, recent runs, witnesses — one HTML file."""
    jobs = [manager.job_snapshot(j["id"]) or j for j in manager.list_jobs()]
    records, skipped = manager.read_ledger()
    witnesses = _list_witnesses(manager.witness_dir)
    states, _ = manager.counts()
    parts: List[str] = [
        '<p class="muted">'
        + escape(
            ", ".join(f"{count} {state}" for state, count in sorted(states.items()) if count)
            or "no jobs yet"
        )
        + " · <code>POST /jobs</code> to submit · "
        '<a href="/metrics">metrics</a> · <a href="/runs">runs</a></p>',
        "<h2>Jobs</h2>",
    ]
    if jobs:
        parts.append(
            "<table><tr><th>job</th><th>instance</th><th>state</th>"
            "<th>verdict</th><th class=\"num\">attempts</th><th>progress</th>"
            "<th>trace</th></tr>"
        )
        parts.extend(_job_row(snap) for snap in jobs)
        parts.append("</table>")
    else:
        parts.append('<p class="muted">none — submit one:</p>')
        parts.append(
            "<pre><code>curl -X POST localhost:PORT/jobs -d "
            "'{\"task\": \"consensus\", \"n\": 2, \"k\": 1}'</code></pre>"
        )
    # Waterfall of the most recently finished job: the causal timeline
    # (queue wait → attempts → resume gaps → worker phases) at a glance.
    finished = [j for j in jobs if j.get("state") in FINAL_STATES]
    if finished:
        latest = max(finished, key=lambda j: str(j.get("finished_at") or ""))
        trace = manager.stitched_trace(latest["id"])
        if trace is not None and trace.spans:
            parts.append(
                f"<h2>Trace — {escape(latest['id'])} "
                f"<a href=\"/jobs/{escape(latest['id'])}/trace?format=html\">"
                "(full page)</a></h2>"
            )
            parts.append(_trace_view.waterfall_section(trace, max_rows=40))
    parts.append("<h2>Recent runs</h2>")
    if records:
        parts.append(
            "<table><tr><th>run id</th><th>command</th><th>verdict</th>"
            "<th class=\"num\">executions</th><th>execset</th><th>resumes</th></tr>"
        )
        for record in records[-15:]:
            verdict = str(record.get("verdict", "?"))
            cls = "ok" if verdict == "proved" else ("bad" if verdict == "error" else "")
            execset_note = record.get("execset")
            digest = _execset.short_digest(
                execset_note.get("digest") if isinstance(execset_note, dict) else None
            )
            parts.append(
                "<tr>"
                f"<td><code>{escape(str(record.get('run_id', '?')))}</code></td>"
                f"<td>{escape(str(record.get('command', '?')))}</td>"
                f"<td class=\"{cls}\">{escape(verdict)}</td>"
                f"<td class=\"num\">{escape(str(record.get('executions', '—')))}</td>"
                f"<td><code>{escape(digest)}</code></td>"
                f"<td>{escape(str(record.get('parent_run_id', '') or '—'))}</td>"
                "</tr>"
            )
        parts.append("</table>")
        if skipped:
            parts.append(
                f'<p class="bad">{skipped} corrupt ledger line(s) skipped</p>'
            )
    else:
        parts.append('<p class="muted">ledger is empty</p>')
    parts.append("<h2>Witnesses</h2>")
    if witnesses:
        parts.append("<ul>")
        for entry in witnesses:
            wid = escape(entry["id"])
            parts.append(
                f'<li><code>{wid}</code> ({entry["bytes"]} bytes) — '
                f'<a href="/witnesses/{wid}">raw</a> · '
                f'<a href="/witnesses/{wid}/lane">lane view</a></li>'
            )
        parts.append("</ul>")
    else:
        parts.append('<p class="muted">none captured yet</p>')
    parts.append(
        '<p class="muted">Live snapshot — refresh for updates. '
        "See docs/SERVICE.md for the full API.</p>"
    )
    return page("repro serve", "\n".join(parts), _DASH_CSS)


# ----------------------------------------------------------------------
# The handler
# ----------------------------------------------------------------------
class ServiceHandler(SnapshotHandler):
    """Routes the service API.  The server object carries the manager
    and the daemon's own event ring (set by :func:`serve_service`)."""

    server_version = "repro-serve/1"

    @property
    def manager(self) -> JobManager:
        return self.server.manager  # type: ignore[attr-defined]

    # -- POST ----------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 — http.server API
        parsed = urlparse(self.path)
        if parsed.path != "/jobs":
            self._send_json_error(404, "POST is only accepted on /jobs")
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = 0
        if length < 0:
            # rfile.read(-1) would block until the client closes.
            self._send_json_error(400, "Content-Length must not be negative")
            return
        try:
            payload = json.loads(self.rfile.read(length) or b"{}")
        except ValueError:
            self._send_json_error(400, "request body is not valid JSON")
            return
        try:
            snapshot = self.manager.submit(payload)
        except ValueError as error:
            self._send_json_error(400, str(error))
            return
        except RuntimeError as error:
            self._send_json_error(503, str(error))
            return
        self._send_json(snapshot, status=201)

    # -- GET -----------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 — http.server API
        parsed = urlparse(self.path)
        query = parse_qs(parsed.query)
        parts = [p for p in parsed.path.split("/") if p]
        try:
            if parsed.path == "/":
                self._send_text(
                    render_dashboard(self.manager, self.server.ring),  # type: ignore[attr-defined]
                    "text/html; charset=utf-8",
                )
            elif parsed.path == "/jobs":
                self._send_json({"jobs": self.manager.list_jobs()})
            elif parts[0] == "jobs" and len(parts) == 2:
                self._get_job(parts[1])
            elif parts[0] == "jobs" and len(parts) == 3 and parts[2] == "events":
                self._stream_job_events(parts[1], query)
            elif parts[0] == "jobs" and len(parts) == 3 and parts[2] == "trace":
                self._get_job_trace(parts[1], query)
            elif parsed.path == "/metrics":
                self._send_text(
                    render_service_metrics(self.manager, self.server.ring),  # type: ignore[attr-defined]
                    "text/plain; version=0.0.4",
                )
            elif parsed.path == "/events":
                self._get_daemon_events(query)
            elif parsed.path == "/runs":
                self._get_runs(query)
            elif parts[0] == "runs" and len(parts) == 2:
                self._get_run(parts[1])
            elif parsed.path == "/witnesses":
                self._send_json(
                    {"witnesses": _list_witnesses(self.manager.witness_dir)}
                )
            elif parts[0] == "witnesses" and len(parts) == 2:
                self._get_witness(parts[1], lane=False)
            elif parts[0] == "witnesses" and len(parts) == 3 and parts[2] == "lane":
                self._get_witness(parts[1], lane=True)
            else:
                self._send_json_error(
                    404,
                    "unknown endpoint (try /, /jobs, /metrics, /runs, /witnesses)",
                )
        except BrokenPipeError:
            pass  # client went away mid-response; nothing to clean up

    def _get_job(self, job_id: str) -> None:
        snapshot = self.manager.job_snapshot(job_id)
        if snapshot is None:
            self._send_json_error(404, f"no job {job_id!r}")
            return
        self._send_json(snapshot)

    def _get_job_trace(self, job_id: str, query: Dict[str, List[str]]) -> None:
        """``GET /jobs/<id>/trace``: the stitched causal tree."""
        trace = self.manager.stitched_trace(job_id)
        if trace is None:
            self._send_json_error(404, f"no job {job_id!r}")
            return
        fmt = query.get("format", ["json"])[0]
        if fmt == "html":
            self._send_text(
                _trace_view.waterfall_page(trace, title=f"trace — {job_id}"),
                "text/html; charset=utf-8",
            )
        elif fmt == "text":
            self._send_text(
                _trace_view.render_ascii(trace) + "\n",
                "text/plain; charset=utf-8",
            )
        elif fmt == "json":
            self._send_json(_trace_view.trace_as_dict(trace))
        else:
            self._send_json_error(
                400, f"unknown trace format {fmt!r} (json, text, html)"
            )

    def _get_daemon_events(self, query: Dict[str, List[str]]) -> None:
        try:
            n = parse_tail_count(query)
        except ValueError as error:
            self._send_json_error(400, str(error))
            return
        ring: EventRing = self.server.ring  # type: ignore[attr-defined]
        self._send_json({"events": ring.tail(n), "buffered": len(ring)})

    def _get_runs(self, query: Dict[str, List[str]]) -> None:
        records, skipped = self.manager.read_ledger()
        verdict = query.get("verdict", [None])[0]
        if verdict is not None:
            try:
                records = _ledger.filter_by_verdict(records, verdict)
            except ValueError as error:
                self._send_json_error(400, str(error))
                return
        self._send_json({"runs": records, "corrupt_lines": skipped})

    def _get_run(self, run_id: str) -> None:
        records, _skipped = self.manager.read_ledger()
        try:
            record = _ledger.find_record(records, run_id)
        except ValueError as error:
            self._send_json_error(404, str(error))
            return
        self._send_json(record)

    def _get_witness(self, witness_id: str, lane: bool) -> None:
        path = _witness_path(self.manager.witness_dir, witness_id)
        if path is None:
            self._send_json_error(404, f"no witness {witness_id!r}")
            return
        if not lane:
            with open(path, "r", encoding="utf-8") as handle:
                self._send_text(handle.read(), "application/jsonl")
            return
        records, _skipped = _witness.read_witness(path)
        if not records:
            self._send_json_error(404, f"witness {witness_id!r} is empty")
            return
        view = _explain.view_from_record(records[0])
        self._send_text(
            _explain.lanes_page(view, title=f"witness {witness_id}"),
            "text/html; charset=utf-8",
        )

    # -- SSE -----------------------------------------------------------
    def _stream_job_events(
        self, job_id: str, query: Dict[str, List[str]]
    ) -> None:
        """``GET /jobs/<id>/events``: the worker trace as SSE.

        Reads the job's per-attempt trace files directly (complete lines
        only), so the stream works on a job that already finished and
        never touches worker state.  With ``follow`` (the default) it
        polls until the job reaches a final state; ``?follow=0`` dumps
        and closes.
        """
        snapshot = self.manager.job_snapshot(job_id)
        if snapshot is None:
            self._send_json_error(404, f"no job {job_id!r}")
            return
        follow = query.get("follow", ["1"])[0] not in ("0", "false", "no")
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-store")
        self.end_headers()
        cursor = TraceCursor()
        deadline = time.monotonic() + SSE_MAX_FOLLOW
        while True:
            snapshot = self.manager.job_snapshot(job_id) or {}
            traces = [
                os.path.join(snapshot.get("job_dir", ""), f"trace-{a}.jsonl")
                for a in range(1, snapshot.get("attempts", 0) + 1)
            ]
            for line in cursor.lines(traces):
                self.wfile.write(b"data: " + line + b"\n\n")
            self.wfile.flush()
            final = snapshot.get("state") in FINAL_STATES
            if not follow or final or time.monotonic() > deadline:
                self.wfile.write(
                    b"event: end\ndata: "
                    + json.dumps(
                        {
                            "state": snapshot.get("state"),
                            "verdict": snapshot.get("verdict"),
                        }
                    ).encode("utf-8")
                    + b"\n\n"
                )
                self.wfile.flush()
                return
            time.sleep(SSE_POLL_INTERVAL)


# ----------------------------------------------------------------------
# Lifecycle
# ----------------------------------------------------------------------
def serve_service(
    data_dir: str,
    host: str = "127.0.0.1",
    port: int = 0,
    max_workers: int = 2,
    max_retries: int = 2,
    worker_prefix: Optional[List[str]] = None,
) -> HTTPSession:
    """Start the daemon; returns the session (caller must ``close()``).

    ``port=0`` binds an ephemeral port, read back from ``session.port``.
    ``worker_prefix`` overrides the worker command for tests.  Closing
    drains the job manager before the server stops: a client polling
    ``/jobs`` watches its jobs flip to INTERRUPTED before the socket dies.
    """
    manager = JobManager(
        data_dir,
        max_workers=max_workers,
        max_retries=max_retries,
        worker_prefix=worker_prefix,
    )
    return HTTPSession(
        ServiceHandler,
        host,
        port,
        manager.drain,
        manager=manager,
        ring=EventRing(),
    ).start()
