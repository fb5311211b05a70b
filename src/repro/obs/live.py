"""Live run telemetry: an in-process HTTP status/metrics endpoint.

``python -m repro <command> --serve [PORT]`` starts a stdlib-only
:class:`ThreadingHTTPServer` next to the running command (default: an
ephemeral port on 127.0.0.1, printed at startup).  Three endpoints:

``GET /status``
    JSON snapshot of the run: command and argv, run id, uptime, open
    span stack, per-span duration breakdown (``spans`` — count and total
    seconds per span name, closed spans only),
    live counters (steps, schedules, runs, states, faults),
    verdict tallies, the latest explorer heartbeat (executions done,
    frontier size, execution rate, coverage and ETA — absent until the
    first heartbeat), suite progress, budget state, last checkpoint,
    the witness bundles captured so far (``witnesses`` — path, kind,
    source per archived deciding execution; absent until one exists),
    and the state-audit summary (``audit`` — revisit ratio, commuting
    fraction, orbit savings; absent until an ``audit_summary`` event
    arrives, see :mod:`repro.obs.audit`).  The execution-set digest
    (``execset`` — digest, record counts, stream path) appears once an
    ``execset_digest`` event arrives (see :mod:`repro.obs.execset`).
``GET /metrics``
    The process-wide metrics registry rendered by
    :meth:`~repro.obs.metrics.MetricsRegistry.render_prometheus` — the
    same bytes ``--metrics-out`` would write at this instant.
``GET /events?n=100``
    JSON tail of the last ``n`` (default 100, capped at the ring size)
    bus events, for quick "what is it doing right now" inspection.

Everything is fed by the ordinary event bus: a :class:`StatusBoard` and
a bounded event ring subscribe like any other consumer, so serving adds
no new instrumentation points — and the exploration itself never blocks
on a slow HTTP client (handlers run on daemon threads and only read
snapshots under a lock).

Lifecycle: :func:`serve` subscribes the feeds and starts an
:class:`HTTPSession`; :meth:`HTTPSession.close` unsubscribes them, shuts
the server down, and joins its thread — called from the CLI's
``finally``, it also runs on SIGINT.

The multi-run ``repro serve`` daemon (:mod:`repro.obs.service`) runs on
the same :class:`HTTPSession` and :class:`SnapshotHandler` (JSON/text
responses with ``Cache-Control: no-store``), and shares
:class:`EventRing` and :func:`parse_tail_count`.  Each side adds only
its own step before shutdown: the sidecar unsubscribes its bus feeds,
the daemon drains its job manager.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, List, Optional
from urllib.parse import parse_qs, urlparse

from repro.faults.budget import get_active_budget
from repro.obs import events as _events
from repro.obs import metrics as _metrics

#: Counter events folded into the /status ``counters`` object.
_COUNTED = {
    "step": "steps",
    "schedule_explored": "schedules",
    "run_end": "runs",
    "crash": "faults",
    "recover": "recoveries",
}


class StatusBoard:
    """Thread-safe accumulator behind ``GET /status``.

    Subscribed to the event bus on the producing thread; snapshotted
    under the same lock from HTTP handler threads.
    """

    def __init__(
        self,
        command: Optional[str] = None,
        argv: Optional[List[str]] = None,
        run_id: Optional[str] = None,
    ):
        self.command = command
        self.argv = list(argv or [])
        self.run_id = run_id
        self._lock = threading.Lock()
        self._started = time.monotonic()
        self._counters: Dict[str, int] = {}
        self._spans: List[str] = []
        #: closed-span totals: name -> [count, total seconds]
        self._span_totals: Dict[str, List[float]] = {}
        self._verdicts: Dict[str, int] = {}
        self._heartbeat: Optional[Dict[str, Any]] = None
        self._suite: Optional[Dict[str, Any]] = None
        self._checkpoint: Optional[Dict[str, Any]] = None
        self._budget_trip: Optional[str] = None
        self._witnesses: List[Dict[str, Any]] = []
        self._audit: Optional[Dict[str, Any]] = None
        self._execset: Optional[Dict[str, Any]] = None

    # -- event bus subscriber -----------------------------------------
    def __call__(self, name: str, fields: Dict[str, Any]) -> None:
        with self._lock:
            counter = _COUNTED.get(name)
            if counter is not None:
                self._counters[counter] = self._counters.get(counter, 0) + 1
            elif name == "states_visited":
                states = fields.get("states", 0)
                if isinstance(states, int):
                    self._counters["states"] = (
                        self._counters.get("states", 0) + states
                    )
            elif name == "span_start":
                self._spans.append(str(fields.get("span")))
            elif name == "span_end":
                span = str(fields.get("span"))
                if span in self._spans:
                    for index in range(len(self._spans) - 1, -1, -1):
                        if self._spans[index] == span:
                            del self._spans[index]
                            break
                seconds = fields.get("seconds")
                if isinstance(seconds, (int, float)) and not isinstance(
                    seconds, bool
                ):
                    total = self._span_totals.setdefault(span, [0, 0.0])
                    total[0] += 1
                    total[1] += float(seconds)
            elif name == "run_verdict":
                verdict = str(fields.get("verdict", "unknown"))
                self._verdicts[verdict] = self._verdicts.get(verdict, 0) + 1
            elif name == "explore_heartbeat":
                self._heartbeat = dict(fields)
            elif name == "suite_progress":
                self._suite = dict(fields)
            elif name == "checkpoint_written":
                self._checkpoint = dict(fields)
            elif name == "budget_exhausted":
                self._budget_trip = str(fields.get("reason", "exhausted"))
            elif name == "audit_summary":
                self._audit = dict(fields)
            elif name == "execset_digest":
                self._execset = dict(fields)
            elif name == "witness_captured":
                self._witnesses.append(
                    {
                        "path": str(fields.get("path", "")),
                        "kind": str(fields.get("kind", "")),
                        "source": str(fields.get("source", "")),
                        "steps": fields.get("steps"),
                    }
                )

    # -- reading -------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """The /status payload.  Estimation fields (``explore.rate``,
        ``explore.eta_seconds``, ``explore.coverage``) appear only once a
        heartbeat carried them — absent, never garbage."""
        with self._lock:
            payload: Dict[str, Any] = {
                "command": self.command,
                "argv": self.argv,
                "run_id": self.run_id,
                "uptime_seconds": round(time.monotonic() - self._started, 3),
                "phases": list(self._spans),
                "counters": dict(self._counters),
                "verdicts": dict(self._verdicts),
            }
            if self._span_totals:
                # Per-phase duration breakdown (closed spans only): how
                # the command's wall time splits across its span names.
                payload["spans"] = {
                    name: {"count": int(count), "seconds": round(seconds, 6)}
                    for name, (count, seconds) in sorted(
                        self._span_totals.items()
                    )
                }
            if self._heartbeat is not None:
                payload["explore"] = dict(self._heartbeat)
            if self._suite is not None:
                payload["suite"] = dict(self._suite)
            if self._checkpoint is not None:
                payload["checkpoint"] = dict(self._checkpoint)
            if self._witnesses:
                payload["witnesses"] = [dict(w) for w in self._witnesses]
            if self._audit is not None:
                payload["audit"] = dict(self._audit)
            if self._execset is not None:
                payload["execset"] = dict(self._execset)
        budget = get_active_budget()
        if budget is not None:
            payload["budget"] = {
                "describe": budget.describe(),
                "elapsed_seconds": round(budget.elapsed, 3),
                "steps_charged": budget.steps_charged,
                "exhausted": self._budget_trip,
            }
        return payload


class EventRing:
    """Lock-protected bounded buffer of recent events (``GET /events``)."""

    def __init__(self, capacity: int = 2048):
        self.capacity = capacity
        self._lock = threading.Lock()
        self._events: deque = deque(maxlen=capacity)
        self._seen = 0

    def __call__(self, name: str, fields: Dict[str, Any]) -> None:
        with self._lock:
            self._events.append({"i": self._seen, "event": name, **fields})
            self._seen += 1

    def tail(self, n: int) -> List[Dict[str, Any]]:
        with self._lock:
            events = list(self._events)
        return events[-n:] if n > 0 else []

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)


def parse_tail_count(
    query: Dict[str, List[str]], key: str = "n", default: int = 100
) -> int:
    """Parse a ``?n=`` tail-length query parameter, strictly.

    Live endpoints are queried by scripts as much as by humans; a typo'd
    ``?n=abc`` silently treated as the default hides the caller's bug.
    Non-integer, zero, or negative values raise ``ValueError`` (mapped to
    HTTP 400 by the handlers) — only a well-formed positive count passes.
    """
    raw = query.get(key, [str(default)])[0]
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"query parameter {key!r} must be an integer, got {raw!r}")
    if value <= 0:
        raise ValueError(f"query parameter {key!r} must be positive, got {value}")
    return value


class SnapshotHandler(BaseHTTPRequestHandler):
    """Shared HTTP plumbing for the live and service endpoints.

    Subclasses route in ``do_GET``/``do_POST`` and respond through
    :meth:`_send_json` / :meth:`_send_text` / :meth:`_send_json_error`.
    Every response carries ``Cache-Control: no-store``: these are live
    snapshots, and a proxy replaying yesterday's frontier would be worse
    than an error.
    """

    server_version = "repro-live/1"

    def _send_json(self, payload: Dict[str, Any], status: int = 200) -> None:
        self._send_text(
            json.dumps(payload, default=repr, indent=2) + "\n",
            "application/json",
            status=status,
        )

    def _send_json_error(self, status: int, message: str) -> None:
        self._send_json({"error": message}, status=status)

    def _send_text(
        self, body: str, content_type: str, status: int = 200
    ) -> None:
        data = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.send_header("Cache-Control", "no-store")
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # keep the observed run's stdout/stderr clean


class _Handler(SnapshotHandler):
    """Routes /status, /metrics, /events.  The server instance carries
    the board/registry/ring (set by :func:`serve`)."""

    def do_GET(self) -> None:  # noqa: N802 — http.server API
        parsed = urlparse(self.path)
        if parsed.path == "/status":
            self._send_json(self.server.board.snapshot())  # type: ignore[attr-defined]
        elif parsed.path == "/metrics":
            self._send_text(self._render_metrics(), "text/plain; version=0.0.4")
        elif parsed.path == "/events":
            try:
                n = parse_tail_count(parse_qs(parsed.query))
            except ValueError as error:
                self._send_json_error(400, str(error))
                return
            ring: EventRing = self.server.ring  # type: ignore[attr-defined]
            self._send_json({"events": ring.tail(n), "buffered": len(ring)})
        else:
            self.send_error(404, "unknown endpoint (try /status, /metrics, /events)")

    def _render_metrics(self) -> str:
        registry: _metrics.MetricsRegistry = self.server.registry  # type: ignore[attr-defined]
        # The producing thread mutates the registry concurrently; a dict
        # that grows mid-iteration raises RuntimeError.  Rendering is
        # cheap, so retry a few times rather than locking the hot path.
        for _attempt in range(5):
            try:
                return registry.render_prometheus()
            except RuntimeError:
                time.sleep(0.005)
        return registry.render_prometheus()


class HTTPSession:
    """A running HTTP server: the ``--serve`` sidecar or the ``repro
    serve`` daemon.

    A :class:`ThreadingHTTPServer` whose handlers run on daemon threads,
    served from one more daemon thread.  Each ``state`` item becomes an
    attribute of both the session and the server, where ``handler``
    reads it.  ``before_close`` runs first in :meth:`close`, while the
    socket still answers.
    """

    def __init__(
        self,
        handler: type,
        host: str,
        port: int,
        before_close: Callable[[], None],
        **state: Any,
    ):
        vars(self).update(state)
        self._before_close = before_close
        self._server = ThreadingHTTPServer((host, port), handler)
        self._server.daemon_threads = True
        vars(self._server).update(state)
        self._thread = threading.Thread(
            target=self._server.serve_forever, name="repro-http", daemon=True
        )
        self._closed = False

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "HTTPSession":
        self._thread.start()
        return self

    def close(self) -> None:
        """Run ``before_close``, stop serving, join the server thread.

        Idempotent; safe from a ``finally`` after SIGINT.
        """
        if self._closed:
            return
        self._closed = True
        self._before_close()
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5.0)

    # -- addressing ----------------------------------------------------
    @property
    def port(self) -> int:
        return self._server.server_address[1]

    @property
    def host(self) -> str:
        return self._server.server_address[0]

    def url(self, path: str) -> str:
        return f"http://{self.host}:{self.port}{path}"


def serve(
    command: Optional[str] = None,
    argv: Optional[List[str]] = None,
    run_id: Optional[str] = None,
    port: int = 0,
    host: str = "127.0.0.1",
    registry: Optional[_metrics.MetricsRegistry] = None,
    ring_capacity: int = 2048,
) -> HTTPSession:
    """Start live telemetry for the current process; returns the session.

    ``port=0`` binds an ephemeral port (read it back from
    ``session.port``).  The caller owns the session and must ``close()``
    it when the command finishes.
    """
    board = StatusBoard(command=command, argv=argv, run_id=run_id)
    ring = EventRing(ring_capacity)

    def unsubscribe() -> None:
        _events.unsubscribe(board)
        _events.unsubscribe(ring)

    session = HTTPSession(
        _Handler,
        host,
        port,
        unsubscribe,
        board=board,
        registry=registry if registry is not None else _metrics.get_registry(),
        ring=ring,
    )
    _events.subscribe(board)
    _events.subscribe(ring)
    return session.start()
