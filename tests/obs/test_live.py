"""Lifecycle tests for the live telemetry HTTP endpoint (``--serve``)."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.__main__ import main
from repro.algorithms.set_consensus_from_family import consensus_spec
from repro.obs import events
from repro.obs.live import EventRing, StatusBoard, serve
from repro.obs.metrics import MetricsRegistry
from repro.obs.service import serve_service
from repro.runtime.explorer import Explorer


@pytest.fixture(autouse=True)
def clean_bus():
    events.set_sink(None)
    yield
    events.set_sink(None)


def get(url):
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.status, response.read().decode("utf-8")


def get_json(url):
    status, body = get(url)
    assert status == 200
    return json.loads(body)


def live_threads():
    return [
        t for t in threading.enumerate() if t.name.startswith("repro-http")
    ]


class TestEndpoints:
    def test_ephemeral_port_and_routes(self):
        session = serve(command="t", argv=["t"], registry=MetricsRegistry())
        try:
            assert session.port > 0
            payload = get_json(session.url("/status"))
            assert payload["command"] == "t"
            # No heartbeat yet: estimation fields are absent, not garbage.
            assert "explore" not in payload
            status, body = get(session.url("/metrics"))
            assert status == 200
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                get(session.url("/nope"))
            assert excinfo.value.code == 404
        finally:
            session.close()

    def test_metrics_matches_render_prometheus(self):
        registry = MetricsRegistry()
        registry.counter("steps_total", pid=0).inc(3)
        registry.gauge("explore_frontier").set(7)
        session = serve(command="t", argv=[], registry=registry)
        try:
            _status, body = get(session.url("/metrics"))
            assert body == registry.render_prometheus()
        finally:
            session.close()

    def test_status_and_events_during_running_exploration(self):
        """Query the endpoints while an exploration is genuinely mid-walk
        (frontier pending), not before or after it."""
        spec = consensus_spec(2, 1, ["a", "b"])
        explorer = Explorer(spec, max_depth=40, strict=False,
                            heartbeat_interval=0.0)
        session = serve(command="explore", argv=["explore"],
                        registry=MetricsRegistry())
        try:
            walker = explorer.executions()
            next(walker)  # at least one execution done, frontier pending
            payload = get_json(session.url("/status"))
            assert payload["counters"]["steps"] > 0
            heartbeat = payload["explore"]
            assert heartbeat["executions"] >= 1
            assert heartbeat["frontier"] >= 1
            tail = get_json(session.url("/events?n=5"))
            assert tail["buffered"] > 0
            assert len(tail["events"]) == 5
            for _ in walker:
                pass
            done = get_json(session.url("/status"))["explore"]
            assert done["frontier"] == 0
        finally:
            session.close()

    @pytest.mark.parametrize("bad", ["abc", "0", "-3", "1.5"])
    def test_events_bad_tail_count_is_http_400(self, bad):
        """Non-integer, zero, or negative ?n= is a client error with a
        JSON body — never a traceback or a silently-defaulted 200."""
        session = serve(command="t", argv=[], registry=MetricsRegistry())
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                get(session.url(f"/events?n={bad}"))
            assert excinfo.value.code == 400
            payload = json.loads(excinfo.value.read().decode("utf-8"))
            assert "must be" in payload["error"]
        finally:
            session.close()

    def test_all_endpoints_send_no_store(self):
        """Live snapshots must never be cached by an intermediary."""
        session = serve(command="t", argv=[], registry=MetricsRegistry())
        try:
            for path in ("/status", "/metrics", "/events?n=5"):
                with urllib.request.urlopen(session.url(path), timeout=5) as r:
                    assert r.headers["Cache-Control"] == "no-store", path
        finally:
            session.close()

    @pytest.mark.parametrize(
        "start",
        [
            lambda tmp_path: serve(
                command="t", argv=[], registry=MetricsRegistry()
            ),
            lambda tmp_path: serve_service(
                str(tmp_path / "data"), max_workers=1
            ),
        ],
        ids=["sidecar", "daemon"],
    )
    def test_close_is_idempotent_and_leaves_no_threads(self, start, tmp_path):
        """The --serve sidecar and the repro serve daemon share one
        session; closing either stops every thread it started."""
        before = threading.active_count()
        session = start(tmp_path)
        assert live_threads()
        session.close()
        session.close()
        assert not live_threads()
        assert threading.active_count() == before
        assert not events.is_enabled()  # subscriptions removed


class TestStatusBoard:
    def test_counts_and_spans(self):
        board = StatusBoard(command="x")
        board("step", {"pid": 0})
        board("step", {"pid": 1})
        board("span_start", {"span": "phase"})
        board("run_verdict", {"verdict": "ok"})
        snapshot = board.snapshot()
        assert snapshot["counters"]["steps"] == 2
        assert snapshot["phases"] == ["phase"]
        assert snapshot["verdicts"] == {"ok": 1}
        board("span_end", {"span": "phase"})
        assert board.snapshot()["phases"] == []

    def test_eta_fields_appear_only_with_heartbeat(self):
        board = StatusBoard()
        assert "explore" not in board.snapshot()
        board("explore_heartbeat", {"executions": 5, "frontier": 2})
        heartbeat = board.snapshot()["explore"]
        assert heartbeat["executions"] == 5
        assert "eta_seconds" not in heartbeat  # not yet estimable

    def test_event_ring_bounded_tail(self):
        ring = EventRing(capacity=4)
        for index in range(10):
            ring("e", {"index": index})
        assert len(ring) == 4
        tail = ring.tail(2)
        assert [e["index"] for e in tail] == [8, 9]


class TestCliLifecycle:
    def test_serve_cli_announces_and_shuts_down(self, capsys):
        """--serve 0 picks an ephemeral port, prints the URL on stderr,
        and tears the server down when the command completes."""
        assert main(["check", "1", "1", "--serve", "0"]) == 0
        err = capsys.readouterr().err
        assert "live telemetry: http://127.0.0.1:" in err
        assert not live_threads()
        assert not events.is_enabled()

    def test_serve_shuts_down_on_sigint(self, tmp_path, capsys):
        """A KeyboardInterrupt mid-exploration (the SIGINT path) still
        tears down the server and records the interrupted run."""
        fuse = {"steps": 0}

        def tripwire(name, fields):
            if name == "step":
                fuse["steps"] += 1
                if fuse["steps"] >= 3:
                    raise KeyboardInterrupt

        events.subscribe(tripwire)
        try:
            ledger_path = tmp_path / "runs.jsonl"
            code = main(
                ["explore", "--task", "consensus", "--n", "2", "--k", "1",
                 "--checkpoint", str(tmp_path / "ck.jsonl"),
                 "--serve", "0", "--ledger", str(ledger_path)]
            )
        finally:
            events.unsubscribe(tripwire)
        assert code == 3
        assert "interrupted" in capsys.readouterr().out
        assert not live_threads()
        record = json.loads(ledger_path.read_text().splitlines()[0])
        assert record["interrupted"] == "SIGINT"
        assert record["verdict"] == "inconclusive"
