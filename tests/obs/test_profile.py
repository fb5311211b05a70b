"""Tests for the deterministic profiler (span call tree + folded stacks)."""

import pytest

from repro.algorithms.helpers import build_spec
from repro.faults.checkpoint import Checkpoint
from repro.obs import events
from repro.obs.events import JsonlSink, RingBufferSink, read_jsonl
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import Profiler
from repro.obs.spans import span
from repro.objects.register import RegisterSpec
from repro.runtime.explorer import Explorer
from repro.runtime.ops import invoke


@pytest.fixture(autouse=True)
def clean_bus():
    events.set_sink(None)
    yield
    events.set_sink(None)


SYNTHETIC = [
    ("span_start", {"span": "command"}),
    ("span_start", {"span": "explore"}),
    ("step", {"pid": 0, "object": "r", "method": "read"}),
    ("step", {"pid": 0, "object": "r", "method": "read", "replay": True}),
    ("span_end", {"span": "explore", "seconds": 0.5}),
    ("step", {"pid": 1, "object": "q", "method": "enq"}),
    ("span_end", {"span": "command", "seconds": 1.0}),
]


def fed(event_stream):
    profiler = Profiler()
    for name, fields in event_stream:
        profiler.consume_event(name, fields)
    return profiler


def two_process_spec():
    def program(pid, value):
        yield invoke("r", "write", value)
        got = yield invoke("r", "read")
        return got

    return build_spec({"r": RegisterSpec()}, program, ["a", "b"])


class TestCallTree:
    def test_tree_shape_and_attribution(self):
        profiler = fed(SYNTHETIC)
        command = profiler.root.children[0]
        assert command.name == "command"
        assert command.seconds == 1.0
        assert command.own_steps() == 1  # the q.enq outside "explore"
        assert command.total_steps() == 3
        (explore,) = command.children
        assert explore.name == "explore"
        assert explore.steps == {("r", "read"): 2}
        assert explore.replayed == {("r", "read"): 1}
        assert explore.self_seconds() == 0.5
        assert command.self_seconds() == 0.5

    def test_replay_accounting(self):
        profiler = fed(SYNTHETIC)
        assert profiler.steps_total == 3
        assert profiler.steps_replayed == 1
        assert profiler.steps_on_path == 2
        assert profiler.replay_overhead() == 0.5

    def test_out_of_order_span_end_tolerated(self):
        profiler = fed(
            [
                ("span_start", {"span": "outer"}),
                ("span_start", {"span": "inner"}),
                ("span_end", {"span": "outer", "seconds": 2.0}),
                ("step", {"pid": 0, "object": "r", "method": "read"}),
            ]
        )
        # closing "outer" pops "inner" too; the step lands at the root
        assert profiler.root.own_steps() == 1

    def test_unknown_events_ignored(self):
        profiler = fed([("future_event", {"x": 1})])
        assert profiler.steps_total == 0
        assert profiler.root.children == []


class TestFoldedStacks:
    def test_steps_golden(self):
        assert fed(SYNTHETIC).folded_stacks() == [
            "command;explore;r.read 2",
            "command;q.enq 1",
        ]

    def test_seconds_golden(self):
        # self time in integer microseconds at each span frame
        assert fed(SYNTHETIC).folded_stacks(metric="seconds") == [
            "command 500000",
            "command;explore 500000",
        ]

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError):
            Profiler().folded_stacks(metric="calories")

    def test_root_attributed_steps_have_bare_frames(self):
        profiler = fed([("step", {"pid": 0, "object": "r", "method": "read"})])
        assert profiler.folded_stacks() == ["r.read 1"]


class TestRenderTree:
    def test_mentions_spans_and_counts(self):
        text = fed(SYNTHETIC).render_tree()
        assert "command" in text and "explore" in text
        assert "3 steps" in text

    def test_empty(self):
        assert Profiler().render_tree() == "(no spans recorded)"


class TestAccountingConsistency:
    """Event-derived step counts must reconcile with explorer statistics —
    otherwise profiler numbers cannot be trusted."""

    def test_events_match_explorer_stats(self):
        # A fresh walk replays nothing; a resumed one replays the
        # interior of its first frontier prefix ((0, 0) here), so both
        # sides of the ``replay: true`` attribution are exercised.
        resumed = Explorer.from_checkpoint(
            two_process_spec(),
            Checkpoint(n_processes=2, frontier=[[(1, 0)], [(0, 0), (1, 0)]]),
        )
        for explorer in (Explorer(two_process_spec()), resumed):
            sink = RingBufferSink(capacity=100_000)
            with events.use_sink(sink):
                with span("explore"):
                    list(explorer.executions())
            profiler = Profiler()
            registry = MetricsRegistry()
            for name, fields in sink.events:
                profiler.consume_event(name, fields)
                registry.consume_event(name, fields)
            stats = explorer.stats
            assert stats.steps_on_path > 0
            # the event stream and the explorer's own counters agree exactly
            assert profiler.steps_total == stats.steps_replayed + stats.steps_on_path
            assert profiler.steps_replayed == stats.steps_replayed
            assert profiler.steps_on_path == stats.steps_on_path
            assert registry.counter_total("steps_total") == stats.steps_total
            assert registry.counter_total("steps_replayed_total") == stats.steps_replayed
            assert profiler.replay_overhead() == stats.replay_overhead
        assert resumed.stats.steps_replayed > 0

    def test_live_collection_matches_jsonl_replay(self, tmp_path):
        path = tmp_path / "run.jsonl"
        live = Profiler()
        sink = JsonlSink(str(path))
        live.install()
        try:
            with events.use_sink(sink):
                with span("explore"):
                    list(Explorer(two_process_spec()).executions())
        finally:
            live.uninstall()
            sink.close()
        replayed = Profiler()
        for name, fields in read_jsonl(str(path)):
            replayed.consume_event(name, fields)
        assert live.folded_stacks() == replayed.folded_stacks()
        assert live.folded_stacks("seconds") == replayed.folded_stacks("seconds")
        assert live.steps_total == replayed.steps_total
        assert live.steps_replayed == replayed.steps_replayed
