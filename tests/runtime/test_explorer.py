"""Unit tests for the exhaustive explorer (bounded model checking)."""

import math

import pytest

from repro.errors import ExplorationLimitError
from repro.faults.checkpoint import Checkpoint
from repro.objects.register import RegisterSpec
from repro.objects.set_consensus import SetConsensusSpec
from repro.runtime.explorer import (
    Explorer,
    check_all_executions,
    explore_executions,
    find_execution,
)
from repro.runtime.ops import invoke
from repro.runtime.system import SystemSpec


def one_step_spec(n_processes: int):
    """Every process writes its pid once: n! schedules."""

    def program(pid):
        def run():
            yield invoke("r", "write", pid)
            return pid

        return run

    return SystemSpec({"r": RegisterSpec()}, [program(p) for p in range(n_processes)])


def race_spec():
    """Two processes write then read; read results expose the interleaving."""

    def program(pid):
        def run():
            yield invoke("r", "write", pid)
            seen = yield invoke("r", "read")
            return seen

        return run

    return SystemSpec({"r": RegisterSpec()}, [program(0), program(1)])


def resumed_explorer():
    """An explorer resuming one_step_spec(3) after the [0, 1] subtree."""
    checkpoint = Checkpoint(
        n_processes=3, frontier=[[(2, 0)], [(1, 0)], [(0, 0), (2, 0)]]
    )
    return Explorer.from_checkpoint(one_step_spec(3), checkpoint)


def count_builds(monkeypatch):
    """Count SystemSpec.build calls; returns a one-element list."""
    built = [0]
    original = SystemSpec.build

    def build(self):
        built[0] += 1
        return original(self)

    monkeypatch.setattr(SystemSpec, "build", build)
    return built


class TestEnumeration:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_counts_factorial_schedules(self, n):
        executions = list(explore_executions(one_step_spec(n)))
        assert len(executions) == math.factorial(n)

    def test_all_executions_are_maximal(self):
        for execution in explore_executions(race_spec()):
            assert execution.all_done()
            assert len(execution) == 4

    def test_distinct_interleavings_distinct_outputs(self):
        outcomes = {
            tuple(sorted(e.outputs.items()))
            for e in explore_executions(race_spec())
        }
        # p reads own write unless the other overwrote in between.
        assert (
            tuple(sorted({0: 0, 1: 1}.items())) in outcomes
        )  # fully serial both read own? no: later writer overwrites
        assert len(outcomes) >= 2

    def test_nondeterministic_objects_branch(self):
        def proposer(value):
            def run():
                decision = yield invoke("sc", "propose", value)
                return decision

            return run

        spec = SystemSpec(
            {"sc": SetConsensusSpec(2, 2)}, [proposer("a"), proposer("b")]
        )
        outcomes = {
            tuple(sorted(e.outputs.items()))
            for e in explore_executions(spec)
        }
        # The second proposer may adopt or keep its own value.
        assert (tuple(sorted({0: "a", 1: "a"}.items()))) in outcomes
        assert (tuple(sorted({0: "a", 1: "b"}.items()))) in outcomes


class TestCheckAndFind:
    def test_check_all_passes(self):
        assert check_all_executions(one_step_spec(3), lambda e: e.all_done()) is None

    def test_check_all_returns_witness(self):
        witness = check_all_executions(
            race_spec(), lambda e: e.outputs[0] == 0
        )
        assert witness is not None
        assert witness.outputs[0] == 1  # p1's write overwrote before p0 read

    def test_witness_replays(self):
        spec = race_spec()
        witness = check_all_executions(spec, lambda e: e.outputs[0] == 0)
        replayed = spec.replay(witness.decisions).finalize()
        assert replayed.outputs == witness.outputs

    def test_find_existence(self):
        found = find_execution(race_spec(), lambda e: e.outputs == {0: 1, 1: 1})
        assert found is not None

    def test_find_returns_none_when_impossible(self):
        assert (
            find_execution(race_spec(), lambda e: e.outputs == {0: 9, 1: 9}) is None
        )


class TestBounds:
    def test_depth_bound_strict_raises(self):
        def spinner():
            while True:
                yield invoke("r", "read")

        spec = SystemSpec({"r": RegisterSpec()}, [spinner])
        with pytest.raises(ExplorationLimitError):
            list(explore_executions(spec, max_depth=5))

    def test_depth_bound_lenient_truncates(self):
        def spinner():
            while True:
                yield invoke("r", "read")

        spec = SystemSpec({"r": RegisterSpec()}, [spinner])
        explorer = Explorer(spec, max_depth=5, strict=False)
        executions = list(explorer.executions())
        assert len(executions) == 1
        assert explorer.stats.truncated == 1

    def test_statistics_populated(self):
        explorer = Explorer(one_step_spec(3))
        list(explorer.executions())
        assert explorer.stats.executions == 6
        assert explorer.stats.max_depth_seen == 3
        assert explorer.stats.steps_on_path == 15
        resumed = resumed_explorer()
        list(resumed.executions())
        assert resumed.stats.executions == 5
        assert resumed.stats.steps_replayed > 0

    def test_on_path_vs_replayed_accounting(self, monkeypatch):
        """The decision tree of one_step_spec(3) has 1+3+6+6 = 16 nodes.
        Each non-root node contributes exactly one first-time (on-path)
        step.  A fresh walk rewinds to the parent of every node it pops,
        so it replays nothing and builds a single system."""
        built = count_builds(monkeypatch)
        explorer = Explorer(one_step_spec(3))
        list(explorer.executions())
        stats = explorer.stats
        assert stats.steps_on_path == 15
        assert stats.steps_replayed == 0
        assert stats.steps_total == 15
        assert stats.replay_overhead == 0.0
        assert built == [1]

    def test_resumed_walk_replays_only_unmarked_prefixes(self, monkeypatch):
        """Resume one_step_spec(3) from the frontier (top last)
        [[2], [1], [0, 2]].  The first pop, [0, 2], finds only the root
        marked: stepping 0 is the one replayed step (then marked), 2 is
        on-path.  Its child [0, 2, 1] extends the live path: 1 on-path
        step.  [1] and [2] rewind to the root and walk their 5-node
        subtrees on-path.  So 1 replayed, 2 + 5 + 5 = 12 on-path, 1 + 2 + 2
        = 5 executions, still one system built."""
        built = count_builds(monkeypatch)
        explorer = resumed_explorer()
        executions = list(explorer.executions())
        stats = explorer.stats
        assert stats.steps_replayed == 1
        assert stats.steps_on_path == 12
        assert stats.executions == len(executions) == 5
        assert built == [1]
        assert executions[0].schedule == [0, 2, 1]

    def test_statistics_merge_includes_on_path(self):
        first = Explorer(one_step_spec(2))
        list(first.executions())
        second = Explorer(one_step_spec(2))
        list(second.executions())
        merged = first.stats
        merged.merge(second.stats)
        assert merged.steps_on_path == 2 * second.stats.steps_on_path
        assert merged.steps_replayed == 2 * second.stats.steps_replayed


class TestPidFilter:
    def test_filter_prunes_branches(self):
        # Only allow ascending pid order: exactly one schedule survives.
        def ascending_only(system, enabled):
            return [min(enabled)] if enabled else []

        explorer = Explorer(one_step_spec(3), pid_filter=ascending_only)
        executions = list(explorer.executions())
        assert len(executions) == 1
        assert executions[0].schedule == [0, 1, 2]


class TestHeartbeat:
    """The explore_heartbeat telemetry pulse from the DFS loop."""

    def collect(self, explorer):
        from repro.obs import events

        beats = []

        def listen(name, fields):
            if name == "explore_heartbeat":
                beats.append(dict(fields))

        events.subscribe(listen)
        try:
            list(explorer.executions())
        finally:
            events.unsubscribe(listen)
        return beats

    def test_silent_when_bus_disabled(self):
        explorer = Explorer(one_step_spec(2), heartbeat_interval=0.0)
        list(explorer.executions())  # must not raise, and nothing to emit to

    def test_one_beat_per_execution_at_zero_interval(self):
        explorer = Explorer(one_step_spec(2), heartbeat_interval=0.0)
        beats = self.collect(explorer)
        assert len(beats) == 2  # 2! schedules
        assert beats[-1]["executions"] == 2
        assert beats[-1]["frontier"] == 0

    def test_beat_carries_observables_and_estimates(self):
        explorer = Explorer(one_step_spec(3), heartbeat_interval=0.0)
        beats = self.collect(explorer)
        first, last = beats[0], beats[-1]
        for key in ("executions", "frontier", "frontier_depths",
                    "mean_branch", "mean_leaf_depth", "elapsed",
                    "max_depth_seen", "faults_injected"):
            assert key in first, key
        assert first["frontier"] > 0
        assert all(
            isinstance(d, int) and isinstance(c, int)
            for d, c in first["frontier_depths"].items()
        )
        # Later beats have branch statistics, so remaining is estimable
        # and shrinks to zero by the final beat.
        assert last["remaining_estimate"] == 0.0
        assert last["coverage"] == 1.0

    def test_long_interval_stays_quiet(self):
        explorer = Explorer(one_step_spec(3), heartbeat_interval=3600.0)
        beats = self.collect(explorer)
        assert beats == []

    def test_run_id_lands_in_checkpoint(self, tmp_path):
        from repro.faults.checkpoint import read_checkpoint

        path = str(tmp_path / "ck.jsonl")
        explorer = Explorer(one_step_spec(2), checkpoint_path=path)
        explorer.run_id = "20260101T000000-abc123"
        list(explorer.executions())
        assert read_checkpoint(path).run_id == "20260101T000000-abc123"
