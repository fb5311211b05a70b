"""Checkpoint/resume tests: round-trip, corruption, and the resume
count-equality guarantee (resumed run visits exactly the remaining
executions)."""

import json

import pytest

from repro.errors import ExplorationLimitError, ProtocolError
from repro.faults.budget import Budget
from repro.faults.checkpoint import (
    FORMAT,
    Checkpoint,
    read_checkpoint,
    write_checkpoint,
)
from repro.objects.register import RegisterSpec
from repro.runtime.explorer import Explorer
from repro.runtime.ops import invoke
from repro.runtime.system import SystemSpec


def steps_spec(n_processes: int = 3, n_steps: int = 2):
    def program(pid):
        def run():
            for _ in range(n_steps):
                yield invoke("r", "write", pid)
            return pid

        return run

    return SystemSpec({"r": RegisterSpec()}, [program(p) for p in range(n_processes)])


class TestRoundTrip:
    def test_write_read_round_trip(self, tmp_path):
        path = str(tmp_path / "cp.jsonl")
        frontier = [[(0, 0)], [(0, 0), (1, -1)], []]
        write_checkpoint(
            path,
            n_processes=3,
            frontier=frontier,
            executions=17,
            max_depth=60,
            max_crashes=1,
            stats={"nodes": 99},
            spec={"task": "consensus", "n": 3},
        )
        checkpoint = read_checkpoint(path)
        assert checkpoint.n_processes == 3
        assert checkpoint.frontier == frontier
        assert checkpoint.executions == 17
        assert checkpoint.max_depth == 60
        assert checkpoint.max_crashes == 1
        assert checkpoint.stats == {"nodes": 99}
        assert checkpoint.spec == {"task": "consensus", "n": 3}
        assert not checkpoint.done

    def test_max_recoveries_round_trips(self, tmp_path):
        path = str(tmp_path / "cp.jsonl")
        write_checkpoint(
            path,
            n_processes=2,
            frontier=[[(0, 0), (0, -1), (0, -2)]],
            executions=3,
            max_crashes=1,
            max_recoveries=1,
        )
        checkpoint = read_checkpoint(path)
        assert checkpoint.max_crashes == 1
        assert checkpoint.max_recoveries == 1
        assert checkpoint.frontier == [[(0, 0), (0, -1), (0, -2)]]

    def test_legacy_v1_checkpoint_still_reads(self, tmp_path):
        """Files written before the recovery model (repro-checkpoint/1)
        load with max_recoveries=0 — their frontier was enumerated with
        no recovery branches, so resuming recovery-free is exact."""
        path = tmp_path / "cp.jsonl"
        header = {
            "format": "repro-checkpoint/1",
            "n_processes": 2,
            "frontier": 1,
            "executions": 4,
            "max_crashes": 1,
        }
        path.write_text(
            json.dumps(header) + "\n"
            + json.dumps({"prefix": [[0, 0], [1, -1]]}) + "\n"
        )
        checkpoint = read_checkpoint(str(path))
        assert checkpoint.max_crashes == 1
        assert checkpoint.max_recoveries == 0
        assert checkpoint.frontier == [[(0, 0), (1, -1)]]

    def test_execset_digest_round_trips(self, tmp_path):
        """The header carries the execution-set digest-so-far, so a
        resumed run's merged digest is well-defined."""
        path = str(tmp_path / "cp.jsonl")
        state = {"digest": "ab" * 32, "records": 17}
        write_checkpoint(
            path, n_processes=2, frontier=[[(0, 0)]], execset=state
        )
        assert read_checkpoint(path).execset == state

    def test_header_without_execset_reads_none(self, tmp_path):
        """Checkpoints from before the execset format (and any header
        with a malformed entry) resume with no base digest — the diff
        side then reports the merged claim as partial, not an error."""
        path = str(tmp_path / "cp.jsonl")
        write_checkpoint(path, n_processes=2, frontier=[[(0, 0)]])
        assert read_checkpoint(path).execset is None
        header = json.loads((tmp_path / "cp.jsonl").read_text().splitlines()[0])
        header["execset"] = "not-a-dict"
        lines = (tmp_path / "cp.jsonl").read_text().splitlines()
        (tmp_path / "cp.jsonl").write_text(
            "\n".join([json.dumps(header)] + lines[1:]) + "\n"
        )
        assert read_checkpoint(path).execset is None

    def test_empty_frontier_is_done(self, tmp_path):
        path = str(tmp_path / "cp.jsonl")
        write_checkpoint(path, n_processes=2, frontier=[], executions=6)
        checkpoint = read_checkpoint(path)
        assert checkpoint.done
        assert checkpoint.executions == 6

    def test_overwrite_is_atomic_replace(self, tmp_path):
        path = str(tmp_path / "cp.jsonl")
        write_checkpoint(path, n_processes=2, frontier=[[(0, 0)]])
        write_checkpoint(path, n_processes=2, frontier=[])
        assert read_checkpoint(path).done
        # No temp debris left behind.
        assert [p.name for p in tmp_path.iterdir()] == ["cp.jsonl"]


class TestCorruption:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "cp.jsonl"
        path.write_text("")
        with pytest.raises(ProtocolError, match="empty"):
            read_checkpoint(str(path))

    def test_garbage_header(self, tmp_path):
        path = tmp_path / "cp.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ProtocolError, match="corrupt header"):
            read_checkpoint(str(path))

    def test_wrong_format_marker(self, tmp_path):
        path = tmp_path / "cp.jsonl"
        path.write_text(json.dumps({"format": "something/9"}) + "\n")
        with pytest.raises(ProtocolError, match="unsupported format"):
            read_checkpoint(str(path))

    def test_corrupt_frontier_line(self, tmp_path):
        path = tmp_path / "cp.jsonl"
        header = {"format": FORMAT, "n_processes": 2, "frontier": 1}
        path.write_text(json.dumps(header) + "\n{broken\n")
        with pytest.raises(ProtocolError, match="frontier line 2"):
            read_checkpoint(str(path))

    def test_truncated_frontier_detected(self, tmp_path):
        path = tmp_path / "cp.jsonl"
        header = {"format": FORMAT, "n_processes": 2, "frontier": 2}
        path.write_text(
            json.dumps(header) + "\n" + json.dumps({"prefix": [[0, 0]]}) + "\n"
        )
        with pytest.raises(ProtocolError, match="incomplete"):
            read_checkpoint(str(path))


class TestResume:
    def full_enumeration(self):
        return {
            tuple(e.full_decisions) for e in Explorer(steps_spec()).executions()
        }

    def test_resume_visits_exactly_the_remaining_executions(self, tmp_path):
        path = str(tmp_path / "cp.jsonl")
        everything = self.full_enumeration()

        interrupted = Explorer(
            steps_spec(), budget=Budget(max_steps=200), checkpoint_path=path
        )
        visited = {tuple(e.full_decisions) for e in interrupted.executions()}
        assert interrupted.interrupted
        assert 0 < len(visited) < len(everything)

        checkpoint = read_checkpoint(path)
        assert not checkpoint.done
        assert checkpoint.executions == len(visited)

        resumed = Explorer.from_checkpoint(steps_spec(), checkpoint)
        remaining = {tuple(e.full_decisions) for e in resumed.executions()}
        assert not resumed.interrupted
        assert visited | remaining == everything
        assert not (visited & remaining)
        assert resumed.total_executions == len(everything)

    def test_resume_with_crashes(self, tmp_path):
        path = str(tmp_path / "cp.jsonl")
        spec = steps_spec(n_processes=2, n_steps=2)
        everything = {
            tuple(e.full_decisions)
            for e in Explorer(spec, max_crashes=1).executions()
        }
        # The whole walk executes 32 steps; cut it about half-way.
        interrupted = Explorer(
            spec,
            max_crashes=1,
            budget=Budget(max_steps=16),
            checkpoint_path=path,
        )
        visited = {tuple(e.full_decisions) for e in interrupted.executions()}
        assert interrupted.interrupted
        checkpoint = read_checkpoint(path)
        # max_crashes is restored from the checkpoint when not overridden.
        resumed = Explorer.from_checkpoint(spec, checkpoint)
        assert resumed.max_crashes == 1
        remaining = {tuple(e.full_decisions) for e in resumed.executions()}
        assert visited | remaining == everything
        assert not (visited & remaining)

    def test_resume_with_recoveries(self, tmp_path):
        """The count-equality guarantee holds with recovery branches: an
        interrupted crash-recovery walk plus its resume visit exactly the
        executions of one uninterrupted walk."""
        path = str(tmp_path / "cp.jsonl")
        spec = steps_spec(n_processes=2, n_steps=2)
        everything = {
            tuple(e.full_decisions)
            for e in Explorer(
                spec, max_crashes=1, max_recoveries=1
            ).executions()
        }
        assert any(
            choice == -2 for full in everything for _pid, choice in full
        )
        interrupted = Explorer(
            spec,
            max_crashes=1,
            max_recoveries=1,
            budget=Budget(max_steps=150),
            checkpoint_path=path,
        )
        visited = {tuple(e.full_decisions) for e in interrupted.executions()}
        assert interrupted.interrupted
        checkpoint = read_checkpoint(path)
        resumed = Explorer.from_checkpoint(spec, checkpoint)
        # max_recoveries restored from the checkpoint when not overridden.
        assert resumed.max_recoveries == 1
        remaining = {tuple(e.full_decisions) for e in resumed.executions()}
        assert visited | remaining == everything
        assert not (visited & remaining)
        assert resumed.total_executions == len(everything)

    def test_from_checkpoint_validates_process_count(self):
        checkpoint = Checkpoint(n_processes=5, frontier=[[]])
        with pytest.raises(ExplorationLimitError, match="processes"):
            Explorer.from_checkpoint(steps_spec(), checkpoint)

    def test_resuming_finished_checkpoint_yields_nothing(self, tmp_path):
        path = str(tmp_path / "cp.jsonl")
        explorer = Explorer(steps_spec(), checkpoint_path=path)
        total = len(list(explorer.executions()))
        checkpoint = read_checkpoint(path)
        assert checkpoint.done
        resumed = Explorer.from_checkpoint(steps_spec(), checkpoint)
        assert list(resumed.executions()) == []
        assert resumed.total_executions == total
