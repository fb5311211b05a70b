"""Unit tests for SystemSpec / System step semantics."""

import pytest

from repro.errors import ProtocolError, SchedulingError
from repro.objects.register import RegisterSpec
from repro.objects.set_consensus import SetConsensusSpec
from repro.objects.consensus_object import NConsensusSpec
from repro.runtime.ops import invoke
from repro.runtime.process import ProcessStatus
from repro.runtime.scheduler import RoundRobinScheduler
from repro.runtime.system import SystemSpec


def reader_writer_spec():
    def writer():
        yield invoke("r", "write", "w")
        return "wrote"

    def reader():
        value = yield invoke("r", "read")
        return value

    return SystemSpec({"r": RegisterSpec(initial="init")}, [writer, reader])


class TestConstruction:
    def test_processes_are_primed_at_build(self):
        system = reader_writer_spec().build()
        assert system.enabled_pids() == [0, 1]
        assert system.pending_operation(0) == invoke("r", "write", "w")

    def test_initial_object_state(self):
        system = reader_writer_spec().build()
        assert system.object_states["r"] == "init"

    def test_empty_program_list_rejected(self):
        with pytest.raises(ProtocolError):
            SystemSpec({"r": RegisterSpec()}, [])

    def test_fresh_builds_are_independent(self):
        spec = reader_writer_spec()
        first = spec.build()
        first.step(0)
        second = spec.build()
        assert second.object_states["r"] == "init"


class TestStepping:
    def test_step_applies_operation(self):
        system = reader_writer_spec().build()
        record = system.step(0)
        assert system.object_states["r"] == "w"
        assert record.pid == 0
        assert record.response is None

    def test_step_order_controls_read_result(self):
        system = reader_writer_spec().build()
        system.step(1)  # reader first
        system.step(0)
        execution = system.finalize()
        assert execution.outputs[1] == "init"

        system2 = reader_writer_spec().build()
        system2.step(0)
        system2.step(1)
        assert system2.finalize().outputs[1] == "w"

    def test_unknown_object_is_protocol_error(self):
        def lost():
            yield invoke("nope", "read")

        spec = SystemSpec({"r": RegisterSpec()}, [lost])
        system = spec.build()
        with pytest.raises(ProtocolError, match="unknown object"):
            system.step(0)

    def test_stepping_finished_process_rejected(self):
        system = reader_writer_spec().build()
        system.step(0)
        with pytest.raises(SchedulingError):
            system.step(0)

    def test_quiescence_detection(self):
        system = reader_writer_spec().build()
        assert not system.is_quiescent()
        system.step(0)
        system.step(1)
        assert system.is_quiescent()


class TestNondeterminism:
    def _spec(self):
        def proposer(value):
            def program():
                decision = yield invoke("sc", "propose", value)
                return decision

            return program

        return SystemSpec(
            {"sc": SetConsensusSpec(3, 2)},
            [proposer("a"), proposer("b")],
        )

    def test_outcomes_enumerated_without_commit(self):
        system = self._spec().build()
        system.step(0)
        outcomes = system.outcomes_for(1)
        assert len(outcomes) >= 2  # adopt 'a', or add 'b' and return either
        assert system.object_states["sc"][1] == 1  # still one proposal

    def test_choice_selects_outcome(self):
        spec = self._spec()
        first = spec.build()
        first.step(0)
        responses = set()
        for choice in range(len(first.outcomes_for(1))):
            system = spec.build()
            system.step(0)
            record = system.step(1, choice)
            responses.add(record.response)
        assert responses == {"a", "b"}

    def test_out_of_range_choice_rejected(self):
        system = self._spec().build()
        with pytest.raises(SchedulingError):
            system.step(0, choice=5)


class TestMisuseHang:
    def test_hanging_object_blocks_process(self):
        def greedy():
            yield invoke("c", "propose", 1)
            yield invoke("c", "propose", 2)
            return "done"

        spec = SystemSpec(
            {"c": NConsensusSpec(1, hang_on_misuse=True)}, [greedy]
        )
        system = spec.build()
        system.step(0)
        record = system.step(0)  # second propose exceeds the budget
        assert record.n_outcomes == 0
        assert system.processes[0].status is ProcessStatus.BLOCKED
        assert system.is_quiescent()

    def test_raising_object_propagates(self):
        def greedy():
            yield invoke("c", "propose", 1)
            yield invoke("c", "propose", 2)

        spec = SystemSpec({"c": NConsensusSpec(1)}, [greedy])
        system = spec.build()
        system.step(0)
        from repro.errors import IllegalOperationError

        with pytest.raises(IllegalOperationError):
            system.step(0)


class TestRunAndReplay:
    def test_run_to_quiescence(self):
        execution = reader_writer_spec().run(RoundRobinScheduler())
        assert execution.all_done()
        assert execution.outputs == {0: "wrote", 1: "w"}

    def test_replay_reproduces_decisions(self):
        spec = reader_writer_spec()
        execution = spec.run(RoundRobinScheduler())
        replayed = spec.replay(execution.decisions).finalize()
        assert replayed.outputs == execution.outputs
        assert replayed.schedule == execution.schedule

    def test_max_steps_stops_early(self):
        def spinner():
            while True:
                yield invoke("r", "read")

        spec = SystemSpec({"r": RegisterSpec()}, [spinner])
        execution = spec.run(RoundRobinScheduler(), max_steps=10)
        assert len(execution) == 10
        assert execution.statuses[0] is ProcessStatus.POISED

    def test_crash_removes_process(self):
        spec = reader_writer_spec()
        system = spec.build()
        system.crash(0)
        system.step(1)
        execution = system.finalize()
        assert execution.statuses[0] is ProcessStatus.CRASHED
        assert execution.outputs[1] == "init"


def counting_spec(primes):
    """Two processes that write, read, then write what they read; each
    program start is counted in ``primes[pid]``."""

    def program(pid):
        def run():
            primes[pid] += 1
            yield invoke("r", "write", pid)
            seen = yield invoke("r", "read")
            yield invoke("r", "write", (pid, seen))
            return seen

        return run

    return SystemSpec({"r": RegisterSpec()}, [program(0), program(1)])


class TestMarkAndRewind:
    def test_rewind_restores_the_marked_configuration(self):
        system = counting_spec([0, 0]).build()
        system.step(0)
        mark = system.mark()
        before = system.configuration()
        system.step(1)
        system.step(0)
        system.crash(1)
        system.rewind(mark)
        assert system.configuration() == before
        assert system.trace.decisions == [(0, 0)]
        assert not system.trace.crashes

    def test_handed_out_execution_is_never_mutated(self):
        system = counting_spec([0, 0]).build()
        mark = system.mark()
        system.step(0)
        handed_out = system.finalize()
        system.rewind(mark)
        system.step(1)
        system.step(1)
        assert handed_out.decisions == [(0, 0)]
        assert system.trace.decisions == [(1, 0), (1, 0)]

    def test_only_moved_processes_are_reprimed_once(self):
        primes = [0, 0]
        system = counting_spec(primes).build()
        mark = system.mark()
        system.step(0)
        system.rewind(mark)
        assert primes == [2, 1]  # p0 moved and was re-primed; p1 untouched
        system.step(1)
        system.rewind(mark)
        # p0's re-primed generator was stored in the mark: left alone now
        assert primes == [2, 2]

    def test_recovered_process_is_refed_only_its_new_responses(self):
        system = counting_spec([0, 0]).build()
        system.step(0)
        system.step(0)  # p0 reads its own write
        system.crash(0)
        system.recover(0)
        system.step(1)
        system.step(0)  # the new incarnation writes again
        mark = system.mark()
        before = system.configuration()
        system.step(0)
        system.rewind(mark)
        assert system.configuration() == before
        system.step(0)
        assert system.processes[0].pending_operation == invoke("r", "write", (0, 0))

    def test_nondeterministic_program_is_rejected(self):
        flips = iter([1, 2, 3])

        def unstable():
            first = next(flips)
            yield invoke("r", "write", first)
            yield invoke("r", "write", "again")

        system = SystemSpec({"r": RegisterSpec()}, [unstable]).build()
        mark = system.mark()
        system.step(0)
        with pytest.raises(ProtocolError, match="not a deterministic function"):
            system.rewind(mark)

    def test_mark_off_the_current_history_is_rejected(self):
        system = counting_spec([0, 0]).build()
        root = system.mark()
        system.step(0)
        below = system.mark()
        system.rewind(root)
        system.step(1)
        with pytest.raises(SchedulingError, match="off the current history"):
            system.rewind(below)
