"""Property-based tests of the rewinding explorer against an independent
oracle.

The explorer backtracks by rewinding one live system to marked
configurations (see :meth:`repro.runtime.system.System.rewind`).  These
properties check the set of runs it enumerates against a reference
enumerator that shares no explorer code: it rebuilds every node from
scratch with :meth:`~repro.runtime.system.SystemSpec.replay`.  They also
check that yielded executions are never mutated afterwards, and that an
interrupted-then-resumed walk covers the same set with no overlap and
replays at most its resumed frontier's prefixes.
"""

import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.budget import Budget
from repro.faults.checkpoint import read_checkpoint
from repro.objects.register import RegisterSpec
from repro.objects.set_consensus import SetConsensusSpec
from repro.obs.execset import execution_id
from repro.runtime.execution import CRASH_CHOICE, RECOVER_CHOICE
from repro.runtime.explorer import Explorer
from repro.runtime.ops import Annotation, invoke
from repro.runtime.process import ProcessStatus
from repro.runtime.system import SystemSpec

#: One program step: ("read" | "write" | "propose", register index).
ops = st.tuples(st.sampled_from(["read", "write", "propose"]), st.integers(0, 1))
#: 2 processes with 1-3 operations each, or 3 with at most 4 in total
#: (enough to interleave, crash and recover; small enough to enumerate
#: from scratch at every node).
programs = st.one_of(
    st.lists(st.lists(ops, min_size=1, max_size=3), min_size=2, max_size=2),
    st.lists(st.lists(ops, min_size=1, max_size=2), min_size=3, max_size=3).filter(
        lambda scripts: sum(map(len, scripts)) <= 4
    ),
)
faults = st.tuples(st.integers(0, 2), st.integers(0, 1))


def make_spec(scripts):
    """Processes running ``scripts``: what they write and propose depends
    on the responses they received, and a ``None`` read makes them skip
    their next operation, so control flow follows the responses."""

    def program(pid, script):
        def run():
            last = None
            skip = False
            for index, (kind, reg) in enumerate(script):
                if skip:
                    skip = False
                    continue
                yield Annotation("op", index)
                if kind == "read":
                    last = yield invoke(f"r{reg}", "read")
                    skip = last is None
                elif kind == "write":
                    last = yield invoke(f"r{reg}", "write", (pid, last))
                else:
                    last = yield invoke("sc", "propose", (pid, last))
            return last

        return run

    objects = {"r0": RegisterSpec(), "r1": RegisterSpec(),
               "sc": SetConsensusSpec(3, 2, hang_on_misuse=True)}
    return SystemSpec(objects, [program(p, s) for p, s in enumerate(scripts)])


def reference_runs(spec, max_crashes, max_recoveries):
    """Every maximal execution's ``full_decisions``, by rebuilding each
    node from scratch: the explorer's branching rules, none of its code."""
    runs = []

    def visit(prefix):
        system = spec.replay(prefix)
        crashes = sum(1 for _pid, c in prefix if c == CRASH_CHOICE)
        recoveries = sum(1 for _pid, c in prefix if c == RECOVER_CHOICE)
        # Back-to-back fault decisions go in non-decreasing pid order.
        low = prefix[-1][0] if prefix and prefix[-1][1] < 0 else 0
        children = []
        for process in system.processes:
            if process.status is ProcessStatus.POISED:
                outcomes = len(system.outcomes_for(process.pid))
                children += [(process.pid, c) for c in range(max(outcomes, 1))]
        for process in system.processes:
            if process.pid < low:
                continue
            if process.status is ProcessStatus.POISED and crashes < max_crashes:
                children.append((process.pid, CRASH_CHOICE))
            if process.status is ProcessStatus.CRASHED and recoveries < max_recoveries:
                children.append((process.pid, RECOVER_CHOICE))
        # Maximal unless a step or crash is still possible; declining to
        # recover anyone is always the adversary's option.
        if all(choice == RECOVER_CHOICE for _pid, choice in children):
            runs.append(tuple(system.finalize().full_decisions))
        for child in children:
            visit(prefix + [child])

    visit([])
    return runs


class TestRewindAgainstOracle:
    @given(programs, faults)
    @settings(max_examples=30, deadline=None)
    def test_same_set_as_reference_enumerator(self, scripts, budget):
        max_crashes, max_recoveries = budget
        spec = make_spec(scripts)
        walked = [
            tuple(e.full_decisions)
            for e in Explorer(
                spec, max_crashes=max_crashes, max_recoveries=max_recoveries
            ).executions()
        ]
        expected = reference_runs(spec, max_crashes, max_recoveries)
        assert len(set(walked)) == len(walked) == len(expected)
        assert set(walked) == set(expected)

    @given(programs, faults)
    @settings(max_examples=30, deadline=None)
    def test_yielded_executions_never_change(self, scripts, budget):
        max_crashes, max_recoveries = budget
        explorer = Explorer(
            make_spec(scripts),
            max_crashes=max_crashes,
            max_recoveries=max_recoveries,
        )
        kept = []
        for execution in explorer.executions():
            kept.append((execution, execution_id(execution)))
        assert all(execution_id(e) == at_yield for e, at_yield in kept)


class TestRewindResume:
    @given(programs, faults, st.integers(1, 60))
    @settings(max_examples=30, deadline=None)
    def test_interrupt_and_resume_cover_the_set(self, scripts, budget, cut):
        max_crashes, max_recoveries = budget
        spec = make_spec(scripts)
        everything = [
            tuple(e.full_decisions)
            for e in Explorer(
                spec, max_crashes=max_crashes, max_recoveries=max_recoveries
            ).executions()
        ]
        with tempfile.TemporaryDirectory() as folder:
            path = os.path.join(folder, "cp.jsonl")
            interrupted = Explorer(
                spec,
                max_crashes=max_crashes,
                max_recoveries=max_recoveries,
                budget=Budget(max_steps=cut),
                checkpoint_path=path,
            )
            visited = [tuple(e.full_decisions) for e in interrupted.executions()]
            checkpoint = read_checkpoint(path)
        resumed = Explorer.from_checkpoint(spec, checkpoint)
        remaining = [tuple(e.full_decisions) for e in resumed.executions()]
        assert not resumed.interrupted
        assert not set(visited) & set(remaining)
        assert sorted(visited + remaining) == sorted(everything)
        # Only the resumed frontier's prefixes can need replaying:
        # every node the walk expands itself is marked.
        assert resumed.stats.steps_replayed <= sum(
            len(prefix) for prefix in checkpoint.frontier
        )
