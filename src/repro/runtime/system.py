"""The system: processes plus shared objects, advanced step by step.

:class:`SystemSpec` is an immutable description (object specs + program
factories) from which any number of fresh :class:`System` instances can be
built — the unit of replay for schedulers, property tests, and the
exhaustive explorer.

Shared objects follow the state-machine protocol defined in
:mod:`repro.objects.base` (duck-typed here to keep the runtime free of
upward dependencies): ``initial_state()``, ``apply(state, method, args) ->
[(response, new_state), ...]`` and the ``hang_on_misuse`` flag.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.errors import (
    IllegalOperationError,
    ProtocolError,
    SchedulingError,
)
from repro.faults.budget import get_active_budget
from repro.obs import events as _obs_events
from repro.runtime.execution import (
    CRASH_CHOICE,
    RECOVER_CHOICE,
    Execution,
    StepRecord,
)
from repro.runtime.ops import Operation
from repro.runtime.process import Process, ProcessStatus, ProgramFactory


class SystemSpec:
    """Immutable recipe for a system.

    Parameters
    ----------
    objects:
        Mapping from object name to object spec (see
        :class:`repro.objects.base.ObjectSpec`).  Specs are stateless, so
        they are shared between builds; only *states* are per-system.
    programs:
        One zero-argument generator factory per process; process ``i`` runs
        ``programs[i]()``.
    """

    def __init__(self, objects: Mapping[str, Any], programs: Sequence[ProgramFactory]):
        self.objects: Dict[str, Any] = dict(objects)
        self.programs: List[ProgramFactory] = list(programs)
        if not self.programs:
            raise ProtocolError("a system needs at least one process")

    @property
    def n_processes(self) -> int:
        return len(self.programs)

    def build(self) -> "System":
        """Create a fresh system in its initial configuration."""
        return System(self)

    def run(self, scheduler, max_steps: int = 100_000) -> Execution:
        """Build a fresh system and run it to quiescence under ``scheduler``."""
        return self.build().run(scheduler, max_steps=max_steps)

    def replay(
        self, decisions: Iterable[Tuple[int, int]], replaying: bool = False
    ) -> "System":
        """Build a fresh system and apply the given ``(pid, choice)``
        decision sequence (e.g. from :attr:`Execution.decisions` or
        :attr:`Execution.full_decisions`).  A choice of
        :data:`~repro.runtime.execution.CRASH_CHOICE` crash-stops the
        pid instead of stepping it, and
        :data:`~repro.runtime.execution.RECOVER_CHOICE` revives it with
        amnesia — so faulty runs replay exactly.  ``replaying`` sets the
        system's attribution flag for the duration, so probes (e.g. the
        audit's pair checks) never count as on-path work in step
        telemetry.  No budget is charged."""
        system = self.build()
        system.replaying = replaying
        try:
            for pid, choice in decisions:
                if choice == CRASH_CHOICE:
                    system.crash(pid)
                elif choice == RECOVER_CHOICE:
                    system.recover(pid)
                else:
                    system.step(pid, choice)
        finally:
            system.replaying = False
        return system


def _responses_since_recovery(
    steps: List[StepRecord], recoveries: List[Tuple[int, int]], pid: int
) -> List[Any]:
    """The responses ``pid``'s current incarnation has received, in order."""
    since = max((at for at, p in recoveries if p == pid), default=0)
    return [step.response for step in steps[since:] if step.pid == pid]


class Mark:
    """A configuration remembered by :meth:`System.mark`.

    Holds a shallow copy of the object states (they are immutable
    values), the lengths of the trace's lists, copies of the final-status
    and output maps, and one :meth:`Process.snapshot` per process.
    :meth:`System.rewind` updates ``processes`` after a re-prime.
    """

    __slots__ = (
        "object_states", "steps", "crashes", "recoveries", "annotations",
        "statuses", "outputs", "processes", "last_step",
    )

    def __init__(self, object_states, steps, crashes, recoveries,
                 annotations, statuses, outputs, processes, last_step):
        self.object_states = object_states
        self.steps = steps
        self.crashes = crashes
        self.recoveries = recoveries
        self.annotations = annotations
        self.statuses = statuses
        self.outputs = outputs
        self.processes = processes
        self.last_step = last_step


class System:
    """A live configuration: object states plus process control states."""

    def __init__(self, spec: SystemSpec):
        self.spec = spec
        #: Attribution flag for observability: set by the explorer while it
        #: re-executes an already-visited decision prefix, so ``step``
        #: events can separate replay overhead from first-time (on-path)
        #: work.  Purely observational — never changes semantics.
        self.replaying = False
        self.object_states: Dict[str, Any] = {
            name: obj.initial_state() for name, obj in spec.objects.items()
        }
        self.processes: List[Process] = [
            Process(pid, factory) for pid, factory in enumerate(spec.programs)
        ]
        self.trace = Execution()
        for process in self.processes:
            self._prime_and_drain(process)
        #: The mark this configuration still equals, with a trace not yet
        #: handed out by :meth:`finalize` — rewinding to it is a no-op.
        self._at_mark: Optional["Mark"] = None

    # ------------------------------------------------------------------
    # Configuration inspection
    # ------------------------------------------------------------------
    def enabled_pids(self) -> List[int]:
        """Pids of processes that can take a step now."""
        return [p.pid for p in self.processes if p.status is ProcessStatus.POISED]

    def pending_operation(self, pid: int) -> Optional[Operation]:
        """The operation process ``pid`` is poised to perform."""
        return self.processes[pid].pending_operation

    def outcomes_for(self, pid: int) -> List[Tuple[Any, Any]]:
        """Enumerate ``(response, new_state)`` outcomes of ``pid``'s pending
        operation without committing to any of them.

        Deterministic objects yield a single outcome; nondeterministic ones
        yield one per adversary choice.  Misuse in ``hang_on_misuse`` mode is
        reported as the empty list (the step blocks the process).
        """
        process = self.processes[pid]
        operation = process.pending_operation
        if operation is None:
            raise SchedulingError(f"process {pid} has no pending operation")
        obj = self._object_spec(operation)
        state = self.object_states[operation.target]
        try:
            outcomes = obj.apply(state, operation.method, operation.args)
        except IllegalOperationError:
            if getattr(obj, "hang_on_misuse", False):
                return []
            raise
        if not outcomes:
            raise ProtocolError(
                f"object {operation.target!r} returned no outcomes for "
                f"{operation} — specs must return at least one outcome"
            )
        return outcomes

    def is_quiescent(self) -> bool:
        """True when no process can take another step."""
        return not self.enabled_pids()

    def configuration(self) -> Dict[str, Any]:
        """Structured snapshot naming the current configuration.

        The substrate for content-addressed state identity (audit today,
        state caching later — see :mod:`repro.obs.fingerprint`).  Shared
        state is the object states (``repr``-encoded, sorted by name).
        Process control state is extensional: a generator cannot be
        serialized, but it is a deterministic function of its program
        (fixed per pid) and the responses delivered to it, so
        ``(status, delivered responses, pending operation)`` names it
        exactly.  Crashes are covered through the ``"crashed"`` status,
        so configurations on crash branches never alias crash-free ones.
        A recovered generator only ever saw the responses delivered
        *since its last recovery*, so earlier incarnations' responses are
        excluded — the recovery count disambiguates the rest (two
        configurations differing only in dead history name the same
        reachable future, which is exactly what state identity is for).
        """
        last_recovery: Dict[int, int] = {}
        for at, pid in self.trace.recoveries:
            last_recovery[pid] = at
        responses: Dict[int, List[str]] = {p.pid: [] for p in self.processes}
        for step in self.trace.steps:
            if step.index >= last_recovery.get(step.pid, 0):
                responses[step.pid].append(repr(step.response))
        recovery_counts: Dict[int, int] = {}
        for _at, pid in self.trace.recoveries:
            recovery_counts[pid] = recovery_counts.get(pid, 0) + 1
        return {
            "objects": {
                name: repr(state)
                for name, state in sorted(self.object_states.items())
            },
            "processes": [
                {
                    "status": process.status.value,
                    "responses": responses[process.pid],
                    "pending": (
                        str(process.pending_operation)
                        if process.pending_operation is not None
                        else ""
                    ),
                    # Key present only on recovered processes, so
                    # crash-stop configurations keep their exact shape.
                    **(
                        {"recoveries": recovery_counts[process.pid]}
                        if process.pid in recovery_counts
                        else {}
                    ),
                }
                for process in self.processes
            ],
        }

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------
    def step(self, pid: int, choice: int = 0) -> StepRecord:
        """Let ``pid`` perform its pending operation, selecting outcome
        ``choice`` if the object is nondeterministic."""
        self._at_mark = None
        process = self.processes[pid]
        if process.status is not ProcessStatus.POISED:
            raise SchedulingError(
                f"cannot step process {pid}: status is {process.status.value}"
            )
        operation = process.pending_operation
        assert operation is not None
        outcomes = self.outcomes_for(pid)
        if not outcomes:
            # Misuse under hang semantics: the step happens but never returns.
            process.block()
            record = StepRecord(
                index=len(self.trace.steps),
                pid=pid,
                operation=operation,
                response=None,
                choice=0,
                n_outcomes=0,
            )
            self.trace.steps.append(record)
            self._note_status(process)
            if _obs_events.is_enabled():
                _obs_events.emit(
                    "step",
                    pid=pid,
                    object=operation.target,
                    method=operation.method,
                    choice=0,
                    n_outcomes=0,
                    blocked=True,
                    **({"replay": True} if self.replaying else {}),
                )
            return record
        if not 0 <= choice < len(outcomes):
            raise SchedulingError(
                f"choice {choice} out of range for {len(outcomes)} outcomes "
                f"of {operation}"
            )
        response, new_state = outcomes[choice]
        self.object_states[operation.target] = new_state
        record = StepRecord(
            index=len(self.trace.steps),
            pid=pid,
            operation=operation,
            response=response,
            choice=choice,
            n_outcomes=len(outcomes),
        )
        self.trace.steps.append(record)
        process.deliver(response)
        self._drain_annotations(process)
        self._note_status(process)
        if _obs_events.is_enabled():
            _obs_events.emit(
                "step",
                pid=pid,
                object=operation.target,
                method=operation.method,
                choice=choice,
                n_outcomes=len(outcomes),
                **({"replay": True} if self.replaying else {}),
            )
        return record

    def crash(self, pid: int) -> None:
        """Crash-stop process ``pid`` (no-op on already-dead processes,
        so schedulers may re-assert a crash without corrupting the
        trace's crash record)."""
        self._at_mark = None
        process = self.processes[pid]
        if not process.is_live:
            return
        process.crash()
        self.trace.crashes.append((len(self.trace.steps), pid))
        self._note_status(process)
        if _obs_events.is_enabled():
            _obs_events.emit("crash", pid=pid, at_step=len(self.trace.steps))

    def recover(self, pid: int) -> None:
        """Revive crashed process ``pid`` with amnesia: its program
        restarts from scratch (re-primed to its first operation) while
        shared objects keep their state.  A no-op on processes that are
        not crashed, mirroring :meth:`crash`'s no-op tolerance so
        schedulers may re-assert a recovery without corrupting the
        trace's recovery record."""
        self._at_mark = None
        process = self.processes[pid]
        if process.status is not ProcessStatus.CRASHED:
            return
        process.recover()
        self.trace.recoveries.append((len(self.trace.steps), pid))
        self._prime_and_drain(process)
        if _obs_events.is_enabled():
            _obs_events.emit("recover", pid=pid, at_step=len(self.trace.steps))

    # ------------------------------------------------------------------
    # Backtracking
    # ------------------------------------------------------------------
    def mark(self) -> "Mark":
        """Remember the current configuration so :meth:`rewind` can
        return to it.  O(processes + objects): object states are
        immutable values and the trace only grows, so a mark copies the
        state mapping and a few lengths, not the history."""
        trace = self.trace
        mark = self._at_mark = Mark(
            object_states=dict(self.object_states),
            steps=len(trace.steps),
            crashes=len(trace.crashes),
            recoveries=len(trace.recoveries),
            annotations=len(trace.annotations),
            statuses=dict(trace.statuses),
            outputs=dict(trace.outputs),
            processes=[process.snapshot() for process in self.processes],
            last_step=trace.steps[-1] if trace.steps else None,
        )
        return mark

    def rewind(self, mark: "Mark") -> None:
        """Return to the configuration ``mark`` was taken at.

        ``mark`` must lie on the current history — taken on this system
        at or before the present, with no rewind to an earlier mark in
        between.  The system gets a *new* :class:`Execution` built from
        slices of the current trace, so an execution handed out earlier
        (e.g. by :meth:`finalize`) is never mutated.  Processes that did
        not move since the mark are left alone; the others are restored
        as :meth:`Process.restore` describes, re-fed their own responses
        since their last recovery (amnesia: earlier incarnations'
        responses are dead history).
        """
        if mark is self._at_mark:
            return
        trace = self.trace
        if mark.steps > len(trace.steps) or (
            mark.steps and trace.steps[mark.steps - 1] is not mark.last_step
        ):
            raise SchedulingError("cannot rewind to a mark off the current history")
        steps = trace.steps[: mark.steps]
        recoveries = trace.recoveries[: mark.recoveries]
        self.trace = Execution(
            steps=steps,
            outputs=dict(mark.outputs),
            statuses=dict(mark.statuses),
            annotations=trace.annotations[: mark.annotations],
            crashes=trace.crashes[: mark.crashes],
            recoveries=recoveries,
        )
        self.object_states = dict(mark.object_states)
        for pid, process in enumerate(self.processes):
            mark.processes[pid] = process.restore(
                mark.processes[pid],
                lambda pid=pid: _responses_since_recovery(steps, recoveries, pid),
            )
        self._at_mark = mark

    def run(self, scheduler, max_steps: int = 100_000, budget=None) -> Execution:
        """Drive the system with ``scheduler`` until quiescence or budget.

        Returns the execution trace; final statuses and outputs are filled
        in regardless of how the run ended.  ``budget`` (default: the
        process-wide active :class:`~repro.faults.budget.Budget`, if any)
        is charged for the executed steps and consulted every 64 steps —
        an exhausted budget ends the run early with live processes still
        in the trace, which downstream verdicts report as INCONCLUSIVE
        rather than as a protocol failure.
        """
        if budget is None:
            budget = get_active_budget()
        steps = 0
        charged = 0
        interrupted = False
        while steps < max_steps:
            if budget is not None and steps - charged >= 64:
                budget.charge_steps(steps - charged)
                charged = steps
                if budget.exhausted_reason() is not None:
                    interrupted = True
                    break
            enabled = self.enabled_pids()
            if not enabled and not any(
                p.status is ProcessStatus.CRASHED for p in self.processes
            ):
                break
            # With crashed processes around the scheduler is still
            # consulted even when nothing is enabled — a crash-recovery
            # scheduler may revive someone; every bundled scheduler
            # returns None on an empty enabled set, ending the run.
            pid = scheduler.next_pid(self)
            if pid is None:
                break
            # Recompute after next_pid: a scheduler may crash or revive
            # processes as a side effect, shrinking or growing the set.
            enabled = self.enabled_pids()
            if pid not in enabled:
                raise SchedulingError(
                    f"scheduler chose disabled process {pid} (enabled: {enabled})"
                )
            if _obs_events.is_enabled():
                _obs_events.emit("decision", pid=pid, enabled=len(enabled))
            outcomes = self.outcomes_for(pid)
            choice = scheduler.choose(self, pid, len(outcomes)) if len(outcomes) > 1 else 0
            self.step(pid, choice)
            steps += 1
        if budget is not None and steps > charged:
            budget.charge_steps(steps - charged)
        if _obs_events.is_enabled():
            _obs_events.emit(
                "run_end",
                steps=steps,
                quiescent=self.is_quiescent(),
                interrupted=interrupted,
                scheduler=getattr(scheduler, "describe", lambda: type(scheduler).__name__)(),
            )
        return self.finalize()

    def finalize(self) -> Execution:
        """Record final statuses/outputs into the trace and return it."""
        self._at_mark = None
        for process in self.processes:
            self.trace.statuses[process.pid] = process.status
            if process.status is ProcessStatus.DONE:
                self.trace.outputs[process.pid] = process.output
        return self.trace

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _object_spec(self, operation: Operation) -> Any:
        try:
            return self.spec.objects[operation.target]
        except KeyError:
            raise ProtocolError(
                f"operation {operation} targets unknown object "
                f"{operation.target!r}; known: {sorted(self.spec.objects)}"
            ) from None

    def _prime_and_drain(self, process: Process) -> None:
        process.prime()
        self._drain_annotations(process)
        self._note_status(process)

    def _drain_annotations(self, process: Process) -> None:
        now = len(self.trace.steps)
        for annotation in process.fresh_annotations:
            self.trace.annotations.append((now, process.pid, annotation))
        process.fresh_annotations.clear()

    def _note_status(self, process: Process) -> None:
        self.trace.statuses[process.pid] = process.status
        if process.status is ProcessStatus.DONE:
            self.trace.outputs[process.pid] = process.output
