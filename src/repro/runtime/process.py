"""Process abstraction: a sequential program advanced one step at a time.

A process wraps a generator produced by a *program factory* (a zero-argument
callable).  The runtime *primes* the process — running it up to its first
yielded :class:`~repro.runtime.ops.Operation` — so that the configuration
always exposes the operation each live process is *poised* to perform.
Valency (critical-configuration) arguments are phrased in exactly these
terms, which is why priming is part of the model rather than an
implementation detail.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Generator, List, Optional, Tuple

from repro.errors import ProtocolError
from repro.runtime.ops import Annotation, Operation

ProgramFactory = Callable[[], Generator]

#: ``(status, output, pending operation, steps_taken, generator)`` — see
#: :meth:`Process.snapshot`.
ProcessSnapshot = Tuple[Any, Any, Optional[Operation], int, Optional[Generator]]


class ProcessStatus(enum.Enum):
    """Lifecycle of a simulated process."""

    #: Created but not yet primed to its first operation.
    PENDING = "pending"
    #: Alive with a pending operation, waiting to be scheduled.
    POISED = "poised"
    #: Returned normally; ``output`` holds the returned value.
    DONE = "done"
    #: Crashed by the adversary; takes no further steps.
    CRASHED = "crashed"
    #: Parked forever after misusing an object in ``hang_on_misuse`` mode.
    BLOCKED = "blocked"


class Process:
    """A single simulated process.

    Parameters
    ----------
    pid:
        Process identifier, the index of the process in its system.
    factory:
        Zero-argument callable returning a fresh generator for the program.
        Keeping the factory (rather than the generator) is what allows
        replay and rewinding (:meth:`restore`) to rebuild identical
        control states.
    """

    def __init__(self, pid: int, factory: ProgramFactory):
        self.pid = pid
        self.factory = factory
        self.status = ProcessStatus.PENDING
        self.output: Any = None
        self.steps_taken = 0
        #: Annotations emitted since the process started, as
        #: ``(annotation, step_count_when_emitted)`` pairs, drained by the
        #: system into the execution trace.
        self.fresh_annotations: List[Annotation] = []
        self._generator: Optional[Generator] = None
        self._pending: Optional[Operation] = None

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def pending_operation(self) -> Optional[Operation]:
        """The operation this process is poised to perform, if any."""
        return self._pending

    @property
    def is_live(self) -> bool:
        """True if the process can still take steps."""
        return self.status in (ProcessStatus.PENDING, ProcessStatus.POISED)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def prime(self) -> None:
        """Run local computation up to the first shared-memory operation.

        Annotations encountered on the way are collected; they cost no
        scheduling steps.  After priming the process is ``POISED`` (or
        ``DONE`` if the program returned without touching shared memory).
        """
        if self.status is not ProcessStatus.PENDING:
            return
        self._generator = self.factory()
        if not hasattr(self._generator, "send"):
            raise ProtocolError(
                f"program factory for process {self.pid} did not return a "
                f"generator (got {type(self._generator).__name__}); "
                "programs must be generator functions"
            )
        self._advance(None, first=True)

    def deliver(self, response: Any) -> None:
        """Complete the pending operation with ``response`` and advance to
        the next one.  One atomic step."""
        if self.status is not ProcessStatus.POISED:
            raise ProtocolError(
                f"cannot deliver a response to process {self.pid} in status "
                f"{self.status.value}"
            )
        self.steps_taken += 1
        self._advance(response, first=False)

    def crash(self) -> None:
        """Crash-stop the process; it is never scheduled again."""
        if self.status in (ProcessStatus.PENDING, ProcessStatus.POISED):
            self.status = ProcessStatus.CRASHED
            self._pending = None

    def recover(self) -> None:
        """Revive a crashed process with amnesia: the program restarts
        from scratch (the old generator and its in-flight operation are
        gone), while shared objects — owned by the system, not the
        process — keep whatever state the crash left behind.

        ``steps_taken`` is deliberately *not* reset: it is a runtime
        odometer (wait-freedom metrics count every step the process ever
        took), not program state.  Only valid from ``CRASHED``.
        """
        if self.status is not ProcessStatus.CRASHED:
            raise ProtocolError(
                f"cannot recover process {self.pid} in status "
                f"{self.status.value}; only crashed processes recover"
            )
        self.status = ProcessStatus.PENDING
        self.output = None
        self._generator = None
        self._pending = None
        self.fresh_annotations.clear()

    def block(self) -> None:
        """Park the process forever (object-misuse 'hang' semantics)."""
        self.status = ProcessStatus.BLOCKED
        self._pending = None

    # ------------------------------------------------------------------
    # Rewind support (see System.mark / System.rewind)
    # ------------------------------------------------------------------
    def snapshot(self) -> "ProcessSnapshot":
        """Everything :meth:`restore` needs to return here later.  Holds
        the live generator itself: it is still valid at restore time
        exactly when it has not been advanced or replaced since."""
        return (
            self.status, self.output, self._pending, self.steps_taken,
            self._generator,
        )

    def restore(
        self, saved: "ProcessSnapshot", responses: Callable[[], List[Any]]
    ) -> "ProcessSnapshot":
        """Return to the control state ``saved`` and give back the
        snapshot to use from now on.

        A process whose generator is the saved one and whose step count
        did not move since is restored field by field.  A poised process
        whose generator ran on (it stepped) or was replaced (it
        recovered) is re-primed from its factory and re-fed
        ``responses()`` — the responses delivered to it since its last
        recovery, in order.  Programs are deterministic functions of
        their responses, so the new generator stands where the old one
        stood; its pending operation must equal the saved one, or
        :class:`~repro.errors.ProtocolError` is raised.  Annotations the
        re-feed emits are discarded (the trace already holds them).
        The returned snapshot carries the new generator, so restoring
        it again leaves an untouched process alone.
        """
        status, output, pending, steps_taken, generator = saved
        if status is ProcessStatus.POISED and (
            generator is not self._generator or steps_taken != self.steps_taken
        ):
            self.status = ProcessStatus.PENDING
            self.prime()
            for response in responses():
                if self.status is not ProcessStatus.POISED:
                    break
                self._advance(response, first=False)
            self.fresh_annotations.clear()
            if self.status is not ProcessStatus.POISED or self._pending != pending:
                raise ProtocolError(
                    f"process {self.pid} re-fed its responses reached "
                    f"{self._pending or self.status.value}, not {pending}: "
                    "its program is not a deterministic function of the "
                    "responses delivered to it"
                )
            generator = self._generator
            saved = (status, output, pending, steps_taken, generator)
        self.status = status
        self.output = output
        self._pending = pending
        self.steps_taken = steps_taken
        self._generator = generator
        return saved

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _advance(self, value: Any, first: bool) -> None:
        assert self._generator is not None
        try:
            item = self._generator.send(None if first else value)
            while isinstance(item, Annotation):
                self.fresh_annotations.append(item)
                item = self._generator.send(None)
        except StopIteration as stop:
            self.status = ProcessStatus.DONE
            self.output = stop.value
            self._pending = None
            return
        if not isinstance(item, Operation):
            raise ProtocolError(
                f"process {self.pid} yielded {item!r}; programs may only "
                "yield Operation or Annotation values"
            )
        self._pending = item
        self.status = ProcessStatus.POISED
