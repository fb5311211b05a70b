"""Exhaustive schedule exploration — bounded model checking.

The wait-free model quantifies over every adversary.  For small systems we
can *enumerate* that quantifier: the explorer walks the tree of all
scheduling decisions (and all nondeterministic-object outcomes), yielding
every maximal execution.  Theorem-level claims ("every execution decides at
most k values", "this implementation is linearizable in every execution")
become terminating checks.

Python generators cannot be forked, so the walk drives one live system
and backtracks by *rewinding* it to a configuration marked on the way
down (:meth:`~repro.runtime.system.System.mark` /
:meth:`~repro.runtime.system.System.rewind`): object states are
immutable values, and a process's control state is a function of its
program and the responses it received since its last recovery, so only
processes that moved below the mark are re-primed.  Every edge of the
tree is stepped once; marks are held for the current path only, so
memory stays O(depth) — see DESIGN.md, "Key design decisions".

Three robustness dimensions ride on the same walk (see docs/ROBUSTNESS.md):

* **crash branching** (``max_crashes=f``): "crash pid p now" decisions are
  interleaved with scheduling decisions, so the enumeration covers every
  crash *timing*, not just crash sets dead from the start — the regime
  where recoverable-power distinctions actually live.  Recovery
  branching (``max_recoveries=r``) composes with it: "revive pid p with
  amnesia now" becomes one more adversary decision, turning the walk
  into the crash-*recovery* adversary;
* **budgets**: a :class:`~repro.faults.budget.Budget` (explicit or the
  process-wide active one) stops the walk gracefully, leaving
  :attr:`Explorer.interrupted` set instead of raising;
* **checkpointing**: the DFS frontier — the exact remaining work — is a
  small list of decision prefixes, periodically serialized to a
  :mod:`repro.faults.checkpoint` file and restorable with
  :meth:`Explorer.from_checkpoint`.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import (
    Any,
    Callable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import ExplorationLimitError
from repro.faults.budget import Budget, get_active_budget
from repro.faults.checkpoint import Checkpoint
from repro.faults.checkpoint import write_checkpoint as _write_checkpoint_file
from repro.faults.verdict import Verdict
from repro.obs import events as _obs_events
from repro.obs.coverage import CoverageEstimator
from repro.runtime.execution import CRASH_CHOICE, RECOVER_CHOICE, Execution
from repro.runtime.process import ProcessStatus
from repro.runtime.system import Mark, System, SystemSpec

#: (pid, outcome choice) — CRASH_CHOICE = crash, RECOVER_CHOICE = recover
Decision = Tuple[int, int]

#: The fault sentinels, for "is this a fault decision" tests.
FAULT_CHOICES = (CRASH_CHOICE, RECOVER_CHOICE)


@dataclass
class ExplorationStatistics:
    """Counters reported by an exploration pass.

    ``steps_on_path`` counts first-time steps (one per tree edge — the
    decision appended when a node is first visited); ``steps_replayed``
    counts re-executions of prefix decisions.  A fresh walk rewinds to
    the parent of every node it visits and replays nothing; a walk
    resumed from a checkpoint replays the interior of a frontier prefix
    only until its nodes are marked (at most the summed frontier prefix
    lengths).  Their sum is every simulator step the exploration
    actually executed, which matches the event-derived ``steps_total``
    when a sink is attached.  Crash decisions are tracked separately
    (``faults_injected`` counts first-time crash branches taken;
    re-applying a crash during replay is not a step).
    """

    executions: int = 0
    steps_replayed: int = 0
    steps_on_path: int = 0
    max_depth_seen: int = 0
    truncated: int = 0  # executions cut off by the depth bound
    faults_injected: int = 0  # first-time crash decisions explored
    recoveries_injected: int = 0  # first-time recovery decisions explored

    def merge(self, other: "ExplorationStatistics") -> None:
        self.executions += other.executions
        self.steps_replayed += other.steps_replayed
        self.steps_on_path += other.steps_on_path
        self.max_depth_seen = max(self.max_depth_seen, other.max_depth_seen)
        self.truncated += other.truncated
        self.faults_injected += other.faults_injected
        self.recoveries_injected += other.recoveries_injected

    @property
    def steps_total(self) -> int:
        """Every simulator step executed (replayed + on-path)."""
        return self.steps_replayed + self.steps_on_path

    @property
    def replay_overhead(self) -> float:
        """Redundant steps per useful step (0.0 when nothing was
        explored or replayed)."""
        if not self.steps_on_path:
            return 0.0
        return self.steps_replayed / self.steps_on_path


class Explorer:
    """Depth-first enumeration of all executions of a system spec.

    Parameters
    ----------
    spec:
        The system to explore.
    max_depth:
        Hard bound on execution length.  Wait-free protocols terminate well
        below any reasonable bound; hitting the bound is recorded in
        :attr:`stats.truncated` and, with ``strict=True``, raises
        :class:`~repro.errors.ExplorationLimitError` (a truncated branch
        means the claim "in all executions" was not fully checked).
    strict:
        Whether hitting ``max_depth`` is an error (default) or merely
        counted.
    pid_filter:
        Optional callable ``(system, enabled_pids) -> pids`` restricting
        which *scheduling* branches are taken — the hook used for
        partial-order or symmetry reduction by callers that know their
        protocol's structure.  Crash branches are drawn from the raw
        enabled set, so a filter that pins the schedule still explores
        every crash timing along it.
    max_crashes:
        Crash-branching budget: at every configuration with fewer than
        this many crashes so far, a "crash pid p now" branch is explored
        for each enabled (and crashable) process, in addition to the
        scheduling branches.  Back-to-back crash decisions are canonically
        ordered by pid, so each crash *set x timing* is enumerated once.
    crashable_pids:
        Restrict crash branches to these pids (default: all).
    max_recoveries:
        Recovery-branching budget (crash-recovery adversary): at every
        configuration with a crashed process and fewer than this many
        recoveries so far, a "recover pid p now" branch is explored in
        addition to the scheduling and crash branches.  A recovered
        process restarts its program with amnesia while shared objects
        keep their state.  Composes with ``max_crashes`` (recoveries
        only ever apply to processes a crash branch killed, so
        ``crashable_pids`` bounds them transitively) and shares the
        crash branches' canonical fault ordering, keeping the
        enumeration duplicate-free.
    budget:
        Deadline/step :class:`~repro.faults.budget.Budget`.  Defaults to
        the process-wide active budget at enumeration time.  When the
        budget runs out the walk stops, :attr:`interrupted` records the
        reason, and (if configured) a final checkpoint is written.
    checkpoint_path:
        When set, the DFS frontier is checkpointed here every
        ``checkpoint_every`` yielded executions, on budget exhaustion,
        and at the end of the walk (empty frontier = finished).
    heartbeat_interval:
        Minimum seconds between ``explore_heartbeat`` events — the live
        telemetry pulse carrying executions done, frontier size and depth
        histogram, execution rate, and the coverage/ETA estimate (see
        :mod:`repro.obs.coverage`).  Only emitted while the event bus is
        enabled; ``0.0`` emits one per execution (used by tests).
    auditor:
        Optional :class:`~repro.obs.audit.StateAuditor` observing the
        walk: every visited configuration (for revisit/orbit counting)
        and every completed execution (for commuting-pair sampling).
        Purely observational — the walk order, the yielded executions,
        and every verdict are identical with and without it; when unset
        (the default) the hooks cost one ``None`` check per node.
    execset:
        Optional :class:`~repro.obs.execset.ExecutionSetRecorder`
        folding every maximal execution into a content-addressed
        execution-set digest (see :mod:`repro.obs.execset`).  Observed
        at the final configuration, before the execution is yielded;
        its digest-so-far rides along in checkpoints so resumed runs
        merge cleanly.  Purely observational, same contract as
        ``auditor``; one ``None`` check per execution when unset.
    """

    def __init__(
        self,
        spec: SystemSpec,
        max_depth: int = 200,
        strict: bool = True,
        pid_filter: Optional[Callable[[System, List[int]], List[int]]] = None,
        max_crashes: int = 0,
        crashable_pids: Optional[Iterable[int]] = None,
        max_recoveries: int = 0,
        budget: Optional[Budget] = None,
        checkpoint_path: Optional[str] = None,
        checkpoint_every: int = 1000,
        heartbeat_interval: float = 0.5,
        auditor: Optional[Any] = None,
        execset: Optional[Any] = None,
    ):
        self.spec = spec
        self.max_depth = max_depth
        self.strict = strict
        self.pid_filter = pid_filter
        self.max_crashes = max_crashes
        self.crashable_pids = (
            None if crashable_pids is None else frozenset(crashable_pids)
        )
        self.max_recoveries = max_recoveries
        self.budget = budget
        self.checkpoint_path = checkpoint_path
        self.checkpoint_every = checkpoint_every
        self.heartbeat_interval = heartbeat_interval
        self.auditor = auditor
        if auditor is not None and hasattr(auditor, "bind"):
            auditor.bind(spec)
        self.execset = execset
        self.stats = ExplorationStatistics()
        #: Reason the walk stopped early (budget exhaustion), or ``None``.
        self.interrupted: Optional[str] = None
        #: Executions yielded before this run started (from a checkpoint).
        self.resumed_executions = 0
        #: Run-ledger id recorded in checkpoints (set by the CLI) so a
        #: resumed run can name its parent (see :mod:`repro.obs.ledger`).
        self.run_id: Optional[str] = None
        self._initial_frontier: Optional[List[List[Decision]]] = None
        self._stack: Optional[List[List[Decision]]] = None
        self._budget: Optional[Budget] = None
        self._spec_meta: dict = {}
        self._clock = time.monotonic
        self._estimator = CoverageEstimator()
        self._walk_started: Optional[float] = None
        self._last_heartbeat = 0.0
        self._branch_sum = 0  # branches over all expanded interior nodes
        self._branch_nodes = 0
        self._leaf_depth_sum = 0  # depths of completed executions

    # ------------------------------------------------------------------
    # Construction from a checkpoint
    # ------------------------------------------------------------------
    @classmethod
    def from_checkpoint(
        cls, spec: SystemSpec, checkpoint: Checkpoint, **kwargs
    ) -> "Explorer":
        """Rebuild an explorer that visits exactly the executions the
        checkpointed run had not yet yielded.

        ``max_depth`` and ``max_crashes`` default to the checkpointed
        values; any keyword overrides them.  The spec must match the one
        the checkpoint was taken from (process count is validated here,
        deeper divergence surfaces as replay errors).
        """
        if checkpoint.n_processes and checkpoint.n_processes != spec.n_processes:
            raise ExplorationLimitError(
                f"checkpoint was taken for {checkpoint.n_processes} "
                f"processes, the spec has {spec.n_processes}"
            )
        kwargs.setdefault("max_depth", checkpoint.max_depth or 200)
        kwargs.setdefault("max_crashes", checkpoint.max_crashes)
        kwargs.setdefault("max_recoveries", checkpoint.max_recoveries)
        explorer = cls(spec, **kwargs)
        explorer._initial_frontier = [list(p) for p in checkpoint.frontier]
        explorer.resumed_executions = checkpoint.executions
        return explorer

    # ------------------------------------------------------------------
    # Enumeration
    # ------------------------------------------------------------------
    def executions(self) -> Iterator[Execution]:
        """Yield every maximal execution (all processes quiescent).

        Under recovery branching (``max_recoveries > 0``) a quiescent
        configuration that still holds crashed processes is yielded as a
        maximal execution *and* expanded through its recovery branches:
        reviving a dead process is the adversary's option, never its
        obligation, so the crash-stop outcome ("they stay dead") remains
        part of the enumerated space — ``max_recoveries=r`` strictly
        subsumes ``max_recoveries=0``.
        """
        if self._initial_frontier is not None:
            yield from self._walk_frontier(self._initial_frontier)
        else:
            yield from self._walk([])

    def check(self, predicate: Callable[[Execution], bool]) -> Optional[Execution]:
        """Verify ``predicate`` on every maximal execution.

        Returns ``None`` if the predicate held everywhere, otherwise the
        first counterexample execution (a replayable witness).  When the
        walk was cut short, ``None`` only means "no counterexample found
        so far" — consult :attr:`interrupted` or use :meth:`check_verdict`.

        While a :mod:`repro.obs.witness` store is active, the
        counterexample is archived as a ``repro-witness/1`` bundle
        before it is returned.
        """
        for execution in self.executions():
            if not predicate(execution):
                self._capture_witness(execution, kind="counterexample")
                return execution
        return None

    def check_verdict(
        self, predicate: Callable[[Execution], bool]
    ) -> Tuple[Verdict, Optional[Execution], str]:
        """Budget-aware :meth:`check`: ``(verdict, witness, reason)``.

        ``PROVED`` — predicate held over the complete enumeration;
        ``REFUTED`` — ``witness`` violates it (sound even under budget);
        ``INCONCLUSIVE`` — the walk was cut short first.
        """
        witness = self.check(predicate)
        if witness is not None:
            return Verdict.REFUTED, witness, "counterexample found"
        if self.interrupted is not None:
            return Verdict.INCONCLUSIVE, None, self.interrupted
        return Verdict.PROVED, None, ""

    def find(self, predicate: Callable[[Execution], bool]) -> Optional[Execution]:
        """Return the first maximal execution satisfying ``predicate``
        (an existence witness), or ``None``.

        Like :meth:`check`, archives the witness when a
        :mod:`repro.obs.witness` store is active."""
        for execution in self.executions():
            if predicate(execution):
                self._capture_witness(execution, kind="existence")
                return execution
        return None

    def _capture_witness(self, execution: Execution, kind: str) -> None:
        """Archive a deciding execution through the active witness store.

        Imported lazily: :mod:`repro.obs.witness` depends on this module's
        package, and the fast path (no store active) is a cached-module
        lookup plus one ``None`` check.
        """
        from repro.obs import witness as _obs_witness

        if _obs_witness.get_active_store() is None:
            return
        _obs_witness.capture(
            execution,
            kind=kind,
            source=f"explorer.{'check' if kind == 'counterexample' else 'find'}",
            spec=self._spec_meta or None,
        )

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def set_spec_meta(self, **meta) -> None:
        """Attach opaque spec provenance recorded in checkpoints (used by
        the CLI so ``repro explore --resume FILE`` can rebuild the spec)."""
        self._spec_meta = dict(meta)

    def write_checkpoint(self, path: Optional[str] = None) -> str:
        """Serialize the current frontier (pending decision prefixes) to
        ``path`` (default: ``checkpoint_path``), atomically.

        Callable at any point: before the walk starts the frontier is the
        root (everything pending); after it finishes, empty (done).  The
        CLI calls this from its SIGINT handler.
        """
        destination = path or self.checkpoint_path
        if destination is None:
            raise ValueError("no checkpoint path configured")
        if self._stack is not None:
            frontier = [list(p) for p in self._stack]
        elif self._initial_frontier is not None:
            frontier = [list(p) for p in self._initial_frontier]
        else:
            frontier = [[]]
        _write_checkpoint_file(
            destination,
            n_processes=self.spec.n_processes,
            frontier=frontier,
            executions=self.total_executions,
            max_depth=self.max_depth,
            max_crashes=self.max_crashes,
            max_recoveries=self.max_recoveries,
            stats=asdict(self.stats),
            spec=self._spec_meta,
            run_id=self.run_id,
            execset=(
                self.execset.checkpoint_state()
                if self.execset is not None
                else None
            ),
        )
        return destination

    @property
    def total_executions(self) -> int:
        """Executions yielded across the whole exploration, including any
        checkpointed run this one resumed."""
        return self.resumed_executions + self.stats.executions

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _descend(
        self, system: System, marks: List[Mark], path: List[Decision],
        prefix: List[Decision],
    ) -> None:
        """Bring ``system`` to node ``prefix`` by rewinding, not rebuilding.

        ``marks[i]`` remembers the configuration after ``path[:i]``, the
        live DFS path.  Rewind to the deepest mark that ``prefix``'s
        parent extends (in a fresh walk: the parent itself), then step
        the rest, marking each interior node on the way.  Those interior
        decisions are replay overhead — only a resumed frontier's first
        prefixes have any; the final decision is the one first-time
        (on-path) step.  The system's ``replaying`` flag tracks the
        boundary so step events carry the attribution.
        """
        last = len(prefix) - 1
        k = min(last, len(path))
        if k > 0 and prefix[:k] != path[:k]:
            k = 0
            while prefix[k] == path[k]:
                k += 1
        k = max(k, 0)
        del marks[k + 1:]
        del path[k:]
        system.rewind(marks[k])
        steps_replayed = 0
        steps_fresh = 0
        for index in range(k, len(prefix)):
            decision = prefix[index]
            pid, choice = decision
            fresh = index == last
            if choice == CRASH_CHOICE:
                system.crash(pid)
                if fresh:
                    self.stats.faults_injected += 1
            elif choice == RECOVER_CHOICE:
                system.recover(pid)
                if fresh:
                    self.stats.recoveries_injected += 1
            else:
                system.replaying = not fresh
                system.step(pid, choice)
                if fresh:
                    steps_fresh += 1
                else:
                    steps_replayed += 1
            if not fresh:
                path.append(decision)
                marks.append(system.mark())
        system.replaying = False
        self.stats.steps_replayed += steps_replayed
        self.stats.steps_on_path += steps_fresh
        if self._budget is not None:
            self._budget.charge_steps(steps_replayed + steps_fresh)

    def _branches(self, system: System, prefix: List[Decision]) -> List[Decision]:
        enabled = system.enabled_pids()
        step_pids = enabled
        if self.pid_filter is not None:
            step_pids = self.pid_filter(system, list(enabled))
        branches: List[Decision] = []
        for pid in step_pids:
            n = len(system.outcomes_for(pid))
            if n == 0:  # misuse-hang: a single blocking branch
                branches.append((pid, 0))
            else:
                branches.extend((pid, c) for c in range(n))
        if self.max_crashes or self.max_recoveries:
            # Canonical fault ordering: fault decisions (crash or recover)
            # on distinct pids commute when back-to-back — both orders
            # leave identical (step_index, pid) fault records, hence
            # identical executions — so a run of consecutive fault
            # decisions is explored in non-decreasing pid order only and
            # each fault multiset lands at each timing exactly once.
            # Same-pid immediate repeats are excluded by liveness (a
            # crashed pid is not enabled, a recovered pid is not crashed),
            # so on crash-only exploration this degenerates to the old
            # strictly-increasing-pid rule.
            min_fault_pid = 0
            if prefix and prefix[-1][1] in FAULT_CHOICES:
                min_fault_pid = prefix[-1][0]
        if self.max_crashes:
            crashes_so_far = sum(1 for _pid, c in prefix if c == CRASH_CHOICE)
            if crashes_so_far < self.max_crashes:
                for pid in enabled:
                    if pid < min_fault_pid:
                        continue
                    if self.crashable_pids is not None and pid not in self.crashable_pids:
                        continue
                    branches.append((pid, CRASH_CHOICE))
        if self.max_recoveries:
            recoveries_so_far = sum(
                1 for _pid, c in prefix if c == RECOVER_CHOICE
            )
            if recoveries_so_far < self.max_recoveries:
                # Like crash branches, recovery branches ignore any
                # pid_filter: a pinned schedule still explores every
                # recovery timing along it.  Only crashed processes can
                # recover, so crashable_pids bounds these transitively.
                for process in system.processes:
                    if process.status is not ProcessStatus.CRASHED:
                        continue
                    if process.pid < min_fault_pid:
                        continue
                    branches.append((process.pid, RECOVER_CHOICE))
        return branches

    def _walk(self, prefix: Sequence[Decision]) -> Iterator[Execution]:
        yield from self._walk_frontier([list(prefix)])

    def _walk_frontier(
        self, frontier: List[List[Decision]]
    ) -> Iterator[Execution]:
        """DFS over pending decision prefixes (the resumable core).

        ``frontier`` is a stack, top last; ``self._stack`` aliases the
        live stack so :meth:`write_checkpoint` — called between yields or
        from a signal handler — captures exactly the remaining work.
        """
        stack = self._stack = [list(p) for p in frontier]
        budget = self._budget = (
            self.budget if self.budget is not None else get_active_budget()
        )
        if budget is not None:
            budget.start()
        since_checkpoint = 0
        self._walk_started = self._clock()
        self._last_heartbeat = self._walk_started
        # The one live system and the marks along its DFS path (O(depth)).
        system: Optional[System] = None
        marks: List[Mark] = []
        path: List[Decision] = []
        while stack:
            observed = _obs_events.is_enabled()
            if budget is not None:
                reason = budget.exhausted_reason()
                if reason is not None:
                    self._interrupt(reason, observed)
                    return
            prefix = stack.pop()
            if system is None:
                system = self.spec.build()
                marks.append(system.mark())
            self._descend(system, marks, path, prefix)
            self.stats.max_depth_seen = max(self.stats.max_depth_seen, len(prefix))
            branches = self._branches(system, prefix)
            if self.auditor is not None:
                self.auditor.observe_configuration(system, depth=len(prefix))
            if observed:
                _obs_events.emit(
                    "frontier", depth=len(prefix), branches=len(branches)
                )
            if branches and len(prefix) < self.max_depth:
                self._branch_sum += len(branches)
                self._branch_nodes += 1
                for decision in reversed(branches):
                    stack.append(prefix + [decision])
                if prefix:
                    path.append(prefix[-1])
                    marks.append(system.mark())
                # A quiescent configuration whose only branches are
                # recoveries is *also* maximal: the adversary may decline
                # to revive anyone, so the crash-stop outcome stays in
                # the enumeration.  Fall through and yield it in addition
                # to its recovery children.
                if any(choice != RECOVER_CHOICE for _pid, choice in branches):
                    continue
                if observed:
                    _obs_events.emit("schedule_explored", depth=len(prefix))
            elif branches:  # depth bound hit with work remaining
                self.stats.truncated += 1
                if observed:
                    _obs_events.emit("schedule_truncated", depth=len(prefix))
                if self.strict:
                    raise ExplorationLimitError(
                        f"execution exceeded max_depth={self.max_depth}; "
                        "raise the bound or check for non-termination"
                    )
            else:
                if observed:
                    _obs_events.emit("schedule_explored", depth=len(prefix))
            self.stats.executions += 1
            self._leaf_depth_sum += len(prefix)
            since_checkpoint += 1
            execution = system.finalize()
            if self.auditor is not None:
                self.auditor.observe_execution(execution)
            if self.execset is not None:
                # Must precede the checkpoint write below: a checkpoint
                # that counts this execution must also carry it in its
                # digest-so-far, or a crash landing between the two
                # leaves a permanent hole in the resumed run's set (the
                # prefix is already off the frontier).
                self.execset.observe(execution, system)
            if (
                self.checkpoint_path is not None
                and since_checkpoint >= self.checkpoint_every
            ):
                self.write_checkpoint()
                since_checkpoint = 0
            if observed:
                now = self._clock()
                if now - self._last_heartbeat >= self.heartbeat_interval:
                    self._last_heartbeat = now
                    self._heartbeat(now)
            yield execution
        self._stack = []
        if self.checkpoint_path is not None:
            self.write_checkpoint()  # empty frontier marks completion

    def _heartbeat(self, now: float) -> None:
        """Emit one ``explore_heartbeat`` telemetry event.

        Carries the raw walk observables (executions, frontier size and
        depth histogram, branch statistics, elapsed wall time) plus the
        coverage estimator's derived fields (rate / remaining / coverage
        / ETA — absent while not yet estimable).  Rate-limited by
        ``heartbeat_interval``; the O(frontier) depth histogram is cheap
        at that cadence.
        """
        stack = self._stack or []
        depths: dict = {}
        for prefix in stack:
            depth = len(prefix)
            depths[depth] = depths.get(depth, 0) + 1
        mean_branch = (
            self._branch_sum / self._branch_nodes if self._branch_nodes else 0.0
        )
        mean_leaf_depth = (
            self._leaf_depth_sum / self.stats.executions
            if self.stats.executions
            else 0.0
        )
        elapsed = now - (self._walk_started or now)
        estimate = self._estimator.update(
            executions=self.total_executions,
            elapsed=elapsed,
            frontier_depths=depths,
            mean_branch=mean_branch,
            mean_leaf_depth=mean_leaf_depth,
        )
        _obs_events.emit(
            "explore_heartbeat",
            executions=self.total_executions,
            frontier=len(stack),
            frontier_depths=depths,
            mean_branch=round(mean_branch, 3),
            mean_leaf_depth=round(mean_leaf_depth, 3),
            elapsed=round(elapsed, 3),
            max_depth_seen=self.stats.max_depth_seen,
            faults_injected=self.stats.faults_injected,
            recoveries_injected=self.stats.recoveries_injected,
            **estimate,
        )

    def _interrupt(self, reason: str, observed: bool) -> None:
        self.interrupted = reason
        if observed:
            _obs_events.emit(
                "exploration_interrupted",
                reason=reason,
                executions=self.total_executions,
                frontier=len(self._stack or []),
            )
        if self.checkpoint_path is not None:
            self.write_checkpoint()


def explore_executions(
    spec: SystemSpec, max_depth: int = 200, strict: bool = True
) -> Iterator[Execution]:
    """Convenience wrapper: iterate all maximal executions of ``spec``."""
    yield from Explorer(spec, max_depth=max_depth, strict=strict).executions()


def check_all_executions(
    spec: SystemSpec,
    predicate: Callable[[Execution], bool],
    max_depth: int = 200,
) -> Optional[Execution]:
    """Check ``predicate`` over all executions; ``None`` means it held
    everywhere, otherwise the first counterexample is returned."""
    return Explorer(spec, max_depth=max_depth).check(predicate)


def find_execution(
    spec: SystemSpec,
    predicate: Callable[[Execution], bool],
    max_depth: int = 200,
) -> Optional[Execution]:
    """Find a witness execution satisfying ``predicate``, or ``None``."""
    return Explorer(spec, max_depth=max_depth).find(predicate)
