"""The job queue behind ``repro serve``: supervised exploration workers.

A *job* is one exploration request (task, n, k, fault budgets, time/step budget,
…) accepted over ``POST /jobs`` and executed by a worker **subprocess**
running the ordinary CLI::

    python -m repro explore --task T --n N --k K [--max-crashes F]
        --checkpoint <job dir>/checkpoint.jsonl --checkpoint-every E
        --trace-out <job dir>/trace-<attempt>.jsonl
        --witness-dir <data dir>/witnesses --ledger <data dir>/runs.jsonl

Workers being processes (not threads) buys three things at once: the
GIL never couples explorations, a crashing worker cannot corrupt the
daemon, and every observability artifact (trace, checkpoint, ledger
record, witness bundle) lands on disk in the exact formats the rest of
the toolchain already reads.

Supervision: :class:`JobManager` runs ``max_workers`` daemon threads,
each popping queued jobs and waiting on its worker process.  Exit codes
0/1/3 are **final verdicts** (the ledger's proved/refuted/inconclusive
mapping); anything else — a signal, an unhandled exception — is a
*crash*.  A crashed worker is restarted from the job's last
``repro-checkpoint/1`` file when one exists (``--resume``, so the retry
visits exactly the executions the dead worker had not yet yielded, and
its ledger record links the dead run via ``parent_run_id``), or from
scratch when none was written yet.  After ``max_retries`` crashes the
job lands as ERROR.  Draining (SIGINT/SIGTERM on the daemon) interrupts
running workers with SIGINT — the CLI's existing handler flushes a
final checkpoint — and marks their jobs INTERRUPTED, resumable by a
future submission.

Everything the HTTP side needs is exposed as snapshots: job state under
one lock, progress by tailing the worker's JSONL trace for
``explore_heartbeat`` events (:class:`TraceTail` — file reads only,
never a lock a worker could hold).  The tail and the ``/jobs/<id>/events``
SSE stream read the trace files through one :class:`TraceCursor`.  See
docs/SERVICE.md.

Causal tracing: every job also gets a daemon-side trace
(``trace-daemon.jsonl``, written by :class:`JobTrace`) holding the spans
only the supervisor can see — the job envelope, ``queue_wait``, each
``attempt_N``, and the ``resume_gap`` between a crash and its resume.
Each attempt's span id is exported to the worker via the
``REPRO_TRACEPARENT`` environment variable, so the worker's own spans
root under their attempt; :mod:`repro.obs.trace_view` stitches the lot
into one causal tree per job.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.algorithms.set_consensus_from_family import EXPLORE_TASKS
from repro.faults.checkpoint import peek_checkpoint
from repro.fsutil import ensure_parent
from repro.obs import fingerprint as _fingerprint
from repro.obs import ledger as run_ledger
from repro.obs import trace_view as _trace_view
from repro.obs.spans import TRACEPARENT_ENV, derive_span_id, format_traceparent

# -- job states --------------------------------------------------------
QUEUED = "queued"
RUNNING = "running"
DONE = "done"  # final: worker returned a verdict exit code (0/1/3)
ERROR = "error"  # final: crashed more than max_retries times
INTERRUPTED = "interrupted"  # daemon drained; checkpoint left behind

FINAL_STATES = (DONE, ERROR)

#: Worker exit codes that are verdicts, not crashes (see
#: :data:`repro.obs.ledger.EXIT_VERDICTS`; 2 = error is deliberately
#: absent — an erroring worker is supervised like a crash).
VERDICT_EXITS = {0: "proved", 1: "refuted", 3: "inconclusive"}


@dataclass
class JobSpec:
    """A validated exploration request (the ``POST /jobs`` body).

    ``seed`` is recorded provenance for the upcoming randomized-scheduler
    ensembles (ROADMAP adversary-models item); the current exhaustive
    explorer does not consume it.
    """

    task: str = "set-consensus"
    n: int = 2
    k: int = 1
    max_crashes: int = 0
    max_recoveries: int = 0
    max_depth: int = 60
    deadline: Optional[float] = None
    max_steps: Optional[int] = None
    checkpoint_every: int = 100
    seed: Optional[int] = None
    label: str = ""

    def as_dict(self) -> Dict[str, Any]:
        return {
            key: value
            for key, value in self.__dict__.items()
            if value is not None and value != ""
        }


def known_tasks() -> List[str]:
    """The task names a job may name: the keys of
    :data:`repro.algorithms.set_consensus_from_family.EXPLORE_TASKS`, the
    registry ``repro explore`` builds its instances from."""
    return sorted(EXPLORE_TASKS)


def validate_spec(payload: Any) -> JobSpec:
    """Parse and validate a ``POST /jobs`` body into a :class:`JobSpec`.

    Strict on purpose: unknown keys, unknown tasks, and out-of-range
    values raise ``ValueError`` with a message fit for an HTTP 400 body —
    a silently-defaulted typo would burn hours of worker time on the
    wrong instance.
    """
    if not isinstance(payload, dict):
        raise ValueError("job spec must be a JSON object")
    spec = JobSpec()
    unknown = set(payload) - set(spec.__dict__)
    if unknown:
        raise ValueError(
            "unknown job spec key(s): " + ", ".join(sorted(unknown))
        )
    tasks = known_tasks()
    spec.task = str(payload.get("task", spec.task))
    if spec.task not in tasks:
        raise ValueError(
            f"unknown task {spec.task!r}; expected one of {', '.join(tasks)}"
        )
    for key, minimum in (
        ("n", 1), ("k", 1), ("max_crashes", 0), ("max_recoveries", 0),
        ("max_depth", 1), ("checkpoint_every", 1), ("max_steps", 1),
        ("seed", 0),
    ):
        if key not in payload or payload[key] is None:
            continue
        value = payload[key]
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"job spec {key!r} must be an integer")
        if value < minimum:
            raise ValueError(f"job spec {key!r} must be >= {minimum}, got {value}")
        setattr(spec, key, value)
    if payload.get("deadline") is not None:
        deadline = payload["deadline"]
        if isinstance(deadline, bool) or not isinstance(deadline, (int, float)):
            raise ValueError("job spec 'deadline' must be a number of seconds")
        if deadline <= 0:
            raise ValueError(f"job spec 'deadline' must be > 0, got {deadline}")
        spec.deadline = float(deadline)
    if "label" in payload:
        if not isinstance(payload["label"], str):
            raise ValueError("job spec 'label' must be a string")
        spec.label = payload["label"]
    return spec


#: Most bytes a :class:`TraceCursor` reads from a trace file at once.
TRACE_CHUNK = 8 << 20


class TraceCursor:
    """Read position in a job's per-attempt ``trace-N.jsonl`` files.

    :meth:`lines` yields the complete lines written since the last call,
    in attempt order; a partial line mid-write stays for the next call.
    The cursor moves to the next attempt's file only when the current
    one yields nothing and a later one exists — the current file can no
    longer grow then.
    """

    def __init__(self) -> None:
        self._file_index = 0
        self._offset = 0

    def lines(self, paths: List[str]) -> Iterator[bytes]:
        while self._file_index < len(paths):
            try:
                with open(paths[self._file_index], "rb") as handle:
                    handle.seek(self._offset)
                    chunk = handle.read(TRACE_CHUNK)
            except OSError:
                chunk = b""
            end = chunk.rfind(b"\n")
            if end >= 0:
                self._offset += end + 1
                yield from chunk[: end + 1].splitlines()
            elif self._file_index + 1 < len(paths):
                self._file_index += 1
                self._offset = 0
            else:
                return


class TraceTail:
    """Incremental reader over a job's per-attempt trace files.

    Tracks the latest ``explore_heartbeat`` (and a few other landmark
    events) without re-reading bytes already seen.  Handler threads call
    :meth:`poll` on demand; a cheap substring prefilter keeps the cost
    proportional to interesting lines, not to the step-event firehose.
    Thread-safe via its own lock — never a lock any worker holds.
    """

    _INTERESTING = (
        b'"explore_heartbeat"',
        b'"checkpoint_written"',
        b'"exploration_interrupted"',
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._cursor = TraceCursor()
        self.lines = 0
        self.heartbeat: Optional[Dict[str, Any]] = None
        self.last_checkpoint: Optional[Dict[str, Any]] = None
        self.interrupted: Optional[str] = None

    def poll(self, paths: List[str]) -> None:
        """Consume new complete lines from ``paths`` (attempt order)."""
        with self._lock:
            for line in self._cursor.lines(paths):
                self.lines += 1
                if not any(marker in line for marker in self._INTERESTING):
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    continue
                if not isinstance(record, dict):
                    continue
                event = record.get("event")
                record.pop("i", None)
                record.pop("event", None)
                if event == "explore_heartbeat":
                    self.heartbeat = record
                elif event == "checkpoint_written":
                    self.last_checkpoint = record
                elif event == "exploration_interrupted":
                    self.interrupted = str(record.get("reason", "interrupted"))

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            out: Dict[str, Any] = {"trace_lines": self.lines}
            if self.heartbeat is not None:
                out["explore"] = dict(self.heartbeat)
            if self.last_checkpoint is not None:
                out["checkpoint"] = dict(self.last_checkpoint)
            if self.interrupted is not None:
                out["interrupted"] = self.interrupted
            return out


class JobTrace:
    """Daemon-side span writer for one job.

    Appends the same ``span_start``/``span_end`` JSONL records a
    worker's ``--trace-out`` sink writes, so
    :mod:`repro.obs.trace_view` stitches daemon and worker files without
    special cases.  Identity is deterministic — ``trace_id`` is the
    content address of the job id, span ids come from
    :func:`repro.obs.spans.derive_span_id` — while ``seconds`` on
    ``span_end`` is measured wall time (the only non-deterministic field
    in the trace, and the one the waterfall exists to show).  A span
    whose ``finish`` never comes (daemon killed mid-job) is simply left
    open; the stitcher renders it unclosed.  Write failures are
    swallowed: tracing must never take down the supervisor.
    """

    def __init__(self, path: str, job_id: str):
        self.path = path
        self.trace_id = _fingerprint.content_id({"job": job_id})
        self._lock = threading.Lock()
        self._seq = 0
        self._count = 0
        #: open spans: span_id -> (name, parent_id, perf_counter start)
        self._open: Dict[str, Tuple[str, Optional[str], float]] = {}

    def begin(
        self, name: str, parent_id: Optional[str] = None, **fields: Any
    ) -> str:
        with self._lock:
            span_id = derive_span_id(name, self._seq, self.trace_id, parent_id)
            self._seq += 1
            self._open[span_id] = (name, parent_id, time.perf_counter())
            self._emit(
                "span_start",
                span=name,
                span_id=span_id,
                parent_id=parent_id,
                trace_id=self.trace_id,
                **fields,
            )
        return span_id

    def finish(
        self, span_id: Optional[str], error: Optional[str] = None
    ) -> None:
        """Close an open span (no-op for ``None`` or an unknown id, so
        callers need not track which error path already closed what)."""
        if span_id is None:
            return
        with self._lock:
            opened = self._open.pop(span_id, None)
            if opened is None:
                return
            name, parent_id, started = opened
            self._emit(
                "span_end",
                span=name,
                seconds=time.perf_counter() - started,
                error=error,
                span_id=span_id,
                parent_id=parent_id,
                trace_id=self.trace_id,
            )

    def _emit(self, event: str, **fields: Any) -> None:
        # Caller holds self._lock (keeps "i" ordered with the spans).
        record: Dict[str, Any] = {"i": self._count, "event": event}
        record.update(fields)
        self._count += 1
        try:
            with open(ensure_parent(self.path), "a", encoding="utf-8") as f:
                f.write(json.dumps(record, default=repr) + "\n")
        except OSError:
            pass


@dataclass
class Job:
    """One submitted exploration and everything known about it."""

    id: str
    spec: JobSpec
    job_dir: str
    state: str = QUEUED
    attempts: int = 0
    verdict: Optional[str] = None
    error: Optional[str] = None
    #: Ledger run ids of the attempts, in order.  A killed attempt's id
    #: is recovered from the checkpoint header it left behind; the final
    #: attempt's from the checkpoint it writes on completion.
    run_ids: List[str] = field(default_factory=list)
    exit_codes: List[int] = field(default_factory=list)
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    pid: Optional[int] = None
    drain_requested: bool = False
    tail: TraceTail = field(default_factory=TraceTail)
    #: Daemon-side causal trace (None only for hand-built test Jobs).
    trace: Optional[JobTrace] = None
    job_span: Optional[str] = None
    queue_span: Optional[str] = None

    @property
    def checkpoint_path(self) -> str:
        return os.path.join(self.job_dir, "checkpoint.jsonl")

    @property
    def daemon_trace_path(self) -> str:
        return os.path.join(self.job_dir, _trace_view.DAEMON_TRACE)

    @property
    def worker_log(self) -> str:
        return os.path.join(self.job_dir, "worker.log")

    def trace_path(self, attempt: int) -> str:
        return os.path.join(self.job_dir, f"trace-{attempt}.jsonl")

    def trace_paths(self) -> List[str]:
        return [self.trace_path(a) for a in range(1, self.attempts + 1)]

    def execset_path(self, attempt: int) -> str:
        return os.path.join(self.job_dir, f"execset-{attempt}.jsonl")


def _iso(stamp: Optional[float]) -> Optional[str]:
    if stamp is None:
        return None
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(stamp))


class JobManager:
    """Bounded worker pool executing jobs as supervised subprocesses.

    All mutation happens under one lock; readers get copies.  Worker
    threads only *wait* on their subprocess outside the lock, so HTTP
    handler snapshots can never be blocked by a running exploration.
    """

    def __init__(
        self,
        data_dir: str,
        max_workers: int = 2,
        max_retries: int = 2,
        worker_prefix: Optional[List[str]] = None,
    ):
        self.data_dir = os.path.abspath(data_dir)
        self.jobs_dir = os.path.join(self.data_dir, "jobs")
        self.ledger_path = os.path.join(self.data_dir, "runs.jsonl")
        self.witness_dir = os.path.join(self.data_dir, "witnesses")
        os.makedirs(self.jobs_dir, exist_ok=True)
        os.makedirs(self.witness_dir, exist_ok=True)
        self.max_workers = max(1, int(max_workers))
        self.max_retries = max(0, int(max_retries))
        #: Command that becomes a worker when job argv is appended —
        #: overridable by tests to simulate permanently-crashing workers.
        self.worker_prefix = worker_prefix or [sys.executable, "-m", "repro"]
        self.started_at = time.time()
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._queue: List[str] = []
        self._jobs: Dict[str, Job] = {}
        self._procs: Dict[str, subprocess.Popen] = {}
        self._draining = False
        self._closed = False
        #: stitched-trace cache: job id -> (per-file sizes key, trace)
        self._trace_cache: Dict[str, Tuple[Any, _trace_view.StitchedTrace]] = {}
        self._seq = self._initial_seq()
        self._threads = [
            threading.Thread(
                target=self._worker_loop,
                name=f"repro-job-worker-{index}",
                daemon=True,
            )
            for index in range(self.max_workers)
        ]
        for thread in self._threads:
            thread.start()

    def _initial_seq(self) -> int:
        """Continue job numbering across daemon restarts on one data dir."""
        highest = 0
        try:
            for name in os.listdir(self.jobs_dir):
                if name.startswith("job-"):
                    try:
                        highest = max(highest, int(name[4:].split("-")[0]))
                    except ValueError:
                        continue
        except OSError:
            pass
        return highest

    # -- submission ----------------------------------------------------
    def submit(self, payload: Any) -> Dict[str, Any]:
        """Validate and enqueue a job; returns its snapshot.

        Raises ``ValueError`` on a bad spec and ``RuntimeError`` once the
        manager is draining (the HTTP layer maps those to 400/503).
        """
        spec = validate_spec(payload)
        with self._lock:
            if self._draining:
                raise RuntimeError("service is draining; not accepting jobs")
            self._seq += 1
            job_id = f"job-{self._seq:04d}"
            job = Job(
                id=job_id,
                spec=spec,
                job_dir=os.path.join(self.jobs_dir, job_id),
            )
            os.makedirs(job.job_dir, exist_ok=True)
            job.trace = JobTrace(job.daemon_trace_path, job_id)
            job.job_span = job.trace.begin(
                "job", job=job_id, task=spec.task, n=spec.n, k=spec.k
            )
            job.queue_span = job.trace.begin(
                "queue_wait", parent_id=job.job_span
            )
            self._jobs[job_id] = job
            self._queue.append(job_id)
            self._wakeup.notify()
            return self._snapshot_locked(job)

    # -- worker side ---------------------------------------------------
    def worker_argv(self, job: Job, resume: bool) -> List[str]:
        """The CLI argv (after the ``repro`` prefix) for one attempt."""
        spec = job.spec
        if resume:
            argv = ["explore", "--resume", job.checkpoint_path]
        else:
            argv = [
                "explore",
                "--task", spec.task,
                "--n", str(spec.n),
                "--k", str(spec.k),
                "--max-depth", str(spec.max_depth),
                "--max-crashes", str(spec.max_crashes),
                "--max-recoveries", str(spec.max_recoveries),
            ]
        argv += [
            "--checkpoint", job.checkpoint_path,
            "--checkpoint-every", str(spec.checkpoint_every),
            "--trace-out", job.trace_path(job.attempts),
            "--witness-dir", self.witness_dir,
            "--ledger", self.ledger_path,
            "--execset-out", job.execset_path(job.attempts),
        ]
        if spec.deadline is not None:
            argv += ["--deadline", str(spec.deadline)]
        if spec.max_steps is not None:
            argv += ["--max-steps", str(spec.max_steps)]
        return argv

    def _worker_env(self) -> Dict[str, str]:
        """Worker environment: guarantee ``repro`` is importable even
        when the daemon runs from a source tree."""
        import repro

        env = dict(os.environ)
        package_root = os.path.dirname(
            os.path.dirname(os.path.abspath(repro.__file__))
        )
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            package_root + os.pathsep + existing if existing else package_root
        )
        return env

    def _worker_loop(self) -> None:
        while True:
            with self._wakeup:
                while not self._queue and not self._closed:
                    self._wakeup.wait()
                if self._closed and not self._queue:
                    return
                job_id = self._queue.pop(0)
                job = self._jobs[job_id]
                job.state = RUNNING
                job.started_at = time.time()
            if job.trace is not None:
                job.trace.finish(job.queue_span)
            try:
                self._run_job(job)
            except Exception as error:  # supervisor bugs land as ERROR, loudly
                with self._lock:
                    job.state = ERROR
                    job.error = f"supervisor failure: {error!r}"
                    job.finished_at = time.time()
                if job.trace is not None:
                    job.trace.finish(job.job_span, error="supervisor_failure")

    def _run_job(self, job: Job) -> None:
        crashes = 0
        trace = job.trace
        resume_span: Optional[str] = None
        while True:
            checkpoint = peek_checkpoint(job.checkpoint_path)
            resume = checkpoint is not None and not checkpoint.done
            if checkpoint is not None and checkpoint.run_id:
                with self._lock:
                    if checkpoint.run_id not in job.run_ids:
                        # The dead attempt's ledger id survives only in the
                        # checkpoint header it flushed — record it so the
                        # resume chain is visible even though the killed
                        # worker never wrote its own ledger record.
                        job.run_ids.append(checkpoint.run_id)
            if checkpoint is not None and checkpoint.done:
                # Nothing left to explore: the dead worker finished the
                # walk but was killed before exiting cleanly.
                if trace is not None:
                    trace.finish(resume_span)
                self._finish(job, verdict="proved", exit_code=0)
                return
            with self._lock:
                job.attempts += 1
                attempt = job.attempts
            attempt_span: Optional[str] = None
            env = self._worker_env()
            if trace is not None:
                # The resume gap ends the instant the next attempt begins.
                trace.finish(resume_span)
                resume_span = None
                attempt_span = trace.begin(
                    f"attempt_{attempt}",
                    parent_id=job.job_span,
                    resume=resume,
                )
                # Root the worker's whole trace under this attempt span.
                env[TRACEPARENT_ENV] = format_traceparent(
                    trace.trace_id, attempt_span
                )
            argv = self.worker_prefix + self.worker_argv(job, resume=resume)
            ensure_parent(job.worker_log)
            with open(job.worker_log, "a", encoding="utf-8") as log:
                log.write(f"--- attempt {attempt}: {' '.join(argv)}\n")
                log.flush()
                try:
                    proc = subprocess.Popen(
                        argv,
                        stdout=log,
                        stderr=subprocess.STDOUT,
                        env=env,
                        cwd=self.data_dir,
                    )
                except OSError as error:
                    with self._lock:
                        job.state = ERROR
                        job.error = f"cannot spawn worker: {error}"
                        job.finished_at = time.time()
                    if trace is not None:
                        trace.finish(attempt_span, error="spawn_failed")
                        trace.finish(job.job_span, error="spawn_failed")
                    return
                with self._lock:
                    job.pid = proc.pid
                    self._procs[job.id] = proc
                try:
                    returncode = proc.wait()
                finally:
                    with self._lock:
                        job.pid = None
                        self._procs.pop(job.id, None)
            if trace is not None:
                trace.finish(
                    attempt_span,
                    error=(
                        None
                        if returncode in VERDICT_EXITS
                        else f"exit_{returncode}"
                    ),
                )
            with self._lock:
                job.exit_codes.append(returncode)
                drained = job.drain_requested
            final = peek_checkpoint(job.checkpoint_path)
            if final is not None and final.run_id:
                with self._lock:
                    if final.run_id not in job.run_ids:
                        job.run_ids.append(final.run_id)
            if drained:
                with self._lock:
                    job.state = INTERRUPTED
                    job.error = "daemon drained; resume from the checkpoint"
                    job.finished_at = time.time()
                if trace is not None:
                    trace.finish(job.job_span, error="interrupted")
                return
            if returncode in VERDICT_EXITS:
                self._finish(
                    job,
                    verdict=VERDICT_EXITS[returncode],
                    exit_code=returncode,
                )
                return
            crashes += 1
            if crashes > self.max_retries:
                with self._lock:
                    job.state = ERROR
                    job.error = (
                        f"worker crashed {crashes} time(s) "
                        f"(last exit {returncode}); retries exhausted"
                    )
                    job.finished_at = time.time()
                if trace is not None:
                    trace.finish(job.job_span, error="retries_exhausted")
                return
            # else: loop — resume from the checkpoint if one exists.  The
            # gap between the crash and the respawn is real wall time the
            # job loses; span it so the waterfall shows it.
            if trace is not None:
                resume_span = trace.begin(
                    "resume_gap",
                    parent_id=job.job_span,
                    after_attempt=attempt,
                )

    def _finish(self, job: Job, verdict: str, exit_code: int) -> None:
        with self._lock:
            job.state = DONE
            job.verdict = verdict
            job.finished_at = time.time()
            if not job.exit_codes or job.exit_codes[-1] != exit_code:
                job.exit_codes.append(exit_code)
        if job.trace is not None:
            job.trace.finish(job.job_span)

    # -- reading -------------------------------------------------------
    def _snapshot_locked(self, job: Job) -> Dict[str, Any]:
        snap: Dict[str, Any] = {
            "id": job.id,
            "spec": job.spec.as_dict(),
            "state": job.state,
            "attempts": job.attempts,
            "run_ids": list(job.run_ids),
            "exit_codes": list(job.exit_codes),
            "submitted_at": _iso(job.submitted_at),
            "started_at": _iso(job.started_at),
            "finished_at": _iso(job.finished_at),
            "job_dir": job.job_dir,
        }
        if job.verdict is not None:
            snap["verdict"] = job.verdict
        if job.error is not None:
            snap["error"] = job.error
        if job.pid is not None:
            snap["pid"] = job.pid
        return snap

    def job_snapshot(self, job_id: str) -> Optional[Dict[str, Any]]:
        """One job's full status, heartbeat-fed progress included."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return None
            snap = self._snapshot_locked(job)
            traces = job.trace_paths()
            tail = job.tail
        tail.poll(traces)  # file reads; outside the manager lock
        snap.update(tail.snapshot())
        return snap

    def list_jobs(self) -> List[Dict[str, Any]]:
        with self._lock:
            jobs = [self._snapshot_locked(j) for j in self._jobs.values()]
        return sorted(jobs, key=lambda j: j["id"])

    def counts(self) -> Tuple[Dict[str, int], Dict[str, int]]:
        """(jobs per state, verdict tallies of DONE jobs) for /metrics."""
        states = {s: 0 for s in (QUEUED, RUNNING, DONE, ERROR, INTERRUPTED)}
        verdicts: Dict[str, int] = {}
        with self._lock:
            for job in self._jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
                if job.verdict is not None:
                    verdicts[job.verdict] = verdicts.get(job.verdict, 0) + 1
        return states, verdicts

    def read_ledger(self) -> Tuple[List[Dict[str, Any]], int]:
        """The daemon's ledger (every worker appends here)."""
        return run_ledger.read_ledger(self.ledger_path)

    def stitched_trace(self, job_id: str) -> Optional[_trace_view.StitchedTrace]:
        """The job's stitched causal trace (daemon + all worker attempts),
        or ``None`` for an unknown job.

        Cached per job, keyed on the trace files and their sizes, so
        repeated dashboard/metrics reads of a finished job stitch once —
        and a still-running job restitches only when its traces grew.
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return None
            job_dir = job.job_dir
        files = _trace_view.job_dir_trace_files(job_dir)
        key = []
        for path in files:
            try:
                key.append((path, os.path.getsize(path)))
            except OSError:
                key.append((path, -1))
        cache_key = tuple(key)
        with self._lock:
            cached = self._trace_cache.get(job_id)
            if cached is not None and cached[0] == cache_key:
                return cached[1]
        trace = _trace_view.stitch_files(files)  # file reads; no lock held
        with self._lock:
            self._trace_cache[job_id] = (cache_key, trace)
        return trace

    def trace_totals(self) -> Tuple[int, Dict[str, float]]:
        """``(stitched span count, self-seconds per span name)`` summed
        over finished jobs — the ``trace_spans_total`` /
        ``span_self_seconds`` Prometheus samples.  Finished jobs only:
        their traces are immutable, so this is one cache hit per job."""
        with self._lock:
            final_ids = sorted(
                job.id
                for job in self._jobs.values()
                if job.state in FINAL_STATES
            )
        total = 0
        self_seconds: Dict[str, float] = {}
        for job_id in final_ids:
            trace = self.stitched_trace(job_id)
            if trace is None:
                continue
            total += trace.span_count
            for name, seconds in trace.self_seconds_by_name().items():
                self_seconds[name] = self_seconds.get(name, 0.0) + seconds
        return total, self_seconds

    @property
    def draining(self) -> bool:
        with self._lock:
            return self._draining

    # -- lifecycle -----------------------------------------------------
    def drain(self, timeout: float = 15.0) -> None:
        """Stop accepting jobs, interrupt running workers, join threads.

        Running workers get SIGINT — the explore CLI's handler flushes a
        final checkpoint and exits 3 — and their jobs become
        INTERRUPTED.  Workers that ignore SIGINT past ``timeout`` are
        killed.  Idempotent.
        """
        with self._lock:
            if self._closed:
                return
            self._draining = True
            self._closed = True
            for job_id, proc in list(self._procs.items()):
                self._jobs[job_id].drain_requested = True
                try:
                    proc.send_signal(signal.SIGINT)
                except OSError:
                    pass
            self._wakeup.notify_all()
        deadline = time.monotonic() + timeout
        for thread in self._threads:
            remaining = max(0.1, deadline - time.monotonic())
            thread.join(timeout=remaining)
        with self._lock:
            stragglers = list(self._procs.values())
        for proc in stragglers:
            try:
                proc.kill()
            except OSError:
                pass
        for thread in self._threads:
            thread.join(timeout=2.0)
