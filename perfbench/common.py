"""Shared plumbing for the benchmark: paths, isolation, child processes,
summary statistics and the metric catalogue.

Every run happens in a fresh directory under ``.perfbench_tmp/`` in the
checkout, with every ``REPRO_*`` variable cleared, so ledgers, execsets,
checkpoints and traces land there and are removed when the run ends.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
TMP_ROOT = os.path.join(ROOT, ".perfbench_tmp")
PYTHON = sys.executable

#: explore-wide: O(7,1) consensus, one size below the ROADMAP's pinned
#: O(8,1), so that a run holds a dozen units and reports their median.
EXPLORE_ARGV = ["explore", "--task", "consensus", "--n", "7", "--k", "1"]

#: Percentile of the latency tail.  A run holds 10-20 explore-wide or
#: walk-deep units and 20-60 serve-faults jobs, as many as the host's
#: speed allows: p75 is the highest percentile with ten samples beyond
#: it in the larger runs.  It is the same in every run, since a
#: percentile chosen by sample count would flip between runs, and so
#: would the maximum of a dozen units.
TAIL_PERCENTILE = 75

# ----------------------------------------------------------------------
# Metric catalogue (mirrors BENCHMARK.json; run.py checks they agree)
# ----------------------------------------------------------------------
END_TO_END = {
    "wall_s": "s",
    "executions_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "job_latency_p50_s": "s",
    "job_latency_tail_s": "s",
    "jobs_per_s": "1/s",
    "success_ratio": "ratio",
}

#: Per-layer metrics: name -> unit.  Counts marked exact in EXACT must
#: read the same on every run of one source tree.
PER_LAYER = {
    "startup.import_s": "s",
    "startup.modules_loaded": "count",
    "runtime.system.systems_built": "count",
    "runtime.system.build_s": "s",
    "runtime.system.steps_replayed": "count",
    "runtime.system.steps_on_path": "count",
    "runtime.system.replay_overhead": "ratio",
    "runtime.system.step_s": "s",
    "runtime.system.outcomes_calls": "count",
    "runtime.system.outcomes_s": "s",
    "runtime.system.fault_s": "s",
    "runtime.explorer.executions": "count",
    "runtime.explorer.max_depth_seen": "count",
    "runtime.explorer.faults_injected": "count",
    "runtime.explorer.recoveries_injected": "count",
    "runtime.explorer.self_s": "s",
    "obs.execset.records": "count",
    "obs.execset.observe_s": "s",
    "obs.execset.write_s": "s",
    "obs.execset.bytes": "bytes",
    "obs.execset.distinct_configs": "count",
    "faults.checkpoint.writes": "count",
    "faults.checkpoint.write_s": "s",
    "faults.checkpoint.bytes": "bytes",
    "obs.events.events_written": "count",
    "obs.events.trace_bytes": "bytes",
    "obs.events.emit_s": "s",
    "obs.jobs.queue_wait_s": "s",
    "obs.jobs.worker_startup_s": "s",
    "obs.jobs.worker_command_self_s": "s",
    "obs.jobs.worker_explore_s": "s",
    "obs.jobs.attempts": "count",
    "obs.service.status_poll_s": "s",
    "trace.wall_s": "s",
    "trace.self_sum_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}

#: Counters that are a pure function of the source tree and the
#: workload.  Heartbeat-driven ones (events written, trace bytes) and
#: the span count (heartbeats emit events inside spans) are not.
EXACT = frozenset(
    name
    for name, unit in PER_LAYER.items()
    if unit in ("count", "bytes", "ratio")
    and name not in (
        "obs.events.events_written",
        "obs.events.trace_bytes",
        "trace.spans",
    )
)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def tail_percentile(values: Sequence[float]) -> Tuple[float, int]:
    """``(value, samples beyond)``: the :data:`TAIL_PERCENTILE` by
    nearest rank, the smallest value with that share of samples at or
    below it, and how many samples lie above it."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * TAIL_PERCENTILE // 100))
    return float(ordered[rank - 1]), len(ordered) - rank


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------
#: Seconds one :func:`reference_kernel` call takes at the reference
#: speed: a 2-core Xeon host in its faster state.
REFERENCE_S = 0.026


def reference_kernel() -> float:
    """Seconds for a fixed pure-Python computation (tuple keys, dict
    updates, string formatting, a sort), the kind of work the explorer
    does, written here so that no change to ``src/`` changes it."""
    started = time.perf_counter()
    table: Dict[Tuple, int] = {}
    for i in range(50000):
        key = (i % 61, i % 7, "p%d" % (i % 13))
        table[key] = table.get(key, 0) + 1
    sorted(table.items())
    return time.perf_counter() - started


class Pace:
    """The host's speed over one run, as a factor that scales measured
    durations to the reference speed.

    A shared host changes speed while runs go on: on a 2-core Xeon one
    unit took 1.35 s for minutes, then 2.7 s for minutes, and set-up
    time and a pure-Python loop slowed by the same factor.  So the run
    calls :meth:`sample` (five :func:`reference_kernel` calls) once
    before its first timed measurement and once after each one, and
    every duration it reports is multiplied by :attr:`factor`,
    :data:`REFERENCE_S` over the median of all those calls.  In the
    slower state single calls range over a factor of three while a unit
    of seconds averages that out, so the calls of the whole run are
    pooled rather than paired with the unit beside them.
    """

    def __init__(self) -> None:
        self.calls: List[float] = []
        self.sample()

    def sample(self) -> None:
        self.calls.extend(reference_kernel() for _ in range(5))

    @property
    def factor(self) -> float:
        return REFERENCE_S / statistics.median(self.calls)


# ----------------------------------------------------------------------
# Isolation
# ----------------------------------------------------------------------
def isolated_environment() -> None:
    """Clear every ``REPRO_*`` variable and make ``repro`` importable
    from the checkout's source tree, in this process and its children.
    Temporary files of children land under :data:`TMP_ROOT`."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["PYTHONPATH"] = SRC
    os.environ["PYTHONHASHSEED"] = "0"
    os.makedirs(TMP_ROOT, exist_ok=True)
    os.environ["TMPDIR"] = TMP_ROOT
    tempfile.tempdir = TMP_ROOT
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


class Scratch:
    """Fresh working directories for one benchmark run, all removed by
    :meth:`close`."""

    def __init__(self) -> None:
        os.makedirs(TMP_ROOT, exist_ok=True)
        self.root = tempfile.mkdtemp(prefix="run-", dir=TMP_ROOT)
        self._count = 0

    def fresh(self, label: str) -> str:
        self._count += 1
        path = os.path.join(self.root, f"{self._count:04d}-{label}")
        os.makedirs(path)
        return path

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)
        try:
            os.rmdir(TMP_ROOT)  # only when no other run is using it
        except OSError:
            pass


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
@dataclass
class ChildResult:
    code: int
    wall_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def run_child(argv: List[str], cwd: str, timeout: float = 170.0) -> ChildResult:
    """Run ``argv`` in ``cwd`` and reap it with ``wait4``.

    ``wall_s`` spans spawn to reap; ``peak_rss_mb`` is the child's own
    peak resident set from its rusage.  A child still running after
    ``timeout`` seconds is killed (and reported with its signal code);
    so is one whose wait is interrupted, before the exception goes on.
    """
    out_path = os.path.join(cwd, ".child.out")
    err_path = os.path.join(cwd, ".child.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err)
        watchdog = threading.Timer(timeout, _kill, (proc.pid,))
        watchdog.daemon = True
        watchdog.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as handle:
        stdout = handle.read()
    with open(err_path, encoding="utf-8", errors="replace") as handle:
        stderr = handle.read()
    return ChildResult(
        code=proc.returncode,
        wall_s=wall,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        stdout=stdout,
        stderr=stderr,
    )


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except OSError:
        pass


def children_peak_rss_mb() -> float:
    """Peak resident set of the largest child this process has reaped."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def last_json_line(text: str) -> Optional[Dict]:
    for line in reversed(text.splitlines()):
        line = line.strip()
        if line.startswith("{"):
            try:
                return json.loads(line)
            except ValueError:
                return None
    return None


def read_json(path: str) -> Dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def read_jsonl_last(path: str) -> Optional[Dict]:
    """The last JSON object of a JSONL file, or ``None``."""
    try:
        with open(path, encoding="utf-8") as handle:
            lines = [line for line in handle if line.strip()]
    except OSError:
        return None
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None
