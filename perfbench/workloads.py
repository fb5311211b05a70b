"""The three workloads: explore-wide, walk-deep and serve-faults.

Each workload function takes a :class:`Run`, performs a warm-up, its
timed units for ``run.seconds``, its set-up measurements and, when
``run.trace`` is set, one traced run; it returns
``(end_to_end, per_layer)`` metric dicts.  Every unit's output is
checked against ``expected.json``; a mismatch is a failed unit.
"""

from __future__ import annotations

import json
import os
import re
import select
import subprocess
import time
import urllib.error
import urllib.request
from typing import Any, Dict, List, Optional, Tuple

import tracer
from common import (
    BENCH_DIR,
    EXPLORE_ARGV,
    PER_LAYER,
    PYTHON,
    TAIL_PERCENTILE,
    ChildResult,
    Pace,
    Scratch,
    children_peak_rss_mb,
    last_json_line,
    median,
    read_jsonl_last,
    run_child,
    tail_percentile,
)

UNIT = os.path.join(BENCH_DIR, "unit.py")
CLI = [PYTHON, "-m", "repro"]

#: Set-up measurements per run; the reported value is their median.
SETUP_REPEATS = 9

#: serve-faults: the job every client request submits.
SERVE_JOB = {"task": "consensus", "n": 4, "k": 1,
             "max_crashes": 1, "max_recoveries": 1}
#: Seconds between the client's ``GET /jobs`` polls.
POLL_INTERVAL = 0.02

_EXPLORE_LINE = re.compile(
    r"(\d+) executions \(\d+ this run\), max depth (\d+), (\d+) on-path "
    r"\+ (\d+) replayed steps, (\d+) faults injected, (\d+) recoveries"
)


class Run:
    """State of one benchmark invocation: settings, scratch space, the
    tally of attempted and failed units, and the exact counters seen."""

    def __init__(self, seed: int, seconds: float, trace: bool,
                 expected: Dict[str, Any]):
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.expected = expected
        self.scratch = Scratch()
        self.attempted = 0
        self.failures: List[str] = []
        self.counts: Dict[str, Any] = {}
        self.env: Dict[str, Any] = {}

    def tally(self, label: str, problems: List[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{label}: " + "; ".join(problems))

    def same_counts(self, counts: Dict[str, Any]) -> List[str]:
        """Exact counters must read the same in every unit of the run."""
        problems = []
        for name, value in counts.items():
            seen = self.counts.setdefault(name, value)
            if seen != value:
                problems.append(f"{name} is {value}, earlier unit saw {seen}")
        return problems

    def close(self) -> None:
        self.scratch.close()


def _exit_problem(result: ChildResult, expected: int) -> List[str]:
    if result.code == expected:
        return []
    tail = result.stderr.strip().splitlines()[-3:]
    return [f"exit {result.code}, expected {expected}: {' | '.join(tail)}"]


def _timed_units(run: Run, one_unit) -> None:
    """Call ``one_unit()`` the number of times whose total time comes
    nearest to ``run.seconds`` (at least once): another unit starts only
    while the window has more than half a unit's time left, so the
    count does not flip by one between runs of one source tree."""
    started = time.perf_counter()
    units = 0
    while True:
        one_unit()
        units += 1
        elapsed = time.perf_counter() - started
        if elapsed + 0.5 * elapsed / units >= run.seconds:
            return


def _warm_up(run: Run) -> None:
    """Compile and cache bytecode before anything is timed."""
    result = run_child([PYTHON, "-c", "import repro.__main__"],
                       run.scratch.fresh("warm-up"))
    run.tally("warm-up", _exit_problem(result, 0))


def _run_metrics(walls: List[float], executions: int) -> Dict[str, float]:
    """``wall_s`` and ``executions_per_s`` from per-run durations."""
    return {
        "wall_s": median(walls),
        "executions_per_s": median([executions / wall for wall in walls]),
    }


def _latency_metrics(latencies: List[float], busy_s: float,
                     run: Run) -> Dict[str, float]:
    """Job latency p50 and tail, and jobs completed per busy second."""
    tail, beyond = tail_percentile(latencies)
    run.env.update(samples=len(latencies), tail_percentile=TAIL_PERCENTILE,
                   tail_samples_beyond=beyond)
    return {
        "job_latency_p50_s": median(latencies),
        "job_latency_tail_s": tail,
        "jobs_per_s": len(latencies) / busy_s,
    }


def _speed_factor(run: Run, pace: Pace, raw_walls: List[float]) -> float:
    """The run's host-speed factor, recorded with the unscaled median."""
    run.env.update(raw_wall_s=median(raw_walls), speed_factor=pace.factor,
                   reference_calls=len(pace.calls))
    return pace.factor


# ----------------------------------------------------------------------
# Traced runs
# ----------------------------------------------------------------------
def _traced(run: Run, workload: str, cwd: str,
            argv: Optional[List[str]] = None) -> Tuple[ChildResult, Dict, Dict]:
    """Run one traced child; returns ``(result, meta, self times)``."""
    out = os.path.join(cwd, "spans")
    command = [PYTHON, UNIT, "trace", workload, out]
    if argv:
        command += ["--"] + argv
    result = run_child(command, cwd)
    if result.code != 0 or not os.path.exists(out + ".json"):
        run.tally("traced run", _exit_problem(result, 0) or ["no spans written"])
        return result, {}, {}
    header, columns = tracer.read_spans(out)
    times = tracer.self_times(header["names"], columns)
    return result, header["meta"], times


def _layer_metrics(meta: Dict, times: Dict, traced_wall: float,
                   untraced_wall: float, run: Run) -> Dict[str, float]:
    """Per-layer metrics of a traced run (0 for layers it never entered)."""
    def calls(name: str) -> int:
        return times.get(name, (0, 0.0, 0.0))[0]

    def self_s(name: str) -> float:
        return times.get(name, (0, 0.0, 0.0))[1]

    def total_s(name: str) -> float:
        return times.get(name, (0, 0.0, 0.0))[2]

    layer: Dict[str, float] = {name: 0 for name in PER_LAYER}
    explorers = meta.get("explorers") or [{}]
    layer.update(explorers[-1])
    root = total_s(tracer.ROOT)
    self_sum = sum(entry[1] for entry in times.values())
    layer.update({
        "startup.import_s": total_s(tracer.IMPORT),
        "startup.modules_loaded": meta.get("modules_loaded", 0),
        "runtime.system.systems_built": calls(tracer.BUILD),
        "runtime.system.build_s": self_s(tracer.BUILD),
        "runtime.system.step_s": self_s(tracer.STEP),
        "runtime.system.outcomes_calls": calls(tracer.OUTCOMES),
        "runtime.system.outcomes_s": self_s(tracer.OUTCOMES),
        "runtime.system.fault_s": self_s(tracer.FAULT),
        "runtime.explorer.self_s": self_s(tracer.WALK),
        "obs.execset.observe_s": self_s(tracer.OBSERVE),
        "obs.execset.write_s": self_s(tracer.WRITE),
        "faults.checkpoint.writes": calls(tracer.CHECKPOINT),
        "faults.checkpoint.write_s": self_s(tracer.CHECKPOINT),
        "faults.checkpoint.bytes": meta.get("checkpoint_bytes", 0),
        "obs.events.events_written": calls(tracer.EMIT),
        "obs.events.emit_s": self_s(tracer.EMIT),
        "trace.wall_s": root,
        "trace.self_sum_s": self_sum,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.spans": sum(entry[0] for entry in times.values()),
    })
    for path in meta.get("execset_paths", []):
        layer.update(_execset_file_metrics(path))
    problems = []
    if root <= 0 or abs(self_sum - root) > 0.01 * root:
        problems.append(
            f"span self times sum to {self_sum:.4f}s, root spans {root:.4f}s"
        )
    run.tally("traced run", problems)
    return layer


def _execset_file_metrics(path: str) -> Dict[str, float]:
    configs = set()
    records = 0
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if "id" in record:
                records += 1
                configs.add(record.get("config"))
    return {
        "obs.execset.records": records,
        "obs.execset.bytes": os.path.getsize(path),
        "obs.execset.distinct_configs": len(configs),
    }


# ----------------------------------------------------------------------
# explore-wide
# ----------------------------------------------------------------------
def _check_explore(run: Run, cwd: str, result: ChildResult,
                   setup: bool) -> List[str]:
    """Exit code, ledger verdict, execset footer and counts of one
    ``repro explore`` run in ``cwd``."""
    expected = run.expected["explore-wide"]
    problems = _exit_problem(result, 3 if setup else 0)
    record = read_jsonl_last(os.path.join(cwd, ".repro", "runs.jsonl")) or {}
    verdict = "inconclusive" if setup else expected["verdict"]
    if record.get("verdict") != verdict:
        problems.append(f"ledger verdict {record.get('verdict')!r}, expected {verdict!r}")
    if setup:
        return problems
    execset_path = os.path.join(cwd, (record.get("execset") or {}).get("path", "-"))
    footer = read_jsonl_last(execset_path) or {}
    if footer.get("merged_digest") != expected["digest"]:
        problems.append(f"execset digest {footer.get('merged_digest')}")
    if footer.get("total_records") != expected["executions"]:
        problems.append(f"execset records {footer.get('total_records')}")
    match = _EXPLORE_LINE.search(result.stdout)
    if match is None:
        return problems + ["no summary line on stdout"]
    executions, depth, on_path, replayed, faults, recoveries = map(int, match.groups())
    if executions != expected["executions"]:
        problems.append(f"{executions} executions, expected {expected['executions']}")
    return problems + run.same_counts({
        "runtime.explorer.executions": executions,
        "runtime.explorer.max_depth_seen": depth,
        "runtime.explorer.faults_injected": faults,
        "runtime.explorer.recoveries_injected": recoveries,
        "runtime.system.steps_replayed": replayed,
        "runtime.system.steps_on_path": on_path,
    })


def explore_wide(run: Run) -> Tuple[Dict[str, float], Dict[str, float]]:
    _warm_up(run)
    pace = Pace()
    raw_walls: List[float] = []
    rss: List[float] = []

    def one_unit() -> None:
        cwd = run.scratch.fresh("explore")
        result = run_child(CLI + EXPLORE_ARGV, cwd)
        pace.sample()
        raw_walls.append(result.wall_s)
        rss.append(result.peak_rss_mb)
        run.tally("explore", _check_explore(run, cwd, result, setup=False))

    _timed_units(run, one_unit)
    raw_setups = []
    for _ in range(SETUP_REPEATS):
        cwd = run.scratch.fresh("setup")
        result = run_child(CLI + EXPLORE_ARGV + ["--deadline", "0"], cwd)
        pace.sample()
        raw_setups.append(result.wall_s)
        run.tally("setup", _check_explore(run, cwd, result, setup=True))
    factor = _speed_factor(run, pace, raw_walls)
    walls = [wall * factor for wall in raw_walls]
    # Each unit is one job whose caller waits for its verdict.
    e2e = {
        **_run_metrics(walls, run.expected["explore-wide"]["executions"]),
        **_latency_metrics(walls, sum(walls), run),
        "peak_rss_mb": median(rss),
        "setup_s": median(raw_setups) * factor,
    }
    layer: Dict[str, float] = {}
    if run.trace:
        cwd = run.scratch.fresh("traced")
        result, meta, times = _traced(run, "explore-wide", cwd)
        if meta:
            layer = _layer_metrics(meta, times, result.wall_s, median(raw_walls), run)
            run.tally("traced explore", _check_explore(run, cwd, result, setup=False))
    return e2e, layer


# ----------------------------------------------------------------------
# walk-deep
# ----------------------------------------------------------------------
def _check_walk(run: Run, result: ChildResult,
                walk: Optional[Dict]) -> List[str]:
    expected = run.expected["walk-deep"]
    problems = _exit_problem(result, 0)
    if not walk:
        return problems + ["no walk result"]
    for key in ("executions", "multi_win", "digest"):
        if walk.get(key) != expected[key]:
            problems.append(f"{key} {walk.get(key)}, expected {expected[key]}")
    if walk.get("post_walk_digest") != walk.get("digest"):
        problems.append(
            "post-walk digest differs from the at-yield digest: a yielded "
            "execution changed after it was handed out"
        )
    return problems + run.same_counts(walk.get("counts", {}))


def walk_deep(run: Run) -> Tuple[Dict[str, float], Dict[str, float]]:
    _warm_up(run)
    pace = Pace()
    raw_walls: List[float] = []
    rss: List[float] = []

    def one_unit() -> None:
        result = run_child([PYTHON, UNIT, "walk"], run.scratch.fresh("walk"))
        pace.sample()
        walk = last_json_line(result.stdout)
        if walk:
            raw_walls.append(walk["wall_s"])
            rss.append(result.peak_rss_mb)
        run.tally("walk", _check_walk(run, result, walk))

    _timed_units(run, one_unit)
    raw_setups = []
    for _ in range(SETUP_REPEATS):
        result = run_child([PYTHON, UNIT, "walk-setup"], run.scratch.fresh("setup"))
        pace.sample()
        raw_setups.append(result.wall_s)
        run.tally("setup", _exit_problem(result, 0))
    if not raw_walls:
        return {}, {}
    factor = _speed_factor(run, pace, raw_walls)
    walls = [wall * factor for wall in raw_walls]
    e2e = {
        **_run_metrics(walls, run.expected["walk-deep"]["executions"]),
        **_latency_metrics(walls, sum(walls), run),
        "peak_rss_mb": median(rss),
        "setup_s": median(raw_setups) * factor,
    }
    layer: Dict[str, float] = {}
    if run.trace:
        result, meta, times = _traced(run, "walk-deep", run.scratch.fresh("traced"))
        if meta:
            walk = meta["walk"]
            layer = _layer_metrics(meta, times, walk["wall_s"], median(raw_walls), run)
            run.tally("traced walk", _check_walk(run, result, walk))
    return e2e, layer


# ----------------------------------------------------------------------
# serve-faults
# ----------------------------------------------------------------------
def _http(url: str, payload: Optional[Dict] = None) -> Any:
    data = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(url, data=data, method="POST" if data else "GET")
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.loads(response.read())


def _daemon_setup(run: Run) -> float:
    """Seconds from spawning ``repro serve`` until ``GET /jobs`` first
    answers.  The idle daemon is then killed: a drain would wait out the
    HTTP server's 0.5 s poll, nine times per run, for nothing measured."""
    cwd = run.scratch.fresh("serve-setup")
    started = time.perf_counter()
    proc = subprocess.Popen(
        CLI + ["serve", "--port", "0", "--data-dir", os.path.join(cwd, "data")],
        cwd=cwd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )
    problems: List[str] = []
    answered = -1.0
    try:
        url = _read_dashboard_url(proc, deadline=started + 60)
        while url and time.perf_counter() < started + 60:
            try:
                _http(url + "jobs")
                answered = time.perf_counter() - started
                break
            except (urllib.error.URLError, ConnectionError):
                time.sleep(0.001)
        if answered < 0:
            problems.append("daemon never answered GET /jobs")
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    run.tally("serve setup", problems)
    return answered


def _read_dashboard_url(proc: subprocess.Popen, deadline: float) -> Optional[str]:
    buffered = b""
    while time.perf_counter() < deadline:
        ready, _, _ = select.select([proc.stderr], [], [], 0.5)
        if not ready:
            continue
        chunk = os.read(proc.stderr.fileno(), 4096)
        if not chunk:
            return None
        buffered += chunk
        match = re.search(rb"dashboard at (http://\S+/)", buffered)
        if match:
            return match.group(1).decode()
    return None


def _attempt_seconds(job_dir: str) -> Optional[float]:
    """The ``attempt_1`` span's duration from the daemon-side trace."""
    try:
        with open(os.path.join(job_dir, "trace-daemon.jsonl"), encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                if record.get("event") == "span_end" and record.get("span") == "attempt_1":
                    return float(record["seconds"])
    except (OSError, ValueError, KeyError):
        return None
    return None


def _check_job(run: Run, snap: Dict[str, Any]) -> List[str]:
    """A served job: final state, one attempt, and its job directory."""
    problems = []
    if snap.get("state") != "done" or snap.get("verdict") != run.expected["serve-faults"]["verdict"]:
        problems.append(f"state {snap.get('state')}/{snap.get('verdict')}: {snap.get('error')}")
    if snap.get("attempts") != 1 or snap.get("exit_codes") != [0]:
        problems.append(f"attempts {snap.get('attempts')}, exits {snap.get('exit_codes')}")
    return problems + _check_job_dir(run, snap["job_dir"])


def _check_job_dir(run: Run, job_dir: str) -> List[str]:
    """The execset footer and final checkpoint statistics of one job."""
    expected = run.expected["serve-faults"]
    problems = []
    footer = read_jsonl_last(os.path.join(job_dir, "execset-1.jsonl")) or {}
    if footer.get("merged_digest") != expected["digest"]:
        problems.append(f"execset digest {footer.get('merged_digest')}")
    if footer.get("total_records") != expected["executions"]:
        problems.append(f"execset records {footer.get('total_records')}")
    stats = _checkpoint_stats(os.path.join(job_dir, "checkpoint.jsonl"))
    if stats is None:
        return problems + ["no final checkpoint"]
    return problems + run.same_counts({
        "runtime.explorer.executions": stats.get("executions"),
        "runtime.explorer.max_depth_seen": stats.get("max_depth_seen"),
        "runtime.explorer.faults_injected": stats.get("faults_injected"),
        "runtime.explorer.recoveries_injected": stats.get("recoveries_injected"),
        "runtime.system.steps_replayed": stats.get("steps_replayed"),
        "runtime.system.steps_on_path": stats.get("steps_on_path"),
    })


def _checkpoint_stats(path: str) -> Optional[Dict[str, Any]]:
    """The explorer statistics in a checkpoint file's header line."""
    try:
        with open(path, encoding="utf-8") as handle:
            return json.loads(handle.readline()).get("stats")
    except (OSError, ValueError, AttributeError):
        return None


def _job_layers(job_dirs: List[str]) -> Dict[str, float]:
    """obs.jobs metrics: medians over the jobs' stitched traces."""
    from repro.obs.trace_view import job_dir_trace_files, stitch_files

    samples: Dict[str, List[float]] = {}

    def add(name: str, spans, field: str) -> None:
        if spans:
            samples.setdefault(name, []).append(float(getattr(spans[0], field) or 0.0))

    for job_dir in job_dirs:
        stitched = stitch_files(job_dir_trace_files(job_dir))
        add("obs.jobs.queue_wait_s", stitched.find("queue_wait"), "seconds")
        add("obs.jobs.worker_startup_s", stitched.find("attempt_1"), "self_seconds")
        add("obs.jobs.worker_command_self_s", stitched.find("command"), "self_seconds")
        add("obs.jobs.worker_explore_s", stitched.find("explore"), "seconds")
    return {name: median(values) for name, values in samples.items()}


def serve_faults(run: Run) -> Tuple[Dict[str, float], Dict[str, float]]:
    from repro.obs.jobs import Job, validate_spec
    from repro.obs.service import serve_service

    _warm_up(run)
    # One worker, one job outstanding: on a host of a few shared cores,
    # concurrent workers would time each other, not the program; and the
    # host's speed is sampled between jobs, while nothing else runs.
    run.env.update(max_workers=1, poll_interval_s=POLL_INTERVAL)
    payload = dict(SERVE_JOB, seed=run.seed)
    session = serve_service(run.scratch.fresh("serve"), max_workers=1)
    raw_latencies: List[float] = []
    polls: List[float] = []
    finished: Dict[str, Dict[str, Any]] = {}
    try:
        base = session.url("/")
        posted: Dict[str, float] = {}

        def submit() -> float:
            at = time.perf_counter()
            posted[_http(base + "jobs", payload)["id"]] = at
            return at

        pace = Pace()
        started = tick = submit()
        while posted:
            tick += POLL_INTERVAL
            time.sleep(max(0.0, tick - time.perf_counter()))
            asked = time.perf_counter()
            jobs = _http(base + "jobs")["jobs"]
            seen = time.perf_counter()
            polls.append(seen - asked)
            for snap in jobs:
                if snap["id"] in posted and snap["state"] not in ("queued", "running"):
                    raw_latencies.append(seen - posted.pop(snap["id"]))
                    pace.sample()
                    finished[snap["id"]] = snap
                    if seen - started < run.seconds:
                        tick = submit()
            if seen - started > run.seconds + 120:
                run.tally("serve loop", [f"{len(posted)} job(s) never finished"])
                break
        traced_job: Optional[Job] = None
        if run.trace:
            traced_job = Job(id="job-traced", spec=validate_spec(payload),
                             job_dir=run.scratch.fresh("traced-job"))
            traced_job.attempts = 1
            traced_argv = session.manager.worker_argv(traced_job, resume=False)
    finally:
        session.close()
    rss = children_peak_rss_mb()
    raw_attempts = []
    for job_id, snap in sorted(finished.items()):
        run.tally(job_id, _check_job(run, snap))
        seconds = _attempt_seconds(snap["job_dir"])
        if seconds is not None:
            raw_attempts.append(seconds)
    raw_setups = []
    for _ in range(SETUP_REPEATS):
        raw_setups.append(_daemon_setup(run))
        pace.sample()
    if not raw_latencies or not raw_attempts:
        return {}, {}
    factor = _speed_factor(run, pace, raw_attempts)
    attempts = [seconds * factor for seconds in raw_attempts]
    latencies = [seconds * factor for seconds in raw_latencies]
    # wall_s is the worker's run, from spawn to verdict; with one job
    # outstanding the loop is busy for the sum of the latencies.
    e2e = {
        **_run_metrics(attempts, run.expected["serve-faults"]["executions"]),
        **_latency_metrics(latencies, sum(latencies), run),
        "peak_rss_mb": rss,
        "setup_s": median(raw_setups) * factor,
    }
    layer: Dict[str, float] = {}
    if run.trace and traced_job is not None:
        cwd = run.scratch.fresh("traced")
        result, meta, times = _traced(run, "serve-faults", cwd, traced_argv)
        if meta:
            layer = _layer_metrics(meta, times, result.wall_s, median(raw_attempts), run)
            run.tally("traced job", _exit_problem(result, 0)
                      + _check_job_dir(run, traced_job.job_dir))
            trace_path = traced_job.trace_path(1)
            if os.path.exists(trace_path):
                layer["obs.events.trace_bytes"] = os.path.getsize(trace_path)
        layer.update(_job_layers([snap["job_dir"] for snap in finished.values()]))
        layer["obs.jobs.attempts"] = max(snap["attempts"] for snap in finished.values())
        layer["obs.service.status_poll_s"] = median(polls)
    return e2e, layer
