"""Child-process entry points of the benchmark (one unit of work each).

    python3 perfbench/unit.py walk                  timed walk-deep run
    python3 perfbench/unit.py walk-setup            import repro, build the spec
    python3 perfbench/unit.py trace WORKLOAD OUT [-- ARGV...]
                                                    traced run; spans -> OUT.*

``run.py`` starts these with ``PYTHONPATH`` pointing at the checkout's
``src`` and a fresh working directory.  ``walk`` prints one JSON line.
"""

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

#: walk-deep: the tournament test-and-set for 2 processes under the
#: crash-recovery adversary (2 crashes, 1 recovery), sized so that a run
#: holds a dozen units and reports their median.
WALK_N = 2
WALK_ARGS = dict(max_depth=40, max_crashes=2, max_recoveries=1)


def walk_deep(log=None):
    """Enumerate every walk-deep execution and tally the verdict.

    Each yielded execution is kept and its identity material copied at
    yield time.  After the walk, the set digest is computed twice: from
    the copies and from the kept objects.  They differ only if the
    explorer mutated an execution after handing it out.
    """
    from repro.algorithms.tournament_tas import WIN, tournament_spec
    from repro.obs.execset import execution_id, set_digest
    from repro.obs.fingerprint import content_id
    from repro.runtime.explorer import Explorer

    explorer = Explorer(tournament_spec(WALK_N), **WALK_ARGS)
    kept = []
    at_yield = []
    multi_win = 0
    consume = log.name_id("bench.consume") if log is not None else None
    started = time.perf_counter()
    for execution in explorer.executions():
        if log is not None:
            span = log.begin(consume)
        kept.append(execution)
        at_yield.append(
            (
                tuple(execution.full_decisions),
                tuple(execution.crashes),
                tuple(execution.recoveries),
            )
        )
        wins = sum(1 for value in execution.outputs.values() if value == WIN)
        if wins > 1:
            multi_win += 1
        if log is not None:
            log.finish(span)
    wall = time.perf_counter() - started
    stats = explorer.stats
    return {
        "wall_s": wall,
        "executions": stats.executions,
        "multi_win": multi_win,
        "digest": set_digest(content_id(list(item)) for item in at_yield),
        "post_walk_digest": set_digest(execution_id(e) for e in kept),
        "counts": explorer_counts(explorer),
    }


def explorer_counts(explorer):
    stats = explorer.stats
    return {
        "runtime.explorer.executions": stats.executions,
        "runtime.explorer.max_depth_seen": stats.max_depth_seen,
        "runtime.explorer.faults_injected": stats.faults_injected,
        "runtime.explorer.recoveries_injected": stats.recoveries_injected,
        "runtime.system.steps_replayed": stats.steps_replayed,
        "runtime.system.steps_on_path": stats.steps_on_path,
        "runtime.system.replay_overhead": stats.replay_overhead,
    }


def walk_setup():
    from repro.algorithms.tournament_tas import tournament_spec

    tournament_spec(WALK_N)


def traced(workload, out, argv):
    """One traced run of ``workload``; spans and meta land at ``out``.
    Returns the traced command's exit code (0 for walk-deep)."""
    import tracer
    from common import EXPLORE_ARGV

    log = tracer.SpanLog()
    root = log.begin(log.name_id(tracer.ROOT), at=STARTED)
    before = len(sys.modules)
    span = log.begin(log.name_id(tracer.IMPORT))
    import repro.__main__ as cli

    log.finish(span)
    meta = {"modules_loaded": len(sys.modules) - before}
    probe = tracer.install(log)
    code = 0
    if workload == "walk-deep":
        meta["walk"] = walk_deep(log)
    else:
        code = cli.main(EXPLORE_ARGV if workload == "explore-wide" else argv)
    log.finish(root)
    meta["checkpoint_bytes"] = probe.checkpoint_bytes
    meta["execset_paths"] = [os.path.abspath(p) for p in probe.execset_paths]
    meta["explorers"] = [explorer_counts(e) for e in probe.explorers]
    log.write(out, meta)
    return code


def main(args):
    if args[:1] == ["walk"]:
        print(json.dumps(walk_deep()))
    elif args[:1] == ["walk-setup"]:
        walk_setup()
    elif args[:1] == ["trace"] and len(args) >= 3:
        rest = args[4:] if args[3:4] == ["--"] else []
        return traced(args[1], args[2], rest)
    else:
        print(__doc__, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
