"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``describe N K``
    Print the data sheet of O(N, K): geometry, consensus number, task,
    separation witnesses, agreement profile.
``curves N [--kmax K] [--nmax NMAX]``
    Print the agreement curves K(N) for consensus number N and family
    levels 1..K — the repository's implicit figure.
``check N K``
    Model-check O(N, K)'s headline claims live (consensus, exhaustive or
    sampled set consensus) and print the verdict.
``explore [--task T] [--n N] [--k K] [--max-crashes F] [--max-recoveries R]
[--checkpoint FILE] [--resume FILE] [--execset-out FILE] [--no-execset]
[--selfcheck]``
    Drive the exhaustive explorer directly: enumerate every execution
    (optionally every crash timing with ``--max-crashes``, and every
    crash-recovery timing with ``--max-recoveries``), periodically
    checkpointing the DFS frontier.  An interrupted run (SIGINT, budget)
    flushes a final checkpoint and exits 3; ``--resume FILE`` continues
    it, visiting exactly the executions the interrupted run had not yet
    yielded.  By default every run also records its execution *set* as a
    content-addressed ``repro-execset/1`` digest stream (default path
    ``.repro/execsets/<run-id>.jsonl``, override with ``--execset-out``,
    disable with ``--no-execset``) — the artifact ``repro diff``
    compares.  ``--selfcheck`` runs the exploration twice (fresh, and
    interrupted-then-resumed from a mid-run checkpoint) and verifies
    set-equality of the two digests, exit 1 on any difference.
``diff A B [--json] [--html OUT.html] [--ledger FILE]``
    Compare two explorations as *sets of executions*: operands are
    ``repro-execset/1`` file paths or ledger run ids (unique prefixes
    accepted; a run id pulls in its whole resume chain, merged).
    Reports set-digest equality, the set difference with example
    executions, verdicts, per-depth visit histograms, audit summaries,
    and wall-clock/throughput; a set difference is explained by
    replaying a minimal missing execution into an ``obs/explain`` lane
    diagram pinpointing the first diverging decision.  Exit 0 same
    set + same verdict, 1 same verdict but different set (legitimate
    for sound reductions), 2 verdict divergence, 3 usage.  Output is
    deterministic: two invocations over the same targets are
    byte-identical (stdout and ``--html``).
``audit [--task T] [--n N] [--k K] [--max-crashes F] [--html OUT.html]``
    Exhaustively explore an instance with the state-space redundancy
    profiler attached and print the reduction-headroom table: revisit
    ratio (state caching), commuting adjacent-pair fraction (DPOR), and
    pid-orbit savings (symmetry).  Output is deterministic — two runs
    over the same instance are byte-identical on stdout (informational
    messages go to stderr).  See docs/OBSERVABILITY.md, "State-space
    audit".
``report``
    Run the full experiment suite and print the EXPERIMENTS.md tables
    (equivalent to ``python -m repro.experiments.report``).
``common2 [--levels L]``
    Print the Common2 refutation certificates.
``stats TRACE.jsonl [TRACE2.jsonl ...]``
    Replay archived JSONL event streams (produced with ``--trace-out``)
    and print the aggregated metrics digest: step counts per process/
    object/method, schedules explored, run verdicts, per-phase timings,
    and the span profile with replay-overhead accounting.  Corrupt lines
    (e.g. the truncated tail of a killed run) are skipped and counted.
    Export flags: ``--flame OUT.folded`` (collapsed stacks for
    flamegraph.pl/speedscope), ``--html OUT.html`` (self-contained run
    report), ``--metrics-out OUT.prom`` (Prometheus text exposition).
``bench-compare [OLD.json] NEW.json``
    Diff two BENCH_runtime.json files from the benchmark harness; exits
    nonzero when a bench regressed by more than ``--threshold``
    (default 20%).  With one file, the committed
    ``benchmarks/BENCH_baseline.json`` is the implicit baseline.
    ``--record-history [FILE]`` appends the candidate's summary to the
    committed ``benchmarks/BENCH_history.jsonl`` trajectory (label it
    with ``--history-label SHA``); ``--history [FILE]`` prints the
    per-bench trend.
``runs list|show|compare``
    Inspect the persistent run ledger (``.repro/runs.jsonl``): every run
    command appends one record (run id, argv, verdict, duration, budget
    trips, checkpoint, artifact, and witness paths).  ``list --json``
    emits the records as a JSON array and ``--verdict PROVED`` filters
    (also REFUTED/INCONCLUSIVE/ERROR), so scripts never screen-scrape
    the table.  ``show RUN_ID`` prints one record in full, ``compare A
    B`` diffs verdicts/timings between two runs (abbreviated run ids
    accepted; exit 1 when verdicts disagree).
``serve [--port P] [--host H] [--max-workers N] [--max-retries N]
[--data-dir DIR]``
    The standing multi-run verdict service: accepts exploration jobs
    over HTTP (``POST /jobs``), runs each in a supervised subprocess
    worker with tracing/witnesses/checkpointing enabled, resumes crashed
    workers from their last checkpoint, and serves job status, SSE event
    streams, aggregated metrics, the ledger, witness lane views, and an
    HTML dashboard.  SIGINT/SIGTERM drain gracefully (running jobs
    checkpoint and become resumable).  See docs/SERVICE.md.
``explain WITNESS.jsonl | RUN_ID``
    Replay an archived witness bundle (or the witnesses recorded by a
    ledger run), ddmin-shrink it to a 1-minimal schedule that still
    satisfies its predicate, and print the space-time lane diagram plus
    a step-by-step narrative.  ``--no-shrink`` skips minimization,
    ``--html OUT.html`` also writes the lane view as a page.  Output is
    deterministic: two invocations over the same bundle are
    byte-identical.  See docs/EXPLAIN.md.

Observability flags (every run command):

``--trace-out FILE.jsonl``
    Attach a JSONL event sink; the resulting file feeds ``stats``.
``--metrics-out FILE.prom``
    Write the run's metrics in Prometheus text exposition format.
``--progress``
    Rate-limited progress line on stderr for long checks.
``--serve [PORT]``
    Start a live telemetry HTTP server (127.0.0.1, ephemeral port when
    omitted) exposing ``/status`` (JSON run snapshot with coverage/ETA),
    ``/metrics`` (live Prometheus exposition), and ``/events?n=``
    (recent event tail).  See docs/OBSERVABILITY.md, "Live monitoring".
``--ledger FILE`` / ``--no-ledger``
    Override or disable the run-ledger record for this invocation
    (default ``.repro/runs.jsonl``, or ``$REPRO_LEDGER``).
``--witness-dir [DIR]``
    Archive every deciding execution (refuting counterexamples,
    existence witnesses) as a replayable JSONL bundle under DIR
    (default ``.repro/witnesses``); bundle paths land in suite rows,
    ``/status``, the run ledger, and the HTML report, and feed
    ``repro explain``.  Off unless given.

Budget flags (every run command): ``--deadline SECONDS`` and
``--max-steps N`` install a process-wide :mod:`repro.faults.budget` —
any exploration the command triggers degrades to an INCONCLUSIVE verdict
(exit code 3 where applicable) instead of running forever.
"""

from __future__ import annotations

import argparse
import sys
import threading
from math import ceil

from repro.faults.budget import Budget, active_budget
from repro.faults.checkpoint import read_checkpoint
from repro.fsutil import ensure_parent
from repro.obs import ledger as run_ledger
from repro.obs.bench import DEFAULT_HISTORY as bench_default_history
from repro.obs.bench import main as bench_compare_main
from repro.obs.events import JsonlReadStats, JsonlSink, read_jsonl, set_sink
from repro.obs.metrics import MetricsRegistry, get_registry, reset_registry
from repro.obs.profile import Profiler
from repro.obs.progress import ProgressReporter
from repro.obs.report import render_html
from repro.obs.spans import span

from repro.algorithms.helpers import inputs_dict
from repro.algorithms.set_consensus_from_family import (
    EXPLORE_TASKS,
    consensus_spec,
    set_consensus_spec,
)
from repro.core.common2 import refutation_series
from repro.core.family import FamilyMember
from repro.core.power import family_agreement
from repro.tasks import (
    ConsensusTask,
    KSetConsensusTask,
    check_task_all_schedules,
    check_task_random_schedules,
)


def cmd_describe(args) -> int:
    member = FamilyMember(args.n, args.k)
    print(member.describe())
    profile = member.profile()
    values = ", ".join(
        f"{c}->{profile(c)}" for c in range(1, member.ports + 1)
    )
    print(f"agreement profile (cohort -> decisions): {values}")
    print(
        f"separation vs O({args.n},{args.k + 1}): N = "
        f"{member.separation_system_size} (paper's ascending-chain "
        f"constant: {member.paper_separation_system_size})"
    )
    return 0


def cmd_curves(args) -> int:
    n = args.n
    print(f"Best agreement K(N), consensus number {n} (lower = stronger):")
    width = args.nmax
    print("  N            " + " ".join(f"{N:3d}" for N in range(1, width + 1)))
    consensus_curve = [ceil(N / n) for N in range(1, width + 1)]
    print(f"  {n}-consensus  " + " ".join(f"{v:3d}" for v in consensus_curve))
    for k in range(1, args.kmax + 1):
        curve = [family_agreement(n, k, N) for N in range(1, width + 1)]
        print(f"  O({n},{k})       " + " ".join(f"{v:3d}" for v in curve))
    return 0


def cmd_check(args) -> int:
    member = FamilyMember(args.n, args.k)
    inputs = [f"v{i}" for i in range(member.n)]
    report = check_task_all_schedules(
        consensus_spec(args.n, args.k, inputs),
        ConsensusTask(),
        inputs_dict(inputs),
    )
    print(
        f"[1/2] consensus, {member.n} processes, all schedules: "
        f"{'OK' if report.ok else 'FAILED: ' + report.reason} "
        f"({report.executions_checked} executions)"
    )
    inputs = [f"v{i}" for i in range(member.ports)]
    spec = set_consensus_spec(args.n, args.k, inputs)
    task = KSetConsensusTask(args.k + 1)
    if member.ports <= 6:
        full = check_task_all_schedules(spec, task, inputs_dict(inputs))
        mode = f"all {full.executions_checked} schedules"
    else:
        full = check_task_random_schedules(
            spec, task, inputs_dict(inputs), seeds=range(300)
        )
        mode = "300 random schedules"
    print(
        f"[2/2] ({member.ports}, {args.k + 1})-set consensus, {mode}: "
        f"{'OK' if full.ok else 'FAILED: ' + full.reason}"
    )
    return 0 if report.ok and full.ok else 1


def _explore_execset_recorder(args, task, n, k, inputs, checkpoint=None):
    """Build the explore command's execution-set recorder (default-on).

    The stream lands at ``--execset-out`` or
    ``.repro/execsets/<run-id>.jsonl``; a resumed run seeds its rolling
    digest from the checkpoint header's digest-so-far (legacy headers
    carry none — the digest then covers only the new records and
    ``repro diff`` reports the merged claim as partial).
    """
    import os

    from repro.obs.execset import ExecutionSetRecorder, default_dir

    if args.no_execset:
        return None
    recorder = run_ledger.current_run()
    run_tag = (
        recorder.run_id if recorder is not None else run_ledger.new_run_id()
    )
    path = args.execset_out or os.path.join(default_dir(), f"{run_tag}.jsonl")
    base = checkpoint.execset if checkpoint is not None else None
    return ExecutionSetRecorder(
        path=path,
        spec_meta={"task": task, "n": n, "k": k},
        value_alphabet=inputs,
        base_digest=(base or {}).get("digest"),
        base_records=(base or {}).get("records", 0),
    )


def _write_execset(execset) -> None:
    """Flush the digest stream (also annotates the run ledger); a write
    failure must not turn a finished exploration into an error."""
    if execset is None:
        return
    try:
        path = execset.write()
    except (OSError, ValueError) as error:
        print(f"explore: cannot write execset stream: {error}",
              file=sys.stderr)
        return
    from repro.obs.execset import short_digest

    print(
        f"execution-set digest {short_digest(execset.merged_digest)} "
        f"over {execset.total_records} executions -> {path}"
    )


def cmd_explore(args) -> int:
    from repro.errors import ProtocolError
    from repro.runtime.explorer import Explorer

    if args.selfcheck:
        if args.resume:
            print(
                "explore: --selfcheck runs its own interrupt/resume cycle "
                "and cannot be combined with --resume",
                file=sys.stderr,
            )
            return 2
        return _explore_selfcheck(args)
    if args.resume:
        try:
            checkpoint = read_checkpoint(args.resume)
        except (OSError, ProtocolError) as error:
            print(f"explore: cannot resume: {error}", file=sys.stderr)
            return 2
        if checkpoint.done:
            print(
                f"explore: {args.resume} is complete "
                f"({checkpoint.executions} executions) — nothing to resume"
            )
            return 0
        # Resume chain: the checkpoint names the run that wrote it, so
        # the ledger links this record back to its parent.
        run_ledger.annotate(
            parent_run_id=checkpoint.run_id, resumed_from=args.resume
        )
        # CLI flags override nothing that identifies the spec: the
        # checkpoint's own provenance wins, so a bare --resume works.
        task = checkpoint.spec.get("task", args.task)
        if task not in EXPLORE_TASKS:
            print(f"explore: cannot resume: unknown task {task!r}",
                  file=sys.stderr)
            return 2
        n = int(checkpoint.spec.get("n", args.n))
        k = int(checkpoint.spec.get("k", args.k))
        spec, inputs = EXPLORE_TASKS[task](n, k)
        execset = _explore_execset_recorder(
            args, task, n, k, inputs, checkpoint=checkpoint
        )
        explorer = Explorer.from_checkpoint(
            spec,
            checkpoint,
            strict=False,
            checkpoint_path=args.checkpoint or args.resume,
            checkpoint_every=args.checkpoint_every,
            execset=execset,
        )
        print(
            f"resuming {task} O({n},{k}) from {args.resume}: "
            f"{len(checkpoint.frontier)} pending prefixes, "
            f"{checkpoint.executions} executions already done"
        )
    else:
        task, n, k = args.task, args.n, args.k
        spec, inputs = EXPLORE_TASKS[task](n, k)
        execset = _explore_execset_recorder(args, task, n, k, inputs)
        explorer = Explorer(
            spec,
            max_depth=args.max_depth,
            strict=False,
            max_crashes=args.max_crashes,
            max_recoveries=args.max_recoveries,
            checkpoint_path=args.checkpoint,
            checkpoint_every=args.checkpoint_every,
            execset=execset,
        )
    explorer.set_spec_meta(task=task, n=n, k=k)
    recorder = run_ledger.current_run()
    if recorder is not None:
        explorer.run_id = recorder.run_id
    run_ledger.annotate(
        describe=(
            f"exhaustive(task={task}, n={n}, k={k}, "
            f"max_crashes={explorer.max_crashes}, "
            f"max_recoveries={explorer.max_recoveries})"
        ),
        checkpoint=explorer.checkpoint_path,
    )
    try:
        # A span of its own (under the root "command" span) so a stitched
        # job trace separates exploration proper from CLI setup/teardown.
        with span("explore", task=task, n=n, k=k):
            for _execution in explorer.executions():
                pass
    except KeyboardInterrupt:
        run_ledger.annotate(
            interrupted="SIGINT", executions=explorer.total_executions
        )
        if explorer.checkpoint_path is not None:
            path = explorer.write_checkpoint()
            print(
                f"\ninterrupted — checkpoint written to {path} "
                f"({explorer.total_executions} executions so far); "
                f"resume with: repro explore --resume {path}"
            )
        else:
            print("\ninterrupted (no --checkpoint configured; progress lost)")
        # The partial set is still a valid shard: its digest folds into
        # the resumed run's through the checkpoint header.
        _write_execset(execset)
        return 3
    stats = explorer.stats
    run_ledger.annotate(
        executions=explorer.total_executions,
        steps=stats.steps_total,
        faults_injected=stats.faults_injected,
        recoveries=stats.recoveries_injected,
        interrupted=explorer.interrupted,
    )
    _write_execset(execset)
    print(
        f"{explorer.total_executions} executions "
        f"({stats.executions} this run), max depth {stats.max_depth_seen}, "
        f"{stats.steps_on_path} on-path + {stats.steps_replayed} replayed "
        f"steps, {stats.faults_injected} faults injected, "
        f"{stats.recoveries_injected} recoveries"
    )
    if explorer.interrupted is not None:
        where = (
            f"; checkpoint at {explorer.checkpoint_path}"
            if explorer.checkpoint_path
            else ""
        )
        print(f"INCONCLUSIVE: {explorer.interrupted}{where}")
        return 3
    if explorer.checkpoint_path is not None:
        print(f"complete — checkpoint {explorer.checkpoint_path} marks done")
    return 0


def _explore_selfcheck(args) -> int:
    """``repro explore --selfcheck``: fresh vs interrupted-and-resumed.

    Runs the exploration once to completion, then a second time that is
    cut off halfway, checkpointed, and resumed — and verifies the two
    visited exactly the same *set* of executions (digest equality plus
    an explicit id-set comparison, upgrading the old count-equality
    resume guarantee).  Exit 0 on SET-EQUAL, 1 on any difference.
    """
    import os
    import tempfile

    from repro.obs.execset import ExecutionSetRecorder, short_digest
    from repro.runtime.explorer import Explorer

    task, n, k = args.task, args.n, args.k
    spec, inputs = EXPLORE_TASKS[task](n, k)
    spec_meta = {"task": task, "n": n, "k": k}

    def build(recorder, **kwargs):
        return Explorer(
            spec,
            max_depth=args.max_depth,
            strict=False,
            max_crashes=args.max_crashes,
            max_recoveries=args.max_recoveries,
            execset=recorder,
            **kwargs,
        )

    run_ledger.annotate(
        describe=(
            f"selfcheck(task={task}, n={n}, k={k}, "
            f"max_crashes={args.max_crashes}, "
            f"max_recoveries={args.max_recoveries})"
        )
    )
    with span("explore-selfcheck", task=task, n=n, k=k):
        # Pass 1: the reference run, straight through.
        fresh = ExecutionSetRecorder(
            spec_meta=spec_meta, value_alphabet=inputs
        )
        reference = build(fresh)
        for _execution in reference.executions():
            pass
        total = reference.stats.executions
        print(f"selfcheck: exploration has {total} executions")

        # Pass 2a: same exploration, interrupted halfway...
        first = ExecutionSetRecorder(
            spec_meta=spec_meta, value_alphabet=inputs
        )
        interrupted = build(first)
        cutoff = max(1, total // 2)
        iterator = interrupted.executions()
        count = 0
        for _execution in iterator:
            count += 1
            if count >= cutoff:
                break
        iterator.close()
        descriptor, checkpoint_path = tempfile.mkstemp(
            prefix="repro-selfcheck-", suffix=".ckpt"
        )
        os.close(descriptor)
        try:
            interrupted.write_checkpoint(checkpoint_path)
            checkpoint = read_checkpoint(checkpoint_path)
            # ...pass 2b: resumed from the checkpoint, digest seeded
            # from its header — exactly the production resume path.
            second = ExecutionSetRecorder(
                spec_meta=spec_meta,
                value_alphabet=inputs,
                base_digest=(checkpoint.execset or {}).get("digest"),
                base_records=(checkpoint.execset or {}).get("records", 0),
            )
            resumed = Explorer.from_checkpoint(
                spec, checkpoint, strict=False, execset=second
            )
            for _execution in resumed.executions():
                pass
        finally:
            try:
                os.unlink(checkpoint_path)
            except OSError:
                pass

    fresh_ids = {record["id"] for record in fresh.records}
    resumed_ids = {record["id"] for record in first.records} | {
        record["id"] for record in second.records
    }
    print(
        f"selfcheck: fresh digest   {short_digest(fresh.digest)} "
        f"({len(fresh_ids)} executions)"
    )
    print(
        f"selfcheck: resumed digest {short_digest(second.merged_digest)} "
        f"({len(first.records)} before interrupt + "
        f"{len(second.records)} after resume)"
    )
    digests_equal = fresh.digest == second.merged_digest
    sets_equal = fresh_ids == resumed_ids
    run_ledger.annotate(
        executions=total,
        selfcheck="set-equal" if (digests_equal and sets_equal) else "set-differs",
        execset={"digest": fresh.digest, "records": len(fresh_ids)},
    )
    if digests_equal and sets_equal:
        print(
            "selfcheck: SET-EQUAL — the resumed run visited exactly the "
            "executions the fresh run did"
        )
        return 0
    for label, ids in (
        ("fresh only", sorted(fresh_ids - resumed_ids)),
        ("resumed only", sorted(resumed_ids - fresh_ids)),
    ):
        if ids:
            shown = ", ".join(ids[:5]) + (", ..." if len(ids) > 5 else "")
            print(f"selfcheck: {label}: {len(ids)} execution(s): {shown}")
    if digests_equal and not sets_equal:
        print("selfcheck: digests collide but id sets differ — corrupt records?")
    print("selfcheck: SET-DIFFERS — resume is not visiting the same executions")
    return 1


def cmd_diff(args) -> int:
    from repro.obs import diff as obs_diff

    try:
        report = obs_diff.diff_targets(
            args.target_a,
            args.target_b,
            ledger_path=args.ledger,
            explain=not args.no_explain,
        )
    except (ValueError, OSError) as error:
        print(f"diff: {error}", file=sys.stderr)
        return obs_diff.EXIT_USAGE
    if args.html is not None:
        try:
            with open(ensure_parent(args.html), "w", encoding="utf-8") as handle:
                handle.write(obs_diff.render_html(report))
        except OSError as error:
            print(f"diff: cannot write {args.html}: {error}", file=sys.stderr)
            return obs_diff.EXIT_USAGE
    if args.json:
        print(obs_diff.render_json_report(report))
    else:
        print(obs_diff.render_table(report))
    return int(report["exit_code"])


def cmd_audit(args) -> int:
    from repro.obs.audit import ledger_summary, render_table, run_audit
    from repro.obs.report import render_audit_html

    # The orbit estimator canonicalizes over the input alphabet.
    spec, inputs = EXPLORE_TASKS[args.task](args.n, args.k)
    run_ledger.annotate(
        describe=(
            f"audit(task={args.task}, n={args.n}, k={args.k}, "
            f"max_crashes={args.max_crashes}, "
            f"max_recoveries={args.max_recoveries})"
        )
    )
    auditor, explorer = run_audit(
        spec,
        max_depth=args.max_depth,
        max_crashes=args.max_crashes,
        max_recoveries=args.max_recoveries,
        value_alphabet=inputs,
        max_pairs=args.max_pairs,
        pair_stride=args.pair_stride,
    )
    auditor.emit_summary()
    label = f"{args.task} O({args.n},{args.k})"
    if args.max_crashes:
        label += f", max_crashes={args.max_crashes}"
    if args.max_recoveries:
        label += f", max_recoveries={args.max_recoveries}"
    # stdout carries only the deterministic table: CI byte-compares two
    # invocations, so anything run-specific goes to stderr.
    print(render_table(auditor, label=label))
    run_ledger.annotate(
        executions=explorer.total_executions,
        audit=ledger_summary(auditor),
        interrupted=explorer.interrupted,
    )
    if args.html is not None:
        try:
            with open(ensure_parent(args.html), "w", encoding="utf-8") as handle:
                handle.write(
                    render_audit_html(
                        auditor, title=f"repro state-space audit — {label}"
                    )
                )
        except OSError as error:
            print(f"audit: cannot write {args.html}: {error}", file=sys.stderr)
            return 2
        print(f"wrote HTML audit report to {args.html}", file=sys.stderr)
        recorder = run_ledger.current_run()
        artifacts = {}
        if recorder is not None and isinstance(
            recorder.record.get("artifacts"), dict
        ):
            artifacts.update(recorder.record["artifacts"])
        artifacts["audit_html"] = args.html
        run_ledger.annotate(artifacts=artifacts)
    if explorer.interrupted is not None:
        print(
            f"INCONCLUSIVE: {explorer.interrupted} — headroom numbers "
            "cover the explored portion only",
            file=sys.stderr,
        )
        return 3
    return 0


def cmd_report(_args) -> int:
    from repro.experiments.report import main as report_main

    return report_main(["--check"])


def cmd_common2(args) -> int:
    for cert in refutation_series(args.levels):
        print(cert.statement())
    return 0


def cmd_stats(args) -> int:
    registry = MetricsRegistry()
    profiler = Profiler()
    read_stats = JsonlReadStats()
    witnesses = []
    for trace in args.traces:
        try:
            for name, fields in read_jsonl(trace, stats=read_stats):
                registry.consume_event(name, fields)
                profiler.consume_event(name, fields)
                if name == "witness_captured":
                    witnesses.append(dict(fields))
        except OSError as error:
            print(f"stats: cannot read {trace}: {error}", file=sys.stderr)
            return 1
    if read_stats.events == 0:
        print(
            f"stats: no events found in {', '.join(args.traces)}"
            + (f" ({read_stats.skipped} corrupt lines skipped)"
               if read_stats.skipped else ""),
            file=sys.stderr,
        )
        # Every single line corrupt is an error (exit 2), not merely an
        # empty trace (exit 1): the caller handed us data we could not use.
        return 2 if read_stats.skipped else 1
    header = f"# {', '.join(args.traces)}: {read_stats.events} events"
    if read_stats.skipped:
        header += f" ({read_stats.skipped} corrupt lines skipped)"
    print(header + "\n")
    print(registry.digest())
    if profiler.spans_seen:
        print("\nspan profile:")
        print(profiler.render_tree())
    try:
        if args.flame:
            with open(ensure_parent(args.flame), "w", encoding="utf-8") as handle:
                handle.write("\n".join(profiler.folded_stacks()) + "\n")
            print(f"\nwrote collapsed stacks to {args.flame}")
        if args.html:
            with open(ensure_parent(args.html), "w", encoding="utf-8") as handle:
                handle.write(
                    render_html(
                        registry,
                        profiler,
                        sources=args.traces,
                        events=read_stats.events,
                        skipped=read_stats.skipped,
                        witnesses=witnesses,
                    )
                )
            print(f"wrote HTML report to {args.html}")
        if args.metrics_out:
            with open(
                ensure_parent(args.metrics_out), "w", encoding="utf-8"
            ) as handle:
                handle.write(registry.render_prometheus())
            print(f"wrote Prometheus metrics to {args.metrics_out}")
    except OSError as error:
        print(f"stats: cannot write output: {error}", file=sys.stderr)
        return 2
    artifacts = {
        name: path
        for name, path in (
            ("flame", args.flame),
            ("html", args.html),
            ("metrics_out", args.metrics_out),
        )
        if path
    }
    run_ledger.annotate(
        artifacts=artifacts or None,
        events=read_stats.events,
        corrupt_lines=read_stats.skipped or None,
    )
    return 0


def cmd_bench_compare(args) -> int:
    argv = [args.old]
    if args.new is not None:
        argv.append(args.new)
    argv += ["--threshold", str(args.threshold),
             "--min-seconds", str(args.min_seconds)]
    if args.history is not None:
        argv += ["--history", args.history]
    if args.record_history is not None:
        argv += ["--record-history", args.record_history]
    if args.history_label:
        argv += ["--history-label", args.history_label]
    return bench_compare_main(argv)


def _ledger_records(args):
    path = args.ledger or run_ledger.default_ledger_path()
    records, skipped = run_ledger.read_ledger(path)
    if skipped:
        print(f"runs: {skipped} unreadable line(s) in {path} skipped",
              file=sys.stderr)
    return path, records


def cmd_runs_list(args) -> int:
    path, records = _ledger_records(args)
    if args.verdict is not None:
        try:
            records = run_ledger.filter_by_verdict(records, args.verdict)
        except ValueError as error:
            print(f"runs list: {error}", file=sys.stderr)
            return 2
    if args.json:
        print(run_ledger.render_json(records, limit=args.limit))
        return 0
    if not records:
        print(f"no runs recorded in {path}")
        return 0
    print(run_ledger.render_list(records, limit=args.limit))
    return 0


def cmd_runs_show(args) -> int:
    _path, records = _ledger_records(args)
    try:
        record = run_ledger.find_record(records, args.run_id)
    except ValueError as error:
        print(f"runs show: {error}", file=sys.stderr)
        return 2
    print(run_ledger.render_show(record))
    return 0


def cmd_explain(args) -> int:
    from repro.obs.explain import run_explain

    return run_explain(
        args.target,
        shrink=not args.no_shrink,
        html_out=args.html,
        ledger_path=args.ledger,
    )


def cmd_trace_show(args) -> int:
    from repro.obs.trace_view import run_trace_show

    return run_trace_show(
        args.target,
        html_out=args.html,
        jsonl_out=args.jsonl,
        as_json=args.json,
        ledger_path=args.ledger,
    )


def cmd_serve(args) -> int:
    """The ``repro serve`` daemon: run until SIGINT/SIGTERM, then drain.

    Lazy import keeps daemon-only machinery out of every other command's
    startup path.
    """
    import signal as _signal

    from repro.obs.service import serve_service

    try:
        session = serve_service(
            data_dir=args.data_dir,
            host=args.host,
            port=args.port,
            max_workers=args.max_workers,
            max_retries=args.max_retries,
        )
    except OSError as error:
        print(f"repro serve: cannot start: {error}", file=sys.stderr)
        return 2
    stop = threading.Event()

    def _request_stop(_signum, _frame) -> None:
        stop.set()

    previous = {
        sig: _signal.signal(sig, _request_stop)
        for sig in (_signal.SIGINT, _signal.SIGTERM)
    }
    print(f"repro serve: dashboard at {session.url('/')}", file=sys.stderr)
    print(
        f"repro serve: data dir {session.manager.data_dir} "
        f"({args.max_workers} worker(s), {args.max_retries} retries per job)",
        file=sys.stderr,
    )
    try:
        stop.wait()
        print(
            "repro serve: draining (running jobs checkpoint and stop; "
            "resume them by resubmitting)",
            file=sys.stderr,
        )
    finally:
        for sig, handler in previous.items():
            _signal.signal(sig, handler)
        session.close()
    return 0


def cmd_runs_compare(args) -> int:
    _path, records = _ledger_records(args)
    try:
        first = run_ledger.find_record(records, args.run_a)
        second = run_ledger.find_record(records, args.run_b)
    except ValueError as error:
        print(f"runs compare: {error}", file=sys.stderr)
        return 2
    lines, verdicts_agree = run_ledger.compare_runs(first, second)
    for line in lines:
        print(line)
    return 0 if verdicts_agree else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Deterministic objects beyond the consensus hierarchy",
    )
    obs = argparse.ArgumentParser(add_help=False)
    obs.add_argument(
        "--trace-out",
        metavar="FILE.jsonl",
        default=None,
        help="write a structured JSONL event stream (read it back with "
        "'python -m repro stats FILE.jsonl')",
    )
    obs.add_argument(
        "--metrics-out",
        metavar="FILE.prom",
        default=None,
        help="write the run's metrics in Prometheus text exposition format",
    )
    obs.add_argument(
        "--progress",
        action="store_true",
        help="rate-limited progress reporting on stderr",
    )
    obs.add_argument(
        "--serve",
        nargs="?",
        const=0,
        type=int,
        default=None,
        metavar="PORT",
        help="serve live telemetry over HTTP on 127.0.0.1 (/status, "
        "/metrics, /events); with no PORT an ephemeral port is chosen "
        "and printed on stderr",
    )
    obs.add_argument(
        "--ledger",
        metavar="FILE",
        default=None,
        help="append this run's record to FILE instead of the default "
        "ledger (.repro/runs.jsonl or $REPRO_LEDGER)",
    )
    obs.add_argument(
        "--no-ledger",
        action="store_true",
        help="do not record this run in the ledger",
    )
    obs.add_argument(
        "--witness-dir",
        nargs="?",
        const=".repro/witnesses",
        default=None,
        metavar="DIR",
        help="archive every deciding execution as a replayable witness "
        "bundle under DIR (default .repro/witnesses when the flag is "
        "given with no value); inspect bundles with 'repro explain'",
    )
    obs.add_argument(
        "--deadline",
        type=float,
        metavar="SECONDS",
        default=None,
        help="wall-clock budget for the whole command; explorations it "
        "does not cover degrade to INCONCLUSIVE instead of running",
    )
    obs.add_argument(
        "--max-steps",
        type=int,
        metavar="N",
        default=None,
        help="total simulator-step budget for the whole command",
    )
    # The O(n, k) instance an exploration runs (explore, audit).
    instance = argparse.ArgumentParser(add_help=False)
    instance.add_argument(
        "--task", choices=sorted(EXPLORE_TASKS), default="set-consensus"
    )
    instance.add_argument("--n", type=int, default=2)
    instance.add_argument("--k", type=int, default=1)
    instance.add_argument("--max-depth", type=int, default=60)
    instance.add_argument(
        "--max-crashes", type=int, default=0,
        help="also branch on crashing up to F processes at every point",
    )
    instance.add_argument(
        "--max-recoveries", type=int, default=0,
        help="also branch on reviving up to R crashed processes with "
        "amnesia (crash-recovery adversary)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    describe = sub.add_parser(
        "describe", help="data sheet of O(n, k)", parents=[obs]
    )
    describe.add_argument("n", type=int)
    describe.add_argument("k", type=int)
    describe.set_defaults(func=cmd_describe)

    curves = sub.add_parser(
        "curves", help="agreement curves K(N)", parents=[obs]
    )
    curves.add_argument("n", type=int)
    curves.add_argument("--kmax", type=int, default=3)
    curves.add_argument("--nmax", type=int, default=24)
    curves.set_defaults(func=cmd_curves)

    check = sub.add_parser(
        "check", help="model-check O(n, k) live", parents=[obs]
    )
    check.add_argument("n", type=int)
    check.add_argument("k", type=int)
    check.set_defaults(func=cmd_check)

    explore = sub.add_parser(
        "explore",
        help="enumerate executions (and crash timings) with checkpointing",
        parents=[obs, instance],
    )
    explore.add_argument(
        "--checkpoint", metavar="FILE", default=None,
        help="periodically write the DFS frontier here (atomic)",
    )
    explore.add_argument(
        "--checkpoint-every", type=int, default=1000, metavar="N",
        help="checkpoint every N executions (default 1000)",
    )
    explore.add_argument(
        "--resume", metavar="FILE", default=None,
        help="resume from a checkpoint file (spec identity comes from "
        "the checkpoint; updated checkpoints go back to the same file "
        "unless --checkpoint overrides)",
    )
    explore.add_argument(
        "--execset-out", metavar="FILE.jsonl", default=None,
        help="write the execution-set digest stream here (default "
        ".repro/execsets/<run-id>.jsonl; compare streams with "
        "'repro diff')",
    )
    explore.add_argument(
        "--no-execset", action="store_true",
        help="do not record the execution-set digest stream",
    )
    explore.add_argument(
        "--selfcheck", action="store_true",
        help="run the exploration twice — fresh, and interrupted-then-"
        "resumed from a mid-run checkpoint — and verify both visited "
        "exactly the same execution set (exit 1 on any difference)",
    )
    explore.set_defaults(func=cmd_explore)

    audit = sub.add_parser(
        "audit",
        help="measure state-space redundancy: cache / DPOR / symmetry "
        "headroom for one instance",
        parents=[obs, instance],
    )
    audit.add_argument(
        "--max-pairs", type=int, default=256, metavar="N",
        help="cap on adjacent decision pairs classified (each costs two "
        "replays; default 256)",
    )
    audit.add_argument(
        "--pair-stride", type=int, default=1, metavar="S",
        help="classify every S-th candidate pair (deterministic "
        "sampling; default 1 = all)",
    )
    audit.add_argument(
        "--html", metavar="OUT.html", default=None,
        help="also write a self-contained HTML audit report",
    )
    audit.set_defaults(func=cmd_audit)

    report = sub.add_parser(
        "report", help="run the experiment suite", parents=[obs]
    )
    report.set_defaults(func=cmd_report)

    common2 = sub.add_parser(
        "common2", help="Common2 refutation certificates", parents=[obs]
    )
    common2.add_argument("--levels", type=int, default=3)
    common2.set_defaults(func=cmd_common2)

    stats = sub.add_parser(
        "stats", help="summarize JSONL event streams from --trace-out"
    )
    stats.add_argument(
        "traces", nargs="+", metavar="TRACE",
        help="one or more .jsonl files (aggregated into a single digest)",
    )
    stats.add_argument(
        "--flame", metavar="OUT.folded", default=None,
        help="write collapsed stacks (flamegraph.pl / speedscope format)",
    )
    stats.add_argument(
        "--html", metavar="OUT.html", default=None,
        help="write a self-contained HTML run report",
    )
    stats.add_argument(
        "--metrics-out", metavar="OUT.prom", default=None,
        help="write the replayed metrics in Prometheus text format",
    )
    stats.set_defaults(func=cmd_stats, handles_obs_flags=True)

    bench_compare = sub.add_parser(
        "bench-compare",
        help="compare two BENCH_runtime.json files; exit 1 on regression",
    )
    bench_compare.add_argument(
        "old",
        help="baseline BENCH_runtime.json (with a single argument, the "
        "candidate — compared against the committed baseline)",
    )
    bench_compare.add_argument(
        "new", nargs="?", default=None,
        help="candidate BENCH_runtime.json (omit to compare OLD against "
        "benchmarks/BENCH_baseline.json)",
    )
    bench_compare.add_argument("--threshold", type=float, default=0.20)
    bench_compare.add_argument("--min-seconds", type=float, default=0.01)
    bench_compare.add_argument(
        "--history", nargs="?", const=bench_default_history, default=None,
        metavar="FILE",
        help="print the per-bench trend from BENCH_history.jsonl",
    )
    bench_compare.add_argument(
        "--record-history", nargs="?", const=bench_default_history,
        default=None, metavar="FILE",
        help="append the candidate run's summary to the trajectory "
        "(label with --history-label)",
    )
    bench_compare.add_argument(
        "--history-label", default="",
        help="label for the recorded entry (typically a commit sha)",
    )
    bench_compare.set_defaults(func=cmd_bench_compare, handles_obs_flags=True)

    explain = sub.add_parser(
        "explain",
        help="shrink and narrate an archived witness bundle (or a ledger "
        "run's witnesses)",
    )
    explain.add_argument(
        "target", metavar="WITNESS.jsonl|RUN_ID",
        help="a witness bundle path, or a ledger run id whose record "
        "lists witnesses (unique prefix accepted)",
    )
    explain.add_argument(
        "--no-shrink", action="store_true",
        help="render the witness as archived without ddmin minimization",
    )
    explain.add_argument(
        "--html", metavar="OUT.html", default=None,
        help="also write the lane view(s) as a self-contained HTML page",
    )
    explain.add_argument(
        "--ledger", metavar="FILE", default=None,
        help="resolve RUN_ID against this ledger file instead of the "
        "default",
    )
    explain.set_defaults(
        func=cmd_explain, handles_obs_flags=True, skip_ledger_record=True
    )

    diff = sub.add_parser(
        "diff",
        help="compare two runs as sets of executions (digest, set "
        "difference, verdicts); exit 0 same set, 1 different set, "
        "2 verdict divergence",
    )
    diff.add_argument(
        "target_a", metavar="A",
        help="a repro-execset/1 file, or a ledger run id (unique prefix "
        "accepted; its whole resume chain is merged)",
    )
    diff.add_argument(
        "target_b", metavar="B",
        help="the run to compare against (same forms as A)",
    )
    diff.add_argument(
        "--json", action="store_true",
        help="emit the full report as JSON instead of the table",
    )
    diff.add_argument(
        "--html", metavar="OUT.html", default=None,
        help="also write the report (with the divergence lane view) as "
        "a self-contained HTML page",
    )
    diff.add_argument(
        "--no-explain", action="store_true",
        help="skip replaying a missing execution for the divergence "
        "lane exhibit",
    )
    diff.add_argument(
        "--ledger", metavar="FILE", default=None,
        help="resolve run-id operands against this ledger instead of "
        "the default",
    )
    diff.set_defaults(
        func=cmd_diff, handles_obs_flags=True, skip_ledger_record=True
    )

    runs = sub.add_parser(
        "runs", help="inspect the persistent run ledger"
    )
    runs_sub = runs.add_subparsers(dest="runs_command", required=True)
    runs_list = runs_sub.add_parser("list", help="list recorded runs")
    runs_show = runs_sub.add_parser("show", help="print one run record")
    runs_show.add_argument("run_id", help="run id (unique prefix accepted)")
    runs_compare = runs_sub.add_parser(
        "compare", help="diff two runs; exit 1 when verdicts disagree"
    )
    runs_compare.add_argument("run_a")
    runs_compare.add_argument("run_b")
    runs_list.add_argument(
        "--limit", type=int, default=20, metavar="N",
        help="show at most the N most recent runs (default 20)",
    )
    runs_list.add_argument(
        "--json", action="store_true",
        help="emit the records as a JSON array instead of the table "
        "(every key, machine-readable)",
    )
    runs_list.add_argument(
        "--verdict", metavar="VERDICT", default=None,
        help="only runs with this verdict "
        "(PROVED, REFUTED, INCONCLUSIVE, or ERROR; case-insensitive)",
    )
    for runs_parser, handler in (
        (runs_list, cmd_runs_list),
        (runs_show, cmd_runs_show),
        (runs_compare, cmd_runs_compare),
    ):
        runs_parser.add_argument(
            "--ledger", metavar="FILE", default=None,
            help="read this ledger file instead of the default",
        )
        runs_parser.set_defaults(
            func=handler, handles_obs_flags=True, skip_ledger_record=True
        )

    trace = sub.add_parser(
        "trace", help="inspect stitched causal traces"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trace_show = trace_sub.add_parser(
        "show",
        help="stitch a job's daemon + worker traces (or a ledger run's "
        "resume chain) and print the critical-path waterfall",
    )
    trace_show.add_argument(
        "target",
        help="a service job directory (containing trace-daemon.jsonl / "
        "trace-N.jsonl), a single trace file, or a ledger run id "
        "(unique prefix accepted; its whole resume chain is stitched)",
    )
    trace_show.add_argument(
        "--html", metavar="FILE", default=None,
        help="also write the waterfall as a standalone HTML page",
    )
    trace_show.add_argument(
        "--jsonl", metavar="FILE", default=None,
        help="also write the stitched tree as flat JSONL "
        "(repro-stitched-trace/1)",
    )
    trace_show.add_argument(
        "--json", action="store_true",
        help="print the stitched tree as JSON instead of the ASCII "
        "waterfall",
    )
    trace_show.add_argument(
        "--ledger", metavar="FILE", default=None,
        help="resolve run-id targets against this ledger instead of the "
        "default",
    )
    trace_show.set_defaults(
        func=cmd_trace_show, handles_obs_flags=True, skip_ledger_record=True
    )

    serve = sub.add_parser(
        "serve",
        help="standing multi-run verdict service (job queue over HTTP, "
        "crash-resuming workers, dashboard)",
    )
    serve.add_argument(
        "--port", type=int, default=0, metavar="PORT",
        help="listen port (default: ephemeral, printed at startup)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", metavar="HOST",
        help="listen address (default 127.0.0.1)",
    )
    serve.add_argument(
        "--max-workers", type=int, default=2, metavar="N",
        help="exploration jobs run concurrently (default 2)",
    )
    serve.add_argument(
        "--max-retries", type=int, default=2, metavar="N",
        help="crash-resume attempts per job before ERROR (default 2)",
    )
    serve.add_argument(
        "--data-dir", default=".repro/service", metavar="DIR",
        help="root for job dirs, the service ledger, and witness bundles "
        "(default .repro/service)",
    )
    serve.set_defaults(
        func=cmd_serve, handles_obs_flags=True, skip_ledger_record=True
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    sink = None
    reporter = None
    live = None
    witness_store = None
    collecting = False
    trace_out = getattr(args, "trace_out", None)
    serve_port = getattr(args, "serve", None)
    # stats/bench-compare manage their own registries and output files;
    # the generic wiring below is for live run commands only.
    metrics_out = (
        None if getattr(args, "handles_obs_flags", False)
        else getattr(args, "metrics_out", None)
    )
    if trace_out or metrics_out or serve_port is not None:
        reset_registry()  # the collected metrics should describe this run only
        collecting = True
    if trace_out:
        try:
            sink = JsonlSink(trace_out)
        except OSError as error:
            print(f"repro: cannot open --trace-out {trace_out}: {error}",
                  file=sys.stderr)
            return 2
        set_sink(sink)
    if collecting:
        get_registry().install()
    if getattr(args, "progress", False):
        reporter = ProgressReporter().install()
    witness_dir = getattr(args, "witness_dir", None)
    if witness_dir is not None:
        from repro.obs import witness as obs_witness

        witness_store = obs_witness.WitnessStore(witness_dir)
        obs_witness.activate_store(witness_store)
    budget = None
    if getattr(args, "deadline", None) is not None or getattr(
        args, "max_steps", None
    ) is not None:
        budget = Budget(deadline=args.deadline, max_steps=args.max_steps)
    recording = not (
        getattr(args, "skip_ledger_record", False)
        or getattr(args, "no_ledger", False)
    )
    full_argv = list(sys.argv[1:]) if argv is None else list(argv)
    if recording:
        run_ledger.begin_run(
            path=getattr(args, "ledger", None) or run_ledger.default_ledger_path(),
            command=args.command,
            argv=full_argv,
        )
        artifacts = {
            name: path
            for name, path in (
                ("trace_out", trace_out),
                ("metrics_out", metrics_out),
            )
            if path
        }
        run_ledger.annotate(
            artifacts=artifacts or None,
            budget=budget.describe() if budget is not None else None,
        )
    if serve_port is not None:
        from repro.obs.live import serve as serve_live

        try:
            live = serve_live(
                command=args.command,
                argv=full_argv,
                run_id=(
                    run_ledger.current_run().run_id
                    if run_ledger.current_run() is not None
                    else None
                ),
                port=serve_port,
            )
        except OSError as error:
            print(f"repro: cannot start --serve server: {error}",
                  file=sys.stderr)
            run_ledger.abandon_run()
            return 2
        print(f"live telemetry: {live.url('/status')}", file=sys.stderr)
    code: int = 2
    try:
        with active_budget(budget), span("command", command=args.command):
            code = args.func(args)
        return code
    finally:
        if live is not None:
            live.close()
        if witness_store is not None:
            from repro.obs import witness as obs_witness

            obs_witness.deactivate_store()
            if witness_store.captured:
                print(
                    f"{len(witness_store.captured)} witness bundle(s) in "
                    f"{witness_dir} — inspect with: repro explain <bundle>",
                    file=sys.stderr,
                )
        if reporter is not None:
            reporter.close()
        if collecting:
            registry = get_registry()
            registry.uninstall()
            if recording:
                trips = registry.sum_by_label("budget_exhausted_total", "kind")
                if trips:
                    run_ledger.annotate(
                        budget_trips={
                            str(kind): count for kind, count in sorted(trips.items())
                        }
                    )
        if sink is not None:
            set_sink(None)
            sink.close()
        if metrics_out:
            try:
                with open(
                    ensure_parent(metrics_out), "w", encoding="utf-8"
                ) as handle:
                    handle.write(get_registry().render_prometheus())
            except OSError as error:
                print(f"repro: cannot write --metrics-out {metrics_out}: {error}",
                      file=sys.stderr)
        if recording:
            try:
                run_ledger.finish_run(code)
            except OSError as error:
                print(f"repro: cannot write run ledger: {error}",
                      file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
