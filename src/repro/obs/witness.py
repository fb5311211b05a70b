"""Witness capture: persist the deciding execution behind every verdict.

A REFUTED verdict is only as good as the run that produced it, and a
PROVED-existence claim is only as good as its witness.  Both already
exist in memory — :meth:`~repro.runtime.explorer.Explorer.check` returns
the first counterexample, :meth:`~repro.runtime.explorer.Explorer.find`
the first satisfying execution, and
:class:`~repro.tasks.solvability.SolvabilityReport` carries a
``counterexample`` — but until now they were dropped on the floor the
moment the verdict was printed.  This module is the archive between the
check and the human: while a :class:`WitnessStore` is active, those call
sites funnel their deciding executions through :func:`capture`, which
writes each one as a ``repro-witness/1`` bundle and threads the path
into the event bus (``witness_captured``), the metrics registry
(``witnesses_captured_total``), and the run ledger (``witnesses``).

Bundle format (``repro-witness/1``): a JSONL file, one self-describing
JSON object per line.  Each record embeds the replayable trace payload
of :func:`repro.runtime.trace_io.trace_to_dict` (decisions, crash
timings, and the outcome fingerprint that makes silent spec drift
impossible) plus a compact self-describing step table, final outputs and
statuses, and two provenance dicts:

``spec``
    How to rebuild the :class:`~repro.runtime.system.SystemSpec`
    (``{"builder": "set-consensus", "n": 2, "k": 1}``), resolved by
    :func:`resolve_spec` against :data:`SPEC_BUILDERS`.
``predicate``
    What the witness decides (``{"name": "k-agreement-violated",
    "k": 2, "inputs": [...]}``), resolved by :func:`resolve_predicate`
    against :data:`PREDICATE_BUILDERS` — the property the ddmin shrinker
    in :mod:`repro.obs.explain` must preserve.

File names are content-addressed (``<kind>-<digest>.jsonl`` from the
decision sequence + fingerprint), so re-running a deterministic check
reuses the existing bundle instead of accumulating duplicates, and two
machines archiving the same refutation produce the same file.

Capture is process-global and off by default (the hook sites pay one
``None`` check); activate it with :func:`capture_witnesses`::

    with capture_witnesses(".repro/witnesses") as store:
        with witness_context(spec={"builder": "consensus", "n": 2, "k": 1},
                             predicate={"name": "k-agreement-violated",
                                        "k": 1, "inputs": ["a", "b"]}):
            report = check_task_all_schedules(spec, task, inputs)
    report.witness_path      # bundle of the counterexample, if REFUTED

On the CLI, ``--witness-dir`` activates a store for any run command, and
``repro explain <bundle | RUN_ID>`` replays, shrinks, and renders an
archived witness (see docs/EXPLAIN.md).
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.fsutil import ensure_parent
from repro.obs import events as _events
from repro.obs import ledger as _ledger
from repro.obs.fingerprint import content_id
from repro.runtime.execution import Execution
from repro.runtime.system import SystemSpec
from repro.runtime.trace_io import replay_trace, trace_to_dict

FORMAT = "repro-witness/1"

#: Default bundle directory, next to the run ledger.
DEFAULT_DIR = os.path.join(".repro", "witnesses")

#: The two kinds of deciding execution.
KIND_COUNTEREXAMPLE = "counterexample"  # refutes a universal claim
KIND_EXISTENCE = "existence"  # proves an existential claim


# ----------------------------------------------------------------------
# Record construction and (de)serialization
# ----------------------------------------------------------------------
def witness_to_dict(
    execution: Execution,
    *,
    kind: str,
    source: str,
    label: str = "",
    reason: str = "",
    spec: Optional[Dict[str, Any]] = None,
    predicate: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """The serializable witness record.

    The ``trace`` payload alone replays the run (fingerprint-verified);
    ``steps``/``outputs``/``statuses`` additionally make the bundle
    *renderable* without the spec — lane diagrams and narratives of an
    archived witness work even when the code that produced it is gone.
    Deliberately no wall-clock timestamp: identical witnesses serialize
    byte-identically.
    """
    record: Dict[str, Any] = {
        "format": FORMAT,
        "kind": kind,
        "source": source,
        "label": label,
        "reason": reason,
        "trace": trace_to_dict(execution, label=label),
        "steps": [
            [
                step.pid,
                step.operation.target,
                step.operation.method,
                [repr(a) for a in step.operation.args],
                repr(step.response),
            ]
            for step in execution.steps
        ],
        "outputs": {
            str(pid): repr(execution.outputs[pid])
            for pid in sorted(execution.outputs)
        },
        "statuses": {
            str(pid): execution.statuses[pid].value
            for pid in sorted(execution.statuses)
        },
    }
    if spec:
        record["spec"] = dict(spec)
    if predicate:
        record["predicate"] = dict(predicate)
    return record


def witness_id(record: Dict[str, Any]) -> str:
    """Content digest of a witness: decisions + faults + fingerprint.

    Two captures of the same deciding execution (same schedule, same
    outcome) share an id regardless of label/reason wording, so the
    store can deduplicate by file name.  Hashing goes through
    :func:`repro.obs.fingerprint.content_id` — the same convention the
    state audit uses — so bundle ids and audit state hashes cannot
    drift apart.  Recovery records participate only when present, so
    every pre-recovery bundle keeps its historical id.
    """
    trace = record.get("trace", {})
    material = [
        trace.get("decisions", []),
        trace.get("crashes", []),
        trace.get("fingerprint", ""),
    ]
    if trace.get("recoveries"):
        material.append(trace["recoveries"])
    return content_id(material)


def write_witness(path: str, records: List[Dict[str, Any]]) -> str:
    """Write a bundle: one JSON object per line, parents created."""
    ensure_parent(path)
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(
                json.dumps(record, default=repr, separators=(",", ":")) + "\n"
            )
    return path


def read_witness(path: str) -> Tuple[List[Dict[str, Any]], int]:
    """Read a bundle: ``(records, corrupt_lines_skipped)``.

    Same tolerance as the ledger and event traces: lines that fail to
    parse, or parse to something other than a ``repro-witness/1``
    object, are skipped and counted rather than aborting the read.
    """
    records: List[Dict[str, Any]] = []
    skipped = 0
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                skipped += 1
                continue
            if not isinstance(record, dict) or record.get("format") != FORMAT:
                skipped += 1
                continue
            records.append(record)
    return records, skipped


def replay_witness(record: Dict[str, Any], spec: SystemSpec) -> Execution:
    """Replay a witness record against ``spec``, fingerprint-verified."""
    return replay_trace(spec, record["trace"])


# ----------------------------------------------------------------------
# Spec and predicate provenance registries
# ----------------------------------------------------------------------
def _spec_explore_task(task: str) -> Callable[..., SystemSpec]:
    """The builder for an explore task: the same table ``repro explore``
    builds its instance from, so a replay reruns the explored system."""

    def build(n: int, k: int, **_ignored: Any) -> SystemSpec:
        from repro.algorithms.set_consensus_from_family import EXPLORE_TASKS

        return EXPLORE_TASKS[task](int(n), int(k))[0]

    return build


def _spec_partition_n_consensus(
    n: int, inputs: List[Any], **_ignored: Any
) -> SystemSpec:
    from repro.algorithms.consensus_from_n_consensus import (
        partition_set_consensus_spec,
    )

    return partition_set_consensus_spec(int(n), list(inputs))


def _spec_announce_election(
    n: int, variant: str = "tas", **_ignored: Any
) -> SystemSpec:
    from repro.algorithms.election import announce_election_spec

    return announce_election_spec(int(n), variant=str(variant))


#: Named spec builders witnesses can reference in their ``spec`` dict.
#: Keyed by the ``builder`` (or legacy ``task``) field; remaining fields
#: are passed as keyword arguments.  Extend with
#: :func:`register_spec_builder` for project-specific systems.
SPEC_BUILDERS: Dict[str, Callable[..., SystemSpec]] = {
    "set-consensus": _spec_explore_task("set-consensus"),
    "consensus": _spec_explore_task("consensus"),
    "n-consensus-partition": _spec_partition_n_consensus,
    "announce-election": _spec_announce_election,
}


def register_spec_builder(name: str, builder: Callable[..., SystemSpec]) -> None:
    """Register (or replace) a named spec builder."""
    SPEC_BUILDERS[name] = builder


def resolve_spec(record: Dict[str, Any]) -> SystemSpec:
    """Rebuild the witness's system from its ``spec`` provenance.

    Raises ``ValueError`` when the record carries no provenance or names
    an unknown builder — in which case the witness can still be
    *rendered* (from its ``steps``) but not replayed or shrunk.
    """
    meta = dict(record.get("spec") or {})
    name = meta.pop("builder", None) or meta.pop("task", None)
    if not name:
        raise ValueError("witness has no spec provenance (no 'spec' entry)")
    builder = SPEC_BUILDERS.get(str(name))
    if builder is None:
        raise ValueError(
            f"unknown spec builder {name!r}; known: {sorted(SPEC_BUILDERS)}"
        )
    return builder(**meta)


def _predicate_k_agreement_violated(
    k: int, inputs: List[Any], **_ignored: Any
) -> Callable[[Execution], bool]:
    from repro.tasks.set_consensus import KSetConsensusTask

    task = KSetConsensusTask(int(k))
    inputs_by_pid = {pid: value for pid, value in enumerate(inputs)}
    return lambda execution: not task.check(inputs_by_pid, execution.outputs)


def _predicate_distinct_outputs_at_least(
    count: int, **_ignored: Any
) -> Callable[[Execution], bool]:
    return lambda execution: len(execution.distinct_outputs()) >= int(count)


def _predicate_unique_leader_violated(**_ignored: Any) -> Callable[[Execution], bool]:
    def violated(execution: Execution) -> bool:
        if not execution.all_done():
            return False
        return list(execution.outputs.values()).count("L") != 1

    return violated


#: Named predicate builders witnesses can reference in their
#: ``predicate`` dict.  The returned callable is the property the
#: witness *decides* — the shrinker keeps it true while deleting
#: decisions.
PREDICATE_BUILDERS: Dict[str, Callable[..., Callable[[Execution], bool]]] = {
    # Outputs violate validity or k-agreement (the REFUTED case of a
    # (k-)set-consensus check; k=1 is consensus).
    "k-agreement-violated": _predicate_k_agreement_violated,
    # At least N distinct decisions (existence witnesses, e.g. the
    # 2-consensus partition baseline forced to 3 at the Common2 point).
    "distinct-outputs-at-least": _predicate_distinct_outputs_at_least,
    # All processes finished but the leader count is not exactly one —
    # the REFUTED case of announce-election under crash-recovery (E11).
    "unique-leader-violated": _predicate_unique_leader_violated,
}


def register_predicate_builder(
    name: str, builder: Callable[..., Callable[[Execution], bool]]
) -> None:
    """Register (or replace) a named predicate builder."""
    PREDICATE_BUILDERS[name] = builder


def resolve_predicate(record: Dict[str, Any]) -> Callable[[Execution], bool]:
    """Rebuild the decided property from the ``predicate`` provenance."""
    meta = dict(record.get("predicate") or {})
    name = meta.pop("name", None)
    if not name:
        raise ValueError("witness has no predicate provenance")
    builder = PREDICATE_BUILDERS.get(str(name))
    if builder is None:
        raise ValueError(
            f"unknown predicate {name!r}; known: {sorted(PREDICATE_BUILDERS)}"
        )
    return builder(**meta)


# ----------------------------------------------------------------------
# The store and the process-global capture hook
# ----------------------------------------------------------------------
class WitnessStore:
    """Writes witness bundles into one directory, deduplicated by id."""

    def __init__(self, directory: str = DEFAULT_DIR):
        self.directory = directory
        #: Bundle paths captured through this store, in first-capture order.
        self.captured: List[str] = []

    def save(
        self,
        execution: Execution,
        *,
        kind: str,
        source: str,
        label: str = "",
        reason: str = "",
        spec: Optional[Dict[str, Any]] = None,
        predicate: Optional[Dict[str, Any]] = None,
    ) -> str:
        """Archive one deciding execution; returns the bundle path.

        Idempotent per content: the same execution captured twice (e.g.
        by ``check`` and again by ``check_verdict``) maps to the same
        file and is recorded once.
        """
        record = witness_to_dict(
            execution,
            kind=kind,
            source=source,
            label=label,
            reason=reason,
            spec=spec,
            predicate=predicate,
        )
        path = os.path.join(
            self.directory, f"{kind}-{witness_id(record)}.jsonl"
        )
        fresh = not os.path.exists(path)
        if fresh:
            write_witness(path, [record])
        if path not in self.captured:
            self.captured.append(path)
            _ledger.annotate(witnesses=list(self.captured))
            if _events.is_enabled():
                _events.emit(
                    "witness_captured",
                    path=path,
                    kind=kind,
                    source=source,
                    steps=len(execution.steps),
                    crashes=len(execution.crashes),
                    recoveries=len(execution.recoveries),
                    fingerprint=record["trace"].get("fingerprint", ""),
                    reason=reason,
                )
        return path


_active_store: Optional[WitnessStore] = None
_context: Dict[str, Any] = {}


def activate_store(store: WitnessStore) -> WitnessStore:
    """Install ``store`` as the process-global capture destination."""
    global _active_store
    _active_store = store
    return store


def deactivate_store() -> None:
    """Stop capturing (hook sites revert to their zero-cost no-op)."""
    global _active_store
    _active_store = None


def get_active_store() -> Optional[WitnessStore]:
    """The currently active store, or ``None`` when capture is off."""
    return _active_store


@contextmanager
def capture_witnesses(directory: str = DEFAULT_DIR) -> Iterator[WitnessStore]:
    """Activate a :class:`WitnessStore` for the duration of a block."""
    global _active_store
    previous = _active_store
    store = WitnessStore(directory)
    _active_store = store
    try:
        yield store
    finally:
        _active_store = previous


@contextmanager
def witness_context(**meta: Any) -> Iterator[None]:
    """Attach default provenance to captures made inside the block.

    Recognized keys: ``spec``, ``predicate``, ``label`` — merged into
    every :func:`capture` call that does not override them.  Nests:
    inner contexts shadow outer ones and restore them on exit.
    """
    global _context
    previous = _context
    _context = {**previous, **{k: v for k, v in meta.items() if v is not None}}
    try:
        yield
    finally:
        _context = previous


def capture(
    execution: Execution,
    *,
    kind: str,
    source: str,
    reason: str = "",
    label: Optional[str] = None,
    spec: Optional[Dict[str, Any]] = None,
    predicate: Optional[Dict[str, Any]] = None,
) -> Optional[str]:
    """Archive a deciding execution if a store is active.

    The one-line hook the explorer and the solvability checkers call on
    every verdict-deciding execution; returns the bundle path, or
    ``None`` when capture is off.  Explicit arguments win over the
    ambient :func:`witness_context`.
    """
    store = _active_store
    if store is None:
        return None
    return store.save(
        execution,
        kind=kind,
        source=source,
        reason=reason,
        label=label if label is not None else str(_context.get("label", "")),
        spec=spec if spec is not None else _context.get("spec"),
        predicate=predicate if predicate is not None else _context.get("predicate"),
    )
