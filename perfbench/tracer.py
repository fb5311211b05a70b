"""Spans around calls into repro's layers, recorded from outside ``src/``.

:func:`install` replaces the public entry points of each layer with
wrappers that record one span per call: name, start, end and parent (the
span open when the call began).  Spans live in flat arrays in memory and
are written out once, when the traced run ends; :func:`self_times`
reads them back and charges each span its duration minus the time its
child spans cover.  Only the traced run installs the wrappers; timed
runs execute the unmodified code.
"""

from __future__ import annotations

import array
import functools
import json
import os
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

# Span names, one per layer boundary.
ROOT = "bench.run"
IMPORT = "startup.import"
BUILD = "runtime.system.build"
STEP = "runtime.system.step"
OUTCOMES = "runtime.system.outcomes"
FAULT = "runtime.system.fault"
WALK = "runtime.explorer.walk"
OBSERVE = "obs.execset.observe"
WRITE = "obs.execset.write"
CHECKPOINT = "faults.checkpoint.write"
EMIT = "obs.events.emit"


class SpanLog:
    """Single-threaded span recorder over flat, growing arrays."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_ix = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self._stack: List[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name_id: int, at: float = -1.0) -> int:
        index = len(self.start)
        self.name_ix.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter() if at < 0 else at)
        self.end.append(0.0)
        self._stack.append(index)
        return index

    def finish(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        if self._stack.pop() != index:
            raise RuntimeError("span closed out of order")

    def write(self, path: str, meta: Dict[str, Any]) -> None:
        """Write the spans (``path + '.bin'``) and a JSON header with the
        span names and ``meta`` (``path + '.json'``)."""
        with open(path + ".bin", "wb") as handle:
            for column in (self.name_ix, self.parent, self.start, self.end):
                column.tofile(handle)
        header = {"names": self.names, "spans": len(self.start), "meta": meta}
        with open(path + ".json", "w", encoding="utf-8") as handle:
            json.dump(header, handle)


def read_spans(path: str) -> Tuple[Dict[str, Any], List[array.array]]:
    """``(header, [name_ix, parent, start, end])`` as written by
    :meth:`SpanLog.write`."""
    with open(path + ".json", encoding="utf-8") as handle:
        header = json.load(handle)
    count = header["spans"]
    columns = [array.array(code) for code in "iidd"]
    with open(path + ".bin", "rb") as handle:
        for column in columns:
            column.fromfile(handle, count)
    return header, columns


def self_times(
    names: List[str], columns: List[array.array]
) -> Dict[str, Tuple[int, float, float]]:
    """``name -> (calls, self seconds, total seconds)``.

    Self time is a span's duration minus the durations of its direct
    children; with properly nested spans the self times of all spans
    add up to the root's duration.
    """
    name_ix, parent, start, end = columns
    count = len(start)
    child = array.array("d", bytes(8 * count))  # children's time per span
    for index in range(count):
        up = parent[index]
        if up >= 0:
            child[up] += end[index] - start[index]
    totals: Dict[str, List[float]] = {name: [0, 0.0, 0.0] for name in names}
    for index in range(count):
        spent = end[index] - start[index]
        entry = totals[names[name_ix[index]]]
        entry[0] += 1
        entry[1] += spent - child[index]
        entry[2] += spent
    return {name: (int(c), s, t) for name, (c, s, t) in totals.items()}


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
class Probe:
    """What the wrappers saw besides spans: the explorers that walked and
    the bytes each checkpoint write left on disk."""

    def __init__(self) -> None:
        self.explorers: List[Any] = []
        self.checkpoint_bytes = 0
        self.execset_paths: List[str] = []


def _wrap(log: SpanLog, owner: Any, attr: str, name: str,
          after: Optional[Callable[..., None]] = None) -> None:
    original = getattr(owner, attr)
    name_id = log.name_id(name)
    begin, finish = log.begin, log.finish

    if after is None:
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = begin(name_id)
            try:
                return original(*args, **kwargs)
            finally:
                finish(index)
    else:
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = begin(name_id)
            try:
                result = original(*args, **kwargs)
            finally:
                finish(index)
            after(result, *args, **kwargs)
            return result

    setattr(owner, attr, wrapper)


def install(log: SpanLog) -> Probe:
    """Wrap every layer's public entry points (after ``repro`` is
    imported).  Returns the :class:`Probe` the wrappers feed."""
    from repro.faults import checkpoint as checkpoint_module
    from repro.obs.events import JsonlSink
    from repro.obs.execset import ExecutionSetRecorder
    from repro.runtime import explorer as explorer_module
    from repro.runtime.system import System, SystemSpec

    probe = Probe()
    _wrap(log, SystemSpec, "build", BUILD)
    _wrap(log, System, "step", STEP)
    _wrap(log, System, "outcomes_for", OUTCOMES)
    _wrap(log, System, "crash", FAULT)
    _wrap(log, System, "recover", FAULT)
    _wrap(log, ExecutionSetRecorder, "observe", OBSERVE)

    def wrote_execset(path, *_args, **_kwargs):
        probe.execset_paths.append(path)

    _wrap(log, ExecutionSetRecorder, "write", WRITE, after=wrote_execset)
    _wrap(log, JsonlSink, "emit", EMIT)

    def wrote_checkpoint(_result, path, *_args, **_kwargs):
        probe.checkpoint_bytes += os.path.getsize(path)

    # The explorer holds its own reference to the writer; wrap both.
    _wrap(log, checkpoint_module, "write_checkpoint", CHECKPOINT,
          after=wrote_checkpoint)
    explorer_module._write_checkpoint_file = checkpoint_module.write_checkpoint

    walk_id = log.name_id(WALK)
    original_executions = explorer_module.Explorer.executions

    @functools.wraps(original_executions)
    def executions(self):
        probe.explorers.append(self)
        index = log.begin(walk_id)
        try:
            yield from original_executions(self)
        finally:
            log.finish(index)

    explorer_module.Explorer.executions = executions
    return probe
