"""Deterministic profiler: fold the event stream into a span call tree.

The profiler consumes the same ordered event stream the metrics registry
does — live via :meth:`Profiler.install`, or replayed from a
``--trace-out`` JSONL file — and builds a tree of span *instances*
(``span_start``/``span_end``) with every ``step`` event attributed to the
innermost open span and its ``(object, method)`` pair.  Because the
input is a deterministic event stream, the resulting tree and its folded
export are byte-identical across live collection and replay of the same
trace.

Two questions it answers that raw counters cannot:

* **where do steps go?** — ``folded_stacks()`` exports collapsed stacks
  (``span;span;object.method count``) in the format flamegraph.pl and
  speedscope consume (``repro stats TRACE --flame out.folded``);
* **what does replay cost?** — the explorer marks re-executed prefix
  steps (a resumed walk's unmarked frontier prefixes) with
  ``replay=True`` (see :meth:`repro.runtime.explorer.Explorer._descend`),
  so :meth:`Profiler.replay_overhead` reports redundant steps per
  useful step, matching ``Explorer.stats.replay_overhead``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.obs import events as _events

StepKey = Tuple[str, str]  # (object, method)


def _num(value: Any, default: float = 0.0) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return default
    return float(value)


class SpanNode:
    """One span instance (or the synthetic root) in the profile tree."""

    __slots__ = ("name", "parent", "seconds", "children", "steps", "replayed")

    def __init__(self, name: str, parent: Optional["SpanNode"] = None):
        self.name = name
        self.parent = parent
        self.seconds: Optional[float] = None  # filled by span_end
        self.children: List["SpanNode"] = []
        self.steps: Dict[StepKey, int] = {}
        self.replayed: Dict[StepKey, int] = {}

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def own_steps(self) -> int:
        """Steps attributed directly to this span (not to children)."""
        return sum(self.steps.values())

    def total_steps(self) -> int:
        """Steps in this span and everything nested inside it."""
        return self.own_steps() + sum(c.total_steps() for c in self.children)

    def child_seconds(self) -> float:
        return sum(c.seconds or 0.0 for c in self.children)

    def self_seconds(self) -> Optional[float]:
        """Wall time spent in this span outside any child span."""
        if self.seconds is None:
            return None
        return max(0.0, self.seconds - self.child_seconds())


class Profiler:
    """Event consumer building the span call tree.

    Feed it an ordered event stream — ``consume_event(name, fields)`` per
    event, or subscribe it to the live bus with :meth:`install` — then
    read :attr:`root`, :meth:`folded_stacks`, :meth:`render_tree`.
    Unknown events are ignored; out-of-order ``span_end`` events close
    back to the nearest matching open span rather than corrupting the
    stack (mirroring the tolerance in :class:`repro.obs.spans.Span`).
    """

    def __init__(self) -> None:
        self.root = SpanNode("<root>")
        self._open: List[SpanNode] = [self.root]
        self.steps_total = 0
        self.steps_replayed = 0
        self.spans_seen = 0

    # ------------------------------------------------------------------
    # Event consumption (live subscription or JSONL replay)
    # ------------------------------------------------------------------
    def consume_event(self, name: str, fields: Dict[str, Any]) -> None:
        if name == "step":
            node = self._open[-1]
            key = (str(fields.get("object")), str(fields.get("method")))
            node.steps[key] = node.steps.get(key, 0) + 1
            self.steps_total += 1
            if fields.get("replay"):
                node.replayed[key] = node.replayed.get(key, 0) + 1
                self.steps_replayed += 1
        elif name == "span_start":
            parent = self._open[-1]
            node = SpanNode(str(fields.get("span", "?")), parent=parent)
            parent.children.append(node)
            self._open.append(node)
            self.spans_seen += 1
        elif name == "span_end":
            span_name = str(fields.get("span", "?"))
            for index in range(len(self._open) - 1, 0, -1):
                if self._open[index].name == span_name:
                    self._open[index].seconds = _num(fields.get("seconds"))
                    del self._open[index:]
                    break

    def install(self) -> "Profiler":
        """Attach to the event bus (live collection)."""
        _events.subscribe(self.consume_event)
        return self

    def uninstall(self) -> None:
        _events.unsubscribe(self.consume_event)

    # ------------------------------------------------------------------
    # Replay accounting
    # ------------------------------------------------------------------
    @property
    def steps_on_path(self) -> int:
        """Steps that were not explorer re-executions."""
        return self.steps_total - self.steps_replayed

    def replay_overhead(self) -> float:
        """Redundant (replayed) steps per on-path step."""
        if not self.steps_on_path:
            return 0.0
        return self.steps_replayed / self.steps_on_path

    # ------------------------------------------------------------------
    # Exports
    # ------------------------------------------------------------------
    def folded_stacks(self, metric: str = "steps") -> List[str]:
        """Collapsed-stack lines (``frame;frame value``), sorted.

        ``metric="steps"`` weights ``span;…;object.method`` leaves by step
        count; ``metric="seconds"`` weights span frames by *self* wall
        time in integer microseconds.  Both feed flamegraph.pl unchanged.
        """
        if metric not in ("steps", "seconds"):
            raise ValueError(f"unknown folded-stack metric: {metric!r}")
        weights: Dict[str, int] = {}

        def add(stack: str, value: int) -> None:
            if value > 0:
                weights[stack] = weights.get(stack, 0) + value

        def walk(node: SpanNode, frames: List[str]) -> None:
            if node is not self.root:
                frames = frames + [node.name]
            if metric == "steps":
                for (obj, method), count in node.steps.items():
                    add(";".join(frames + [f"{obj}.{method}"]), count)
            elif frames:
                self_seconds = node.self_seconds()
                if self_seconds is not None:
                    add(";".join(frames), round(self_seconds * 1e6))
            for child in node.children:
                walk(child, frames)

        walk(self.root, [])
        return [f"{stack} {value}" for stack, value in sorted(weights.items())]

    def render_tree(self, max_depth: int = 6) -> str:
        """Aligned text rendering of the span tree (the ``stats`` body).

        Sibling spans with the same name are aggregated per level, so a
        loop of 720 ``explore`` spans reads as one line with a count.
        """
        lines: List[str] = []

        def walk(nodes: List[SpanNode], indent: int) -> None:
            if indent >= max_depth:
                return
            grouped: Dict[str, List[SpanNode]] = {}
            for node in nodes:
                grouped.setdefault(node.name, []).append(node)
            ordered = sorted(
                grouped.items(),
                key=lambda item: -sum(n.seconds or 0.0 for n in item[1]),
            )
            for name, instances in ordered:
                seconds = sum(n.seconds or 0.0 for n in instances)
                steps = sum(n.total_steps() for n in instances)
                calls = len(instances)
                label = "  " * indent + name
                lines.append(
                    f"{label:<28} {seconds:9.3f}s  {steps:10d} steps"
                    + (f"  x{calls}" if calls > 1 else "")
                )
                walk([c for n in instances for c in n.children], indent + 1)

        walk(self.root.children, 0)
        if self.root.own_steps():
            lines.append(
                f"{'(outside any span)':<28} {'':>10}  "
                f"{self.root.own_steps():10d} steps"
            )
        if not lines:
            return "(no spans recorded)"
        return "\n".join(lines)
