"""State-space analysis of shared objects.

Objects in this library are pure state machines, so their behaviour under
a finite operation universe is a finite (or truncatable) labelled graph.
This module builds that graph explicitly and extracts the facts other
tools consume:

* :func:`state_graph` — the labelled transition graph as a
  :mod:`networkx` MultiDiGraph;
* :func:`verify_determinism` — systematically confirm (or refute) an
  object's ``deterministic`` flag over its reachable states: the paper's
  central dichotomy, made checkable;
* :func:`StateSpaceSummary` — node/edge counts, branching factor, depth,
  sink states (useful when sizing certificate runs and explorer bounds).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, List, Optional, Sequence, Tuple

from repro.analysis.commutativity import OpInstance, reachable_states
from repro.errors import IllegalOperationError
from repro.faults.verdict import Verdict
from repro.obs import events as _obs_events
from repro.objects.base import ObjectSpec

if TYPE_CHECKING:
    import networkx as nx

#: networkx refuses ``None`` as a node; states equal to ``None`` are
#: represented by this sentinel in graphs (see :func:`node_for`).
NONE_STATE = ("<none-state>",)


def node_for(state: Any) -> Any:
    """Graph node representing ``state`` (handles the ``None`` state)."""
    return NONE_STATE if state is None else state


def state_graph(
    spec: ObjectSpec,
    ops: Sequence[OpInstance],
    max_states: int = 5000,
    truncate: bool = False,
) -> nx.MultiDiGraph:
    """Labelled transition graph: nodes are reachable states, one edge per
    (operation, outcome) with ``op``/``response`` attributes.  Misuse
    branches are omitted (they end executions)."""
    import networkx as nx

    states = reachable_states(spec, ops, max_states=max_states, truncate=truncate)
    if _obs_events.is_enabled():
        _obs_events.emit(
            "states_visited", object=type(spec).__name__, states=len(states)
        )
    known = set(map(node_for, states))
    graph = nx.MultiDiGraph()
    for state in states:
        graph.add_node(node_for(state))
    for state in states:
        for method, args in ops:
            try:
                outcomes = spec.apply(state, method, args)
            except IllegalOperationError:
                continue
            for response, new_state in outcomes:
                if node_for(new_state) in known:
                    graph.add_edge(
                        node_for(state),
                        node_for(new_state),
                        op=(method, args),
                        response=response,
                    )
    return graph


@dataclass
class DeterminismReport:
    """Verdict of :func:`verify_determinism`.

    ``truncated`` is set when the reachable-state enumeration was cut off
    at ``max_states``; a clean-but-truncated check is only evidence, not
    a proof, so its ``verdict`` is ``INCONCLUSIVE`` (a found witness is
    still ``REFUTED`` — refutation is sound under truncation).
    """

    deterministic: bool
    states_checked: int
    #: First (state, op) with multiple outcomes, if any.
    witness: Optional[Tuple[Any, OpInstance]] = None
    truncated: bool = False

    @property
    def verdict(self) -> Verdict:
        if not self.deterministic:
            return Verdict.REFUTED
        if self.truncated:
            return Verdict.INCONCLUSIVE
        return Verdict.PROVED

    def summary(self) -> str:
        if self.deterministic:
            qualifier = (
                " (truncated — not exhaustive)" if self.truncated else ""
            )
            return (
                f"deterministic over {self.states_checked} reachable "
                f"states{qualifier}"
            )
        state, (method, args) = self.witness
        return (
            f"nondeterministic: {method}{args} has multiple outcomes at "
            f"state {state!r}"
        )


def verify_determinism(
    spec: ObjectSpec,
    ops: Sequence[OpInstance],
    max_states: int = 5000,
    truncate: bool = False,
) -> DeterminismReport:
    """Check every reachable (state, operation) pair for single-outcome
    behaviour — the executable meaning of 'deterministic object'."""
    states = reachable_states(spec, ops, max_states=max_states, truncate=truncate)
    truncated = truncate and len(states) >= max_states
    if _obs_events.is_enabled():
        _obs_events.emit(
            "states_visited", object=type(spec).__name__, states=len(states)
        )
    for state in states:
        for op in ops:
            method, args = op
            try:
                outcomes = spec.apply(state, method, args)
            except IllegalOperationError:
                continue
            if len(outcomes) > 1:
                return DeterminismReport(
                    deterministic=False,
                    states_checked=len(states),
                    witness=(state, op),
                    truncated=truncated,
                )
    return DeterminismReport(
        deterministic=True, states_checked=len(states), truncated=truncated
    )


@dataclass
class StateSpaceSummary:
    """Size/shape facts about an object's reachable state space."""

    states: int
    transitions: int
    max_branching: int
    depth: int
    sinks: int

    def __str__(self) -> str:
        return (
            f"{self.states} states, {self.transitions} transitions, "
            f"max branching {self.max_branching}, depth {self.depth}, "
            f"{self.sinks} sinks"
        )


def summarize_state_space(
    spec: ObjectSpec,
    ops: Sequence[OpInstance],
    max_states: int = 5000,
    truncate: bool = False,
) -> StateSpaceSummary:
    """Compute a :class:`StateSpaceSummary` for the object under ``ops``."""
    import networkx as nx

    graph = state_graph(spec, ops, max_states=max_states, truncate=truncate)
    initial = node_for(spec.initial_state())
    lengths = nx.single_source_shortest_path_length(graph, initial)
    sinks = sum(1 for node in graph.nodes if graph.out_degree(node) == 0)
    max_branching = max(
        (graph.out_degree(node) for node in graph.nodes), default=0
    )
    return StateSpaceSummary(
        states=graph.number_of_nodes(),
        transitions=graph.number_of_edges(),
        max_branching=max_branching,
        depth=max(lengths.values(), default=0),
        sinks=sinks,
    )
