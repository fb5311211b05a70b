"""Commute-or-overwrite certificates (Herlihy's consensus-number-1 test).

Herlihy's classification argument: suppose a wait-free 2-process consensus
protocol exists over some objects; walk to a critical configuration; the
two pending steps must touch the same object, and examining how the two
steps compose decides everything.  If for **every** reachable state the
two steps either

* *commute* — both orders produce the same object state, and each step's
  response is independent of the order, or
* *overwrite* — one step's application makes the state (and the other
  step's absence) indistinguishable to a solo run of the other process,

then the processes cannot break the symmetry and the object cannot solve
2-process consensus.  Registers pass this certificate (reads commute,
writes overwrite); any object with consensus number >= 2 must *fail* it
somewhere, and the failing (state, op, op) triple is precisely the
synchronization kernel of the object.

This module enumerates reachable object states (the object alone is a
small state machine — no processes needed) and classifies every pair of
operations from a caller-supplied universe, producing either a certificate
("consensus number 1, by the pairwise argument") or the list of witnesses
where the certificate fails.  The tests run it over the whole object zoo
and check it agrees with the recorded consensus numbers; for the O(n, k)
family the witnesses land exactly on same-group installs — the built-in
group consensus (experiment E3/E8).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, List, Sequence, Set, Tuple

from repro.objects.base import ObjectSpec

#: An operation instance: (method, args).
OpInstance = Tuple[str, Tuple[Any, ...]]

#: Classifications returned by :func:`classify_adjacent_pair`.
PAIR_COMMUTE = "commute"  # both orders reach the same configuration
PAIR_STATE_DIVERGES = "state-diverges"  # orders reach different configurations
PAIR_SWAP_ILLEGAL = "swap-illegal"  # the swapped order cannot be executed
PAIR_SAME_PROCESS = "same-process"  # program order, not reorderable


def reachable_states(
    spec: ObjectSpec,
    ops: Sequence[OpInstance],
    max_states: int = 5000,
    truncate: bool = False,
) -> List[Any]:
    """BFS over the object's own state graph under the given operation
    universe (all nondeterministic outcomes included).  Misuse branches
    (illegal operations) are skipped — they end the relevant executions.

    Objects with infinite state spaces (counters, queues) exhaust any
    budget; pass ``truncate=True`` to return the explored region instead
    of raising.  A certificate over a truncated region proves nothing —
    it only *locates* failures (the report records the truncation).
    """
    from repro.errors import IllegalOperationError

    initial = spec.initial_state()
    seen: Set[Any] = {initial}
    frontier: List[Any] = [initial]
    order: List[Any] = [initial]
    while frontier:
        state = frontier.pop()
        for method, args in ops:
            try:
                outcomes = spec.apply(state, method, args)
            except IllegalOperationError:
                continue
            for _response, new_state in outcomes:
                if new_state not in seen:
                    if len(seen) >= max_states:
                        if truncate:
                            return order
                        raise MemoryError(
                            f"state budget {max_states} exhausted; trim the "
                            "operation universe or pass truncate=True"
                        )
                    seen.add(new_state)
                    frontier.append(new_state)
                    order.append(new_state)
    return order


@dataclass(frozen=True)
class PairWitness:
    """A (state, op_p, op_q) triple where the pairwise argument fails."""

    state: Any
    op_p: OpInstance
    op_q: OpInstance
    reason: str

    def __str__(self) -> str:
        return (
            f"{self.op_p[0]}{self.op_p[1]} vs {self.op_q[0]}{self.op_q[1]} "
            f"at state {self.state!r}: {self.reason}"
        )


@dataclass
class CommutativityReport:
    """Outcome of the certificate run."""

    certified: bool
    states_checked: int
    pairs_checked: int
    witnesses: List[PairWitness] = field(default_factory=list)
    #: True when the state exploration hit its budget: a positive verdict
    #: then covers only the explored region and proves nothing.
    truncated: bool = False

    def summary(self) -> str:
        verdict = (
            "commute-or-overwrite holds: the object cannot solve 2-process "
            "consensus"
            if self.certified
            else f"certificate fails at {len(self.witnesses)} state/pair "
            "combinations (synchronization power present)"
        )
        region = " [TRUNCATED region — not a proof]" if self.truncated else ""
        return (
            f"{self.states_checked} states x {self.pairs_checked} op pairs: "
            f"{verdict}{region}"
        )


def _apply_all(spec: ObjectSpec, state: Any, op: OpInstance):
    from repro.errors import IllegalOperationError

    try:
        return spec.apply(state, op[0], op[1])
    except IllegalOperationError:
        return None


def _pair_ok(
    spec: ObjectSpec, state: Any, op_p: OpInstance, op_q: OpInstance
) -> Tuple[bool, str]:
    """Classify one (state, op_p, op_q): True if commute or overwrite."""
    outcomes_p = _apply_all(spec, state, op_p)
    outcomes_q = _apply_all(spec, state, op_q)
    if outcomes_p is None or outcomes_q is None:
        return True, "misuse"  # no legal execution reaches this pairing
    # For deterministic objects there is a single outcome each way.
    for resp_p, state_p in outcomes_p:
        for resp_q, state_q in outcomes_q:
            after_pq = _apply_all(spec, state_p, op_q)
            after_qp = _apply_all(spec, state_q, op_p)
            if after_pq is None or after_qp is None:
                continue
            pq_states = {s for _r, s in after_pq}
            qp_states = {s for _r, s in after_qp}
            commute = (
                pq_states == qp_states
                and {r for r, _s in after_qp} == {resp_p}
                and {r for r, _s in after_pq} == {resp_q}
            )
            if commute:
                continue
            # Overwrite: q's step erases p's — the state after p;q equals
            # the state after q alone AND q's own response is unchanged,
            # so only p can tell the difference (or symmetrically).  The
            # response condition is essential: test-and-set "erases" the
            # state but leaks the order through the second return value.
            q_overwrites_p = (
                pq_states == {state_q}
                and {r for r, _s in after_pq} == {resp_q}
            )
            p_overwrites_q = (
                qp_states == {state_p}
                and {r for r, _s in after_qp} == {resp_p}
            )
            if q_overwrites_p or p_overwrites_q:
                continue
            return False, (
                "orders distinguishable: "
                f"p;q -> {sorted(map(repr, pq_states))} vs "
                f"q;p -> {sorted(map(repr, qp_states))}"
            )
    return True, "ok"


def classify_adjacent_pair(
    spec: Any, decisions: Sequence[Tuple[int, int]], index: int
) -> str:
    """Execution-level analogue of the pairwise certificate: do the two
    adjacent decisions at ``index`` and ``index + 1`` commute *in this
    context*?

    Where :func:`commute_or_overwrite_certificate` quantifies over an
    object's whole state graph, this classifies one concrete adjacent
    pair of an explored execution by replaying the prefix and executing
    the pair in both orders, then comparing the resulting configuration
    fingerprints (:func:`repro.obs.fingerprint.configuration_fingerprint`,
    which covers object states, responses, and statuses — crashes
    included).  A commuting pair is an interleaving a dynamic
    partial-order reduction would not have needed to explore separately.

    ``spec`` is a :class:`~repro.runtime.system.SystemSpec`;
    ``decisions`` a :attr:`~repro.runtime.execution.Execution.full_decisions`
    sequence (crash and recovery decisions participate).  Probes replay
    with the ``replaying`` attribution flag set and charge no budget, so
    they never count as on-path work nor flip a budget-bounded verdict.
    Returns one of
    :data:`PAIR_COMMUTE`, :data:`PAIR_STATE_DIVERGES`,
    :data:`PAIR_SWAP_ILLEGAL`, :data:`PAIR_SAME_PROCESS`.
    """
    from repro.errors import (
        IllegalOperationError,
        ProtocolError,
        SchedulingError,
    )
    from repro.obs.fingerprint import configuration_fingerprint

    first = decisions[index]
    second = decisions[index + 1]
    if first[0] == second[0]:
        return PAIR_SAME_PROCESS
    prefix = list(decisions[:index])
    try:
        swapped = spec.replay(prefix + [second, first], replaying=True)
    except (SchedulingError, ProtocolError, IllegalOperationError):
        return PAIR_SWAP_ILLEGAL
    original = spec.replay(prefix + [first, second], replaying=True)
    if configuration_fingerprint(original) == configuration_fingerprint(swapped):
        return PAIR_COMMUTE
    return PAIR_STATE_DIVERGES


def commute_or_overwrite_certificate(
    spec: ObjectSpec,
    ops: Sequence[OpInstance],
    max_states: int = 5000,
    max_witnesses: int = 10,
    truncate: bool = False,
) -> CommutativityReport:
    """Run the pairwise certificate over all reachable states.

    ``certified=True`` is a sound proof (relative to the operation
    universe) that the object has consensus number 1; ``certified=False``
    only *locates* potential synchronization power — the witnesses say
    where, and constructive protocols must confirm it (as
    :mod:`repro.algorithms.set_consensus_from_family` does for the family).
    With ``truncate=True`` infinite state spaces are cut at the budget and
    a positive verdict is marked non-probative.
    """
    states = reachable_states(spec, ops, max_states=max_states, truncate=truncate)
    report = CommutativityReport(
        certified=True,
        states_checked=len(states),
        pairs_checked=0,
        truncated=truncate and len(states) >= max_states,
    )
    for state in states:
        for i, op_p in enumerate(ops):
            for op_q in ops[i:]:
                report.pairs_checked += 1
                ok, reason = _pair_ok(spec, state, op_p, op_q)
                if not ok:
                    report.certified = False
                    if len(report.witnesses) < max_witnesses:
                        report.witnesses.append(
                            PairWitness(state, op_p, op_q, reason)
                        )
    return report
