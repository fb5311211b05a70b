"""Agreement protocols built on the O(n, k) family.

Three constructions, in increasing scope:

* :func:`consensus_spec` — n-process consensus from one O(n, k) object:
  everyone invokes a distinct slot of group 0 and decides the group winner
  (the first component of the response).  This is the executable lower
  bound "consensus number >= n" (experiment E1).

* :func:`set_consensus_spec` — the headline: ``n(k+2)`` processes, one
  object, every group occupied, **ring adoption**: decide the successor
  snapshot ``S[g]`` when it is not ``None``, else the own-group winner
  ``F[g]``.  At most k+1 distinct decisions in *every* execution,
  including crash-prefixes (experiment E2).  The proof shape:

  - all members of a group decide identically (the response is frozen at
    the group's install);
  - if every group is installed, the last-installed group's winner is
    never decided: its members adopt (their snapshot saw the earlier-
    installed successor), and its predecessor's snapshot was taken
    earlier still, so it misses the last winner;
  - if only t < k+2 groups are installed, only t winners exist at all.

* :func:`partition_set_consensus_spec` — the ratio extension: ``N``
  processes over multiple objects achieve the cover bound
  :func:`repro.core.power.family_agreement` (experiments E2/E5): whole
  rings of ``n(k+2)``, then a remainder that either ring-spreads (when
  ``r > n(k+1)``) or concentrates into n-consensus groups.

:data:`EXPLORE_TASKS` names the first two as the instances the explorer
runs, each with its input alphabet.
"""

from __future__ import annotations

from math import ceil
from typing import Any, Callable, Dict, Generator, List, Sequence, Tuple

from repro.algorithms.helpers import build_spec
from repro.core.family import FamilyMember, HierarchyObjectSpec
from repro.core.power import family_agreement
from repro.runtime.ops import invoke
from repro.runtime.system import SystemSpec


def family_port_program(
    target: str,
    group: int,
    slot: int,
    value: Any,
) -> Generator:
    """Subroutine: invoke one port and apply the ring-adoption rule.

    Returns the decision: the frozen successor snapshot when the group's
    installer saw one, otherwise the group winner (which is the caller's
    own value when the caller installed the group).
    """
    winner, successor_snapshot = yield invoke(target, "invoke", group, slot, value)
    if successor_snapshot is not None:
        return successor_snapshot
    return winner


def consensus_spec(n: int, k: int, inputs: Sequence[Any]) -> SystemSpec:
    """n-process consensus from one O(n, k): all processes share group 0
    and decide its winner (ignoring the ring component)."""
    if len(inputs) > n:
        raise ValueError(f"group consensus admits at most n={n} processes")
    spec = HierarchyObjectSpec(n, k)

    def program(pid: int, value: Any) -> Generator:
        winner, _snapshot = yield invoke("O", "invoke", 0, pid, value)
        return winner

    return build_spec({"O": spec}, program, inputs)


def ring_spread_port(spec: HierarchyObjectSpec, offset: int) -> tuple:
    """Port assignment that covers all groups as early as possible:
    offset o -> (o mod G, o // G)."""
    group = offset % spec.groups
    slot = offset // spec.groups
    if slot >= spec.n:
        raise ValueError(f"offset {offset} exceeds {spec.ports} ports")
    return group, slot


def set_consensus_spec(n: int, k: int, inputs: Sequence[Any]) -> SystemSpec:
    """(c, k+1)-set consensus from one O(n, k), for any
    ``k+2 <= c <= n(k+2)`` processes: ring-spread port assignment plus
    ring adoption.  With ``c = n(k+2)`` this is the full-occupancy
    headline task (n(k+2), k+1)."""
    spec = HierarchyObjectSpec(n, k)
    if not spec.groups <= len(inputs) <= spec.ports:
        raise ValueError(
            f"ring protocol needs between {spec.groups} (ring coverage) and "
            f"{spec.ports} (port count) processes, got {len(inputs)}"
        )

    def program(pid: int, value: Any) -> Generator:
        group, slot = ring_spread_port(spec, pid)
        decision = yield from family_port_program("O", group, slot, value)
        return decision

    return build_spec({"O": spec}, program, inputs)


def _consensus_task(n: int, k: int) -> Tuple[SystemSpec, List[str]]:
    inputs = [f"v{i}" for i in range(n)]
    return consensus_spec(n, k, inputs), inputs


def _set_consensus_task(n: int, k: int) -> Tuple[SystemSpec, List[str]]:
    inputs = [f"v{i}" for i in range(FamilyMember(n, k).ports)]
    return set_consensus_spec(n, k, inputs), inputs


#: The named O(n, k) instances that ``repro explore``, ``repro audit`` and
#: ``repro serve`` jobs run, and that execution sets and witnesses record
#: as ``{"task", "n", "k"}``: task -> ``(n, k) -> (spec, input alphabet)``.
#: Replays rebuild from this same table, so they rerun the explored system.
EXPLORE_TASKS: Dict[str, Callable[[int, int], Tuple[SystemSpec, List[str]]]] = {
    "set-consensus": _set_consensus_task,
    "consensus": _consensus_task,
}


def partition_set_consensus_spec(
    n: int, k: int, inputs: Sequence[Any]
) -> SystemSpec:
    """N-process set consensus from multiple O(n, k) objects, achieving
    the cover bound of :func:`repro.core.power.family_agreement`.

    Processes are split into contiguous blocks of ``ports = n(k+2)``; each
    full block ring-spreads over its own object.  The remainder block of
    ``r`` processes ring-spreads too when ``r > n(k+1)`` (k+1 decisions
    beat concentration there) and otherwise concentrates into
    ``ceil(r/n)`` n-consensus groups, ignoring the ring component.
    """
    object_spec = HierarchyObjectSpec(n, k)
    ports = object_spec.ports
    n_processes = len(inputs)
    if n_processes == 0:
        raise ValueError("need at least one process")
    n_objects = max(1, (n_processes + ports - 1) // ports)
    objects = {f"O{b}": object_spec for b in range(n_objects)}
    full_blocks = n_processes // ports
    remainder = n_processes - full_blocks * ports
    remainder_rings = remainder > n * (k + 1)

    def program(pid: int, value: Any) -> Generator:
        block, offset = divmod(pid, ports)
        target = f"O{block}"
        if block < full_blocks or remainder_rings:
            group, slot = ring_spread_port(object_spec, offset)
            decision = yield from family_port_program(target, group, slot, value)
        else:
            # Concentrate: per-group n-consensus only.
            group, slot = divmod(offset, n)
            winner, _snapshot = yield invoke(target, "invoke", group, slot, value)
            decision = winner
        return decision

    return build_spec(objects, program, inputs)


def worst_case_agreement(n: int, k: int, n_processes: int) -> int:
    """The agreement bound the partition protocol guarantees — the cover
    closed form, re-exported so protocol and bound travel together."""
    return family_agreement(n, k, n_processes)


def concentration_bound(n: int, n_processes: int) -> int:
    """Agreement when only the n-consensus component is used:
    ceil(N/n) — the baseline the ring improves on."""
    return ceil(n_processes / n)
