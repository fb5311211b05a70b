"""The infinite hierarchy, made explicit.

This module turns the paper's headline — *infinitely many pairwise
inequivalent deterministic objects at every consensus level n >= 2* — into
data: per-level strictness witnesses (the arithmetic certificate of each
separation) and :mod:`networkx` graphs of the implementability order, both
for the O(n, k) family and for the classical (m, j)-set-consensus lattice
it is measured against.

networkx is imported inside the graph builders, so importing the package
does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List

from repro.core.family import FamilyMember
from repro.core.power import SetConsensusPower, family_agreement
from repro.core.theorem import is_implementable

if TYPE_CHECKING:
    import networkx as nx


@dataclass(frozen=True)
class HierarchyLevel:
    """One rung of the chain with its separation certificate attached."""

    member: FamilyMember
    #: System size at which this level beats the next-weaker one.
    witness_system_size: int
    #: Agreement this level achieves there.
    agreement_here: int
    #: Agreement the next-weaker level achieves there (strictly worse).
    agreement_weaker: int

    def certificate(self) -> str:
        m = self.member
        return (
            f"O({m.n},{m.k}) > O({m.n},{m.k + 1}): at N = "
            f"{self.witness_system_size}, O({m.n},{m.k}) achieves "
            f"{self.agreement_here}-agreement while O({m.n},{m.k + 1}) "
            f"achieves only {self.agreement_weaker}."
        )


def strictness_witness(n: int, k: int) -> HierarchyLevel:
    """Separation certificate for O(n, k) > O(n, k+1).

    Checks both directions by the cover closed form:

    * forward — O(n, k) implements O(n, k+1)'s task:
      ``K_k(n(k+3)) <= k+2``;
    * backward fails — O(n, k+1) does not implement O(n, k)'s task:
      ``K_{k+1}(n(k+2)) > k+1``.
    """
    member = FamilyMember(n, k)
    weaker = member.weaker_neighbor
    witness_n = member.ports  # n (k + 2)
    here = family_agreement(n, k, witness_n)
    there = family_agreement(n, k + 1, witness_n)
    if not here < there:
        raise AssertionError(
            f"strictness failed at (n={n}, k={k}): {here} !< {there}"
        )
    forward = family_agreement(n, k, weaker.ports)
    if forward > weaker.task.j:
        raise AssertionError(
            f"chain broken: O({n},{k}) cannot cover O({n},{k + 1})'s task "
            f"({forward} > {weaker.task.j})"
        )
    return HierarchyLevel(
        member=member,
        witness_system_size=witness_n,
        agreement_here=here,
        agreement_weaker=there,
    )


def family_chain(n: int, k_max: int) -> List[HierarchyLevel]:
    """The first ``k_max`` rungs of the level-n chain, strongest first."""
    return [strictness_witness(n, k) for k in range(1, k_max + 1)]


def family_hierarchy_graph(n: int, k_max: int) -> nx.DiGraph:
    """Directed graph of the level-n hierarchy.

    Nodes: ``"O(n,k)"`` for k = 1..k_max, plus ``"n-consensus"`` and
    ``"registers"`` anchors.  An edge u -> v means *u is strictly stronger
    than v*; family edges carry their :class:`HierarchyLevel` certificate
    in the ``witness`` attribute.
    """
    import networkx as nx

    graph = nx.DiGraph(n=n)
    anchor_consensus = f"{n}-consensus"
    graph.add_node("registers", kind="anchor", consensus_number=1)
    graph.add_node(anchor_consensus, kind="anchor", consensus_number=n)
    if n > 1:
        graph.add_edge(anchor_consensus, "registers")
    previous = None
    for level in family_chain(n, k_max):
        node = f"O({n},{level.member.k})"
        graph.add_node(
            node,
            kind="family",
            consensus_number=n,
            ports=level.member.ports,
            task=str(level.member.task),
        )
        # Every level strictly dominates the n-consensus anchor: it matches
        # the profile for cohorts <= n and beats ceil(N/n) at full rings.
        graph.add_edge(node, anchor_consensus)
        if previous is not None:
            graph.add_edge(previous, node, witness=strictness_witness(n, level.member.k - 1))
        previous = node
    return graph


def set_consensus_lattice(max_m: int) -> nx.DiGraph:
    """Implementability digraph over all (m, j)-set-consensus classes with
    ``1 <= j < m <= max_m``; edge u -> v iff u implements v (reflexive
    edges omitted).  The paper's tool theorem decides every edge."""
    import networkx as nx

    points = [
        SetConsensusPower(m, j)
        for m in range(2, max_m + 1)
        for j in range(1, m)
    ]
    graph = nx.DiGraph()
    for point in points:
        graph.add_node(str(point), m=point.m, j=point.j, ratio=float(point.ratio))
    for a in points:
        for b in points:
            if a != b and is_implementable(b.m, b.j, a.m, a.j):
                graph.add_edge(str(a), str(b))
    return graph


def equivalence_classes(max_m: int) -> List[List[str]]:
    """Group the (m, j) points with ``m <= max_m`` into mutual-
    implementability classes (the hierarchy's actual rungs)."""
    import networkx as nx

    graph = set_consensus_lattice(max_m)
    undirected_core = nx.DiGraph(
        (u, v) for u, v in graph.edges if graph.has_edge(v, u)
    )
    undirected_core.add_nodes_from(graph.nodes)
    classes = [sorted(c) for c in nx.weakly_connected_components(undirected_core)]
    return sorted(classes, key=lambda c: (len(c), c))
