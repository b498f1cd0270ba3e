"""Special/ordinary node classification and DAG reference similarity.

A node is special when it carries information the abstraction must keep:
a variable points at it, it touches an anomalous (back or horizontal)
edge, or it is a branch point of a cycle.  Only ordinary nodes are ever
merged.  Which clauses apply depends on the component layout.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .errors import SameNodeError, UnknownNodeError
from .model import (
    Component,
    ComponentIndex,
    Layout,
    NodeEdge,
    TreeEdge,
    _require_layout,
)


class Reason(Enum):
    VAR_POINTED = "VarPointed"
    BACK_EDGE_ENDPOINT = "BackEdgeEndpoint"
    HORIZONTAL_EDGE_ENDPOINT = "HorizontalEdgeEndpoint"
    MULTI_IN = "MultiIn"
    MULTI_OUT = "MultiOut"


@dataclass(frozen=True)
class NodeClass:
    """Classification of one node; special exactly when reasons is nonempty."""

    reasons: tuple

    @property
    def special(self) -> bool:
        return bool(self.reasons)


@dataclass(frozen=True)
class SimilarityPartition:
    """Disjoint reference-similar groups covering a DAG's ordinary nodes."""

    groups: tuple

    def __post_init__(self):
        object.__setattr__(self, "groups", tuple(frozenset(g) for g in self.groups))
        seen: set = set()
        for g in self.groups:
            if seen & g:
                raise ValueError("similarity groups must be disjoint")
            seen |= g


def _mark_depth_anomalies(index: ComponentIndex, marked: dict):
    # Lists and trees: both endpoints of an edge of the layout's kind that
    # goes up to a shallower node (back edge) or, in trees, stays level.
    depths = index.depth_map()
    tree = index.component.layout is Layout.T
    kind = TreeEdge if tree else NodeEdge
    for edges in index.out.values():
        for e in edges:
            if not isinstance(e, kind):
                continue
            if depths[e.src] > depths[e.dst]:
                reason = Reason.BACK_EDGE_ENDPOINT
            elif tree and depths[e.src] == depths[e.dst]:
                reason = Reason.HORIZONTAL_EDGE_ENDPOINT
            else:
                continue
            marked[reason].update(e.ends)


def _mark_branch_points(index: ComponentIndex, marked: dict):
    # Cycles: nodes with more than one entering or leaving edge; self
    # edges count as neither.
    for n in index.component.nodes:
        if len(index.into[n]) > 1:
            marked[Reason.MULTI_IN].add(n)
        if len(index.out[n]) > 1:
            marked[Reason.MULTI_OUT].add(n)


# DAGs have no layout rule: only their variable targets are special.
_LAYOUT_RULES = {
    Layout.SLL: _mark_depth_anomalies,
    Layout.T: _mark_depth_anomalies,
    Layout.C: _mark_branch_points,
}


def node_classes(c: Component, index: ComponentIndex | None = None) -> dict:
    """Classify every node by the rules of the component's layout.

    Every variable target is special.  Lists also single out both
    endpoints of any back edge (from a strictly deeper node to a
    shallower one); trees both endpoints of any labeled edge between
    distinct nodes that does not descend (back or horizontal edge);
    cycles their branch points, nodes with more than one entering or
    leaving edge, self edges counting as neither.  DAGs have no further
    special nodes.  ``index`` is the component's :class:`ComponentIndex`
    when the caller has already built it.
    """
    index = index or ComponentIndex(c)
    marked = defaultdict(set)  # the nodes each reason applies to
    marked[Reason.VAR_POINTED].update(n for n, variables in index.pointed.items() if variables)
    rule = _LAYOUT_RULES.get(c.layout)
    if rule:
        rule(index, marked)
    reasons: dict = {}
    for r in Reason:
        for n in marked[r]:
            reasons[n] = (*reasons.get(n, ()), r)
    return {n: NodeClass(reasons.get(n, ())) for n in c.nodes}


def ordinary_nodes(c: Component, index: ComponentIndex | None = None) -> frozenset:
    """The mergeable nodes, complement of the special ones; ``index`` as in node_classes."""
    return frozenset(n for n, k in node_classes(c, index).items() if not k.special)


def _neighbourhood(index: ComponentIndex, n: str) -> tuple:
    # Predecessor and successor sets over node edges, a self edge making
    # the node its own neighbour.
    loop = {n} if index.loops[n] else set()
    preds = frozenset(e.src for e in index.into[n]).union(loop)
    succs = frozenset(e.dst for e in index.out[n]).union(loop)
    return preds, succs


def reference_similar(c: Component, a: str, b: str) -> bool:
    """Whether two distinct DAG nodes are interchangeable references.

    True when no edge connects them and they share exactly the same
    predecessor and successor sets (over node edges; variables do not
    enter into similarity).
    """
    _require_layout(c, Layout.DAG, "reference similarity")
    if a == b:
        raise SameNodeError(f"reference similarity needs two distinct nodes, got {a}")
    return reference_similar_set(c, (a, b))


def reference_similar_set(c: Component, region: Iterable) -> bool:
    """Whether every pair of distinct nodes in the region is reference similar."""
    _require_layout(c, Layout.DAG, "reference similarity")
    members = frozenset(region)
    unknown = members - c.nodes
    if unknown:
        raise UnknownNodeError(f"undeclared nodes: {sorted(unknown)}")
    if len(members) < 2:
        return True
    index = ComponentIndex(c)
    keys = {_neighbourhood(index, n) for n in members}
    # One shared neighbourhood that holds no member: no edge joins two members.
    return len(keys) == 1 and members.isdisjoint(frozenset().union(*keys.pop()))


def similarity_groups(index: ComponentIndex, ordinary) -> list:
    """Group ordinary DAG nodes by their (predecessors, successors) pair.

    Each group is sorted and the groups are ordered by smallest member.
    In a valid DAG two nodes with equal neighbourhoods are never joined
    by an edge (an edge a->b would force b->a, a 2-cycle), so every group
    is reference similar and no two groups could be joined.
    """
    groups: dict = {}
    for n in sorted(ordinary):
        groups.setdefault(_neighbourhood(index, n), []).append(n)
    return list(groups.values())


def ref_similar_dag(c: Component) -> SimilarityPartition:
    """Partition a valid DAG's ordinary nodes into reference-similar groups.

    Groups appear in ascending order of their smallest member.
    """
    _require_layout(c, Layout.DAG, "similarity partitioning")
    index = ComponentIndex(c)
    return SimilarityPartition(tuple(similarity_groups(index, ordinary_nodes(c, index))))
