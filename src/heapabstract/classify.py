"""Special/ordinary node classification and DAG reference similarity.

A node is special when it carries information the abstraction must keep:
a variable points at it, it touches an anomalous (back or horizontal)
edge, or it is a branch point of a cycle.  Only ordinary nodes are ever
merged.  Which clauses apply depends on the component layout.
"""

from __future__ import annotations

from collections.abc import Iterable
from enum import Enum

from .errors import SameNodeError, UnknownNodeError
from .model import (
    Component,
    ComponentIndex,
    Layout,
    Value,
    _require_layout,
    _setattr,
)


class Reason(Enum):
    VAR_POINTED = "VarPointed"
    BACK_EDGE_ENDPOINT = "BackEdgeEndpoint"
    HORIZONTAL_EDGE_ENDPOINT = "HorizontalEdgeEndpoint"
    MULTI_IN = "MultiIn"
    MULTI_OUT = "MultiOut"


class NodeClass(Value):
    """Classification of one node; special exactly when reasons is nonempty."""

    __slots__ = _fields = ("reasons",)

    def __init__(self, reasons: tuple):
        _setattr(self, "reasons", reasons)

    @property
    def special(self) -> bool:
        return bool(self.reasons)


class SimilarityPartition(Value):
    """Disjoint reference-similar groups covering a DAG's ordinary nodes."""

    __slots__ = _fields = ("groups",)

    def __init__(self, groups: tuple):
        _setattr(self, "groups", tuple(frozenset(g) for g in groups))
        seen: set = set()
        for g in self.groups:
            if seen & g:
                raise ValueError("similarity groups must be disjoint")
            seen |= g


# Bit i of a node's reason mask stands for the i-th Reason.
_REASONS = tuple(Reason)
_VAR_POINTED, _BACK, _HORIZONTAL, _MULTI_IN, _MULTI_OUT = (1 << i for i in range(len(_REASONS)))


def _mark_depth_anomalies(index: ComponentIndex, masks: list):
    # Lists and trees: both endpoints of an edge that goes up to a
    # shallower node (back edge) or, in trees, stays level.
    depths = index.all_depths()
    tree = index.component.layout is Layout.T
    for src, succ in enumerate(index.out):
        if not succ:  # a leaf
            continue
        above = depths[src]
        for dst in succ:
            below = depths[dst]
            if above > below:
                bit = _BACK
            elif tree and above == below:
                bit = _HORIZONTAL
            else:
                continue
            masks[src] |= bit
            masks[dst] |= bit


def _mark_branch_points(index: ComponentIndex, masks: list):
    # Cycles: nodes with more than one entering or leaving edge; self
    # edges count as neither.
    for r, (succ, pred) in enumerate(zip(index.out, index.into)):
        if len(pred) > 1:
            masks[r] |= _MULTI_IN
        if len(succ) > 1:
            masks[r] |= _MULTI_OUT


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
    special nodes.  The nodes appear in ascending id order, and nodes with
    the same reasons share one :class:`NodeClass`.  ``index`` is the
    component's :class:`ComponentIndex` when the caller has already built
    it; an index of another component raises ValueError.
    """
    index = index or ComponentIndex(c)
    if index.component is not c:
        raise ValueError("the index is not this component's")
    masks = [_VAR_POINTED if variables else 0 for variables in index.pointed]
    rule = _LAYOUT_RULES.get(c.layout)
    if rule:
        rule(index, masks)
    classes = {
        mask: NodeClass(tuple(r for i, r in enumerate(_REASONS) if mask >> i & 1))
        for mask in set(masks)
    }
    return dict(zip(index.ids, map(classes.__getitem__, masks)))


def ordinary_ranks(index: ComponentIndex) -> list:
    """The ranks of the mergeable nodes, ascending (node_classes lists them in id order)."""
    return [r for r, k in enumerate(node_classes(index.component, index).values()) if not k.reasons]


def ordinary_nodes(c: Component) -> frozenset:
    """The mergeable nodes, complement of the special ones."""
    index = ComponentIndex(c)
    return frozenset(map(index.ids.__getitem__, ordinary_ranks(index)))


def _neighbourhood(index: ComponentIndex, r: int):
    # The similarity key: predecessor and successor ranks, which the index
    # lists ascending and once each (a DAG holds only plain edges).  A node
    # with a self edge is its own neighbour, shared only across a 2-cycle:
    # it keys on its rank.
    if index.loops[r]:
        return r
    return tuple(index.into[r]), tuple(index.out[r])


def reference_similar(c: Component, a: str, b: str) -> bool:
    """Whether two distinct DAG nodes are interchangeable references.

    True when no edge connects them and they share exactly the same
    predecessor and successor sets (over node edges; variables do not
    enter into similarity).  An undeclared node raises
    :class:`UnknownNodeError`.
    """
    _require_layout(c, Layout.DAG, "reference similarity")
    if a == b:
        raise SameNodeError(f"reference similarity needs two distinct nodes, got {a}")
    return reference_similar_set(c, (a, b))


def reference_similar_set(c: Component, region: Iterable) -> bool:
    """Whether every pair of distinct nodes in the region is reference similar.

    Undeclared nodes in the region raise UnknownNodeError.
    """
    _require_layout(c, Layout.DAG, "reference similarity")
    members = frozenset(region)
    unknown = members - c.nodes
    if unknown:
        raise UnknownNodeError(f"undeclared nodes: {sorted(unknown)}")
    index = ComponentIndex(c)
    if len(members) < 2:
        return True
    ranks = {r for r, n in enumerate(index.ids) if n in members}
    keys = {_neighbourhood(index, r) for r in ranks}
    # One shared neighbourhood that holds no member: no edge joins two members.
    return len(keys) == 1 and all(map(ranks.isdisjoint, keys.pop()))


def similarity_groups(index: ComponentIndex, ordinary) -> list:
    """Group the ordinary ranks of a DAG by their (predecessors, successors) pair.

    ``ordinary`` holds ranks in ascending order, so each group is sorted
    and the groups are ordered by smallest member.  In a valid DAG two
    nodes with equal neighbourhoods are never joined by an edge (an edge
    a->b would force b->a, a 2-cycle), so every group is reference
    similar and no two groups could be joined.
    """
    groups: dict = {}
    for r in ordinary:
        groups.setdefault(_neighbourhood(index, r), []).append(r)
    return list(groups.values())


def ref_similar_dag(c: Component) -> SimilarityPartition:
    """Partition a valid DAG's ordinary nodes into reference-similar groups.

    Groups appear in ascending order of their smallest member.
    """
    _require_layout(c, Layout.DAG, "similarity partitioning")
    index = ComponentIndex(c)
    groups = similarity_groups(index, ordinary_ranks(index))
    return SimilarityPartition(tuple([index.ids[r] for r in g] for g in groups))
