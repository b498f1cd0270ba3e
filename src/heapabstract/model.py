"""Graph model for heaps: components, regions, and their edge sets.

A component is one labeled directed graph with a layout tag; a heap is an
ordered collection of disjoint components.  Node and variable identifiers
are plain string tokens (nonempty, no whitespace, commas or surrogates).
The same types serve concrete heaps (nodes are addresses) and abstract
ones (nodes stand for merged regions); concreteness is a usage convention.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter
from typing import Iterable

from .errors import (
    EmptyComponentError,
    LayoutMismatchError,
    UnknownNodeError,
    UnreachableNodeError,
)

_TOKEN = re.compile(r"[^\s,\ud800-\udfff]+")  # used with fullmatch


class Layout(Enum):
    """Structural class of a component."""

    SLL = "SLL"
    T = "T"
    C = "C"
    DAG = "DAG"


class Edge(tuple):
    """A pointer, stored as its witness-document row: kind tag, then fields.

    Edges of all kinds therefore compare, hash and sort as plain tuples,
    and ``sorted()`` of an edge set is its canonical order.  Each kind
    names its fields, lists its node endpoints as ``ends`` and maps itself
    by ``image(node_map)``, the edge a node map forces it onto (the edge
    itself when its node endpoints map to themselves).  ``str``
    gives the ``(a,b[,l])`` form used in messages.
    """

    __slots__ = ()

    def __getnewargs__(self):
        return self[1:]

    def __str__(self):
        return "(" + ",".join(self[1:]) + ")"


class VarEdge(Edge):
    """Pointer from a variable to a node: ``("var", var, target)``."""

    __slots__ = ()
    var = property(itemgetter(1))
    target = property(itemgetter(2))
    ends = property(itemgetter(slice(2, 3)))

    def __new__(cls, var: str, target: str):
        return tuple.__new__(cls, ("var", var, target))

    def image(self, node_map: dict) -> VarEdge:
        target = node_map[self[2]]
        return self if target == self[2] else VarEdge(self[1], target)


class NodeEdge(Edge):
    """Pointer between nodes (list, cycle, and DAG layouts): ``("node", src, dst)``."""

    __slots__ = ()
    src = property(itemgetter(1))
    dst = property(itemgetter(2))
    ends = property(itemgetter(slice(1, 3)))

    def __new__(cls, src: str, dst: str):
        return tuple.__new__(cls, ("node", src, dst))

    def image(self, node_map: dict) -> NodeEdge:
        src, dst = node_map[self[1]], node_map[self[2]]
        return self if src == self[1] and dst == self[2] else NodeEdge(src, dst)


class TreeEdge(Edge):
    """Labeled pointer between tree nodes: ``("tree", src, dst, label)``, label "l" or "r"."""

    __slots__ = ()
    src = property(itemgetter(1))
    dst = property(itemgetter(2))
    label = property(itemgetter(3))
    ends = property(itemgetter(slice(1, 3)))

    def __new__(cls, src: str, dst: str, label: str):
        if label not in ("l", "r"):
            raise ValueError(f"tree edge label must be 'l' or 'r', got {label!r}")
        return tuple.__new__(cls, ("tree", src, dst, label))

    def image(self, node_map: dict) -> TreeEdge:
        src, dst = node_map[self[1]], node_map[self[2]]
        return self if src == self[1] and dst == self[2] else TreeEdge(src, dst, self[3])


def _tokens_ok(ids) -> bool:
    """Whether every id is a token: a nonempty string without whitespace, commas or surrogates."""
    try:
        return all(map(_TOKEN.fullmatch, ids))
    except TypeError:  # a non-string id
        return False


@dataclass(frozen=True)
class Component:
    """One labeled directed graph with a layout tag.

    Construction is permissive about graph shape (undeclared endpoints,
    kind/layout mismatches and the like are reported by
    :func:`validate_component`, not raised here) so that broken inputs can
    be represented and diagnosed.  Identifier tokens and the separation of
    the variable and node namespaces are enforced eagerly because nothing
    downstream can cope without them.
    """

    layout: Layout
    vars: frozenset = frozenset()
    nodes: frozenset = frozenset()
    edges: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "vars", frozenset(self.vars))
        object.__setattr__(self, "nodes", frozenset(self.nodes))
        object.__setattr__(self, "edges", frozenset(self.edges))
        if not isinstance(self.layout, Layout):
            raise ValueError(f"layout must be a Layout, got {self.layout!r}")
        if not (_tokens_ok(self.vars) and _tokens_ok(self.nodes)):
            bad = next(i for i in (*self.vars, *self.nodes) if not _tokens_ok((i,)))
            raise ValueError(f"bad identifier token: {bad!r}")
        overlap = self.vars & self.nodes
        if overlap:
            raise ValueError(
                f"identifiers used as both variable and node: {sorted(overlap)}"
            )

    def var_edges(self) -> frozenset:
        return frozenset(e for e in self.edges if isinstance(e, VarEdge))

    def node_edges(self) -> frozenset:
        """All pointer edges between nodes (plain and labeled)."""
        return frozenset(e for e in self.edges if not isinstance(e, VarEdge))


def first_id_clash(components) -> tuple | None:
    """The first identifier reused across components, as (index, kind, ids).

    ``kind`` is "node" or "variable"; ``ids`` are the clashing identifiers,
    sorted.  None when the components are pairwise disjoint.
    """
    seen = {"node": set(), "variable": set()}
    for i, comp in enumerate(components):
        for kind, ids in (("node", comp.nodes), ("variable", comp.vars)):
            clash = seen[kind] & ids
            if clash:
                return i, kind, sorted(clash)
            seen[kind] |= ids
    return None


@dataclass(frozen=True)
class Heap:
    """Ordered finite collection of disjoint components."""

    components: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        clash = first_id_clash(self.components)
        if clash:
            i, kind, ids = clash
            raise ValueError(f"{kind} ids reused across components (component {i}): {ids}")


@dataclass(frozen=True)
class Violation:
    """One well-formedness failure, with a stable machine-readable code."""

    code: str
    detail: str


def _region_scan(c: Component, r: Iterable, inside: tuple) -> frozenset:
    # Pointer edges whose (source, target) lie in the region as ``inside`` says.
    region = frozenset(r)
    unknown = region - c.nodes
    if unknown:
        raise UnknownNodeError(f"region references undeclared nodes: {sorted(unknown)}")
    return frozenset(e for e in c.node_edges() if (e.src in region, e.dst in region) == inside)


def region_edges(c: Component, r: Iterable) -> frozenset:
    """Pointer edges of the component with both endpoints inside the region."""
    return _region_scan(c, r, (True, True))


def edges_in(c: Component, r: Iterable) -> frozenset:
    """Pointer edges entering the region from outside it."""
    return _region_scan(c, r, (False, True))


def edges_out(c: Component, r: Iterable) -> frozenset:
    """Pointer edges leaving the region to the outside."""
    return _region_scan(c, r, (True, False))


class ComponentIndex:
    """Adjacency of one component over node ranks, built in one pass over its edges.

    Validation, classification and abstraction all read the same index,
    so a component is scanned once however many of them run.  It is not
    cached on the component: build it for one component and drop it when
    that component is done.

    ``ids`` lists the node ids in sorted order and ``rank`` maps each id
    to its position there, so rank order is id order and every tie-break
    compares ints.  All other fields are lists indexed by rank.  Pointer
    edges between distinct nodes are kept once by source and once by
    target: ``out[r]`` holds the ranks of r's successors and ``tags[r]``,
    in parallel, each edge's label as read ("l", "r", or "" when unlabeled);
    ``into[r]`` holds the ranks of r's predecessors, so ``len`` gives the
    non-self degrees.  ``loops[r]`` holds the tags of r's self edges and
    ``pointed[r]`` the variables pointing at r.  Edges with an undeclared
    endpoint stay out of the adjacency and are kept in ``undeclared``;
    edges whose kind does not suit the layout are kept in ``mismatched``.
    ``entries`` lists the entry ranks in order.  ``depths`` holds each
    node's BFS depth from the entries (-1 when unreachable), for list and
    tree layouts only.
    """

    def __init__(self, c: Component):
        self.component = c
        self.ids = ids = sorted(c.nodes)
        self.rank = rank = {n: r for r, n in enumerate(ids)}
        size = len(ids)
        self.out = out = [[] for _ in range(size)]
        self.tags = tags = [[] for _ in range(size)]
        self.into = into = [[] for _ in range(size)]
        self.loops = loops = [()] * size
        self.pointed = pointed = [()] * size
        self.undeclared = []
        self.mismatched = []
        tree = c.layout is Layout.T
        for e in c.edges:
            kind = type(e)
            if kind is VarEdge:
                target = rank.get(e[2])
                if target is not None:
                    pointed[target] += (e[1],)
                if target is None or e[1] not in c.vars:
                    self.undeclared.append(e)
                continue
            if (kind is TreeEdge) is not tree:
                self.mismatched.append(e)
            try:
                src, dst = rank[e[1]], rank[e[2]]
            except KeyError:
                self.undeclared.append(e)
                continue
            tag = e[3] if kind is TreeEdge else ""
            if src == dst:
                loops[src] += (tag,)
            else:
                out[src].append(dst)
                tags[src].append(tag)
                into[dst].append(src)
        # A self edge marks a collapsed region and never costs a node its
        # entry status; with no in-degree-0 node, variable targets serve.
        self.entries = [r for r in range(size) if not into[r]] or [
            r for r in range(size) if pointed[r]
        ]
        self.depths = self._bfs_depths() if c.layout in (Layout.SLL, Layout.T) else None

    def _bfs_depths(self) -> list:
        depths = [-1] * len(self.ids)
        for r in self.entries:
            depths[r] = 0
        queue = list(self.entries)
        for r in queue:  # the queue grows while it is read
            below = depths[r] + 1
            for s in self.out[r]:
                if depths[s] < 0:
                    depths[s] = below
                    queue.append(s)
        return depths

    def all_depths(self) -> list:
        """``depths``, raising when some node is unreachable from the entries."""
        missing = [n for n, d in zip(self.ids, self.depths) if d < 0]
        if missing:
            raise UnreachableNodeError(f"nodes unreachable from entries: {missing}")
        return self.depths

    def cyclic_ranks(self) -> list:
        """Ranks that survive repeated removal of nodes with no non-self in-edge, in order.

        Nonempty exactly when the non-self edges contain a directed cycle.
        """
        indegree = list(map(len, self.into))
        queue = [r for r, k in enumerate(indegree) if not k]
        for r in queue:  # the queue grows while it is read
            for s in self.out[r]:
                indegree[s] -= 1
                if not indegree[s]:
                    queue.append(s)
        return [r for r, k in enumerate(indegree) if k]


def _require_layout(c: Component, layout: Layout, what: str):
    if c.layout is not layout:
        raise LayoutMismatchError(
            f"{what} applies to {layout.value} components, not {c.layout.value}"
        )


def _require_declared(index: ComponentIndex):
    if index.undeclared:
        raise UnknownNodeError(f"edge {min(index.undeclared)} has an undeclared endpoint")


def entry_nodes(c: Component) -> frozenset:
    """Traversal entry points of a component.

    Nodes with no incoming pointer edge from another node; when every
    node has one (for instance a list whose head is the target of a
    cycle-closing edge), variable-pointed nodes serve instead.  A self
    edge marks a collapsed region and never costs a node its entry
    status.
    """
    index = ComponentIndex(c)
    return frozenset(index.ids[r] for r in index.entries)


def depth_map(c: Component) -> dict:
    """Shortest-path distance of every node from the component's entries.

    Only list and tree layouts have a depth notion; edges that point from
    a deeper node back to a shallower one never define depth, they are the
    anomalies depth exists to detect.
    """
    if c.layout not in (Layout.SLL, Layout.T):
        raise LayoutMismatchError(
            f"depth is defined for SLL and T components, not {c.layout.value}"
        )
    index = ComponentIndex(c)
    return dict(zip(index.ids, index.all_depths()))


def height(c: Component) -> int:
    """Largest depth in a tree component."""
    if c.layout is not Layout.T:
        raise LayoutMismatchError(f"height is defined for T components, not {c.layout.value}")
    if not c.nodes:
        raise EmptyComponentError("height of an empty component is undefined")
    return max(depth_map(c).values())


def validate_component(c: Component, index: ComponentIndex | None = None) -> list:
    """Check a component's well-formedness rules, returning all violations.

    Checks run in a fixed order: endpoint declaration, edge-kind/layout
    match, then the per-layout structure rules (reachability for lists and
    trees, acyclicity for DAGs, cycle existence for cycles, and the tree
    skeleton rule).  Structure rules are skipped when endpoints are
    undeclared, since the graph cannot be traversed meaningfully.

    Self edges mark collapsed regions in abstract components, so they do
    not count against DAG acyclicity.  ``index`` is the component's
    :class:`ComponentIndex` when the caller has already built it.
    """
    index = index or ComponentIndex(c)
    violations: list = []

    def flag(code: str, detail: str):
        violations.append(Violation(code, detail))

    for e in sorted(index.undeclared):
        if isinstance(e, VarEdge) and e.var not in c.vars:
            flag("UndeclaredEndpoint", f"variable {e.var} not declared")
        for n in e.ends:
            if n not in c.nodes:
                flag("UndeclaredEndpoint", f"node {n} not declared")

    for e in sorted(index.mismatched):
        kind = "labeled" if isinstance(e, TreeEdge) else "unlabeled"
        flag("EdgeKindMismatch", f"{kind} edge {e} in {c.layout.value} component")

    if index.undeclared:
        return violations

    # Ranks ascend with ids, so each rule below reports in id order.
    ids, depths = index.ids, index.depths
    if depths is not None:
        for n, d in zip(ids, depths):
            if d < 0:
                flag("UnreachableNode", f"node {n} unreachable from entries")

    if c.layout is Layout.SLL:
        # Singly linked: one next pointer per node.  Self edges stand for
        # collapsed regions and do not count.
        for n, succ in zip(ids, index.out):
            if len(succ) > 1:
                flag("BranchingList", f"node {n} has {len(succ)} outgoing edges")

    if c.layout is Layout.DAG:
        leftover = index.cyclic_ranks()
        if leftover:
            flag("CycleInDag", f"cycle through nodes {[ids[r] for r in leftover]}")

    if c.layout is Layout.C and not any(index.loops) and not index.cyclic_ranks():
        flag("MissingCycle", "no directed cycle among node edges")

    if c.layout is Layout.T:
        parented = [False] * len(ids)
        for src, (succ, tags) in enumerate(zip(index.out, index.tags)):
            above = depths[src]
            if above >= 0:
                for dst, tag in zip(succ, tags):
                    if tag and above < depths[dst]:
                        parented[dst] = True
        # Entries (depth 0) and unreachable nodes need no parent.
        for n, d, has_parent in zip(ids, depths, parented):
            if d > 0 and not has_parent:
                flag("MissingTreeParent", f"node {n} has no labeled edge from a shallower node")

    return violations
