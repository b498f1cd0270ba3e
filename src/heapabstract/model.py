"""Graph model for heaps: components, regions, and their edge sets.

A component is one labeled directed graph with a layout tag; a heap is an
ordered collection of disjoint components.  Node and variable identifiers
are plain string tokens (nonempty, no whitespace, commas or surrogates).
The same types serve concrete heaps (nodes are addresses) and abstract
ones (nodes stand for merged regions); concreteness is a usage convention.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from enum import Enum
from itertools import chain, count
from operator import itemgetter

from .errors import (
    EmptyComponentError,
    LayoutMismatchError,
    UnknownNodeError,
    UnreachableNodeError,
)

# Comma-joined tokens, used with fullmatch: a list of ids joined by commas
# matches when its commas are the separators and each id is a token.
_TOKENS = re.compile(r"[^\s,\ud800-\udfff]+(?:,[^\s,\ud800-\udfff]+)*")


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
        return "(" + ",".join(map(str, self[1:])) + ")"


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
        joined = ",".join(ids)
    except TypeError:  # a non-string id
        return False
    # The separators are the only commas, so the match splits at the ids.
    return not ids or joined.count(",") == len(ids) - 1 and bool(_TOKENS.fullmatch(joined))


_setattr = object.__setattr__


class Value:
    """Immutable record whose ``_fields`` give equality (within one class),
    hashing, ``repr``, ``copy`` and ``pickle``; assignment is refused."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__


class RankedCore:
    """A component's edges as sorted int keys over ranks.

    A node's rank (a variable's index) is its position in the sorted
    ``ids`` (``vars``).  With n = len(ids), ``keys`` holds three sorted,
    repeat-free lists, which in turn give the canonical edge order: node
    edges a->b as ``a * n + b``, labeled ones as ``(a * n + b) * 2`` plus
    0 for "l" or 1 for "r", and variable edges v->b as ``v * n + b``, as
    :func:`edge_keys` encodes them.  A component's core ranks its declared ids.
    """

    __slots__ = ("ids", "vars", "keys")
    kinds = (NodeEdge, TreeEdge, VarEdge)  # the edge class of each list of keys

    def __init__(self, ids: list, vars: list, keys: tuple):
        self.ids, self.vars, self.keys = ids, vars, keys

    def __len__(self) -> int:
        return sum(map(len, self.keys))

    def decode(self, kind: int, keys) -> list:
        """The edges of ``keys``, taken from ``self.keys[kind]``."""
        ids, n = self.ids, len(self.ids)
        if kind == 0:
            return [NodeEdge(ids[k // n], ids[k % n]) for k in keys]
        if kind == 1:
            return [TreeEdge(ids[k // 2 // n], ids[k // 2 % n], "lr"[k % 2]) for k in keys]
        return [VarEdge(self.vars[k // n], ids[k % n]) for k in keys]

    def edges(self):
        """Every edge, in canonical (``sorted()``) order."""
        return chain.from_iterable(map(self.decode, range(3), self.keys))

    def mapped(self, kind: int, keys, image, var_image, m: int) -> list:
        """The keys of the images of ``keys`` (of kind ``kind``), in order, when rank
        r maps to rank ``image[r]`` and variable v to ``var_image[v]`` of m ranks."""
        n = len(self.ids)
        if kind == 0:
            return [image[k // n] * m + image[k % n] for k in keys]
        if kind == 1:
            return [(image[k // 2 // n] * m + image[k // 2 % n]) * 2 + k % 2 for k in keys]
        return [var_image[k // n] * m + image[k % n] for k in keys]


_LABELS = {"l": 0, "r": 1}


def edge_keys(rows, firsts: dict, rank: dict, labeled: bool = False) -> list:
    """The :class:`RankedCore` keys of rows ``(a, b)``, or ``(a, b, label)`` when ``labeled``,
    a ranked by ``firsts`` and b by ``rank`` (n = len(rank)); a KeyError or TypeError
    names an id or label they lack, and a row of another arity raises ValueError."""
    n = len(rank)
    if labeled:
        return [(firsts[a] * n + rank[b]) * 2 + _LABELS[label] for a, b, label in rows]
    return [firsts[a] * n + rank[b] for a, b in rows]


class Component(Value):
    """One labeled directed graph with a layout tag.

    A component holds what a heap document can: token ids, none both a
    variable and a node, and edges of its layout's kind between declared
    ids.  The constructor refuses the rest, which nothing downstream copes
    with: a ``str`` for ``vars`` or ``nodes`` or an item that is no edge
    raises TypeError, an edge with an undeclared endpoint UnknownNodeError,
    and a labeled edge outside a tree or a plain one inside it ValueError.
    Items are checked as given, before equal ones collapse, and the first
    offender by the text of its fields is named.  Graph shape (reachability,
    branching, cycles) is left to :func:`validate_component`.

    Every component holds a :class:`RankedCore`, keyed as ``parse_heap``
    keys one, and builds ``edges`` from it when first read.
    """

    _fields = ("layout", "vars", "nodes", "edges")
    __slots__ = ("layout", "vars", "nodes", "_edges", "_core")

    def __init__(self, layout: Layout, vars=frozenset(), nodes=frozenset(), edges=frozenset()):
        if isinstance(vars, str) or isinstance(nodes, str):
            raise TypeError(f"vars and nodes are collections of ids, not str: {vars!r}, {nodes!r}")
        for name, value in zip(self.__slots__, (layout, vars, nodes, None, None)):
            _setattr(self, name, value)
        self.__post_init__()
        items = list(edges)
        odd = [e for e in items if type(e) not in RankedCore.kinds]
        if odd:
            raise TypeError(f"not an edge: {min(map(repr, odd))}")
        ids, var_ids = sorted(self.nodes), sorted(self.vars)
        rank, var_rank = dict(zip(ids, count())), dict(zip(var_ids, count()))
        firsts = {NodeEdge: rank, TreeEdge: rank, VarEdge: var_rank}  # RankedCore.kinds, in order
        try:
            rows = ([e[1:] for e in items if type(e) is k] for k in firsts)
            keys = [edge_keys(r, firsts[k], rank, k is TreeEdge) for r, k in zip(rows, firsts)]
        except (KeyError, TypeError):  # an endpoint, hashable or not, that is not declared
            bad = [e for e in items if not all(isinstance(x, str) for x in e[1:3])
                   or e[1] not in firsts[type(e)] or e[2] not in rank]
            e = min(bad, key=lambda e: tuple(map(str, e)))
            raise UnknownNodeError(f"edge {e} has an undeclared endpoint") from None
        core = RankedCore(ids, var_ids, tuple(sorted(set(k)) for k in keys))
        wrong = int(self.layout is not Layout.T)  # the node-edge kind the layout does not take
        if core.keys[wrong]:
            e = core.decode(wrong, core.keys[wrong][:1])[0]
            kind = "labeled" if wrong else "unlabeled"
            raise ValueError(f"{kind} edge {e} in {self.layout.value} component")
        _setattr(self, "_core", core)

    @classmethod
    def _from_core(cls, layout: Layout, vars, nodes, core: RankedCore) -> Component:
        # Parse or a quotient proved the ids tokens, none both variable and node.
        c = cls.__new__(cls)
        for name, value in zip(cls.__slots__, (layout, vars, nodes, None, core)):
            _setattr(c, name, value)
        c.__post_init__(checked=True)
        return c

    def __post_init__(self, checked: bool = False):  # once per construction; tests count it
        _setattr(self, "vars", frozenset(self.vars))
        _setattr(self, "nodes", frozenset(self.nodes))
        if not isinstance(self.layout, Layout):
            raise ValueError(f"layout must be a Layout, got {self.layout!r}")
        if checked:
            return
        if not (_tokens_ok(self.vars) and _tokens_ok(self.nodes)):
            bad = next(i for i in (*self.vars, *self.nodes) if not _tokens_ok((i,)))
            raise ValueError(f"bad identifier token: {bad!r}")
        overlap = self.vars & self.nodes
        if overlap:
            raise ValueError(
                f"identifiers used as both variable and node: {sorted(overlap)}"
            )

    @property
    def edges(self) -> frozenset:
        if self._edges is None:
            _setattr(self, "_edges", frozenset(self._core.edges()))
        return self._edges

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


class Heap(Value):
    """Ordered finite collection of disjoint components."""

    __slots__ = _fields = ("components",)

    def __init__(self, components: tuple = ()):
        _setattr(self, "components", tuple(components))
        odd = [c for c in self.components if not isinstance(c, Component)]
        if odd:
            raise TypeError(f"not a component: {odd[0]!r}")
        clash = first_id_clash(self.components)
        if clash:
            i, kind, ids = clash
            raise ValueError(f"{kind} ids reused across components (component {i}): {ids}")


class Violation(Value):
    """One well-formedness failure, with a stable machine-readable code."""

    __slots__ = _fields = ("code", "detail")

    def __init__(self, code: str, detail: str):
        _setattr(self, "code", code)
        _setattr(self, "detail", detail)


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
    """Adjacency of one component over node ranks, built from its ranked core.

    Validation, classification and abstraction all read the same index,
    so a component is scanned once however many of them run.  It is not
    cached on the component: build it for one component and drop it when
    that component is done.

    ``ids`` lists the node ids of the component's ranked core, in sorted
    order, and a node's rank is its position there, so rank order is id
    order and every tie-break compares ints.
    ``out``, ``tags``, ``into``, ``loops`` and ``pointed`` are lists
    indexed by rank.  Pointer
    edges between distinct nodes are kept once by source and once by
    target: ``out[r]`` holds the ranks of r's successors and ``tags[r]``,
    in parallel, each edge's label ("l" or "r" in a tree, "" elsewhere);
    ``into[r]`` holds the ranks of r's predecessors, so ``len`` gives the
    non-self degrees.  ``loops[r]`` holds the tags of r's self edges and
    ``pointed[r]`` the variables pointing at r.
    ``entries`` lists the entry ranks in order.  ``depths`` holds each
    node's BFS depth from the entries (-1 when unreachable), for list and
    tree layouts only.
    """

    def __init__(self, c: Component):
        self.component = c
        core = c._core
        self.ids = ids = core.ids
        n = len(ids)
        node_keys, tree_keys, var_keys = core.keys
        self.pointed = pointed = [()] * n
        for k in var_keys:
            pointed[k % n] += (core.vars[k // n],)
        self.out = out = [[] for _ in range(n)]
        self.tags = tags = [[] for _ in range(n)]
        self.into = into = [[] for _ in range(n)]
        self.loops = loops = [()] * n
        pairs = node_keys + [k // 2 for k in tree_keys]  # keys a * n + b, then their tags
        for p, tag in zip(pairs, [""] * len(node_keys) + ["lr"[k % 2] for k in tree_keys]):
            src, dst = divmod(p, n)
            if src == dst:
                loops[src] += (tag,)
            else:
                out[src].append(dst)
                tags[src].append(tag)
                into[dst].append(src)
        # A self edge marks a collapsed region and never costs a node its
        # entry status; with no in-degree-0 node, variable targets serve.
        self.entries = [r for r in range(n) if not into[r]] or [
            r for r in range(n) if pointed[r]
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

    A component declares every endpoint and holds only edges of its
    layout's kind (its constructor and ``parse_heap`` refuse the rest), so
    only the per-layout structure rules are left: reachability for lists
    and trees, a single next pointer for lists, acyclicity for DAGs and
    cycle existence for cycles, checked in that order.

    Self edges mark collapsed regions in abstract components, so they do
    not count against DAG acyclicity.  ``index`` is the component's
    :class:`ComponentIndex` when the caller has already built it; an index
    of another component raises ValueError.
    """
    index = index or ComponentIndex(c)
    if index.component is not c:
        raise ValueError("the index is not this component's")
    violations: list = []

    def flag(code: str, detail: str):
        violations.append(Violation(code, detail))

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

    return violations
