"""The four component-abstraction algorithms and the heap-level driver.

Each algorithm freezes the special/ordinary classification of its input,
then merges ordinary nodes until none remain mergeable: list and cycle
components contract edge-connected ordinary pairs, trees fold collapsed
child pairs into their parent bottom-up, and DAGs merge reference-similar
groups.

A merge only records which survivor absorbed which nodes.  The output is
then the quotient of the input by the merged regions: its nodes are the
survivors, its edges the images of the input edges under the node map,
plus a self edge on every survivor that stands for two or more input
nodes (both an "l" and an "r" one in a tree).  Every run also returns the
witness certifying its own output, plus a log of the merges it performed.
"""

from __future__ import annotations

from .classify import ordinary_ranks, similarity_groups
from .errors import InternalInvariantError, InvalidComponentError
from .model import (
    Component,
    ComponentIndex,
    Heap,
    Layout,
    RankedCore,
    Value,
    _setattr,
    validate_component,
)
from .witness import Witness


class MergeEvent(Value):
    """One merge step: the surviving node and the nodes it absorbed."""

    __slots__ = _fields = ("survivor", "removed")

    def __init__(self, survivor: str, removed: tuple):
        _setattr(self, "survivor", survivor)
        _setattr(self, "removed", removed)


class AbstractionResult(Value):
    """Output component, its witness, and the ordered merge log.  A produced
    result keeps its log as (survivor, removed) ranks of ``_ids`` and builds
    ``merge_log`` when it is first read."""

    _fields = ("output", "witness", "merge_log")
    __slots__ = ("output", "witness", "_log", "_ranks")

    def __init__(self, output: Component, witness: Witness, merge_log, *, _ids=None):
        ranks = None if _ids is None else (_ids, merge_log)
        for name, value in zip(self.__slots__, (output, witness, merge_log, ranks)):
            _setattr(self, name, value)

    @property
    def merge_log(self) -> tuple:
        ranks = self._ranks  # read once, so a concurrent first read builds the same log
        if ranks is not None:
            ids, log = ranks
            log = (MergeEvent(ids[a], tuple(map(ids.__getitem__, r))) for a, r in log)
            _setattr(self, "_log", tuple(log))
            _setattr(self, "_ranks", None)
        return self._log

    def _merges(self) -> int:
        """``len(self.merge_log)``, read without building the log."""
        ranks = self._ranks
        return len(self._log if ranks is None else ranks[1])


def _find(parent: dict, r: int) -> int:
    """The chain scan's survivor of rank r: the end of its parent chain, halved on the way."""
    while r in parent:
        up = parent[r]
        if up in parent:
            parent[r] = up = parent[up]
        r = up
    return r


def _merge_chain(index: ComponentIndex, ordinary: list) -> tuple:
    """List and cycle merges: contract the smallest live ordinary pair until none is left.

    The pair's source survives and takes over the absorbed node's
    successor.  An ordinary node has at most one ordinary successor (a
    list node has one next pointer; a cycle node with more is special),
    and merges keep it so.  The smallest pair thus starts at the smallest
    live node with an ordinary successor, which stays the smallest after
    each absorption: the absorbed node's ordinary predecessors rank above
    it, or their pairs would have been smaller.  So a scan of the ordinary
    ranks in ascending order, each live rank absorbing its successor chain
    one node at a time, makes the same merges in the same order.  A ring
    stops when the successor's survivor is the scanner itself.
    """
    members = set(ordinary)
    successor = {a: b for a in ordinary for b in index.out[a] if b in members}
    parent: dict = {}
    log = []
    for a in ordinary:
        b = None if a in parent else successor.get(a)
        while b is not None and (b := _find(parent, b) if b in parent else b) != a:
            parent[b] = a
            log.append((a, (b,)))
            b = successor.get(b)
    return log, max(len(ordinary) - 1, 0)


def _merge_tree(index: ComponentIndex, ordinary: list) -> tuple:
    """Tree merges: fold each binary node's collapsed child pair into it, bottom-up.

    Levels are processed bottom-up (depths are frozen at entry); the root
    level never absorbs.  An ordinary parent whose ordinary children are
    exactly one ``l`` child and one ``r`` child, two distinct nodes, is a
    binary-tree node.  It absorbs that one pair if the pair is detachable:
    every edge touching it that survives so far stays inside the trio (no
    variable points at it: pointed nodes are special), or a merge could
    orphan a deeper special node.  Any other parent folds nothing, so no
    pair is ever chosen by its names.

    A level is settled in one pass.  An ordinary node has no edge up to or
    across its own level, so a pair is detachable exactly when its parent
    is its only one and its children are all absorbed.  No merge of this
    level changes that, so the order of its parents does not matter, and
    a child, having one parent, is absorbed at most once.
    """
    depths, out, into, tags = index.depths, index.out, index.into, index.tags
    absorbed: set = set()
    log = []
    members = set(ordinary)
    by_level: dict = {}
    for r in ordinary:
        by_level.setdefault(depths[r], []).append(r)

    for level in range(max(depths, default=0) - 1, 0, -1):
        for a in by_level.get(level, ()):
            left, right = [], []
            for b, tag in zip(out[a], tags[a]):
                if b in members:
                    (left if tag == "l" else right).append(b)
            if len(left) != 1 or len(right) != 1 or left == right:
                continue
            (b,), (c2,) = left, right
            if into[b] == into[c2] == [a] and absorbed.issuperset(out[b] + out[c2]):
                absorbed.update((b, c2))
                log.append((a, (b, c2)))
    return log, len(ordinary) // 2 * 2


def _merge_dag(index: ComponentIndex, ordinary: list) -> tuple:
    """DAG merges: each reference-similar group collapses onto its smallest member.

    The kept member gains a self edge.  Because group members share
    predecessor and successor sets, every edge of a removed member has
    its image on the kept member.
    """
    groups = similarity_groups(index, ordinary)
    return [(keeper, tuple(rest)) for keeper, *rest in groups if rest], len(ordinary) - len(groups)


# Each takes the index and the ordinary ranks in ascending order, and
# returns the merge log as (survivor, removed) ranks in merge order and
# the bound on the number of removed nodes.
_MERGES = {
    Layout.SLL: _merge_chain,
    Layout.T: _merge_tree,
    Layout.C: _merge_chain,
    Layout.DAG: _merge_dag,
}


def _quotient(index: ComponentIndex, log: list) -> AbstractionResult:
    c, ids = index.component, index.ids
    core = c._core
    if log:
        # A node absorbs before it is absorbed, so in reverse each
        # absorber's survivor is final before its own entry is read.
        survivor = list(range(len(ids)))
        for a, removed in reversed(log):
            s = survivor[a]
            for r in removed:
                survivor[r] = s
        node_map = dict(zip(ids, map(ids.__getitem__, survivor)))
        # The survivors, ascending, rank the output's edge keys; each one
        # that absorbed gains a self edge (an "l" and an "r" one in a tree).
        kept = [r for r, s in enumerate(survivor) if r == s]
        position = dict(zip(kept, range(len(kept))))
        image, m, tree = [position[s] for s in survivor], len(kept), c.layout is Layout.T
        var_image = range(len(core.vars))  # variables keep their ranks
        keys = [core.mapped(k, ks, image, var_image, m) for k, ks in enumerate(core.keys)]
        loops = {image[a] * (m + 1) for a, _ in log}  # into keys[1] in a tree, else keys[0]
        keys[tree].extend([k * 2 + label for k in loops for label in (0, 1)] if tree else loops)
        out = RankedCore([ids[r] for r in kept], core.vars, tuple(sorted(set(k)) for k in keys))
        output = Component._from_core(c.layout, c.vars, frozenset(out.ids), out)
    else:  # nothing merged: the output is the input
        node_map, output = dict(zip(ids, ids)), c
    return AbstractionResult(output, Witness._forced(c, node_map), log, _ids=ids)


def abstract_component(c: Component) -> AbstractionResult:
    """Validate one component and abstract it, dispatching on its layout.

    Every entry point runs through here.  The component's index is built
    once and dropped on return.  An invalid component raises
    :class:`InvalidComponentError` with all its ``violations``.
    """
    index = ComponentIndex(c)
    violations = validate_component(c, index)
    if violations:
        raise InvalidComponentError(violations)
    log, budget = _MERGES[c.layout](index, ordinary_ranks(index))
    if sum(map(len, [removed for _, removed in log])) > budget:
        raise InternalInvariantError(f"{c.layout.value} abstraction exceeded its merge bound")
    return _quotient(index, log)


def heap_abstract_results(h: Heap) -> list:
    """Abstract every component of a heap, keeping the detailed results.

    The first invalid component aborts the run with its index attached.
    """
    results = []
    for i, comp in enumerate(h.components):
        try:
            results.append(abstract_component(comp))
        except InvalidComponentError as exc:
            raise InvalidComponentError(exc.violations, index=i) from None
    return results

