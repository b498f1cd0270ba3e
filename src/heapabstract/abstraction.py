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

import heapq
from dataclasses import dataclass

from .classify import ordinary_nodes, similarity_groups
from .errors import InternalInvariantError, InvalidComponentError
from .model import (
    Component,
    ComponentIndex,
    Heap,
    Layout,
    NodeEdge,
    TreeEdge,
    validate_component,
)
from .witness import EdgeImages, Witness


@dataclass(frozen=True)
class MergeEvent:
    """One merge step: the surviving node and the nodes it absorbed."""

    survivor: str
    removed: tuple


@dataclass(frozen=True)
class AbstractionResult:
    """Output component, its witness, and the ordered merge log."""

    output: Component
    witness: Witness
    merge_log: tuple


def _merge_chain(index: ComponentIndex, ordinary: set) -> tuple:
    """List and cycle merges: contract the smallest live ordinary pair.

    Repeatedly contracts the lexicographically smallest edge between two
    ordinary nodes: the source survives and takes over the edges of the
    node it absorbs.  Only edges between ordinary nodes can ever form a
    pair, so only those are tracked; a heap holds every pair created so
    far, and pairs whose endpoints have since merged are skipped.
    """
    succ = {n: {e.dst for e in index.out[n] if e.dst in ordinary} for n in ordinary}
    pred = {n: {e.src for e in index.into[n] if e.src in ordinary} for n in ordinary}
    pairs = [(a, b) for a in ordinary for b in succ[a]]
    heapq.heapify(pairs)
    parent: dict = {}
    log = []
    while pairs:
        a, b = heapq.heappop(pairs)
        if a in parent or b in parent or b not in succ[a]:
            continue
        succ[a].discard(b)
        pred[b].discard(a)
        for x in succ.pop(b):
            pred[x].discard(b)
            if x != a:
                succ[a].add(x)
                pred[x].add(a)
                heapq.heappush(pairs, (a, x))
        for y in pred.pop(b):
            succ[y].discard(b)
            succ[y].add(a)
            pred[a].add(y)
            heapq.heappush(pairs, (y, a))
        parent[b] = a
        log.append(MergeEvent(a, (b,)))
    return parent, log, max(len(ordinary) - 1, 0)


def _merge_tree(index: ComponentIndex, ordinary: set) -> tuple:
    """Tree merges: fold collapsed child pairs into their parents, bottom-up.

    Levels are processed bottom-up (depths are frozen at entry); the root
    level never absorbs.  At level i, an ordinary parent whose l/r
    children are distinct ordinary nodes absorbs them provided the pair
    is detachable: every edge touching them that survives so far stays
    inside the trio (no variable points at them: pointed nodes are
    special).  Without that proviso a merge could orphan a deeper special
    node and the output would not abstract the input.  A merge removes
    only nodes one level down whose every edge stays in its own trio, so
    it neither creates nor spoils another triple of the level; settling
    the level's triples in ascending order, skipping those whose children
    are gone, therefore repeats "merge the smallest triple" exactly.
    """
    parent: dict = {}
    log = []
    depths = index.depths
    if not depths:
        return parent, log, 0
    by_level: dict = {}
    for n in ordinary:
        by_level.setdefault(depths[n], []).append(n)

    def detachable(n: str, trio: tuple) -> bool:
        return all(
            e.src in trio and e.dst in trio or e.src in parent or e.dst in parent
            for e in (*index.out[n], *index.into[n])
        )

    for level in range(max(depths.values()) - 1, 0, -1):
        triples = []
        for a in by_level.get(level, ()):
            left = [e.dst for e in index.out[a] if e.label == "l" and e.dst in ordinary]
            right = [e.dst for e in index.out[a] if e.label == "r" and e.dst in ordinary]
            for b in left:
                for c2 in right:
                    trio = (a, b, c2)
                    if b != c2 and detachable(b, trio) and detachable(c2, trio):
                        triples.append(trio)
        for a, b, c2 in sorted(triples):
            if b not in parent and c2 not in parent:
                parent[b] = parent[c2] = a
                log.append(MergeEvent(a, (b, c2)))
    return parent, log, len(ordinary) // 2 * 2


def _merge_dag(index: ComponentIndex, ordinary: set) -> tuple:
    """DAG merges: each reference-similar group collapses onto its smallest member.

    The kept member gains a self edge.  Because group members share
    predecessor and successor sets, every edge of a removed member has
    its image on the kept member.
    """
    parent: dict = {}
    log = []
    groups = similarity_groups(index, ordinary)
    for keeper, *rest in groups:
        if rest:
            for r in rest:
                parent[r] = keeper
            log.append(MergeEvent(keeper, tuple(rest)))
    return parent, log, len(ordinary) - len(groups)


# Each returns the parent map (survivor per removed node), the merge log
# and the bound on the number of removed nodes.
_MERGES = {
    Layout.SLL: _merge_chain,
    Layout.T: _merge_tree,
    Layout.C: _merge_chain,
    Layout.DAG: _merge_dag,
}


def _survivors(nodes, parent: dict) -> dict:
    """Node map sending every node to the survivor at the end of its parent chain."""
    node_map: dict = {}
    for n in nodes:
        chain = []
        while n not in node_map and n in parent:
            chain.append(n)
            n = parent[n]
        survivor = node_map.get(n, n)
        for m in (*chain, n):
            node_map[m] = survivor
    return node_map


def _quotient(c: Component, parent: dict, log: list) -> AbstractionResult:
    node_map = _survivors(c.nodes, parent)
    edges = {e.image(node_map) for e in c.edges}
    for s in {node_map[n] for n in parent}:
        if c.layout is Layout.T:
            edges.update((TreeEdge(s, s, "l"), TreeEdge(s, s, "r")))
        else:
            edges.add(NodeEdge(s, s))
    output = Component(c.layout, c.vars, frozenset(node_map.values()), frozenset(edges))
    return AbstractionResult(output, Witness(node_map, EdgeImages(c.edges, node_map)), tuple(log))


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
    parent, log, budget = _MERGES[c.layout](index, ordinary_nodes(c, index))
    if len(parent) > budget:
        raise InternalInvariantError(f"{c.layout.value} abstraction exceeded its merge bound")
    return _quotient(c, parent, log)


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

