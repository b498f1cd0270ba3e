"""Step-wise reference implementations of classification and abstraction.

These are the library's original algorithms, kept as a differential
oracle: each merge rebuilds the whole component, each classifier scans
the edge set, and DAG groups come from all-pairs similarity tests.  They
are quadratic or worse and serve only to check that the indexed
algorithms in ``heapabstract.abstraction`` produce identical outputs,
witnesses and merge logs.

The canonical serializers at the end are the library's original ones:
build the document as dicts and lists, then ``json.dumps(doc, indent=2)``.
They are the reference for the direct writers in ``heapabstract.formats``.

The witness checker is the library's original edge-by-edge one, the
reference for the checker on ranks in ``heapabstract.witness``.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict

from heapabstract import (
    Component,
    Layout,
    LayoutMismatchError,
    NodeClass,
    NodeEdge,
    Reason,
    SameNodeError,
    TreeEdge,
    UnknownNodeError,
    VarEdge,
    Violation,
    Witness,
    depth_map,
    edges_in,
    edges_out,
    height,
)
from heapabstract.model import _require_layout


def _require_nodes(c: Component, *nodes: str):
    unknown = set(nodes) - c.nodes
    if unknown:
        raise UnknownNodeError(f"undeclared nodes: {sorted(unknown)}")


def _classes(c: Component, reasons_by_node: dict) -> dict:
    order = list(Reason)
    return {
        n: NodeClass(tuple(sorted(reasons_by_node.get(n, ()), key=order.index)))
        for n in c.nodes
    }


def special_nodes_sll(c: Component) -> dict:
    _require_layout(c, Layout.SLL, "list classification")
    depths = depth_map(c)
    reasons = defaultdict(set)
    for e in c.edges:
        if isinstance(e, VarEdge):
            reasons[e.target].add(Reason.VAR_POINTED)
        elif isinstance(e, NodeEdge) and depths[e.src] > depths[e.dst]:
            reasons[e.src].add(Reason.BACK_EDGE_ENDPOINT)
            reasons[e.dst].add(Reason.BACK_EDGE_ENDPOINT)
    return _classes(c, reasons)


def special_nodes_tree(c: Component) -> dict:
    _require_layout(c, Layout.T, "tree classification")
    depths = depth_map(c)
    reasons = defaultdict(set)
    for e in c.edges:
        if isinstance(e, VarEdge):
            reasons[e.target].add(Reason.VAR_POINTED)
        elif isinstance(e, TreeEdge) and e.src != e.dst:
            if depths[e.src] > depths[e.dst]:
                reason = Reason.BACK_EDGE_ENDPOINT
            elif depths[e.src] == depths[e.dst]:
                reason = Reason.HORIZONTAL_EDGE_ENDPOINT
            else:
                continue
            reasons[e.src].add(reason)
            reasons[e.dst].add(reason)
    return _classes(c, reasons)


def special_nodes_cycle(c: Component) -> dict:
    _require_layout(c, Layout.C, "cycle classification")
    reasons = defaultdict(set)
    for e in c.var_edges():
        reasons[e.target].add(Reason.VAR_POINTED)
    for n in c.nodes:
        if len(edges_in(c, (n,))) > 1:
            reasons[n].add(Reason.MULTI_IN)
        if len(edges_out(c, (n,))) > 1:
            reasons[n].add(Reason.MULTI_OUT)
    return _classes(c, reasons)


def special_nodes_dag(c: Component) -> dict:
    _require_layout(c, Layout.DAG, "DAG classification")
    reasons = defaultdict(set)
    for e in c.var_edges():
        reasons[e.target].add(Reason.VAR_POINTED)
    return _classes(c, reasons)


CLASSIFIERS = {
    Layout.SLL: special_nodes_sll,
    Layout.T: special_nodes_tree,
    Layout.C: special_nodes_cycle,
    Layout.DAG: special_nodes_dag,
}


def ordinary_nodes(c: Component) -> frozenset:
    return frozenset(n for n, k in CLASSIFIERS[c.layout](c).items() if not k.special)


def similarity_partition(c: Component) -> list:
    """Greedy all-pairs grouping: a candidate joins if similar to every member."""
    pairs = {(e.src, e.dst) for e in c.node_edges()}
    preds = {n: frozenset(s for s, d in pairs if d == n) for n in c.nodes}
    succs = {n: frozenset(d for s, d in pairs if s == n) for n in c.nodes}

    def similar(a, b):
        if (a, b) in pairs or (b, a) in pairs:
            return False
        return preds[a] == preds[b] and succs[a] == succs[b]

    remaining = sorted(ordinary_nodes(c))
    groups = []
    while remaining:
        group = [remaining[0]]
        for b in remaining[1:]:
            if all(similar(x, b) for x in group):
                group.append(b)
        groups.append(group)
        remaining = [n for n in remaining if n not in group]
    return groups


def remove_node(c: Component, survivor: str, removed: str) -> Component:
    """Delete ``removed``, redirecting its edges to ``survivor``.

    The direct edge (survivor, removed) is dropped; the merge loops add
    the survivor's self edge themselves.
    """
    if c.layout not in (Layout.SLL, Layout.C, Layout.DAG):
        raise LayoutMismatchError(
            f"node removal applies to SLL/C/DAG components, not {c.layout.value}"
        )
    _require_nodes(c, survivor, removed)
    if survivor == removed:
        raise SameNodeError(f"survivor and removed node are both {survivor}")

    edges = set()
    for e in c.edges:
        if isinstance(e, VarEdge):
            edges.add(VarEdge(e.var, survivor if e.target == removed else e.target))
        elif (e.src, e.dst) != (survivor, removed):
            src = survivor if e.src == removed else e.src
            dst = survivor if e.dst == removed else e.dst
            edges.add(NodeEdge(src, dst))
    return Component(c.layout, c.vars, c.nodes - {removed}, frozenset(edges))


def remove_nodes_tree(c: Component, b: str, c2: str) -> Component:
    """Delete a pair of tree nodes together with every edge touching them."""
    _require_layout(c, Layout.T, "tree pair removal")
    _require_nodes(c, b, c2)
    if b == c2:
        raise SameNodeError(f"cannot remove node {b} twice")
    gone = {b, c2}
    edges = {
        e
        for e in c.edges
        if (e.target not in gone if isinstance(e, VarEdge) else not gone & {e.src, e.dst})
    }
    return Component(c.layout, c.vars, c.nodes - gone, frozenset(edges))


def _result(c: Component, work: Component, parent: dict, log: list) -> tuple:
    def survivor(n):
        while n in parent:
            n = parent[n]
        return n

    node_map = {n: survivor(n) for n in c.nodes}
    return work, Witness(node_map, {e: e.image(node_map) for e in c.edges}), tuple(log)


def _merge_chain(c: Component) -> tuple:
    members = set(ordinary_nodes(c))
    work, parent, log = c, {}, []
    while True:
        pairs = sorted(
            (e.src, e.dst)
            for e in work.edges
            if isinstance(e, NodeEdge) and e.src != e.dst and {e.src, e.dst} <= members
        )
        if not pairs:
            return _result(c, work, parent, log)
        a, b = pairs[0]
        work = remove_node(work, a, b)
        work = Component(work.layout, work.vars, work.nodes, work.edges | {NodeEdge(a, a)})
        parent[b] = a
        members.discard(b)
        log.append((a, (b,)))


def _detachable(work: Component, a: str, b: str, c2: str) -> bool:
    trio, pair = {a, b, c2}, {b, c2}
    for e in work.edges:
        if isinstance(e, VarEdge):
            if e.target in pair:
                return False
        elif (e.src in pair or e.dst in pair) and not {e.src, e.dst} <= trio:
            return False
    return True


def _abstract_tree(c: Component) -> tuple:
    if not c.nodes:
        return _result(c, c, {}, [])
    depths = depth_map(c)
    members = set(ordinary_nodes(c))
    work, parent, log = c, {}, []
    for level in range(height(c) - 1, 0, -1):
        while True:
            kids = defaultdict(list)  # each ordinary parent's ordinary children, by label
            for e in work.edges:
                if isinstance(e, TreeEdge) and e.src != e.dst and {e.src, e.dst} <= members:
                    if depths[e.src] == level:
                        kids[e.src].append((e.label, e.dst))
            # One candidate per binary-tree node: one l child and one r child.
            pairs = {a: sorted(labeled) for a, labeled in kids.items() if len(labeled) == 2}
            triples = [
                (a, b, c2)
                for a, [(lb, b), (lc, c2)] in pairs.items()
                if (lb, lc) == ("l", "r") and b != c2 and _detachable(work, a, b, c2)
            ]
            if not triples:
                break
            a, b, c2 = min(triples)
            work = remove_nodes_tree(work, b, c2)
            loops = {TreeEdge(a, a, "l"), TreeEdge(a, a, "r")}
            work = Component(work.layout, work.vars, work.nodes, work.edges | loops)
            parent[b] = parent[c2] = a
            members -= {b, c2}
            log.append((a, (b, c2)))
    return _result(c, work, parent, log)


def _abstract_dag(c: Component) -> tuple:
    nodes, edges, parent, log = set(c.nodes), set(c.edges), {}, []
    for group in similarity_partition(c):
        if len(group) < 2:
            continue
        keeper, rest = group[0], group[1:]
        gone = set(rest)
        nodes -= gone
        edges = {
            e for e in edges if isinstance(e, VarEdge) or not gone & {e.src, e.dst}
        }
        edges.add(NodeEdge(keeper, keeper))
        for r in rest:
            parent[r] = keeper
        log.append((keeper, tuple(rest)))
    work = Component(c.layout, c.vars, frozenset(nodes), frozenset(edges))
    return _result(c, work, parent, log)


_ABSTRACTORS = {
    Layout.SLL: _merge_chain,
    Layout.T: _abstract_tree,
    Layout.C: _merge_chain,
    Layout.DAG: _abstract_dag,
}


def abstract_component(c: Component) -> tuple:
    """(output, witness, merge log) of the step-wise algorithm for a valid component.

    Merge log entries are (survivor, removed) pairs.
    """
    return _ABSTRACTORS[c.layout](c)


def _component_doc(c: Component) -> dict:
    var_edges = sorted([e.var, e.target] for e in c.var_edges())
    if c.layout is Layout.T:
        node_edges = sorted([e.src, e.dst, e.label] for e in c.node_edges())
    else:
        node_edges = sorted([e.src, e.dst] for e in c.node_edges())
    return {
        "layout": c.layout.value,
        "variables": sorted(c.vars),
        "nodes": sorted(c.nodes),
        "var_edges": var_edges,
        "node_edges": node_edges,
    }


def _dump(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def serialize_heap(h) -> str:
    return _dump({"components": [_component_doc(c) for c in h.components]})


def _encode_edge(e) -> list:
    if isinstance(e, VarEdge):
        return ["var", e.var, e.target]
    if isinstance(e, NodeEdge):
        return ["node", e.src, e.dst]
    return ["tree", e.src, e.dst, e.label]


def _witness_doc(w: Witness) -> dict:
    node_map = {k: w.node_map[k] for k in sorted(w.node_map)}
    entries = sorted(
        ([_encode_edge(e), _encode_edge(img)] for e, img in w.edge_map.items()),
        key=lambda pair: pair[0],
    )
    return {"node_map": node_map, "edge_map": entries}


def serialize_witnesses(witnesses) -> str:
    return _dump({"witnesses": [_witness_doc(w) for w in witnesses]})


def check_valid_abstraction(source: Component, target: Component, w: Witness) -> list:
    """Every violation of ``w`` as a witness from ``source`` onto ``target``, edge by edge.

    A witness produced over ``source`` is read as the images its node map
    forces; any other witness's edge map is read for its own.
    """
    violations: list = []

    if source.layout is not target.layout:
        violations.append(
            Violation(
                "LayoutMismatch",
                f"source is {source.layout.value}, target is {target.layout.value}",
            )
        )
    if source.vars != target.vars:
        violations.append(
            Violation(
                "VariableSetMismatch",
                f"source vars {sorted(source.vars)} != target vars {sorted(target.vars)}",
            )
        )

    unmapped = source.nodes - w.node_map.keys()
    for n in sorted(unmapped):
        violations.append(Violation("NodeMapNotTotal", f"node {n} is unmapped"))
    if len(w.node_map) > len(source.nodes) - len(unmapped):  # it maps a non-source node
        for n in sorted(w.node_map.keys() - source.nodes):
            violations.append(Violation("NodeMapDomainUnknown", f"node {n} is not a source node"))
    preimages = Counter(w.node_map[n] for n in source.nodes if n in w.node_map)
    for n in sorted(preimages.keys() - target.nodes):
        violations.append(
            Violation("NodeMapImageUnknown", f"image {n} is not a target node")
        )
    for n in sorted(target.nodes - preimages.keys()):
        violations.append(Violation("NodeMapNotOnto", f"target node {n} uncovered"))

    # Only a witness not forced by this source has its edge map read: a
    # partial node map forces no edge map that can be read.
    derived = w._source is source
    edge_map = None if derived else w.edge_map
    # Source edges are visited unsorted and only their findings sorted (stably), by edge.
    findings, covered, unmapped_edges = [], set(), 0

    def finding(e, code: str, detail: str):
        findings.append((e, Violation(code, detail)))

    for e in source.edges:
        try:
            forced = e.image(w.node_map)
        except KeyError:  # an unmapped endpoint, reported as NodeMapNotTotal
            forced = None
        image = forced if derived else edge_map.get(e)
        if image is None:
            if not derived:
                finding(e, "EdgeMapNotTotal", f"edge {e} is unmapped")
                unmapped_edges += 1
            continue
        if image is not forced and forced is not None and image != forced:
            detail = f"edge {e} maps to {image}, node map forces {forced}"
            finding(e, "EdgeMapIncompatible", detail)
        covered.add(image)
        if image not in target.edges:
            finding(e, "ImageEdgeMissing", f"image {image} is not a target edge")
    if not derived and len(edge_map) > len(source.edges) - unmapped_edges:  # a non-source edge
        for e in edge_map.keys() - source.edges:
            finding(e, "EdgeMapDomainUnknown", f"edge {e} is not a source edge")
    findings.sort(key=lambda f: f[0])
    violations.extend(v for _, v in findings)
    for e in sorted(target.edges - covered):
        if not isinstance(e, VarEdge) and e.src == e.dst and preimages[e.src] >= 2:
            continue
        violations.append(Violation("EdgeMapNotOnto", f"target edge {e} uncovered"))

    return violations
