"""Valid-abstraction certificates and the machinery to check them.

A witness relates a component to its abstraction through two maps: a node
map sending every source node onto a target node, and an edge map sending
every source edge onto a target edge.  The edge map must be compatible
with the node map (endpoints map pointwise, labels are preserved), which
makes a witness independently checkable: no trust in the code that
produced it is required.
"""

from __future__ import annotations

from collections import Counter, deque
from collections.abc import Mapping
from itertools import chain, count, filterfalse, repeat
from operator import itemgetter

from .errors import BudgetExceededError, DomainMismatchError
from .model import (
    Component,
    ComponentIndex,
    RankedCore,
    Value,
    VarEdge,
    Violation,
    _setattr,
    edge_keys,
)

_NO_IMAGE = object()  # what the extended ranks give as an unmapped node's image


class Witness(Value):
    """Node map and edge map certifying one valid abstraction.

    Treat instances as immutable.  A witness read from a document or built
    by hand holds the two maps it was given.  One the library produced holds
    its node map and its source component, and each read of ``edge_map``
    builds the dict of the images that node map forces, in canonical order.
    """

    __slots__ = ("node_map", "_edge_map", "_source")
    _fields = ("node_map", "edge_map")

    def __init__(self, node_map: dict, edge_map: Mapping):
        _setattr(self, "node_map", node_map)
        _setattr(self, "_edge_map", edge_map)
        _setattr(self, "_source", None)

    @classmethod
    def _forced(cls, source: Component, node_map: dict) -> Witness:
        w = cls(node_map, None)
        _setattr(w, "_source", source)
        return w

    def __reduce__(self):  # a copy or pickle of a produced witness keeps its source
        if self._source is None:
            return super().__reduce__()
        return Witness._forced, (self._source, self.node_map)

    @property
    def edge_map(self) -> Mapping:
        if self._source is None:
            return self._edge_map
        return {e: e.image(self.node_map) for e in self._source._core.edges()}


def check_valid_abstraction(source: Component, target: Component, w: Witness) -> list:
    """Verify that ``w`` certifies ``target`` as a valid abstraction of ``source``.

    Returns every violation found rather than failing fast: layouts and
    variable sets must agree, both maps must be total and onto and map
    only source nodes and edges, each edge image must be the one its
    endpoints force, and each image must exist in the target.

    A target self edge whose node absorbs two or more source nodes stands
    for the collapsed region itself; such edges need no preimage, since a
    merged group may have had no internal edges at all.
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
    preimages = Counter(map(w.node_map.__getitem__, source.nodes - unmapped))
    for n in sorted(preimages.keys() - target.nodes):
        violations.append(
            Violation("NodeMapImageUnknown", f"image {n} is not a target node")
        )
    for n in sorted(target.nodes - preimages.keys()):
        violations.append(Violation("NodeMapNotOnto", f"target node {n} uncovered"))

    findings, uncovered = _edge_findings(source, target, w)
    violations.extend(findings)
    for e in uncovered:
        if not isinstance(e, VarEdge) and e.src == e.dst and preimages[e.src] >= 2:
            continue
        violations.append(Violation("EdgeMapNotOnto", f"target edge {e} uncovered"))

    return violations


def _edge_findings(source: Component, target: Component, w: Witness) -> tuple:
    """The edge map's findings by source edge, and the target edges its images leave uncovered.

    Edges are int keys: source edges over the source's ranks, images over the
    target's, followed by one rank for each other id they name (``_NO_IMAGE``,
    an unmapped node's image, among them), so ids outside the target stay
    apart.  The edge map is judged in blocks of (source kind, image kind,
    source keys, image rows), the rows None where the images are the forced ones.
    """
    s_core, t_core, node_map = source._core, target._core, w.node_map
    if w._source is source:  # its images are the forced ones
        found, blocks = [], [(k, k, keys, None) for k, keys in enumerate(s_core.keys)]
    else:
        found, blocks = _entries(source, w.edge_map)
    named = list(map(node_map.get, s_core.ids, repeat(_NO_IMAGE)))
    node_ids, var_ids = [named], [s_core.vars]
    for _, j, _, rows in blocks:
        if rows:
            (var_ids if j == 2 else node_ids).append([r[0] for r in rows])
            node_ids.append([r[1] for r in rows])
    ext, ext_vars = dict(zip(t_core.ids, count())), dict(zip(t_core.vars, count()))
    for ranks, ids in (ext, node_ids), (ext_vars, var_ids):
        other = dict.fromkeys(filterfalse(ranks.__contains__, chain.from_iterable(ids)))
        ranks.update(zip(other, count(len(ranks))))
    image, var_image = list(map(ext.__getitem__, named)), [ext_vars[v] for v in s_core.vars]
    m, size, have = len(t_core.ids), len(ext), t_core.keys
    if size > m:  # the target's keys over the extended ranks
        same = range(m), range(len(t_core.vars))
        have = [t_core.mapped(k, keys, *same, size) for k, keys in enumerate(have)]
    ext_core = RankedCore(list(ext), list(ext_vars), have)
    # The identity map of a source onto its own ranks forces each edge onto itself.
    identity = size == len(s_core.ids) and named == t_core.ids and s_core.vars == t_core.vars
    # Each kind has a block; present holds the target's keys of a kind once a block needs them.
    present, covered = [None] * 3, [set(), set(), set()]
    for k, j, keys, images in blocks:
        forced = keys if identity else s_core.mapped(k, keys, image, var_image, size)
        if images is None and forced == have[j]:  # each forced image is one target edge of kind j
            covered[j] = None
            continue
        present[j] = present[j] or set(have[j])
        firsts = ext_vars if j == 2 else ext
        images = forced if images is None else edge_keys(images, firsts, ext, j == 1)
        covered[j].update(images)
        if images is forced and present[j].issuperset(images):
            continue
        for s, f, i in zip(keys, forced, images):
            incompatible, missing = i != f or j != k, i not in present[j]
            if incompatible or missing:
                e = s_core.decode(k, [s])[0]
                (forced_edge,), (image_edge,) = ext_core.decode(k, [f]), ext_core.decode(j, [i])
                if incompatible and _NO_IMAGE not in forced_edge.ends:
                    detail = f"edge {e} maps to {image_edge}, node map forces {forced_edge}"
                    found.append((e, "EdgeMapIncompatible", detail))
                if missing and _NO_IMAGE not in image_edge.ends:
                    detail = f"image {image_edge} is not a target edge"
                    found.append((e, "ImageEdgeMissing", detail))
    found.sort(key=itemgetter(0))  # stably, so an edge's findings keep their order
    kinds = [k for k in range(3) if covered[k] is not None]
    uncovered = (ext_core.decode(k, sorted(present[k] - covered[k])) for k in kinds)
    return [Violation(code, detail) for _, code, detail in found], chain.from_iterable(uncovered)


def _entries(source: Component, edge_map) -> tuple:
    """The findings of an edge map that need no image (source edges it leaves
    unmapped, and its edges that are not the source's), and blocks of
    (source kind, image kind, source keys, image rows) for the rest.  An
    image that is neither None nor an edge raises a TypeError."""
    core, found, blocks = source._core, [], []
    for k, keys in enumerate(core.keys):
        edges = core.decode(k, keys)
        images = list(map(edge_map.get, edges))
        for j, kind in enumerate(RankedCore.kinds):
            picked = [x for x, i in enumerate(images) if type(i) is kind]
            blocks.append((k, j, [keys[x] for x in picked], [images[x][1:] for x in picked]))
        for e, i in zip(edges, images):
            if _edge_image(e, i) is None:
                found.append((e, "EdgeMapNotTotal", f"edge {e} is unmapped"))
    if len(edge_map) > sum(len(keys) for _, _, keys, _ in blocks):  # it maps a non-source edge
        unknown = edge_map.keys() - source.edges
        found += [(e, "EdgeMapDomainUnknown", f"edge {e} is not a source edge") for e in unknown]
    return found, blocks


def _edge_image(e, i):
    """The image ``i`` of edge ``e`` if an edge or None (unmapped); else a TypeError."""
    if i is None or type(i) in RankedCore.kinds:
        return i
    raise TypeError(f"edge {e} maps to {i!r}, which is not an edge")


def identity_witness(c: Component) -> Witness:
    """The witness by which every component abstracts itself."""
    return Witness._forced(c, dict(zip(c._core.ids, c._core.ids)))


def compose(w1: Witness, w2: Witness) -> Witness:
    """Chain two witnesses (first w1, then w2) into one.

    Valid abstraction is transitive, and composition is how the combined
    certificate is built: both maps compose pointwise.
    """
    # A None image (an unmapped edge) stays None.  A failure names the smallest
    # missing node, else edge, whatever order the maps were built in.
    maps = []
    for what, m1, m2 in ("node", w1.node_map, w2.node_map), ("edge", w1.edge_map, w2.edge_map):
        gap = set(m1.values()) - m2.keys() - {None}
        if gap:
            raise DomainMismatchError(f"{what} {min(gap)} is not in the second witness's domain")
        maps.append({k: None if f is None else m2[f] for k, f in m1.items()})
    return Witness(*maps)


def find_witness_bruteforce(source: Component, target: Component, node_budget: int = 8):
    """Search exhaustively for a witness from ``source`` onto ``target``.

    Enumerates onto node maps by iterative backtracking; the edge map of
    each candidate is forced by compatibility, so a candidate is accepted
    as soon as every forced image exists in the target and the images
    cover all target edges (up to the merged-region self-edge allowance).
    Returns None when no witness exists.  Intended as a small-instance
    oracle; refuses sources larger than ``node_budget`` nodes.
    """
    if len(source.nodes) > node_budget:
        raise BudgetExceededError(
            f"source has {len(source.nodes)} nodes, budget is {node_budget}"
        )
    if source.layout is not target.layout or source.vars != target.vars:
        return None

    src_nodes, tgt_nodes = source._core.ids, target._core.ids
    if not src_nodes:  # so the source has no edges
        return None if tgt_nodes else Witness({}, {})
    if not tgt_nodes:
        return None

    # Edges are checked as soon as their later endpoint gets assigned.
    edges_at: dict = {i: [] for i in range(len(src_nodes))}
    rank = dict(zip(src_nodes, count()))
    for e in source.edges:
        edges_at[max(map(rank.__getitem__, e.ends))].append(e)

    assignment: dict = {}
    use_count = {t: 0 for t in tgt_nodes}
    uncovered = len(tgt_nodes)

    def images_ok(i: int, candidate: str) -> bool:
        assignment[src_nodes[i]] = candidate
        try:
            return all(e.image(assignment) in target.edges for e in edges_at[i])
        finally:
            del assignment[src_nodes[i]]

    def accept():
        w = Witness._forced(source, dict(assignment))
        return None if check_valid_abstraction(source, target, w) else w

    # Depth-first over source nodes in order, one candidate iterator per
    # assigned level; a level is pruned when the target nodes still
    # uncovered outnumber the source nodes left to assign.
    if uncovered > len(src_nodes):
        return None
    stack = [iter(tgt_nodes)]
    while stack:
        i = len(stack) - 1
        n = src_nodes[i]
        if n in assignment:
            t = assignment.pop(n)
            use_count[t] -= 1
            uncovered += use_count[t] == 0
        t = next((t for t in stack[-1] if images_ok(i, t)), None)
        if t is None:
            stack.pop()
            continue
        assignment[n] = t
        uncovered -= use_count[t] == 0
        use_count[t] += 1
        if i + 1 == len(src_nodes):
            found = accept()
            if found is not None:
                return found
        elif uncovered <= len(src_nodes) - (i + 1):
            stack.append(iter(tgt_nodes))
    return None


def _signature(index: ComponentIndex, r: int, in_tags: list) -> tuple:
    # Pointing variables, out/in edge tag counts and self edge tags:
    # isomorphic nodes have equal signatures.
    return (
        tuple(sorted(index.pointed[r])),
        tuple(sorted(Counter(index.tags[r]).items())),
        tuple(sorted(Counter(in_tags[r]).items())),
        tuple(sorted(index.loops[r])),
    )


def _edge_tables(index: ComponentIndex) -> tuple:
    # The tags of each rank's in-edges, and the set of tags per (src, dst) pair.
    in_tags = [[] for _ in index.ids]
    pair_tags: dict = {}
    for src, (succ, tags) in enumerate(zip(index.out, index.tags)):
        for dst, tag in zip(succ, tags):
            in_tags[dst].append(tag)
            pair_tags.setdefault((src, dst), set()).add(tag)
    return in_tags, pair_tags


def _neighbours(index: ComponentIndex, r: int) -> set:
    return {*index.out[r], *index.into[r]}


def isomorphic(c1: Component, c2: Component) -> bool:
    """Equality of components up to renaming of nodes.

    Variables keep their names, edge labels are preserved.  Iterative
    backtracking with degree-signature pruning: nodes are mapped in
    breadth-first order from the most constrained one, so each later node
    neighbours a mapped one (its anchor) and its candidates are the
    neighbours of the anchor's image.  A candidate (same signature, so the
    same self edges) is checked against already-mapped neighbours only.
    """
    index1, index2 = ComponentIndex(c1), ComponentIndex(c2)
    if c1.layout is not c2.layout or c1.vars != c2.vars:
        return False
    if len(c1.nodes) != len(c2.nodes) or len(c1._core) != len(c2._core):
        return False

    # Nodes are handled by rank, so every tie breaks by id.
    in_tags1, pair_tags1 = _edge_tables(index1)
    in_tags2, pair_tags2 = _edge_tables(index2)
    size = len(index1.ids)
    sig1 = [_signature(index1, r, in_tags1) for r in range(size)]
    sig2 = [_signature(index2, r, in_tags2) for r in range(size)]
    by_sig: dict = {}
    for m in range(size):
        by_sig.setdefault(sig2[m], []).append(m)
    if any(sig not in by_sig for sig in sig1):
        return False

    order, anchor = [], {}
    for root in sorted(range(size), key=lambda r: (len(by_sig[sig1[r]]), r)):
        if root in anchor:
            continue
        anchor[root] = None
        queue = deque([root])
        while queue:
            n = queue.popleft()
            order.append(n)
            for p in sorted(_neighbours(index1, n) - anchor.keys()):
                anchor[p] = n
                queue.append(p)

    mapping: dict = {}
    inverse: dict = {}

    def candidates(n: int) -> list:
        if anchor[n] is None:
            return by_sig[sig1[n]]
        near = _neighbours(index2, mapping[anchor[n]])
        return sorted(m for m in near if sig2[m] == sig1[n])

    def consistent(n: int, m: int) -> bool:
        if m in inverse:
            return False
        pairs = [(p, mapping[p]) for p in _neighbours(index1, n) if p in mapping]
        pairs += [(inverse[q], q) for q in _neighbours(index2, m) if q in inverse]
        return all(
            pair_tags1.get((n, p)) == pair_tags2.get((m, q))
            and pair_tags1.get((p, n)) == pair_tags2.get((q, m))
            for p, q in pairs
        )

    stack = [iter(candidates(order[0]))] if order else []
    while stack:
        n = order[len(stack) - 1]
        if n in mapping:
            del inverse[mapping.pop(n)]
        m = next((m for m in stack[-1] if consistent(n, m)), None)
        if m is None:
            stack.pop()
            continue
        mapping[n] = m
        inverse[m] = n
        if len(stack) == len(order):
            return True
        stack.append(iter(candidates(order[len(stack)])))
    return not order
