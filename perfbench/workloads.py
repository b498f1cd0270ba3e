"""Seeded heap corpora for the benchmark, with closed-form expected counts.

Each workload is a list of heap files.  A heap is built here as a plain
JSON document in the program's input format, so the program under test
only ever sees generated files.  Alongside each component the generator
records the node count the paper's rules force on its abstraction, worked
out from the shape it built and never from the program:

* a list or ring with one head variable and no chord abstracts to 2 nodes;
  in general each special node survives and each maximal run of ordinary
  nodes between them collapses to one node;
* a layered DAG abstracts to 1 + (number of layers) nodes;
* a tree keeps every node except the child pairs its fold rule absorbs;
* a pinned component (no two ordinary nodes adjacent, at most one ordinary
  node per DAG layer) keeps every node.

The seed picks node names (so the order in which the program meets nodes
and edges), chord endpoints and pinned positions.  Shapes are laid out so
that the input and output sizes do not depend on the seed: every seed of
a workload asks for the same amount of work and the same compaction.
The same (workload, size, seed) always gives the same bytes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

# Component sizes per workload.  Full sizes are chosen so that one CLI pass
# over a corpus takes one to a few seconds with the step-wise algorithms of
# the first benchmarked commit; smoke sizes run in well under a second.
SIZES = {
    "full": {
        "chains": {"SLL": (100, 250, 500), "C": (100, 250, 400)},
        "trees": {"T": (127, 255, 511)},
        "dags": {"DAG": (100, 250, 500, 1000)},
        "pinned": {
            "SLL": (1000, 3000),
            "T": (1000, 3000),
            "DAG": (600, 1200),
            "C": (200, 400),
        },
    },
    "smoke": {
        "chains": {"SLL": (12, 30), "C": (12, 30)},
        "trees": {"T": (31, 63)},
        "dags": {"DAG": (20, 60)},
        "pinned": {"SLL": (40, 80), "T": (40, 80), "DAG": (40, 80), "C": (40, 80)},
    },
}

WORKLOADS = tuple(SIZES["full"])

# Worst-case shapes (one variable on the head or root, everything else
# ordinary) for the per-layout baseline table of a traced run.
BASELINE_N = {"full": 1000, "smoke": 30}
BASELINE_LAYOUTS = {
    "chains": ("SLL", "C"),
    "trees": ("T",),
    "dags": ("DAG",),
    "pinned": (),
}

DAG_WIDTH = 8  # nodes per DAG layer: about 8 edges per node
PINNED_ORDINARY = 0.08  # share of a pinned component's nodes left unpinned


@dataclass
class Part:
    """One generated component and what its abstraction must look like."""

    doc: dict
    layout: str
    nodes: int
    edges: int
    expected_nodes: int
    probe: bool = False


@dataclass
class HeapFile:
    name: str
    parts: list

    def text(self) -> str:
        return json.dumps({"components": [p.doc for p in self.parts]})


def _part(layout, ids, variables, var_edges, arcs, expected) -> Part:
    doc = {
        "layout": layout,
        "variables": variables,
        "nodes": ids,
        "var_edges": var_edges,
        "node_edges": arcs,
    }
    return Part(doc, layout, len(ids), len(var_edges) + len(arcs), expected)


def _ids(tag: str, n: int, rng) -> list:
    """Node names; with ``rng`` they are shuffled, so sorted order is seeded."""
    ids = [f"{tag}n{i}" for i in range(n)]
    if rng is not None:
        rng.shuffle(ids)
    return ids


def _headed(layout, tag, ids, arcs, expected) -> Part:
    """A component with one variable, on node 0."""
    return _part(layout, ids, [f"{tag}h"], [[f"{tag}h", ids[0]]], arcs, expected)


def _pinned(layout, tag, ids, arcs, rng, neighbours, candidates=None) -> Part:
    """A variable on every node but a seeded few, no two of them neighbours.

    Nothing can merge, so the abstraction keeps every node.
    """
    want = round(PINNED_ORDINARY * len(ids))
    pool = list(candidates if candidates is not None else range(1, len(ids)))
    rng.shuffle(pool)
    ordinary: set = set()
    for i in pool:
        if len(ordinary) == want:
            break
        if not ordinary & set(neighbours(i)):
            ordinary.add(i)
    pinned = [i for i in range(len(ids)) if i not in ordinary]
    variables = [f"{tag}v{i}" for i in pinned]
    var_edges = [[f"{tag}v{i}", ids[i]] for i in pinned]
    return _part(layout, ids, variables, var_edges, arcs, len(ids))


def _path_count(n: int, special: set) -> int:
    """Nodes left when each run of ordinary nodes on a path collapses to one."""
    runs = sum(1 for i in range(n) if i not in special and (i == 0 or i - 1 in special))
    return len(special) + runs


def chain(tag: str, layout: str, n: int, rng=None, chord=False, pinned=False) -> Part:
    """A list (SLL) or ring (C) with a head variable on node 0.

    With ``chord`` the list's tail points back to a seeded node at least
    three steps from either end, which makes 5 nodes and 7 edges of the
    abstraction.
    """
    ids = _ids(tag, n, rng)
    arcs = [[ids[i], ids[i + 1]] for i in range(n - 1)]
    if layout == "C":
        arcs.append([ids[-1], ids[0]])
    if pinned:
        return _pinned(layout, tag, ids, arcs, rng, lambda i: (i - 1, (i + 1) % n))
    special = {0}
    if chord:
        target = rng.randrange(3, n - 3)
        arcs.append([ids[-1], ids[target]])
        special |= {target, n - 1}
    return _headed(layout, tag, ids, arcs, _path_count(n, special))


def _below(root: int, k: int) -> range:
    """Heap indices of the descendants ``k`` levels below ``root``."""
    return range((root + 1) * 2**k - 1, (root + 2) * 2**k - 1)


def tree(tag: str, n: int, rng=None, chords=False, pinned=False) -> Part:
    """A binary tree on nodes 0..n-1 with children 2i+1 (l) and 2i+2 (r).

    With ``chords`` (n = 2**(h+1) - 1, a perfect tree of height h >= 4) it
    gets one back chord, from depth h to depth h-2, and one horizontal
    chord at depth h-1.  The four endpoints lie in the four subtrees below
    depth 2, one each, so the fold loses the same number of merges
    whichever nodes the seed picks.
    """
    ids = _ids(tag, n, rng)
    arcs = [[ids[(i - 1) // 2], ids[i], "l" if i % 2 else "r"] for i in range(1, n)]
    if pinned:
        return _pinned("T", tag, ids, arcs, rng, lambda i: ((i - 1) // 2, 2 * i + 1, 2 * i + 2))
    special = {0}
    if chords:
        height = n.bit_length() - 1
        quarters = [3, 4, 5, 6]
        rng.shuffle(quarters)
        depths = (height, height - 2, height - 1, height - 1)
        ends = [rng.choice(_below(q, d - 2)) for q, d in zip(quarters, depths)]
        for a, b in (ends[:2], ends[2:]):
            arcs.append([ids[a], ids[b], rng.choice("lr")])
        special |= set(ends)
    return _headed("T", tag, ids, arcs, _tree_count(n, special))


def _tree_count(n: int, special: set) -> int:
    """Nodes left after the paper's bottom-up fold on a heap-shaped tree.

    An ordinary node absorbs its l/r children when both are collapsed: an
    ordinary leaf, or an ordinary node that has itself absorbed its pair.
    """
    collapsed = [False] * n
    absorbed = 0
    for i in reversed(range(n)):
        if i in special:
            continue
        left, right = 2 * i + 1, 2 * i + 2
        if left >= n:
            collapsed[i] = True
        elif right < n and collapsed[left] and collapsed[right]:
            collapsed[i] = True
            absorbed += 1
    return n - 2 * absorbed


def dag(tag: str, n: int, rng=None, pinned=False) -> Part:
    """A root (node 0) over layers of DAG_WIDTH nodes, complete bipartite between layers.

    Every layer is one reference-similar group, so the abstraction keeps
    the root and one node per layer.  A pinned DAG leaves at most one node
    per layer unpinned, so nothing merges.
    """
    ids = _ids(tag, n, rng)
    layers = [range(s, min(n, s + DAG_WIDTH)) for s in range(1, n, DAG_WIDTH)]
    arcs = [[ids[0], ids[j]] for j in layers[0]]
    for upper, lower in zip(layers, layers[1:]):
        arcs.extend([ids[a], ids[b]] for a in upper for b in lower)
    if pinned:
        # One candidate per layer; any two candidates are "neighbours" only
        # if they share a layer, which they never do.
        picks = [rng.choice(layer) for layer in layers]
        return _pinned("DAG", tag, ids, arcs, rng, lambda i: (), candidates=picks)
    return _headed("DAG", tag, ids, arcs, 1 + len(layers))


def probes() -> list:
    """One small component per layout, so every layer runs in every workload."""
    parts = [chain("pS", "SLL", 16), chain("pC", "C", 16), tree("pT", 15), dag("pD", 13)]
    for part in parts:
        part.probe = True
    return parts


def corpus(workload: str, size: str, seed: int) -> list:
    """The heap files of one workload, generated from ``seed``.

    Each component is a heap file of its own, except in ``pinned``, whose
    heaps hold one component of each layout (the i-th size of each).
    """
    rng = random.Random(f"{workload}/{size}/{seed}")
    pinned = workload == "pinned"
    heaps: dict = {}
    count = 0
    for layout, sizes in SIZES[size][workload].items():
        for rank, n in enumerate(sizes):
            tag = f"{layout[0]}{count}"
            if layout == "T":
                part = tree(tag, n, rng, chords=not pinned, pinned=pinned)
            elif layout == "DAG":
                part = dag(tag, n, rng, pinned=pinned)
            else:
                # Every other list of the chains carries a back chord.
                chord = workload == "chains" and layout == "SLL" and count % 2 == 1
                part = chain(tag, layout, n, rng, chord=chord, pinned=pinned)
            heaps.setdefault(rank if pinned else count, []).append(part)
            count += 1
    files = [
        HeapFile(f"{i:02d}-" + "-".join(f"{p.layout}{p.nodes}" for p in parts), parts)
        for i, parts in enumerate(heaps.values())
    ]
    files[0].parts.extend(probes())
    return files


def baseline(workload: str, size: str) -> list:
    """Worst-case single-component heaps of the traced run's baseline table."""
    n = BASELINE_N[size]
    shapes = {
        "SLL": lambda: chain("bS", "SLL", n),
        "C": lambda: chain("bC", "C", n),
        "T": lambda: tree("bT", n),
        "DAG": lambda: dag("bD", n),
    }
    return [
        HeapFile(f"baseline-{layout}-{n}", [shapes[layout]()])
        for layout in BASELINE_LAYOUTS[workload]
    ]
