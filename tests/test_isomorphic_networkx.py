"""``isomorphic`` against networkx's VF2 matcher (Cordella et al., 2004).

A component becomes a networkx digraph whose nodes carry their pointing
variables and whose edges carry their label sets ("n" for plain edges),
self edges included.  Both tests must agree on every pair: each generated
component against a relabelled copy, and against relabelled copies with
one variable moved, one label flipped (an edge reversed outside trees) or
one edge redirected.
"""

import random

import networkx as nx

from genheaps import comp, random_component, random_relabeling, relabel
from heapabstract import Layout, NodeEdge, TreeEdge, VarEdge
from heapabstract.witness import isomorphic


def _digraph(c) -> nx.DiGraph:
    # Sorted insertion keeps VF2's search order, and so its run time, the
    # same in every process.
    g = nx.DiGraph()
    for n in sorted(c.nodes):
        g.add_node(n, vars=frozenset())
    for e in sorted(c.edges):
        if isinstance(e, VarEdge):
            g.nodes[e.target]["vars"] |= {e.var}
        else:
            if not g.has_edge(e.src, e.dst):
                g.add_edge(e.src, e.dst, labels=frozenset())
            label = e.label if isinstance(e, TreeEdge) else "n"
            g.edges[e.src, e.dst]["labels"] |= {label}
    return g


def _vf2(c1, c2) -> bool:
    if c1.layout is not c2.layout or c1.vars != c2.vars:
        return False
    return nx.is_isomorphic(
        _digraph(c1),
        _digraph(c2),
        node_match=lambda a, b: a["vars"] == b["vars"],
        edge_match=lambda a, b: a["labels"] == b["labels"],
    )


def _replace(c, old, new):
    return comp(c.layout, c.vars, c.nodes, (c.edges - {old}) | {new})


def _move_variable(rng, c):
    var_edges = sorted(c.var_edges())
    if not var_edges:
        return None
    e = rng.choice(var_edges)
    return _replace(c, e, VarEdge(e.var, rng.choice(sorted(c.nodes))))


def _flip(rng, c):
    node_edges = sorted(c.node_edges())
    if not node_edges:
        return None
    e = rng.choice(node_edges)
    if isinstance(e, TreeEdge):
        return _replace(c, e, TreeEdge(e.src, e.dst, "r" if e.label == "l" else "l"))
    return _replace(c, e, NodeEdge(e.dst, e.src))


def _redirect(rng, c):
    node_edges = sorted(c.node_edges())
    if not node_edges:
        return None
    e = rng.choice(node_edges)
    dst = rng.choice(sorted(c.nodes))
    if isinstance(e, TreeEdge):
        return _replace(c, e, TreeEdge(e.src, dst, e.label))
    return _replace(c, e, NodeEdge(e.src, dst))


PERTURBATIONS = (_move_variable, _flip, _redirect)


def test_isomorphic_agrees_with_networkx():
    rng = random.Random(2004)
    pairs = verdicts = 0
    for layout in Layout:
        for _ in range(150):
            c = random_component(rng, layout, max_nodes=20)
            copy = relabel(c, random_relabeling(rng, c))
            assert isomorphic(c, copy) and _vf2(c, copy)
            for perturb in PERTURBATIONS:
                other = perturb(rng, copy)
                if other is None:
                    continue
                expected = _vf2(c, other)
                assert isomorphic(c, other) == expected, (c, other)
                pairs += 1
                verdicts += expected
    # Both verdicts must occur, or the perturbations test nothing.
    assert 0 < verdicts < pairs
