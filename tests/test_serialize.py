"""The direct canonical writers against ``json.dumps(doc, indent=2)``.

``oracle.py`` keeps the original serializers, which build each document
as dicts and lists and dump it with the standard library.  The writers in
``heapabstract.formats`` must give byte-identical text for heaps and
witness sets: on the fixtures, the golden file, the four acceptance
corpora (inputs, abstractions and witnesses), empty shapes, and ids that
JSON must escape.
"""

import random

import oracle
import pytest
from conftest import FIXTURE_DIR, GOLDEN_DIR
from genheaps import comp, ne, random_component, te, ve
from heapabstract import (
    Heap,
    Layout,
    NodeEdge,
    TreeEdge,
    VarEdge,
    Witness,
    abstract_component,
    identity_witness,
    parse_heap,
    serialize_heap,
    serialize_witnesses,
)

ACCEPTANCE_SEEDS = {Layout.SLL: 101, Layout.T: 202, Layout.C: 303, Layout.DAG: 404}
FIXTURES = ("fig1_sll.json", "fig2_tree.json", "fig3_cycle.json", "fig4_dag.json")


def _assert_same(text, reference):
    # Documents run to megabytes: report the first difference, not a diff.
    if text != reference:
        at = next(
            (i for i, (a, b) in enumerate(zip(text, reference)) if a != b),
            min(len(text), len(reference)),
        )
        start = max(at - 30, 0)
        pytest.fail(
            f"first difference at {at}: {text[start:at + 30]!r} vs {reference[start:at + 30]!r}"
        )


def _assert_heap_matches(h):
    _assert_same(serialize_heap(h), oracle.serialize_heap(h))


def _assert_witnesses_match(witnesses):
    _assert_same(serialize_witnesses(witnesses), oracle.serialize_witnesses(witnesses))


def _assert_run_matches(heap):
    results = [abstract_component(c) for c in heap.components]
    _assert_heap_matches(heap)
    _assert_heap_matches(Heap(tuple(r.output for r in results)))
    _assert_witnesses_match([r.witness for r in results])
    _assert_witnesses_match([identity_witness(c) for c in heap.components])


def test_fixtures_and_golden_match_reference():
    for name in FIXTURES:
        _assert_run_matches(parse_heap((FIXTURE_DIR / name).read_text(encoding="utf-8")))
    golden = (GOLDEN_DIR / "fig3_abstract.json").read_text(encoding="utf-8")
    assert oracle.serialize_heap(parse_heap(golden)) == golden
    _assert_run_matches(parse_heap(golden))


def test_acceptance_corpora_match_reference():
    for layout, seed in ACCEPTANCE_SEEDS.items():
        rng = random.Random(seed)
        witnesses = []
        for _ in range(1000):
            c = random_component(rng, layout, max_nodes=30)
            result = abstract_component(c)
            _assert_heap_matches(Heap((c,)))
            _assert_heap_matches(Heap((result.output,)))
            witnesses.append(result.witness)
        _assert_same(serialize_witnesses(witnesses), oracle.serialize_witnesses(witnesses))


def test_empty_shapes_match_reference():
    _assert_heap_matches(Heap(()))
    assert serialize_heap(Heap(())) == '{\n  "components": []\n}\n'
    no_vars = comp(Layout.C, (), {"a", "b"}, {ne("a", "b"), ne("b", "a")})
    no_edges = comp(Layout.DAG, {"v"}, {"x", "y"})
    no_nodes = comp(Layout.SLL, {"w"})
    _assert_heap_matches(Heap((no_vars, no_edges, no_nodes)))
    for c in (no_vars, no_edges, no_nodes):
        _assert_heap_matches(Heap((c,)))
    empty = Witness({}, {})
    nodes_only = Witness({"x": "x", "y": "x"}, {})
    _assert_witnesses_match([])
    _assert_witnesses_match([empty])
    _assert_witnesses_match([empty, nodes_only, identity_witness(no_vars)])
    assert serialize_witnesses([empty]) == (
        '{\n  "witnesses": [\n    {\n      "node_map": {},\n      "edge_map": []\n    }\n  ]\n}\n'
    )


ESCAPED = ('q"uote', "back\\slash", "café", "ctl\u0001", "smile\U0001F600")


def test_escaped_ids_match_reference():
    nodes = [f"n{ident}" for ident in ESCAPED]
    variables = [f"v{ident}" for ident in ESCAPED]
    sll = comp(
        Layout.SLL,
        variables,
        nodes,
        {ve(v, n) for v, n in zip(variables, nodes)}
        | {ne(a, b) for a, b in zip(nodes, nodes[1:])},
    )
    tree_nodes = [f"t{ident}" for ident in ESCAPED]
    tree = comp(
        Layout.T,
        {"ré"},
        tree_nodes,
        {ve("ré", tree_nodes[0])}
        | {te(tree_nodes[0], tree_nodes[1], "l"), te(tree_nodes[0], tree_nodes[2], "r")}
        | {te(tree_nodes[1], tree_nodes[3], "l"), te(tree_nodes[1], tree_nodes[4], "r")},
    )
    heap = Heap((sll, tree))
    text = serialize_heap(heap)
    assert text.isascii()
    assert parse_heap(text) == heap
    _assert_run_matches(heap)
    w = Witness(
        {n: nodes[0] for n in nodes},
        {
            VarEdge(variables[1], nodes[1]): VarEdge(variables[1], nodes[0]),
            NodeEdge(nodes[2], nodes[3]): NodeEdge(nodes[0], nodes[0]),
            TreeEdge(tree_nodes[3], tree_nodes[4], "r"): TreeEdge(
                tree_nodes[0], tree_nodes[0], "r"
            ),
        },
    )
    _assert_witnesses_match([w, identity_witness(sll), identity_witness(tree)])


def test_produced_witness_names_fall_back_where_they_differ():
    # A produced witness's entries reuse the node map's quoted names only
    # when its sorted keys are its source's ids.  A key outside the source
    # (sorting first, so every rank would shift) or a hand-built dict of the
    # images another node map forces must be written as read.
    sll = comp(Layout.SLL, {"x"}, {'a"', "b", "c"}, {ve("x", 'a"'), ne('a"', "b"), ne("b", "c")})
    tree = comp(
        Layout.T,
        {"y"},
        {"r", "s", "t"},
        {ve("y", "r"), te("r", "s", "l"), te("r", "t", "r"), te("t", "t", "l")},
    )
    for c in (sll, tree):
        ids = sorted(c.nodes)
        kept = {n: ids[0] if n == ids[-1] else n for n in ids}
        wider = dict(kept, **{"0ghost": ids[1]})
        other = {n: ids[0] for n in ids}
        witnesses = [
            Witness._forced(c, wider),
            Witness(kept, {e: e.image(other) for e in c.edges}),
            Witness._forced(c, dict(kept)),
        ]
        for w in witnesses:
            _assert_witnesses_match([w])
        _assert_witnesses_match(witnesses)
