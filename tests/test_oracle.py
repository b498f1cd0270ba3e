"""Differential tests: the indexed algorithms against the step-wise oracle.

The oracle (``oracle.py``) is the original merge-by-merge implementation.
Output components, witnesses and merge logs must be identical, and so
must the special/ordinary classification, on the fixtures, the golden
file, the acceptance corpora, a corpus of larger components, and the
re-abstraction of every output.  On the same corpora, renaming a
component's nodes must rename its output up to isomorphism, and a tree's
output must abstract to itself.  A further test counts how often one CLI
run of ``abstract`` or ``classify`` builds indexes, validates, classifies
and constructs components.  A third judges corrupted witnesses with the
library's checker and with the oracle's edge-by-edge one.
"""

import cProfile
import random
from itertools import chain

import pytest

import oracle
from conftest import GOLDEN_DIR, load_component
from genheaps import GENERATORS, comp, ne, random_component, random_relabeling, relabel, te, ve
from heapabstract import (
    Component,
    Heap,
    Layout,
    NodeEdge,
    TreeEdge,
    VarEdge,
    Witness,
    abstract_component,
    check_valid_abstraction,
    isomorphic,
    node_classes,
    parse_heap,
    parse_witnesses,
    serialize_heap,
    serialize_witnesses,
    validate_component,
)
from heapabstract.cli import run
from heapabstract.model import ComponentIndex

ACCEPTANCE_SEEDS = {Layout.SLL: 101, Layout.T: 202, Layout.C: 303, Layout.DAG: 404}

# Node ids whose code-point order is neither numeric ("n10" < "n9") nor
# case-blind ("Z" < "a"), puts a prefix first ("a" < "a0"), and places
# non-ASCII and non-BMP ids by code point ("\uffee" < "\U00010000",
# although UTF-16 orders them the other way).
RANK_ORDER_IDS = (
    *(f"n{k}" for k in (1, 2, 9, 10, 11, 19, 20, 99, 100, 101)),
    *("Z", "ZZ", "Za", "a", "a0", "a00", "a1", "aZ", "b", "z"),
    *("e\u0301", "é", "é0", "ß", "Ω", "\ue000", "\uff21", "\uffee"),
    *("\U00010000", "\U0001F600", "\U0001F600a", "\U0010FFFD"),
)


def _assert_matches_oracle(c):
    result = abstract_component(c)
    output, witness, log = oracle.abstract_component(c)
    assert node_classes(c) == oracle.CLASSIFIERS[c.layout](c)
    assert result.output == output
    assert result.witness == witness
    assert tuple((ev.survivor, ev.removed) for ev in result.merge_log) == log
    return result.output


def _assert_matches_with_reabstraction(c):
    _assert_matches_oracle(_assert_matches_oracle(c))


def _unpointed_ring(n):
    nodes = [f"u{i}" for i in range(n)]
    return comp(Layout.C, (), nodes, {ne(nodes[i], nodes[(i + 1) % n]) for i in range(n)})


def _converging_list(branches, length, rng):
    # Several chains run into one shared tail, so a node can have more
    # than one ordinary predecessor; shuffled ids vary the merge order.
    ids = [f"m{i:03d}" for i in range((branches + 1) * length)]
    rng.shuffle(ids)
    chains = [ids[k * length : (k + 1) * length] for k in range(branches + 1)]
    tail = chains[0]
    edges = {ne(chain[i], chain[i + 1]) for chain in chains for i in range(length - 1)}
    edges |= {ne(chain[-1], tail[0]) for chain in chains[1:]}
    return comp(Layout.SLL, (), ids, edges)


def _converging_forest(n, rng):
    # Each node points at an earlier one, so branches run into branches
    # at any depth; shuffled ids put the smallest rank anywhere in a chain.
    ids = [f"f{i:03d}" for i in range(n)]
    rng.shuffle(ids)
    edges = {ne(ids[i], ids[rng.randrange(i)]) for i in range(1, n)}
    variables = [f"v{k}" for k in range(rng.randint(0, 3))]
    edges |= {ve(v, rng.choice(ids)) for v in variables}
    return comp(Layout.SLL, variables, ids, edges)


def _chorded_ring(n, chords, rng):
    # The chords' endpoints become branch points, which split the ring
    # into ordinary runs.
    ids = [f"r{i:03d}" for i in range(n)]
    rng.shuffle(ids)
    edges = {ne(ids[i], ids[(i + 1) % n]) for i in range(n)}
    edges |= {ne(*rng.sample(ids, 2)) for _ in range(chords)}
    variables = [f"v{k}" for k in range(rng.randint(0, 2))]
    edges |= {ve(v, rng.choice(ids)) for v in variables}
    return comp(Layout.C, variables, ids, edges)


def _perfect_tree(levels, chords, extra, rng):
    # Heap-ordered ids: node i has children 2i+1 and 2i+2.  Chords join
    # nodes of equal depth or point back up, and extra leaves hang off the
    # last inner level as further l/r children (so a parent can have two
    # children of one label, and folds nothing); either way the tree stays
    # valid.
    n = 2**levels - 1
    nodes = [f"t{i:03d}" for i in range(n)]
    edges = {ve("R", nodes[0])}
    edges |= {te(nodes[i], nodes[2 * i + 1], "l") for i in range(n // 2)}
    edges |= {te(nodes[i], nodes[2 * i + 2], "r") for i in range(n // 2)}
    for _ in range(chords):
        a, b = sorted(rng.sample(range(1, n), 2), reverse=True)
        edges.add(te(nodes[a], nodes[b], rng.choice("lr")))
    for j in range(extra):
        parent = nodes[rng.randrange(n // 4, n // 2)]
        nodes.append(f"x{j:02d}")
        edges.add(te(parent, nodes[-1], rng.choice("lr")))
    return comp(Layout.T, {"R"}, nodes, edges)


def test_fixtures_and_golden_match_oracle():
    for name in ("fig1_sll.json", "fig2_tree.json", "fig3_cycle.json", "fig4_dag.json"):
        _assert_matches_with_reabstraction(load_component(name))
    golden = parse_heap((GOLDEN_DIR / "fig3_abstract.json").read_text(encoding="utf-8"))
    for c in golden.components:
        _assert_matches_with_reabstraction(c)


def _acceptance_corpus(layout):
    rng = random.Random(ACCEPTANCE_SEEDS[layout])
    return [random_component(rng, layout, max_nodes=30) for _ in range(1000)]


def _large_corpus():
    rng = random.Random(505)
    for layout in Layout:
        for _ in range(100):
            yield random_component(rng, layout, max_nodes=120)
    for n in (2, 3, 17, 120):
        yield _unpointed_ring(n)
    for branches in (1, 2, 3):
        for length in (1, 3, 10):
            yield _converging_list(branches, length, rng)
    for _ in range(200):
        yield _converging_forest(rng.randint(2, 60), rng)
    for _ in range(150):
        n = rng.randint(3, 60)
        yield _chorded_ring(n, rng.randint(1, 4), rng)
    for levels in (2, 4, 7):
        for chords in (0, 1, 3):
            for extra in (0, 2, 12):
                yield _perfect_tree(levels, chords, extra, rng)


def test_acceptance_corpora_match_oracle():
    for layout, seed in ACCEPTANCE_SEEDS.items():
        ids_rng = random.Random(-seed)
        for c in _acceptance_corpus(layout):
            _assert_matches_with_reabstraction(c)
            # The same component under ids given in no particular order, so
            # that every tie-break and the merge log follow code-point order.
            ids = ids_rng.sample(RANK_ORDER_IDS, len(c.nodes))
            _assert_matches_with_reabstraction(relabel(c, dict(zip(sorted(c.nodes), ids))))


def test_large_components_match_oracle():
    for c in _large_corpus():
        _assert_matches_with_reabstraction(c)


def _branching_tree(n, rng):
    # Each node hangs off a random earlier one under a random label, so a
    # node can have several children of one label, or one child under both
    # labels.  An extra edge either gives a node a second parent one level
    # up or is a chord that does not descend; chords and variables make
    # some nodes special.
    nodes = [f"b{i:02d}" for i in range(n)]
    rng.shuffle(nodes)
    depth = {nodes[0]: 0}
    edges = {ve("R", nodes[0])}
    for i in range(1, n):
        parent = nodes[rng.randrange(i)]
        depth[nodes[i]] = depth[parent] + 1
        edges |= {te(parent, nodes[i], label) for label in rng.choice(["l", "r", "lr"])}
    for _ in range(rng.randint(0, 3)):
        a, b = rng.sample(nodes, 2)
        if depth[a] >= depth[b] or depth[a] + 1 == depth[b]:  # either keeps depths
            edges.add(te(a, b, rng.choice("lr")))
    variables = [f"v{k}" for k in range(rng.randint(0, 2))]
    edges |= {ve(v, rng.choice(nodes)) for v in variables}
    return comp(Layout.T, {"R", *variables}, nodes, edges)


def _branching_trees():
    rng = random.Random(606)
    for _ in range(400):
        yield _branching_tree(rng.randint(3, 40), rng)


def test_tree_fold_matches_oracle_on_branching_trees():
    # Only a binary-tree node folds: a has two l children, so it folds
    # nothing and both keep their names, whichever sorts first; b's own
    # pair folds into b.  So the two namings give isomorphic outputs.
    named = {te("R", "a", "l"), te("a", "b", "l"), te("a", "b2", "l"), te("a", "c", "r")}
    named |= {te("b", "e", "l"), te("b", "f", "r"), ve("x", "R")}
    seven = comp(Layout.T, {"x"}, {"R", "a", "b", "b2", "c", "e", "f"}, named)
    folded = named - {te("b", "e", "l"), te("b", "f", "r")}
    folded |= {te("b", "b", "l"), te("b", "b", "r")}
    expected = comp(Layout.T, {"x"}, {"R", "a", "b", "b2", "c"}, folded)
    outputs = []
    for mapping in ({}, {"b": "b9", "b2": "b0"}):
        output = _assert_matches_oracle(relabel(seven, mapping))
        assert output == relabel(expected, mapping)
        _assert_matches_oracle(output)
        outputs.append(output)
    assert isomorphic(*outputs)
    for c in _branching_trees():
        _assert_matches_with_reabstraction(c)


def test_outputs_do_not_depend_on_node_names():
    # Renaming a component's nodes renames its output, up to isomorphism,
    # on the acceptance and oracle corpora of every layout.  A tree's
    # output is its normal form: abstracting it again merges nothing.
    rng = random.Random(11)
    corpora = chain(*map(_acceptance_corpus, Layout), _large_corpus(), _branching_trees())
    for c in corpora:
        output = abstract_component(c).output
        mapping = random_relabeling(rng, c)
        assert isomorphic(abstract_component(relabel(c, mapping)).output, relabel(output, mapping))
        if c.layout is Layout.T:
            assert abstract_component(output).merge_log == ()


def test_tree_fold_where_two_parents_on_a_level_share_a_child():
    # w hangs off p and q, both on level 2, so neither p's pair nor q's is
    # detachable.  s on that level folds its pair, and B then folds s and t.
    kept = {ve("x", "R"), te("R", "A", "l"), te("R", "B", "r"), te("A", "p", "l")}
    kept |= {te("A", "q", "r"), te("p", "p1", "l"), te("p", "w", "r"), te("q", "w", "l")}
    kept |= {te("q", "q1", "r")}
    folded = {te("B", "s", "l"), te("B", "t", "r"), te("s", "s1", "l"), te("s", "s2", "r")}
    nodes = {"R", "A", "B", "p", "p1", "q", "q1", "w"}
    c = comp(Layout.T, {"x"}, nodes | {"s", "s1", "s2", "t"}, kept | folded)
    result = abstract_component(c)
    log = [(ev.survivor, ev.removed) for ev in result.merge_log]
    assert log == [("s", ("s1", "s2")), ("B", ("s", "t"))]
    loops = {te("B", "B", "l"), te("B", "B", "r")}
    assert result.output == comp(Layout.T, {"x"}, nodes, kept | loops)
    _assert_matches_with_reabstraction(c)


def _count_calls(argv, functions):
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        code = run(argv)
    finally:
        profiler.disable()
    counts = {f: 0 for f in functions}
    by_code = {f.__code__: f for f in functions}
    for entry in profiler.getstats():
        if entry.code in by_code:
            counts[by_code[entry.code]] += entry.callcount
    return code, counts


@pytest.mark.parametrize("command", ["abstract", "classify"])
def test_cli_abstract_indexes_validates_and_classifies_once(command, tmp_path):
    rng = random.Random(7)
    components = [
        GENERATORS[layout](rng, max_nodes=25, prefix=f"k{i}x")
        for i, layout in enumerate([*Layout, *Layout])
    ]
    heap_path = tmp_path / "heap.json"
    heap_path.write_text(serialize_heap(Heap(tuple(components))), encoding="utf-8")
    watched = (
        ComponentIndex.__init__,
        validate_component,
        node_classes,
        Component.__post_init__,
    )
    argv = [command, str(heap_path)]
    if command == "abstract":
        argv += ["--out", str(tmp_path / "out.json")]
    # An unmerged component is its own output, so only merged ones build another.
    merged = sum(1 for c in components if abstract_component(c).merge_log)
    code, counts = _count_calls(argv, watched)
    n = len(components)
    assert code == 0
    assert counts == {
        ComponentIndex.__init__: n,
        validate_component: n,
        node_classes: n,
        # The parsed components, plus the abstract ones that merged.
        Component.__post_init__: n + merged if command == "abstract" else n,
    }


OUTSIDE = ("ghost", "ghost2")  # ids of no component


def _random_edge(rng, nodes: list, variables: list):
    # An edge of any kind between ``nodes`` (from ``variables``, for a variable edge).
    a, b = rng.choice(nodes), rng.choice(nodes)
    kind = rng.randrange(3)
    if kind == 2 and variables:
        return VarEdge(rng.choice(variables), b)
    return TreeEdge(a, b, rng.choice("lr")) if kind == 1 else NodeEdge(a, b)


def _corrupted(rng, c: Component):
    """The target and witness of ``c``'s abstraction, corrupted at random."""
    result = abstract_component(c)
    target, node_map = result.output, dict(result.witness.node_map)
    if rng.random() < 0.2 and target.edges:
        dropped = rng.choice(sorted(target.edges))
        target = Component(target.layout, target.vars, target.nodes, target.edges - {dropped})
    images = [*sorted(target.nodes), *OUTSIDE]
    for _ in range(rng.randint(0, 3)):
        way = rng.randrange(3)
        if way == 0 and node_map:  # redrawn, to a target id or an outside one
            node_map[rng.choice(sorted(node_map))] = rng.choice(images)
        elif way == 1 and node_map:  # deleted
            del node_map[rng.choice(sorted(node_map))]
        elif way == 2:  # a key that is no source node
            node_map[rng.choice(["extra", *OUTSIDE])] = rng.choice(images)
    if rng.random() < 0.25:
        return target, Witness._forced(c, node_map)
    if rng.random() < 0.5:
        edge_map = dict(result.witness.edge_map)
    else:  # the images the corrupted node map forces, where it maps both ends
        edge_map = {e: e.image(node_map) for e in c.edges if node_map.keys() >= set(e.ends)}
    sources = sorted(edge_map)
    target_ids, target_vars = [*sorted(target.nodes), *OUTSIDE], sorted(target.vars) or ["x"]
    for _ in range(rng.randint(0, 4)):
        way = rng.randrange(4)
        if way == 0 and sources:  # dropped
            edge_map.pop(rng.choice(sources), None)
        elif way == 1 and sources and target.edges:  # redrawn to a target edge of any kind
            edge_map[rng.choice(sources)] = rng.choice(sorted(target.edges))
        elif way == 2 and sources:  # redrawn to an edge of any kind, maybe at an outside id
            edge_map[rng.choice(sources)] = _random_edge(rng, target_ids, target_vars)
        elif way == 3:  # added, for an edge the source lacks
            e = _random_edge(rng, [*sorted(c.nodes), *OUTSIDE], sorted(c.vars) or ["x"])
            if e not in c.edges:
                edge_map[e] = _random_edge(rng, target_ids, target_vars)
    w = Witness(node_map, edge_map)
    if rng.random() < 0.5:  # read back from its document
        (w,) = parse_witnesses(serialize_witnesses([w]))
    return target, w


def test_witness_checker_matches_edge_by_edge_oracle():
    # Forced witnesses over redrawn node maps and edge maps of either origin, half of
    # them read back from a document: the same findings, in the same order,
    # with the same details.
    rng = random.Random(606)
    judged = flagged = 0
    for layout in Layout:
        for _ in range(300):
            c = random_component(rng, layout, max_nodes=14)
            target, w = _corrupted(rng, c)
            found = check_valid_abstraction(c, target, w)
            expected = oracle.check_valid_abstraction(c, target, w)
            assert [(v.code, v.detail) for v in found] == [(v.code, v.detail) for v in expected]
            judged += 1
            flagged += bool(found)
    assert judged >= 1000 and flagged > 0.8 * judged

    # An image that is no edge: the reference judges any hashable value, so
    # a plain tuple passes as the edge it equals and a string is a wrong,
    # missing image that covers nothing; the library refuses both, naming
    # the entry.
    c = Component(Layout.SLL, {"x"}, {"a", "b"}, {VarEdge("x", "a"), NodeEdge("a", "b")})
    node_map = {"a": "a", "b": "b"}
    string_codes = ["EdgeMapIncompatible", "ImageEdgeMissing", "EdgeMapNotOnto"]
    for odd, expected in ((("node", "a", "b"), []), ("a", string_codes)):
        w = Witness(node_map, {VarEdge("x", "a"): VarEdge("x", "a"), NodeEdge("a", "b"): odd})
        assert [v.code for v in oracle.check_valid_abstraction(c, c, w)] == expected
        with pytest.raises(TypeError, match=r"edge \(a,b\) maps to .*, which is not an edge"):
            check_valid_abstraction(c, c, w)
