"""Differential tests: the indexed algorithms against the step-wise oracle.

The oracle (``oracle.py``) is the original merge-by-merge implementation.
Output components, witnesses and merge logs must be identical, and so
must the special/ordinary classification, on the fixtures, the golden
file, the acceptance corpora, a corpus of larger components, and the
re-abstraction of every output.  A second test counts how often one CLI
run of ``abstract`` or ``classify`` builds indexes, validates, classifies
and constructs components.
"""

import cProfile
import random

import pytest

import oracle
from conftest import GOLDEN_DIR, load_component
from genheaps import GENERATORS, comp, ne, random_component, te, ve
from heapabstract import (
    Component,
    Heap,
    Layout,
    abstract_component,
    node_classes,
    parse_heap,
    serialize_heap,
    validate_component,
)
from heapabstract.cli import run
from heapabstract.model import ComponentIndex

ACCEPTANCE_SEEDS = {Layout.SLL: 101, Layout.T: 202, Layout.C: 303, Layout.DAG: 404}


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


def _perfect_tree(levels, chords, extra, rng):
    # Heap-ordered ids: node i has children 2i+1 and 2i+2.  Chords join
    # nodes of equal depth or point back up, and extra leaves hang off the
    # last inner level as further l/r children (so triples can share a
    # child); either way the tree stays valid.
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


def test_acceptance_corpora_match_oracle():
    for layout, seed in ACCEPTANCE_SEEDS.items():
        rng = random.Random(seed)
        for _ in range(1000):
            _assert_matches_with_reabstraction(random_component(rng, layout, max_nodes=30))


def test_large_components_match_oracle():
    rng = random.Random(505)
    for layout in Layout:
        for _ in range(100):
            _assert_matches_with_reabstraction(random_component(rng, layout, max_nodes=120))
    for n in (2, 3, 17, 120):
        _assert_matches_with_reabstraction(_unpointed_ring(n))
    for branches in (1, 2, 3):
        for length in (1, 3, 10):
            _assert_matches_with_reabstraction(_converging_list(branches, length, rng))
    for levels in (2, 4, 7):
        for chords in (0, 1, 3):
            for extra in (0, 2, 12):
                _assert_matches_with_reabstraction(_perfect_tree(levels, chords, extra, rng))


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
    code, counts = _count_calls(argv, watched)
    n = len(components)
    assert code == 0
    assert counts == {
        ComponentIndex.__init__: n,
        validate_component: n,
        node_classes: n,
        # The parsed components, plus the abstract ones.
        Component.__post_init__: 2 * n if command == "abstract" else n,
    }
