"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they happen.  Randomized criteria use fixed seeds, so every run
exercises the same instances.
"""

import itertools
import json
import random
import time
from contextlib import contextmanager

import pytest

from conftest import FIXTURE_DIR
from genheaps import comp, ne, random_component, te, ve
from heapabstract import (
    Component,
    Layout,
    NodeEdge,
    TreeEdge,
    VarEdge,
    Witness,
    abstract_component,
    abstract_cycle,
    abstract_dag,
    abstract_sll,
    abstract_tree,
    check_valid_abstraction,
    compose,
    find_witness_bruteforce,
    identity_witness,
    isomorphic,
    ordinary_nodes,
    parse_heap,
    serialize_heap,
)
from heapabstract.cli import run

LAYOUT_SEEDS = {Layout.SLL: 101, Layout.T: 202, Layout.C: 303, Layout.DAG: 404}


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"criterion {number}: FAIL - {description}")
        raise
    print(f"criterion {number}: PASS - {description}")


class BulkRuns:
    """The criterion-5 corpus: 1000 random valid components per layout."""

    def __init__(self):
        start = time.perf_counter()
        self.runs = {}
        for layout, seed in LAYOUT_SEEDS.items():
            rng = random.Random(seed)
            pairs = []
            for _ in range(1000):
                c = random_component(rng, layout, max_nodes=30)
                pairs.append((c, abstract_component(c)))
            self.runs[layout] = pairs
        self.build_seconds = time.perf_counter() - start


@pytest.fixture(scope="module")
def bulk():
    return BulkRuns()


def test_criterion_1_sll_figure(fig1):
    with criterion(1, "list figure reproduced, 8 nodes down to 4, under 1 s"):
        start = time.perf_counter()
        result = abstract_sll(fig1)
        elapsed = time.perf_counter() - start
        assert len(result.output.nodes) == 4
        assert result.output.edges == frozenset(
            {
                ve("s", "h0"),
                ve("e", "h7"),
                ne("h0", "h1"),
                ne("h1", "h1"),
                ne("h1", "h6"),
                ne("h6", "h7"),
                ne("h7", "h6"),
            }
        )
        drawn = comp(
            Layout.SLL,
            vars={"s", "e"},
            nodes={"i0", "i1", "i2", "i3"},
            edges={
                ve("s", "i0"),
                ve("e", "i3"),
                ne("i0", "i1"),
                ne("i1", "i1"),
                ne("i1", "i2"),
                ne("i2", "i3"),
                ne("i3", "i2"),
            },
        )
        assert isomorphic(result.output, drawn)
        assert elapsed < 1.0


def test_criterion_2_cycle_figure(fig3):
    with criterion(2, "cycle figure reproduced, 8 nodes down to 4"):
        result = abstract_cycle(fig3)
        assert len(result.output.nodes) == 4
        drawn = comp(
            Layout.C,
            vars={"s"},
            nodes={"i0", "i1", "i2", "i3"},
            edges={
                ve("s", "i0"),
                ne("i0", "i1"),
                ne("i1", "i2"),
                ne("i2", "i2"),
                ne("i2", "i3"),
                ne("i3", "i0"),
                ne("i3", "i1"),
            },
        )
        assert isomorphic(result.output, drawn)


def test_criterion_3_tree_figure(fig2):
    with criterion(3, "tree figure reproduced as the drawn 9-node structure, under 1 s"):
        start = time.perf_counter()
        result = abstract_tree(fig2)
        elapsed = time.perf_counter() - start
        assert result.output.nodes == {
            "h0",
            "h1",
            "h2",
            "h5",
            "h6",
            "h11",
            "h12",
            "h13",
            "h14",
        }
        assert result.output.edges == frozenset(
            {
                ve("R", "h0"),
                te("h0", "h1", "l"),
                te("h0", "h2", "r"),
                te("h1", "h1", "l"),
                te("h1", "h1", "r"),
                te("h2", "h5", "l"),
                te("h2", "h6", "r"),
                te("h5", "h6", "r"),
                te("h5", "h11", "l"),
                te("h5", "h12", "r"),
                te("h6", "h13", "l"),
                te("h6", "h14", "r"),
            }
        )
        assert elapsed < 1.0


def test_criterion_4_dag_figure(fig4):
    with criterion(4, "DAG figure yields the 3-node result with a self edge, under 1 s"):
        start = time.perf_counter()
        result = abstract_dag(fig4)
        elapsed = time.perf_counter() - start
        assert result.output.nodes == {"h0", "h1", "h7"}
        assert result.output.edges == frozenset(
            {ve("s", "h0"), ne("h0", "h1"), ne("h1", "h1"), ne("h7", "h1")}
        )
        assert elapsed < 1.0


def test_criterion_5_witness_soundness(bulk):
    with criterion(5, "4000 random components abstract with 0 witness violations, under 60 s"):
        start = time.perf_counter()
        failures = 0
        for layout in Layout:
            for c, result in bulk.runs[layout]:
                if check_valid_abstraction(c, result.output, result.witness):
                    failures += 1
        check_seconds = time.perf_counter() - start
        assert failures == 0
        assert bulk.build_seconds + check_seconds < 60.0


def _mutate_target(rng, target):
    """One random mutation of an abstraction output."""
    choice = rng.randrange(5)
    edges = set(target.edges)
    nodes = set(target.nodes)
    node_edges = sorted(
        (e for e in target.node_edges()),
        key=lambda e: (e.src, e.dst, getattr(e, "label", "")),
    )
    if choice == 0 and node_edges:
        edges.discard(rng.choice(node_edges))
    elif choice == 1 and len(nodes) >= 2:
        a, b = rng.sample(sorted(nodes), 2)
        if target.layout is Layout.T:
            edges.add(TreeEdge(a, b, rng.choice("lr")))
        else:
            edges.add(NodeEdge(a, b))
    elif choice == 2:
        nodes.add("mut_fresh")
    elif choice == 3:
        var_edges = sorted(
            (e for e in target.edges if isinstance(e, VarEdge)),
            key=lambda e: (e.var, e.target),
        )
        if var_edges and nodes:
            victim = rng.choice(var_edges)
            edges.discard(victim)
            edges.add(VarEdge(victim.var, rng.choice(sorted(nodes))))
    else:
        pointed = {e.target for e in target.edges if isinstance(e, VarEdge)}
        droppable = sorted(nodes - pointed)
        if droppable:
            victim = rng.choice(droppable)
            nodes.discard(victim)
            edges = {
                e
                for e in edges
                if isinstance(e, VarEdge) or (e.src != victim and e.dst != victim)
            }
    return Component(target.layout, target.vars, frozenset(nodes), frozenset(edges))


def _flagged_invalid_under_every_witness(source, target):
    """Exhaustively enumerate forced witnesses and run each through the checker."""
    if source.layout is not target.layout or source.vars != target.vars:
        return True
    src_nodes = sorted(source.nodes)
    for image in itertools.product(sorted(target.nodes), repeat=len(src_nodes)):
        if set(image) != set(target.nodes):
            continue
        node_map = dict(zip(src_nodes, image))
        w = Witness(node_map, {e: e.image(node_map) for e in source.edges})
        if not check_valid_abstraction(source, target, w):
            return False
    return True


def test_criterion_6_oracle_agreement():
    with criterion(6, "brute-force oracle agrees with the checker on 1500+ pairs"):
        disagreements = 0
        for layout in Layout:
            rng = random.Random(LAYOUT_SEEDS[layout] + 1)
            for _ in range(300):
                c = random_component(rng, layout, max_nodes=8)
                result = abstract_component(c)
                found = find_witness_bruteforce(c, result.output)
                if found is None:
                    disagreements += 1
                elif check_valid_abstraction(c, result.output, found):
                    disagreements += 1

        negatives = 0
        for layout in Layout:
            rng = random.Random(LAYOUT_SEEDS[layout] + 2)
            produced = 0
            attempts = 0
            while produced < 75:
                attempts += 1
                assert attempts < 5000, "mutations keep yielding valid pairs"
                c = random_component(rng, layout, max_nodes=5)
                target = _mutate_target(rng, abstract_component(c).output)
                if not _flagged_invalid_under_every_witness(c, target):
                    continue
                produced += 1
                negatives += 1
                if find_witness_bruteforce(c, target) is not None:
                    disagreements += 1
        assert negatives == 300
        assert disagreements == 0


def test_criterion_7_termination_bounds(bulk):
    with criterion(7, "merge counters stay within their proven bounds on all runs"):
        for layout in Layout:
            for c, result in bulk.runs[layout]:
                m = len(ordinary_nodes(c))
                if layout in (Layout.SLL, Layout.C):
                    assert len(result.merge_log) <= max(m - 1, 0)
                elif layout is Layout.T:
                    assert len(result.merge_log) <= m // 2
                else:
                    removed = sum(len(ev.removed) for ev in result.merge_log)
                    assert removed <= m


def test_criterion_8_transitivity():
    with criterion(8, "composed witnesses validate end to end on 200 random components"):
        failures = 0
        for layout in Layout:
            rng = random.Random(LAYOUT_SEEDS[layout] + 3)
            for _ in range(50):
                c = random_component(rng, layout, max_nodes=20)
                first = abstract_component(c)
                assert compose(first.witness, identity_witness(first.output)) == first.witness
                second = abstract_component(first.output)
                w2 = second.witness if second.merge_log else identity_witness(first.output)
                chained = compose(first.witness, w2)
                final = second.output if second.merge_log else first.output
                if check_valid_abstraction(c, final, chained):
                    failures += 1
        assert failures == 0


def test_criterion_9_idempotence(bulk, fig1, fig2, fig3, fig4):
    with criterion(9, "second abstraction pass is isomorphic to the first on all instances"):
        for c in (fig1, fig2, fig3, fig4):
            once = abstract_component(c)
            twice = abstract_component(once.output)
            assert isomorphic(once.output, twice.output)
        for layout in Layout:
            for c, result in bulk.runs[layout][:200]:
                again = abstract_component(result.output)
                assert isomorphic(result.output, again.output)


def test_criterion_10_io_and_cli_matrix(tmp_path, capsys):
    with criterion(10, "canonical serialization round-trips; CLI exit codes match the table"):
        for name in (
            "fig1_sll.json",
            "fig2_tree.json",
            "fig3_cycle.json",
            "fig4_dag.json",
        ):
            text = (FIXTURE_DIR / name).read_text(encoding="utf-8")
            heap = parse_heap(text)
            assert serialize_heap(heap) == text
            assert parse_heap(serialize_heap(heap)) == heap

        fig1_path = str(FIXTURE_DIR / "fig1_sll.json")
        out_path = tmp_path / "abs.json"
        wit_path = tmp_path / "wit.json"
        assert run(["abstract", fig1_path, "--out", str(out_path), "--witness", str(wit_path)]) == 0

        tampered = tmp_path / "tampered.json"
        doc = json.loads(wit_path.read_text(encoding="utf-8"))
        doc["witnesses"][0]["node_map"]["h6"] = "h7"
        tampered.write_text(json.dumps(doc), encoding="utf-8")

        matrix = [
            (["validate", fig1_path], 0),
            (["abstract", fig1_path], 0),
            (["check-witness", fig1_path, str(out_path), str(wit_path)], 0),
            (["check-valid", fig1_path, str(out_path)], 0),
            (["check-witness", fig1_path, str(out_path), str(tampered)], 1),
            (["validate", str(FIXTURE_DIR / "broken_sll_labeled_edge.json")], 2),
            (["validate", str(FIXTURE_DIR / "broken_cycle_acyclic.json")], 2),
            (["abstract", str(tmp_path / "missing.json")], 2),
        ]
        observed = [(argv, run(argv)) for argv, _ in matrix]
        capsys.readouterr()
        assert [(argv, want) for argv, want in matrix] == observed
