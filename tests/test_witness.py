"""Tests for witness checking, composition, search, and isomorphism."""

import itertools
import random

import pytest

from genheaps import comp, ne, random_component, random_relabeling, relabel, te, ve
from heapabstract import (
    BudgetExceededError,
    Component,
    DomainMismatchError,
    Heap,
    Layout,
    Witness,
    abstract_component,
    check_valid_abstraction,
    compose,
    find_witness_bruteforce,
    identity_witness,
    isomorphic,
    serialize_heap,
)
from heapabstract.cli import run


def codes(violations):
    return [v.code for v in violations]


class TestCheckValidAbstraction:
    def test_produced_witness_validates(self, fig1):
        result = abstract_component(fig1)
        assert check_valid_abstraction(fig1, result.output, result.witness) == []

    def test_identity_is_valid(self, fig1, fig2, fig3, fig4):
        for c in (fig1, fig2, fig3, fig4):
            assert check_valid_abstraction(c, c, identity_witness(c)) == []

    def test_missing_image_edge_detected(self, fig1):
        result = abstract_component(fig1)
        target = Component(
            result.output.layout,
            result.output.vars,
            result.output.nodes,
            result.output.edges - {ne("h1", "h6")},
        )
        found = codes(check_valid_abstraction(fig1, target, result.witness))
        assert found
        assert set(found) <= {"EdgeMapNotOnto", "ImageEdgeMissing"}

    def test_layout_and_vars_checked(self, fig1):
        w = identity_witness(fig1)
        as_cycle = Component(Layout.C, fig1.vars, fig1.nodes, fig1.edges)
        assert "LayoutMismatch" in codes(check_valid_abstraction(fig1, as_cycle, w))
        fewer_vars = Component(
            fig1.layout,
            fig1.vars - {"e"},
            fig1.nodes,
            frozenset(e for e in fig1.edges if getattr(e, "var", None) != "e"),
        )
        w2 = identity_witness(fewer_vars)
        assert "VariableSetMismatch" in codes(
            check_valid_abstraction(fig1, fewer_vars, w2)
        )

    def test_totality_checked(self, fig1):
        w = identity_witness(fig1)
        partial_nodes = Witness(
            {n: n for n in fig1.nodes if n != "h3"}, dict(w.edge_map)
        )
        assert "NodeMapNotTotal" in codes(
            check_valid_abstraction(fig1, fig1, partial_nodes)
        )
        partial_edges = Witness(
            dict(w.node_map),
            {e: e for e in fig1.edges if e != ne("h0", "h1")},
        )
        assert "EdgeMapNotTotal" in codes(
            check_valid_abstraction(fig1, fig1, partial_edges)
        )

    def test_onto_checked(self, fig1):
        # Collapsing h1 into h0 covers neither node h1 nor its edges.
        node_map = {n: ("h0" if n == "h1" else n) for n in fig1.nodes}
        w = Witness(node_map, {e: e.image(node_map) for e in fig1.edges})
        found = codes(check_valid_abstraction(fig1, fig1, w))
        assert "NodeMapNotOnto" in found

    def test_unknown_node_image(self, fig1):
        w = identity_witness(fig1)
        node_map = dict(w.node_map)
        node_map["h3"] = "ghost"
        bad = Witness(node_map, dict(w.edge_map))
        assert "NodeMapImageUnknown" in codes(check_valid_abstraction(fig1, fig1, bad))

    def test_ghost_node_and_edge(self, fig1):
        result = abstract_component(fig1)
        w = result.witness
        ghost = ne("ghost", "ghost2")
        bad = Witness({**w.node_map, "ghost": "h1"}, {**w.edge_map, ghost: ne("h1", "h1")})
        found = check_valid_abstraction(fig1, result.output, bad)
        assert [(v.code, v.detail) for v in found] == [
            ("NodeMapDomainUnknown", "node ghost is not a source node"),
            ("EdgeMapDomainUnknown", "edge (ghost,ghost2) is not a source edge"),
        ]

    def test_ghost_in_a_map_of_the_source_size(self, fig1):
        # A ghost that replaces an unmapped id leaves each map as large as
        # the source; it is found all the same, in the order of the checks.
        w = identity_witness(fig1)
        node_map = {**w.node_map, "ghost": "h3"}
        del node_map["h3"]
        edge_map = {**w.edge_map, ne("h0", "h9"): ne("h0", "h1")}
        del edge_map[ne("h0", "h1")]
        found = check_valid_abstraction(fig1, fig1, Witness(node_map, edge_map))
        assert codes(found)[:2] == ["NodeMapNotTotal", "NodeMapDomainUnknown"]
        edge_codes = [v.code for v in found if v.code.startswith("EdgeMap")]
        assert edge_codes[:2] == ["EdgeMapNotTotal", "EdgeMapDomainUnknown"]

    def test_incompatible_edge_map(self, fig1):
        w = identity_witness(fig1)
        edge_map = dict(w.edge_map)
        edge_map[ne("h0", "h1")] = ne("h1", "h2")
        bad = Witness(dict(w.node_map), edge_map)
        assert "EdgeMapIncompatible" in codes(check_valid_abstraction(fig1, fig1, bad))

    def test_edge_findings_in_edge_order(self):
        # Findings follow the edge order, and one edge's findings the order
        # of its checks, however the edge set iterates.
        nodes = [f"n{i:02d}" for i in range(40)]
        edges = {ne(a, b) for a, b in zip(nodes, nodes[1:])} | {ve("v", nodes[0])}
        c = comp(Layout.SLL, {"v"}, nodes, edges)
        w = identity_witness(c)
        dropped = {ne(a, b) for a, b in zip(nodes[::3], nodes[1::3])}
        edge_map = {e: img for e, img in w.edge_map.items() if e not in dropped}
        edge_map[ne("n01", "n02")] = ne("n05", "n09")
        found = check_valid_abstraction(c, c, Witness(dict(w.node_map), edge_map))
        unmapped = [f"edge ({e.src},{e.dst}) is unmapped" for e in sorted(dropped)]
        assert [v.detail for v in found if v.code == "EdgeMapNotTotal"] == unmapped
        assert codes(found)[:4] == [
            "EdgeMapNotTotal",  # (n00,n01)
            "EdgeMapIncompatible",  # (n01,n02)
            "ImageEdgeMissing",  # (n01,n02)
            "EdgeMapNotTotal",  # (n03,n04)
        ]

    def test_uncovered_plain_edge_detected(self, fig1):
        target = Component(
            fig1.layout, fig1.vars, fig1.nodes, fig1.edges | {ne("h0", "h3")}
        )
        w = identity_witness(fig1)
        assert "EdgeMapNotOnto" in codes(check_valid_abstraction(fig1, target, w))

    def test_self_edge_on_unmerged_node_needs_preimage(self, fig1):
        target = Component(
            fig1.layout, fig1.vars, fig1.nodes, fig1.edges | {ne("h3", "h3")}
        )
        w = identity_witness(fig1)
        assert "EdgeMapNotOnto" in codes(check_valid_abstraction(fig1, target, w))

    def test_self_edge_on_merged_node_is_allowed(self):
        # The DAG abstraction introduces exactly this shape: a merged
        # group with no internal edges gains a self edge.
        source = comp(
            Layout.DAG,
            vars={"v"},
            nodes={"a", "b", "c"},
            edges={ve("v", "a"), ne("a", "b"), ne("a", "c")},
        )
        result = abstract_component(source)
        assert ne("b", "b") in result.output.edges
        assert check_valid_abstraction(source, result.output, result.witness) == []


class TestCompose:
    def test_identity_laws(self, fig1):
        result = abstract_component(fig1)
        w = result.witness
        left = compose(identity_witness(fig1), w)
        assert left == w
        right = compose(w, identity_witness(result.output))
        assert right == w

    def test_stepwise_composition_matches_full_run(self, fig1):
        # One merge done by hand, the rest by the algorithm; composing the
        # two witnesses reproduces the full run's witness.
        first_map = {n: ("h1" if n == "h2" else n) for n in fig1.nodes}
        intermediate = Component(
            fig1.layout,
            fig1.vars,
            fig1.nodes - {"h2"},
            frozenset(
                {e.image(first_map) for e in fig1.edges if e != ne("h1", "h2")}
            )
            | {ne("h1", "h1")},
        )
        w1 = Witness(first_map, {e: e.image(first_map) for e in fig1.edges})
        assert check_valid_abstraction(fig1, intermediate, w1) == []
        rest = abstract_component(intermediate)
        combined = compose(w1, rest.witness)
        full = abstract_component(fig1)
        assert combined == full.witness
        assert check_valid_abstraction(fig1, rest.output, combined) == []

    def test_domain_mismatch(self, fig1, fig3):
        with pytest.raises(DomainMismatchError):
            compose(identity_witness(fig1), identity_witness(fig3))

    @pytest.mark.parametrize(
        "keep_nodes, keep_edges, message",
        [
            (6, False, "edge (n0,n1) is not in the second witness's domain"),
            (3, True, "node n3 is not in the second witness's domain"),
        ],
    )
    def test_domain_mismatch_names_smallest_missing_id(self, keep_nodes, keep_edges, message):
        # The same inputs name the same id, whatever order w1's maps were
        # built in.
        nodes = [f"n{i}" for i in range(6)]
        edges = {ne(a, b) for a, b in zip(nodes, nodes[1:])} | {ve("v", "n0")}
        w = identity_witness(comp(Layout.SLL, {"v"}, nodes, edges))
        w2 = Witness({n: n for n in nodes[:keep_nodes]}, dict(w.edge_map) if keep_edges else {})
        messages = set()
        for reverse in (False, True):
            w1 = Witness(
                dict(sorted(w.node_map.items(), reverse=reverse)),
                dict(sorted(w.edge_map.items(), reverse=reverse)),
            )
            with pytest.raises(DomainMismatchError) as exc:
                compose(w1, w2)
            messages.add(str(exc.value))
        assert messages == {message}

    def test_transitivity_random(self):
        rng = random.Random(37)
        for layout in Layout:
            for _ in range(15):
                c = random_component(rng, layout, max_nodes=12)
                first = abstract_component(c)
                second = abstract_component(first.output)
                assert check_valid_abstraction(c, first.output, first.witness) == []
                assert (
                    check_valid_abstraction(
                        first.output, second.output, second.witness
                    )
                    == []
                )
                chained = compose(first.witness, second.witness)
                assert check_valid_abstraction(c, second.output, chained) == []


class TestIdentityWitness:
    def test_empty_component(self):
        w = identity_witness(comp(Layout.SLL))
        assert w.node_map == {}
        assert w.edge_map == {}

    def test_fig1_sizes(self, fig1):
        w = identity_witness(fig1)
        assert len(w.node_map) == 8
        assert len(w.edge_map) == 10

    def test_always_validates(self):
        rng = random.Random(41)
        for layout in Layout:
            c = random_component(rng, layout, max_nodes=10)
            assert check_valid_abstraction(c, c, identity_witness(c)) == []


class TestBruteForce:
    def test_ring_of_four(self):
        c = comp(
            Layout.C,
            vars={"v"},
            nodes={"a", "b", "c", "d"},
            edges={ve("v", "a"), ne("a", "b"), ne("b", "c"), ne("c", "d"), ne("d", "a")},
        )
        result = abstract_component(c)
        found = find_witness_bruteforce(c, result.output)
        assert found is not None
        assert check_valid_abstraction(c, result.output, found) == []

    def test_reflexive_pair(self, fig1):
        found = find_witness_bruteforce(fig1, fig1)
        assert found is not None
        assert check_valid_abstraction(fig1, fig1, found) == []

    def test_chain_to_chain_without_self_edge(self):
        source = comp(
            Layout.SLL,
            nodes={"a", "b", "c"},
            edges={ne("a", "b"), ne("b", "c")},
        )
        target = comp(Layout.SLL, nodes={"x", "y"}, edges={ne("x", "y")})
        assert find_witness_bruteforce(source, target) is None

    def test_budget_guard(self, fig2):
        with pytest.raises(BudgetExceededError):
            find_witness_bruteforce(fig2, fig2)
        assert find_witness_bruteforce(fig2, fig2, node_budget=15) is not None

    def test_layout_or_vars_mismatch_is_no(self, fig1):
        as_cycle = Component(Layout.C, fig1.vars, fig1.nodes, fig1.edges)
        assert find_witness_bruteforce(fig1, as_cycle) is None

    def test_empty_components(self):
        empty = comp(Layout.SLL)
        assert find_witness_bruteforce(empty, empty) == Witness({}, {})
        assert find_witness_bruteforce(empty, comp(Layout.SLL, nodes={"a"})) is None

    def test_agrees_with_exhaustive_enumeration(self):
        # The oracle must say yes exactly when some forced witness passes
        # the checker, and find the first such witness in candidate order.
        rng = random.Random(43)
        for layout in Layout:
            for _ in range(8):
                source = random_component(rng, layout, max_nodes=5)
                result = abstract_component(source)
                target = result.output
                if rng.random() < 0.5 and target.node_edges():
                    dropped = sorted(target.node_edges())[0]
                    target = Component(
                        target.layout, target.vars, target.nodes, target.edges - {dropped}
                    )
                src_nodes = sorted(source.nodes)
                first = None
                for image in itertools.product(sorted(target.nodes), repeat=len(src_nodes)):
                    if set(image) != set(target.nodes):
                        continue
                    node_map = dict(zip(src_nodes, image))
                    w = Witness(node_map, {e: e.image(node_map) for e in source.edges})
                    if not check_valid_abstraction(source, target, w):
                        first = w
                        break
                assert find_witness_bruteforce(source, target) == first

    def test_long_list_without_recursion(self, tmp_path):
        # One search level per node: 1,100 levels is deeper than the
        # default recursion limit allows a frame-per-level search to go.
        nodes = [f"n{i}" for i in range(1100)]
        edges = {ne(nodes[i], nodes[i + 1]) for i in range(1099)} | {ve("v", nodes[0])}
        path = tmp_path / "list.json"
        path.write_text(serialize_heap(Heap((comp(Layout.SLL, {"v"}, nodes, edges),))))
        assert run(["check-valid", str(path), str(path), "--budget", "5000"]) == 0


class TestIsomorphic:
    def test_reflexive(self, fig1, fig2, fig3, fig4):
        for c in (fig1, fig2, fig3, fig4):
            assert isomorphic(c, c)

    def test_fig1_output_matches_drawn_abstraction(self, fig1):
        result = abstract_component(fig1)
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

    def test_extra_self_edge_breaks_isomorphism(self):
        a = comp(Layout.SLL, nodes={"a", "b"}, edges={ne("a", "b")})
        b = comp(Layout.SLL, nodes={"x", "y"}, edges={ne("x", "y"), ne("y", "y")})
        assert not isomorphic(a, b)

    def test_variable_names_must_match(self):
        a = comp(Layout.SLL, vars={"v"}, nodes={"a"}, edges={ve("v", "a")})
        b = comp(Layout.SLL, vars={"w"}, nodes={"a"}, edges={ve("w", "a")})
        assert not isomorphic(a, b)

    def test_tree_labels_matter(self):
        a = comp(Layout.T, nodes={"a", "b"}, edges={te("a", "b", "l")})
        b = comp(Layout.T, nodes={"x", "y"}, edges={te("x", "y", "r")})
        assert not isomorphic(a, b)

    def test_relabeled_components_are_isomorphic(self):
        rng = random.Random(47)
        for layout in Layout:
            for _ in range(10):
                c = random_component(rng, layout, max_nodes=14)
                renamed = relabel(c, random_relabeling(rng, c))
                assert isomorphic(c, renamed)
                assert isomorphic(renamed, c)

    def test_symmetric_and_transitive_spot_checks(self, fig3):
        rng = random.Random(53)
        c = fig3
        r1 = relabel(c, random_relabeling(rng, c, prefix="p"))
        r2 = relabel(c, random_relabeling(rng, c, prefix="q"))
        assert isomorphic(c, r1) and isomorphic(r1, c)
        assert isomorphic(r1, r2) and isomorphic(c, r2)

    def test_different_edge_counts(self, fig1):
        smaller = Component(
            fig1.layout, fig1.vars, fig1.nodes, fig1.edges - {ne("h0", "h1")}
        )
        assert not isomorphic(fig1, smaller)

    def test_long_list_without_recursion(self):
        # 3,000 nodes is deeper than the default recursion limit allows
        # a node-per-frame search to go.
        def chain(pointed):
            nodes = [f"n{i}" for i in range(3000)]
            edges = {ne(nodes[i], nodes[i + 1]) for i in range(2999)}
            return comp(Layout.SLL, {"v"}, nodes, edges | {ve("v", nodes[pointed])})

        c = chain(0)
        assert isomorphic(c, c)
        assert isomorphic(c, chain(0))
        assert not isomorphic(c, chain(1))
