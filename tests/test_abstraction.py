"""Tests for the four abstraction algorithms and the heap driver."""

import random

import pytest

from genheaps import (
    comp,
    ne,
    random_component,
    random_relabeling,
    relabel,
    te,
    ve,
)
from oracle import remove_node, remove_nodes_tree
from heapabstract import (
    Heap,
    InvalidComponentError,
    Layout,
    LayoutMismatchError,
    MergeEvent,
    SameNodeError,
    UnknownNodeError,
    VarEdge,
    abstract_component,
    check_valid_abstraction,
    heap_abstract_results,
    identity_witness,
    isomorphic,
    node_classes,
    ordinary_nodes,
    validate_component,
)


class TestRemoveNode:
    def test_chain_contraction(self):
        c = comp(Layout.SLL, nodes={"a", "b", "c"}, edges={ne("a", "b"), ne("b", "c")})
        out = remove_node(c, "a", "b")
        assert out.nodes == {"a", "c"}
        assert out.edges == {ne("a", "c")}

    def test_intermediate_fig1_state(self, fig1):
        # Mid-run state of the list abstraction: h1 has absorbed h2..h4.
        c = comp(
            Layout.SLL,
            vars={"s", "e"},
            nodes={"h0", "h1", "h5", "h6", "h7"},
            edges={
                ve("s", "h0"),
                ve("e", "h7"),
                ne("h0", "h1"),
                ne("h1", "h1"),
                ne("h1", "h5"),
                ne("h5", "h6"),
                ne("h6", "h7"),
                ne("h7", "h6"),
            },
        )
        out = remove_node(c, "h1", "h5")
        assert ne("h1", "h6") in out.edges
        assert "h5" not in out.nodes

    def test_self_edge_moves_to_survivor(self):
        c = comp(Layout.SLL, nodes={"a", "b"}, edges={ne("a", "b"), ne("b", "b")})
        out = remove_node(c, "a", "b")
        assert out.edges == {ne("a", "a")}

    def test_incoming_edges_redirected(self):
        c = comp(
            Layout.DAG, nodes={"a", "b", "x"}, edges={ne("a", "b"), ne("x", "b")}
        )
        out = remove_node(c, "a", "b")
        assert out.edges == {ne("x", "a")}

    def test_var_edges_retargeted(self):
        c = comp(
            Layout.SLL, vars={"v"}, nodes={"a", "b"}, edges={ve("v", "b"), ne("a", "b")}
        )
        out = remove_node(c, "a", "b")
        assert out.edges == {ve("v", "a")}

    def test_errors(self, fig1, fig2):
        with pytest.raises(SameNodeError):
            remove_node(fig1, "h1", "h1")
        with pytest.raises(UnknownNodeError):
            remove_node(fig1, "h1", "ghost")
        with pytest.raises(LayoutMismatchError):
            remove_node(fig2, "h1", "h2")


class TestRemoveNodesTree:
    def test_three_node_tree(self):
        c = comp(
            Layout.T,
            nodes={"a", "b", "c"},
            edges={te("a", "b", "l"), te("a", "c", "r")},
        )
        out = remove_nodes_tree(c, "b", "c")
        assert out.nodes == {"a"}
        assert out.edges == frozenset()

    def test_fig2_pair(self, fig2):
        out = remove_nodes_tree(fig2, "h7", "h8")
        assert te("h3", "h7", "l") not in out.edges
        assert te("h3", "h8", "r") not in out.edges
        assert out.nodes == fig2.nodes - {"h7", "h8"}

    def test_self_edges_deleted_with_node(self):
        c = comp(
            Layout.T,
            nodes={"a", "b", "c"},
            edges={
                te("a", "b", "l"),
                te("a", "c", "r"),
                te("b", "b", "l"),
                te("b", "b", "r"),
            },
        )
        out = remove_nodes_tree(c, "b", "c")
        assert out.edges == frozenset()

    def test_errors(self, fig1, fig2):
        with pytest.raises(SameNodeError):
            remove_nodes_tree(fig2, "h7", "h7")
        with pytest.raises(UnknownNodeError):
            remove_nodes_tree(fig2, "h7", "ghost")
        with pytest.raises(LayoutMismatchError):
            remove_nodes_tree(fig1, "h1", "h2")


class TestAbstractSll:
    def test_fig1_output(self, fig1):
        result = abstract_component(fig1)
        assert result.output.nodes == {"h0", "h1", "h6", "h7"}
        assert result.output.edges == {
            ve("s", "h0"),
            ve("e", "h7"),
            ne("h0", "h1"),
            ne("h1", "h1"),
            ne("h1", "h6"),
            ne("h6", "h7"),
            ne("h7", "h6"),
        }
        assert result.merge_log == (
            MergeEvent("h1", ("h2",)),
            MergeEvent("h1", ("h3",)),
            MergeEvent("h1", ("h4",)),
            MergeEvent("h1", ("h5",)),
        )
        assert result.witness.node_map == {
            "h0": "h0",
            "h1": "h1",
            "h2": "h1",
            "h3": "h1",
            "h4": "h1",
            "h5": "h1",
            "h6": "h6",
            "h7": "h7",
        }

    def test_single_var_node_unchanged(self):
        c = comp(Layout.SLL, vars={"v"}, nodes={"a"}, edges={ve("v", "a")})
        result = abstract_component(c)
        assert result.output == c
        assert result.witness == identity_witness(c)
        assert result.merge_log == ()

    def test_short_chain(self):
        c = comp(
            Layout.SLL,
            vars={"v"},
            nodes={"a", "b", "c"},
            edges={ve("v", "a"), ne("a", "b"), ne("b", "c")},
        )
        result = abstract_component(c)
        assert result.output.nodes == {"a", "b"}
        assert result.output.edges == {ve("v", "a"), ne("a", "b"), ne("b", "b")}

    def test_rejects_invalid_component(self):
        c = comp(Layout.SLL, nodes={"a", "b"}, edges={te("a", "b", "l")})
        with pytest.raises(InvalidComponentError):
            abstract_component(c)


class TestAbstractTree:
    def test_fig2_output(self, fig2):
        result = abstract_component(fig2)
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
        assert result.output.edges == {
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
        assert result.merge_log == (
            MergeEvent("h3", ("h7", "h8")),
            MergeEvent("h4", ("h9", "h10")),
            MergeEvent("h1", ("h3", "h4")),
        )
        collapsed = {"h3", "h4", "h7", "h8", "h9", "h10"}
        for n in collapsed:
            assert result.witness.node_map[n] == "h1"

    def test_single_node_tree_unchanged(self):
        c = comp(Layout.T, vars={"R"}, nodes={"a"}, edges={ve("R", "a")})
        result = abstract_component(c)
        assert result.output == c
        assert result.merge_log == ()

    def test_empty_tree(self):
        c = comp(Layout.T)
        result = abstract_component(c)
        assert result.output == c

    def test_three_level_perfect_tree(self):
        # Depth-1 children are never folded into the root, so both survive
        # carrying their self loops.
        edges = {
            ve("R", "r"),
            te("r", "a", "l"),
            te("r", "b", "r"),
            te("a", "al", "l"),
            te("a", "ar", "r"),
            te("b", "bl", "l"),
            te("b", "br", "r"),
        }
        c = comp(Layout.T, vars={"R"}, nodes={"r", "a", "b", "al", "ar", "bl", "br"}, edges=edges)
        result = abstract_component(c)
        assert result.output.nodes == {"r", "a", "b"}
        assert result.output.edges == {
            ve("R", "r"),
            te("r", "a", "l"),
            te("r", "b", "r"),
            te("a", "a", "l"),
            te("a", "a", "r"),
            te("b", "b", "l"),
            te("b", "b", "r"),
        }

    def test_incomplete_pair_is_not_merged(self):
        # b has a lone child x; folding b,c into a would orphan x.
        edges = {
            ve("R", "r"),
            te("r", "a", "l"),
            te("r", "z", "r"),
            te("a", "b", "l"),
            te("a", "c", "r"),
            te("b", "x", "l"),
        }
        c = comp(
            Layout.T,
            vars={"R"},
            nodes={"r", "a", "b", "c", "x", "z"},
            edges=edges,
        )
        result = abstract_component(c)
        assert "x" in result.output.nodes
        assert te("b", "x", "l") in result.output.edges
        assert validate_component(result.output) == []
        assert check_valid_abstraction(c, result.output, result.witness) == []

    def test_special_child_blocks_parent_merge(self):
        # Leaves under b carry a horizontal edge, so they stay, so b must
        # stay too even though b and c are ordinary.
        edges = {
            ve("R", "r"),
            te("r", "g", "l"),
            te("r", "z", "r"),
            te("g", "b", "l"),
            te("g", "c", "r"),
            te("b", "p", "l"),
            te("b", "q", "r"),
            te("p", "q", "r"),
        }
        c = comp(
            Layout.T,
            vars={"R"},
            nodes={"r", "g", "b", "c", "p", "q", "z"},
            edges=edges,
        )
        result = abstract_component(c)
        assert {"p", "q", "b"} <= result.output.nodes
        assert validate_component(result.output) == []
        assert check_valid_abstraction(c, result.output, result.witness) == []


class TestAbstractCycle:
    def test_fig3_output(self, fig3):
        result = abstract_component(fig3)
        assert result.output.nodes == {"h0", "h1", "h2", "h7"}
        assert result.output.edges == {
            ve("s", "h0"),
            ne("h0", "h1"),
            ne("h1", "h2"),
            ne("h2", "h2"),
            ne("h2", "h7"),
            ne("h7", "h0"),
            ne("h7", "h1"),
        }
        assert result.merge_log == (
            MergeEvent("h2", ("h3",)),
            MergeEvent("h2", ("h4",)),
            MergeEvent("h2", ("h5",)),
            MergeEvent("h2", ("h6",)),
        )

    def test_ring_of_two_unchanged(self):
        c = comp(
            Layout.C,
            vars={"v"},
            nodes={"a", "b"},
            edges={ve("v", "a"), ne("a", "b"), ne("b", "a")},
        )
        result = abstract_component(c)
        assert result.output == c
        assert result.witness == identity_witness(c)

    def test_ring_of_four(self):
        c = comp(
            Layout.C,
            vars={"v"},
            nodes={"a", "b", "c", "d"},
            edges={ve("v", "a"), ne("a", "b"), ne("b", "c"), ne("c", "d"), ne("d", "a")},
        )
        result = abstract_component(c)
        assert result.output.nodes == {"a", "b"}
        assert result.output.edges == {ve("v", "a"), ne("a", "b"), ne("b", "b"), ne("b", "a")}

    def test_unpointed_ring_collapses_to_self_loop(self):
        nodes = [f"c{i}" for i in range(5)]
        edges = {ne(nodes[i], nodes[(i + 1) % 5]) for i in range(5)}
        c = comp(Layout.C, nodes=nodes, edges=edges)
        result = abstract_component(c)
        assert result.output.nodes == {"c0"}
        assert result.output.edges == {ne("c0", "c0")}
        assert check_valid_abstraction(c, result.output, result.witness) == []

    def test_rejects_invalid_cycle(self):
        c = comp(Layout.C, nodes={"a", "b"}, edges={ne("a", "b")})
        with pytest.raises(InvalidComponentError):
            abstract_component(c)


class TestAbstractDag:
    def test_fig4_output(self, fig4):
        result = abstract_component(fig4)
        assert result.output.nodes == {"h0", "h1", "h7"}
        assert result.output.edges == {
            ve("s", "h0"),
            ne("h0", "h1"),
            ne("h1", "h1"),
            ne("h7", "h1"),
        }
        assert result.merge_log == (MergeEvent("h1", ("h2", "h3", "h4", "h5", "h6")),)

    def test_dissimilar_nodes_unchanged(self):
        c = comp(
            Layout.DAG,
            nodes={"a", "b", "c"},
            edges={ne("a", "b"), ne("b", "c")},
        )
        result = abstract_component(c)
        assert result.output == c
        assert result.witness == identity_witness(c)

    def test_diamond(self):
        edges = {
            ne("a", "b"),
            ne("a", "c"),
            ne("b", "d"),
            ne("c", "d"),
            ve("v", "a"),
            ve("w", "d"),
        }
        c = comp(Layout.DAG, vars={"v", "w"}, nodes={"a", "b", "c", "d"}, edges=edges)
        result = abstract_component(c)
        assert result.output.nodes == {"a", "b", "d"}
        assert result.output.edges == {
            ve("v", "a"),
            ve("w", "d"),
            ne("a", "b"),
            ne("b", "b"),
            ne("b", "d"),
        }

    def test_rejects_cyclic_input(self, fig4):
        from heapabstract import Component

        broken = Component(fig4.layout, fig4.vars, fig4.nodes, fig4.edges | {ne("h1", "h0")})
        with pytest.raises(InvalidComponentError):
            abstract_component(broken)


def _assert_result_invariants(c, result):
    assert result.output.layout is c.layout
    assert validate_component(result.output) == []
    assert check_valid_abstraction(c, result.output, result.witness) == []
    classes = node_classes(c)
    for n, k in classes.items():
        if k.special:
            assert n in result.output.nodes
            assert result.witness.node_map[n] == n
    special_vars = {e for e in c.edges if isinstance(e, VarEdge)}
    assert {e for e in result.output.edges if isinstance(e, VarEdge)} == special_vars


class TestResultInvariants:
    def test_fixture_invariants(self, fig1, fig2, fig3, fig4):
        for c in (fig1, fig2, fig3, fig4):
            _assert_result_invariants(c, abstract_component(c))

    def test_random_invariants(self):
        rng = random.Random(23)
        for layout in Layout:
            for _ in range(25):
                c = random_component(rng, layout, max_nodes=16)
                result = abstract_component(c)
                _assert_result_invariants(c, result)

    def test_merge_bounds(self):
        rng = random.Random(29)
        for layout in Layout:
            for _ in range(25):
                c = random_component(rng, layout, max_nodes=16)
                m = len(ordinary_nodes(c))
                result = abstract_component(c)
                if layout in (Layout.SLL, Layout.C):
                    assert len(result.merge_log) <= max(m - 1, 0)
                elif layout is Layout.T:
                    assert len(result.merge_log) <= m // 2

    def test_idempotence_on_fixtures(self, fig1, fig2, fig3, fig4):
        for c in (fig1, fig2, fig3, fig4):
            once = abstract_component(c)
            twice = abstract_component(once.output)
            assert twice.merge_log == ()
            assert isomorphic(once.output, twice.output)

    def test_order_insensitive_up_to_isomorphism(self):
        rng = random.Random(31)
        for layout in Layout:
            for _ in range(10):
                c = random_component(rng, layout, max_nodes=12)
                mapping = random_relabeling(rng, c)
                renamed = relabel(c, mapping)
                out_renamed = abstract_component(renamed).output
                out_original = relabel(abstract_component(c).output, mapping)
                assert isomorphic(out_renamed, out_original)


class TestHeapAbstract:
    def test_four_figure_heap(self, fig1, fig2, fig3, fig4):
        # Component ids must be disjoint inside one heap, so each figure
        # is relabeled with its own prefix before being combined.
        rng = random.Random(0)
        figures = [fig1, fig2, fig3, fig4]
        components = []
        for i, fig in enumerate(figures):
            mapping = {n: f"k{i}_{n}" for n in fig.nodes}
            renamed = relabel(fig, mapping)
            renamed = comp(
                renamed.layout,
                {f"k{i}_{v}" for v in renamed.vars},
                renamed.nodes,
                {
                    ve(f"k{i}_{e.var}", e.target) if isinstance(e, VarEdge) else e
                    for e in renamed.edges
                },
            )
            components.append(renamed)
        heap = Heap(tuple(components))
        results = heap_abstract_results(heap)
        assert len(results) == 4
        for fig, c, r in zip(figures, components, results):
            assert len(r.output.nodes) == len(abstract_component(fig).output.nodes)
            assert check_valid_abstraction(c, r.output, r.witness) == []
        del rng

    def test_empty_heap(self):
        assert heap_abstract_results(Heap(())) == []

    def test_singleton_heap_matches_component_run(self, fig1):
        assert heap_abstract_results(Heap((fig1,))) == [abstract_component(fig1)]

    def test_invalid_component_reports_index(self, fig1):
        bad = comp(Layout.C, nodes={"x", "y"}, edges={ne("x", "y")})
        with pytest.raises(InvalidComponentError) as exc:
            heap_abstract_results(Heap((fig1, bad)))
        assert exc.value.index == 1

    def test_results_expose_merge_logs(self, fig1):
        results = heap_abstract_results(Heap((fig1,)))
        assert len(results) == 1
        assert len(results[0].merge_log) == 4


def test_exceeded_merge_bound_is_an_internal_invariant_error(fig1, monkeypatch):
    from heapabstract import InternalInvariantError, abstraction

    def greedy(index, ordinary):
        return {n: "h0" for n in ordinary}, [], 0

    monkeypatch.setitem(abstraction._MERGES, Layout.SLL, greedy)
    with pytest.raises(InternalInvariantError, match="merge bound"):
        abstract_component(fig1)
