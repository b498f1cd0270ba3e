"""Tests for special/ordinary classification and reference similarity."""

import random
from itertools import combinations

import pytest

from genheaps import comp, ne, random_component, random_dag, random_relabeling, relabel, te, ve
from oracle import special_nodes_cycle, special_nodes_dag, special_nodes_sll, special_nodes_tree
from heapabstract import (
    Layout,
    LayoutMismatchError,
    Reason,
    SameNodeError,
    SimilarityPartition,
    UnknownNodeError,
    node_classes,
    ordinary_nodes,
    ref_similar_dag,
    reference_similar,
    reference_similar_set,
)


def reasons_of(classes):
    return {
        n: tuple(r.value for r in k.reasons) for n, k in classes.items() if k.special
    }


class TestSll:
    def test_fig1(self, fig1):
        classes = node_classes(fig1)
        assert reasons_of(classes) == {
            "h0": ("VarPointed",),
            "h6": ("BackEdgeEndpoint",),
            "h7": ("VarPointed", "BackEdgeEndpoint"),
        }
        assert all(not classes[f"h{i}"].special for i in range(1, 6))

    def test_bare_chain_all_ordinary(self):
        c = comp(Layout.SLL, nodes={"a", "b", "c"}, edges={ne("a", "b"), ne("b", "c")})
        assert all(not k.special for k in node_classes(c).values())

    def test_back_edge_to_head(self):
        c = comp(
            Layout.SLL,
            vars={"v"},
            nodes={"a", "b", "c"},
            edges={ve("v", "a"), ne("a", "b"), ne("b", "c"), ne("c", "a")},
        )
        classes = node_classes(c)
        assert reasons_of(classes) == {
            "a": ("VarPointed", "BackEdgeEndpoint"),
            "c": ("BackEdgeEndpoint",),
        }
        assert not classes["b"].special

    def test_labeled_back_edge_marks_no_ends(self):
        # A list holds no labeled edge, so classification never meets one:
        # the constructor refuses it.
        with pytest.raises(ValueError, match=r"^labeled edge \(c,a,l\) in SLL component$"):
            comp(
                Layout.SLL,
                vars={"v"},
                nodes={"a", "b", "c"},
                edges={ve("v", "a"), ne("a", "b"), ne("b", "c"), te("c", "a", "l")},
            )

    def test_layout_mismatch(self, fig3):
        with pytest.raises(LayoutMismatchError):
            special_nodes_sll(fig3)


class TestTree:
    def test_fig2(self, fig2):
        classes = node_classes(fig2)
        assert reasons_of(classes) == {
            "h0": ("VarPointed",),
            "h5": ("HorizontalEdgeEndpoint",),
            "h6": ("HorizontalEdgeEndpoint",),
        }

    def test_perfect_tree_only_root_special(self):
        c = comp(
            Layout.T,
            vars={"R"},
            nodes={"r", "a", "b"},
            edges={ve("R", "r"), te("r", "a", "l"), te("r", "b", "r")},
        )
        assert reasons_of(node_classes(c)) == {"r": ("VarPointed",)}

    def test_back_edge_leaf_to_root(self):
        nodes = {"r", "a", "b", "c"}
        edges = {
            ve("R", "r"),
            te("r", "a", "l"),
            te("a", "b", "l"),
            te("b", "c", "l"),
            te("c", "r", "l"),
        }
        c = comp(Layout.T, vars={"R"}, nodes=nodes, edges=edges)
        classes = node_classes(c)
        assert classes["c"].reasons == (Reason.BACK_EDGE_ENDPOINT,)
        assert set(classes["r"].reasons) == {Reason.VAR_POINTED, Reason.BACK_EDGE_ENDPOINT}

    def test_unlabeled_back_edge_marks_no_ends(self):
        # A tree holds no unlabeled edge, so classification never meets one.
        with pytest.raises(ValueError, match=r"^unlabeled edge \(b,r\) in T component$"):
            comp(
                Layout.T,
                vars={"R"},
                nodes={"r", "a", "b"},
                edges={ve("R", "r"), te("r", "a", "l"), te("a", "b", "l"), ne("b", "r")},
            )

    def test_self_edges_do_not_make_special(self):
        c = comp(
            Layout.T,
            vars={"R"},
            nodes={"r", "a"},
            edges={ve("R", "r"), te("r", "a", "l"), te("a", "a", "l"), te("a", "a", "r")},
        )
        assert not node_classes(c)["a"].special

    def test_layout_mismatch(self, fig1):
        with pytest.raises(LayoutMismatchError):
            special_nodes_tree(fig1)


class TestCycle:
    def test_fig3(self, fig3):
        classes = node_classes(fig3)
        assert reasons_of(classes) == {
            "h0": ("VarPointed",),
            "h1": ("MultiIn",),
            "h7": ("MultiOut",),
        }
        assert all(not classes[f"h{i}"].special for i in range(2, 7))

    def test_pure_ring_all_ordinary(self):
        nodes = [f"c{i}" for i in range(4)]
        edges = {ne(nodes[i], nodes[(i + 1) % 4]) for i in range(4)}
        c = comp(Layout.C, nodes=nodes, edges=edges)
        assert all(not k.special for k in node_classes(c).values())

    def test_chord_makes_branch_points_special(self):
        edges = {ne("a", "b"), ne("b", "c"), ne("c", "a"), ne("a", "c")}
        c = comp(Layout.C, nodes={"a", "b", "c"}, edges=edges)
        classes = node_classes(c)
        assert classes["a"].reasons == (Reason.MULTI_OUT,)
        assert classes["c"].reasons == (Reason.MULTI_IN,)
        assert not classes["b"].special

    def test_layout_mismatch(self, fig4):
        with pytest.raises(LayoutMismatchError):
            special_nodes_cycle(fig4)


class TestDag:
    def test_fig4(self, fig4):
        classes = node_classes(fig4)
        assert reasons_of(classes) == {"h0": ("VarPointed",)}

    def test_no_vars_all_ordinary(self):
        c = comp(Layout.DAG, nodes={"a", "b"}, edges={ne("a", "b")})
        assert all(not k.special for k in node_classes(c).values())

    def test_diamond_sink_special(self):
        edges = {ne("a", "b"), ne("a", "c"), ne("b", "d"), ne("c", "d"), ve("v", "d")}
        c = comp(Layout.DAG, vars={"v"}, nodes={"a", "b", "c", "d"}, edges=edges)
        assert reasons_of(node_classes(c)) == {"d": ("VarPointed",)}

    def test_layout_mismatch(self, fig2):
        with pytest.raises(LayoutMismatchError):
            special_nodes_dag(fig2)


class TestOrdinaryNodes:
    def test_fig1(self, fig1):
        assert ordinary_nodes(fig1) == {"h1", "h2", "h3", "h4", "h5"}

    def test_empty_component(self):
        assert ordinary_nodes(comp(Layout.SLL)) == frozenset()

    def test_fig4(self, fig4):
        assert ordinary_nodes(fig4) == {f"h{i}" for i in range(1, 8)}

    def test_classification_is_pure(self, fig1):
        assert node_classes(fig1) == node_classes(fig1)

    def test_special_ordinary_partition_random(self):
        rng = random.Random(7)
        for layout in Layout:
            for _ in range(20):
                c = random_component(rng, layout, max_nodes=14)
                classes = node_classes(c)
                special = {n for n, k in classes.items() if k.special}
                assert special | ordinary_nodes(c) == c.nodes
                assert special & ordinary_nodes(c) == frozenset()
                for k in classes.values():
                    assert k.special == bool(k.reasons)

    def test_classes_in_id_order_one_object_per_reasons(self):
        # One NodeClass per distinct reasons tuple, shared by its nodes.
        rng = random.Random(11)
        for layout in Layout:
            for _ in range(20):
                c = random_component(rng, layout, max_nodes=30)
                classes = node_classes(c)
                assert list(classes) == sorted(c.nodes)
                objects = {id(k) for k in classes.values()}
                assert len(objects) == len(set(classes.values())) <= 2 ** len(Reason)


class TestReferenceSimilar:
    def test_fig4_fanout_targets(self, fig4):
        assert reference_similar(fig4, "h1", "h2") is True

    def test_diamond(self):
        edges = {ne("a", "b"), ne("a", "c"), ne("b", "d"), ne("c", "d")}
        c = comp(Layout.DAG, nodes={"a", "b", "c", "d"}, edges=edges)
        assert reference_similar(c, "b", "c") is True
        assert reference_similar(c, "a", "d") is False

    def test_connected_nodes_not_similar(self, fig4):
        assert reference_similar(fig4, "h1", "h7") is False

    def test_same_node_rejected(self, fig4):
        with pytest.raises(SameNodeError):
            reference_similar(fig4, "h1", "h1")

    def test_unknown_node_rejected(self, fig4):
        with pytest.raises(UnknownNodeError):
            reference_similar(fig4, "h1", "ghost")

    def test_layout_mismatch(self, fig1):
        with pytest.raises(LayoutMismatchError):
            reference_similar(fig1, "h1", "h2")

    def test_symmetry_random(self):
        rng = random.Random(11)
        for _ in range(30):
            c = random_dag(rng, max_nodes=10)
            for a, b in combinations(sorted(c.nodes), 2):
                assert reference_similar(c, a, b) == reference_similar(c, b, a)

    def test_transitive_random(self):
        rng = random.Random(13)
        for _ in range(30):
            c = random_dag(rng, max_nodes=8)
            nodes = sorted(c.nodes)
            for a, b, x in combinations(nodes, 3):
                if reference_similar(c, a, b) and reference_similar(c, b, x):
                    assert reference_similar(c, a, x)


class TestReferenceSimilarSet:
    def test_fig4_big_group(self, fig4):
        assert reference_similar_set(fig4, {f"h{i}" for i in range(1, 7)}) is True

    def test_trivial_sets(self, fig4):
        assert reference_similar_set(fig4, set()) is True
        assert reference_similar_set(fig4, {"h3"}) is True

    def test_fig4_with_hub(self, fig4):
        assert reference_similar_set(fig4, {"h1", "h7"}) is False

    def test_unknown_node(self, fig4):
        with pytest.raises(UnknownNodeError):
            reference_similar_set(fig4, {"h1", "ghost"})


class TestRefSimilarDag:
    def test_fig4_partition(self, fig4):
        partition = ref_similar_dag(fig4)
        assert [sorted(g) for g in partition.groups] == [
            ["h1", "h2", "h3", "h4", "h5", "h6"],
            ["h7"],
        ]

    def test_no_ordinary_nodes(self):
        c = comp(Layout.DAG, vars={"v"}, nodes={"a"}, edges={ve("v", "a")})
        assert ref_similar_dag(c).groups == ()

    def test_diamond_with_pinned_ends(self):
        edges = {
            ne("a", "b"),
            ne("a", "c"),
            ne("b", "d"),
            ne("c", "d"),
            ve("v", "a"),
            ve("w", "d"),
        }
        c = comp(Layout.DAG, vars={"v", "w"}, nodes={"a", "b", "c", "d"}, edges=edges)
        assert [sorted(g) for g in ref_similar_dag(c).groups] == [["b", "c"]]

    def test_layout_mismatch(self, fig1):
        with pytest.raises(LayoutMismatchError):
            ref_similar_dag(fig1)

    def test_summary_nodes_on_a_two_cycle_stay_apart(self):
        # A cycle makes this no valid DAG, but the partition still holds
        # only reference-similar groups: r and s, each with a self edge,
        # share their neighbourhoods only through the edges joining them.
        edges = {ne("r", "s"), ne("s", "r"), ne("r", "r"), ne("s", "s"), ne("t", "r"), ne("t", "s")}
        c = comp(Layout.DAG, nodes={"r", "s", "t"}, edges=edges)
        assert not reference_similar_set(c, {"r", "s"})
        assert [sorted(g) for g in ref_similar_dag(c).groups] == [["r"], ["s"], ["t"]]

    def test_labeled_edges_compare_as_sets(self):
        # A DAG holds no labeled edge (the smallest is named), so each
        # neighbourhood lists every rank once and compares as it is listed.
        edges = {ne("a", "x"), te("a", "y", "l"), ne("b", "y"), te("b", "x", "r")}
        with pytest.raises(ValueError, match=r"^labeled edge \(a,y,l\) in DAG component$"):
            comp(Layout.DAG, nodes={"a", "b", "x", "y"}, edges=edges)
        edges = {ne("a", "x"), ne("a", "y"), ne("b", "y"), ne("b", "x")}
        c = comp(Layout.DAG, nodes={"a", "b", "x", "y"}, edges=edges)
        assert reference_similar(c, "a", "b") and reference_similar(c, "x", "y")
        assert [sorted(g) for g in ref_similar_dag(c).groups] == [["a", "b"], ["x", "y"]]

    def test_overlapping_groups_rejected(self):
        with pytest.raises(ValueError):
            SimilarityPartition(({"a", "b"}, {"b", "c"}))

    def test_partition_properties_random(self):
        rng = random.Random(17)
        for _ in range(40):
            c = random_dag(rng, max_nodes=12)
            partition = ref_similar_dag(c)
            seen = set()
            for group in partition.groups:
                assert not (seen & group)
                seen |= group
                assert reference_similar_set(c, group)
            assert seen == ordinary_nodes(c)

    def test_partition_is_order_independent(self):
        rng = random.Random(19)
        for _ in range(25):
            c = random_dag(rng, max_nodes=10)
            mapping = random_relabeling(rng, c)
            renamed = relabel(c, mapping)
            original = {frozenset(mapping[n] for n in g) for g in ref_similar_dag(c).groups}
            assert set(ref_similar_dag(renamed).groups) == original


@pytest.mark.parametrize(
    "similar",
    [
        lambda c: reference_similar(c, "a", "b"),
        lambda c: reference_similar_set(c, ["a", "b"]),
        lambda c: any({"a", "b"} <= g for g in ref_similar_dag(c).groups),
    ],
    ids=["pair", "set", "partition"],
)
def test_similarity_rejects_undeclared_endpoints(similar):
    # a's successors include zz: undeclared, the component cannot be built,
    # so no similarity query meets it; declared, it sets a apart from b.
    edges = {ne("r", "a"), ne("r", "b"), ne("a", "zz")}
    with pytest.raises(UnknownNodeError, match=r"^edge \(a,zz\) has an undeclared endpoint$"):
        comp(Layout.DAG, nodes={"r", "a", "b"}, edges=edges)
    assert not similar(comp(Layout.DAG, nodes={"r", "a", "b", "zz"}, edges=edges))
    assert similar(comp(Layout.DAG, nodes={"r", "a", "b"}, edges=edges - {ne("a", "zz")}))
