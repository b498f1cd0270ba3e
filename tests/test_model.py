"""Tests for the graph model: region edge sets, depth, validation."""

import copy
import json
import pickle
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from genheaps import comp, ne, random_component, random_heap, te, ve
from heapabstract import (
    Component,
    EmptyComponentError,
    Heap,
    Layout,
    LayoutMismatchError,
    MergeEvent,
    NodeClass,
    NodeEdge,
    SchemaError,
    TreeEdge,
    UnknownNodeError,
    UnreachableNodeError,
    VarEdge,
    Violation,
    abstract_component,
    depth_map,
    edges_in,
    edges_out,
    entry_nodes,
    height,
    node_classes,
    parse_heap,
    region_edges,
    serialize_heap,
    validate_component,
)
from heapabstract.model import ComponentIndex, _tokens_ok


class TestConstruction:
    def test_bad_token_rejected(self):
        with pytest.raises(ValueError):
            comp(Layout.SLL, nodes={"a b"})
        with pytest.raises(ValueError):
            comp(Layout.SLL, nodes={"a,b"})
        with pytest.raises(ValueError):
            comp(Layout.SLL, nodes={""})
        with pytest.raises(ValueError):
            comp(Layout.SLL, nodes={"a\n"})

    def test_surrogate_token_rejected(self):
        # A lone surrogate cannot be written as UTF-8; a paired escape in
        # JSON decodes to one character, which is a token.
        with pytest.raises(ValueError, match="bad identifier token"):
            comp(Layout.SLL, nodes={"a", "\ud800"})
        with pytest.raises(ValueError, match="bad identifier token"):
            comp(Layout.SLL, vars={"v\udfff"})
        assert comp(Layout.SLL, nodes={"\U0001f600"}).nodes == {"\U0001f600"}

    def test_bad_token_named(self):
        with pytest.raises(ValueError, match="bad identifier token: 'b c'"):
            comp(Layout.SLL, vars={"v"}, nodes={"a", "b c", "d"})
        with pytest.raises(ValueError, match="bad identifier token: 1"):
            comp(Layout.SLL, nodes={"a", 1})

    def test_layout_must_be_a_layout(self):
        with pytest.raises(ValueError):
            Component("SLL")

    def test_var_node_namespace_overlap_rejected(self):
        with pytest.raises(ValueError):
            comp(Layout.SLL, vars={"x"}, nodes={"x"})

    def test_heap_requires_disjoint_components(self):
        a = comp(Layout.SLL, nodes={"n0"})
        b = comp(Layout.DAG, nodes={"n0"})
        with pytest.raises(ValueError):
            Heap((a, b))
        c = comp(Layout.SLL, vars={"v"}, nodes={"n0"}, edges={ve("v", "n0")})
        d = comp(Layout.DAG, vars={"v"}, nodes={"m0"}, edges={ve("v", "m0")})
        with pytest.raises(ValueError):
            Heap((c, d))

    def test_tree_edge_label_checked(self):
        with pytest.raises(ValueError):
            TreeEdge("a", "b", "x")

    def test_duplicate_edges_collapse(self):
        c = Component(
            Layout.SLL, frozenset(), frozenset({"a", "b"}), [ne("a", "b"), ne("a", "b")]
        )
        assert len(c.edges) == 1

    def test_non_edge_items_refused(self):
        # A plain tuple shaped like an edge's row is not an edge; the smallest
        # repr among the items that are not edges is named.
        for odd in (("node", "b", "a"), "ab", None):
            with pytest.raises(TypeError, match=re.escape(f"not an edge: {odd!r}")):
                comp(Layout.SLL, nodes={"a", "b"}, edges=[ne("a", "b"), odd])
        with pytest.raises(TypeError, match=r"^not an edge: \('node', 'a', 'b'\)$"):
            comp(Layout.SLL, vars={"v"}, nodes={"a", "b"}, edges={("var", "v", "a"), ("node", "a", "b")})
        # A plain tuple equals the edge with its row; the items are checked
        # before equal ones collapse, so it is refused in either order.
        items = [ne("a", "b"), ("node", "a", "b")]
        for edges in (items, items[::-1]):
            with pytest.raises(TypeError, match=r"^not an edge: \('node', 'a', 'b'\)$"):
                Component(Layout.SLL, set(), {"a", "b"}, edges)

    def test_str_ids_refused(self):
        # A str is a collection of one-letter ids; taking it so would build
        # the variables h, e, a and d.
        with pytest.raises(TypeError, match=r"^vars and nodes are collections of ids, not str"):
            Component(Layout.SLL, "head", {"n1"}, [ve("h", "n1")])
        with pytest.raises(TypeError, match=r"^vars and nodes are collections of ids, not str"):
            Component(Layout.SLL, {"h"}, "n1", [ve("h", "n1")])

    def test_heap_refuses_items_that_are_not_components(self):
        a = comp(Layout.SLL, nodes={"n0"})
        with pytest.raises(TypeError, match=r"^not a component: 1$"):
            Heap((1,))
        with pytest.raises(TypeError, match=r"^not a component: \('n0',\)$"):
            Heap((a, ("n0",)))


# Ids that a component below may or may not declare; "zz" and "w" never are.
_NODE_IDS, _VAR_IDS = st.sampled_from(["a", "b", "c", "zz"]), st.sampled_from(["v", "w"])
_ITEMS = st.one_of(
    st.builds(NodeEdge, _NODE_IDS, _NODE_IDS),
    st.builds(TreeEdge, _NODE_IDS, _NODE_IDS, st.sampled_from("lr")),
    st.builds(VarEdge, _VAR_IDS, _NODE_IDS),
    st.tuples(st.just("node"), _NODE_IDS, _NODE_IDS),  # an edge's row, but no edge
)


@given(
    st.sampled_from(Layout),
    st.sets(st.sampled_from(["v"])),
    st.sets(st.sampled_from(["a", "b", "c"])),
    st.sets(_ITEMS, max_size=5),
)
@example(Layout.SLL, {"v"}, {"a", "b"}, {ve("v", "a"), ne("a", "b")})
@example(Layout.T, set(), {"a", "b"}, {te("a", "b", "l"), ne("a", "b")})
@example(Layout.DAG, set(), {"a"}, {ne("a", "zz")})
@example(Layout.C, set(), {"a"}, {ve("w", "a")})
def test_constructor_and_parser_accept_the_same_components(layout, vars, nodes, items):
    # The constructor refuses exactly what a heap document cannot hold, so
    # no query needs to cope with an undeclared endpoint or an ill-kinded edge.
    try:
        c = Component(layout, vars, nodes, items)
    except (UnknownNodeError, ValueError, TypeError) as exc:
        if isinstance(exc, TypeError):  # a document holds rows, never the items themselves
            return
        refused = exc
    else:
        refused = None
        assert parse_heap(serialize_heap(Heap((c,)))).components[0] == c
    doc = {
        "layout": layout.value,
        "variables": sorted(vars),
        "nodes": sorted(nodes),
        "var_edges": [list(e[1:]) for e in sorted(items) if type(e) is VarEdge],
        "node_edges": [list(e[1:]) for e in sorted(items) if type(e) is not VarEdge],
    }
    try:
        parsed = parse_heap(json.dumps({"components": [doc]})).components[0]
    except SchemaError as exc:
        assert refused is not None and exc.code in {"UnknownNode", "UnknownVariable", "EdgeKindMismatch"}
    else:
        assert refused is None and parsed == c


_ONE_TOKEN = re.compile(r"[^\s,\ud800-\udfff]+")  # the rule for one id, used with fullmatch
_ID_CHARS = ["a", "b", ",", " ", "\n", "\x1c", "\u2003", "\u3000", "\ud800", "\udfff", "\U0001f600"]
_IDS = st.one_of(
    st.text(st.sampled_from(_ID_CHARS), max_size=4), st.integers(), st.none(), st.binary(max_size=2)
)


@given(st.lists(_IDS, max_size=5))
@example([])
@example(["a,b"])
@example(["a,", "b"])
@example(["a", ""])
@example([""])
@example(["a", 1])
@example(["\ud800"])
def test_token_list_check_matches_the_per_id_rule(ids):
    # One match over the comma-joined ids decides what one match per id would.
    expected = all(type(i) is str and _ONE_TOKEN.fullmatch(i) is not None for i in ids)
    assert _tokens_ok(ids) is _tokens_ok(tuple(ids)) is expected
    strings = [i for i in ids if type(i) is str]
    expected = all(_ONE_TOKEN.fullmatch(i) for i in strings)
    assert _tokens_ok(frozenset(strings)) is _tokens_ok(dict.fromkeys(strings)) is expected
    for i in strings:
        assert _tokens_ok((i,)) is (_ONE_TOKEN.fullmatch(i) is not None)


class TestRecords:
    def test_parsed_and_hand_built_components_agree(self):
        # A parsed component keeps its edges as ranked keys and builds the
        # edge set when it is first read; a hand-built one starts from the
        # set.  Equality, hashing, copies and pickles cannot tell them apart.
        rng = random.Random(9)
        for layout in Layout:
            for _ in range(5):
                built = random_component(rng, layout, max_nodes=12)
                for reads in (False, True):
                    parsed = parse_heap(serialize_heap(Heap((built,)))).components[0]
                    if reads:
                        assert parsed.edges == built.edges
                    twins = [copy.copy(parsed), copy.deepcopy(parsed)]
                    twins += [pickle.loads(pickle.dumps(parsed)), parsed]
                    for twin in twins:
                        assert type(twin) is Component
                        assert twin == built and built == twin
                        assert hash(twin) == hash(built)

    def test_records_are_values_of_their_own_class(self):
        v = Violation("Code", "detail")
        assert v == Violation(code="Code", detail="detail")
        assert v != MergeEvent("Code", "detail")
        assert repr(v) == "Violation(code='Code', detail='detail')"
        assert Heap() == Heap(components=()) and Component(Layout.SLL).edges == frozenset()
        # A produced result builds its merge log when first read; copies
        # and pickles of an unread one carry the same log.
        sll = comp(Layout.SLL, {"x"}, {"a", "b", "c"}, {ve("x", "a"), ne("a", "b"), ne("b", "c")})
        for twin in (copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))):
            assert twin(abstract_component(sll)) == abstract_component(sll)
        records = (v, Heap(), NodeClass(()), MergeEvent("a", ("b",)), abstract_component(sll))
        for record in records:
            assert pickle.loads(pickle.dumps(record)) == record == copy.deepcopy(record)
            assert copy.copy(record) == record
            with pytest.raises(AttributeError):
                record.extra = 1
        with pytest.raises(AttributeError):
            v.code = "Other"
        with pytest.raises(AttributeError):
            del v.detail


class TestEdgeValues:
    EDGES = (ve("x", "n"), ne("a", "b"), te("a", "b", "l"))

    def test_copy_and_pickle_keep_value_and_class(self):
        for e in self.EDGES:
            for twin in (copy.copy(e), copy.deepcopy(e), pickle.loads(pickle.dumps(e))):
                assert twin == e
                assert type(twin) is type(e)

    def test_kinds_never_collide(self):
        assert len({VarEdge("x", "n"), NodeEdge("x", "n")}) == 2

    def test_edge_is_its_witness_row(self):
        assert VarEdge("x", "n") == ("var", "x", "n")
        assert (ne("a", "b").src, ne("a", "b").dst) == ("a", "b")
        assert str(te("a", "b", "r")) == "(a,b,r)"

    def test_sorted_is_kind_then_fields(self):
        # Node edges, then tree edges, then variable edges, each by fields.
        expected = [
            ne("a", "z"),
            ne("b", "a"),
            te("a", "a", "r"),
            te("a", "b", "l"),
            te("a", "b", "r"),
            ve("a", "c"),
            ve("x", "b"),
        ]
        shuffled = list(expected)
        random.Random(3).shuffle(shuffled)
        assert sorted(set(shuffled)) == expected


class TestRegionOps:
    def test_region_edges_chain_pair(self, fig1):
        assert region_edges(fig1, {"h1", "h2"}) == {ne("h1", "h2")}

    def test_region_edges_empty_region(self, fig1):
        assert region_edges(fig1, set()) == frozenset()

    def test_region_edges_dag_fanout_targets(self, fig4):
        # No edges run between the fan-out targets themselves.
        assert region_edges(fig4, {"h1", "h2"}) == frozenset()

    def test_edges_in_cycle_head(self, fig3):
        assert edges_in(fig3, {"h1"}) == {ne("h0", "h1"), ne("h7", "h1")}

    def test_edges_in_whole_component(self, fig1):
        assert edges_in(fig1, fig1.nodes) == frozenset()

    def test_edges_in_back_edge_target(self, fig1):
        assert edges_in(fig1, {"h6"}) == {ne("h5", "h6"), ne("h7", "h6")}

    def test_edges_out_cycle_branch(self, fig3):
        assert edges_out(fig3, {"h7"}) == {ne("h7", "h0"), ne("h7", "h1")}

    def test_edges_out_whole_component(self, fig3):
        assert edges_out(fig3, fig3.nodes) == frozenset()

    def test_edges_out_tree_node(self, fig2):
        assert edges_out(fig2, {"h5"}) == {
            te("h5", "h6", "r"),
            te("h5", "h11", "l"),
            te("h5", "h12", "r"),
        }

    def test_unknown_region_member(self, fig1):
        with pytest.raises(UnknownNodeError):
            region_edges(fig1, {"nope"})
        with pytest.raises(UnknownNodeError):
            edges_in(fig1, {"nope"})
        with pytest.raises(UnknownNodeError):
            edges_out(fig1, {"nope"})

    def test_whole_node_set_region(self, fig1, fig2, fig3, fig4):
        for c in (fig1, fig2, fig3, fig4):
            assert edges_in(c, c.nodes) == frozenset()
            assert edges_out(c, c.nodes) == frozenset()
            assert region_edges(c, c.nodes) == c.node_edges()

    def test_var_edges_never_included(self, fig1):
        for op in (region_edges, edges_in, edges_out):
            for e in op(fig1, {"h0", "h7"}):
                assert not hasattr(e, "var")

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_partition_law(self, seed):
        # The three region edge sets are disjoint and together are exactly
        # the pointer edges touching the region.
        rng = random.Random(seed)
        layout = rng.choice(list(Layout))
        c = random_component(rng, layout, max_nodes=12)
        nodes = sorted(c.nodes)
        members = {n for n in nodes if rng.random() < 0.5}
        inside = region_edges(c, members)
        entering = edges_in(c, members)
        leaving = edges_out(c, members)
        assert inside & entering == frozenset()
        assert inside & leaving == frozenset()
        assert entering & leaving == frozenset()
        touching = frozenset(
            e for e in c.node_edges() if e.src in members or e.dst in members
        )
        assert inside | entering | leaving == touching


class TestDepth:
    def test_fig1_depths(self, fig1):
        assert depth_map(fig1) == {f"h{i}": i for i in range(8)}

    def test_single_var_pointed_node(self):
        c = comp(Layout.SLL, vars={"v"}, nodes={"a"}, edges={ve("v", "a")})
        assert depth_map(c) == {"a": 0}

    def test_fig2_depths(self, fig2):
        expected = {"h0": 0, "h1": 1, "h2": 1}
        expected.update({f"h{i}": 2 for i in range(3, 7)})
        expected.update({f"h{i}": 3 for i in range(7, 15)})
        assert depth_map(fig2) == expected

    def test_back_edge_does_not_shorten(self, fig1):
        # h6 is reached along the chain (6 hops), not through h7 (8 hops).
        assert depth_map(fig1)["h6"] == 6

    def test_entry_fallback_to_var_targets(self):
        # A cycle-closing edge to the head leaves no in-degree-0 node.
        c = comp(
            Layout.SLL,
            vars={"v"},
            nodes={"a", "b", "c"},
            edges={ve("v", "a"), ne("a", "b"), ne("b", "c"), ne("c", "a")},
        )
        assert entry_nodes(c) == {"a"}
        assert depth_map(c) == {"a": 0, "b": 1, "c": 2}

    def test_layout_mismatch(self, fig3, fig4):
        with pytest.raises(LayoutMismatchError):
            depth_map(fig3)
        with pytest.raises(LayoutMismatchError):
            depth_map(fig4)

    def test_unreachable_node(self):
        # x and y feed each other, so neither has in-degree 0 and no
        # entry reaches them.
        c = comp(
            Layout.SLL,
            nodes={"a", "b", "x", "y"},
            edges={ne("a", "b"), ne("x", "y"), ne("y", "x")},
        )
        with pytest.raises(UnreachableNodeError):
            depth_map(c)

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_non_descending_edges_do_not_define_depth(self, seed):
        rng = random.Random(seed)
        layout = rng.choice([Layout.SLL, Layout.T])
        c = random_component(rng, layout, max_nodes=12)
        depths = depth_map(c)
        kept = frozenset(
            e
            for e in c.edges
            if hasattr(e, "var") or depths[e.src] < depths[e.dst]
        )
        trimmed = Component(c.layout, c.vars, c.nodes, kept)
        assert depth_map(trimmed) == depths


class TestHeight:
    def test_fig2_height(self, fig2):
        assert height(fig2) == 3

    def test_single_node_tree(self):
        c = comp(Layout.T, vars={"R"}, nodes={"a"}, edges={ve("R", "a")})
        assert height(c) == 0

    def test_two_node_tree(self):
        c = comp(Layout.T, nodes={"a", "b"}, edges={te("a", "b", "l")})
        assert height(c) == 1

    def test_empty_component(self):
        with pytest.raises(EmptyComponentError):
            height(comp(Layout.T))

    def test_layout_mismatch(self, fig1):
        with pytest.raises(LayoutMismatchError):
            height(fig1)


class TestValidateComponent:
    def test_all_figure_fixtures_valid(self, fig1, fig2, fig3, fig4):
        for c in (fig1, fig2, fig3, fig4):
            assert validate_component(c) == []

    def test_labeled_edge_in_sll(self):
        # No component holds an edge of the wrong kind, so validation has no rule for one.
        with pytest.raises(ValueError, match=r"^labeled edge \(a,b,l\) in SLL component$"):
            comp(Layout.SLL, nodes={"a", "b"}, edges={te("a", "b", "l")})

    def test_unlabeled_edge_in_tree(self):
        with pytest.raises(ValueError, match=r"^unlabeled edge \(a,b\) in T component$"):
            comp(
                Layout.T,
                vars={"R"},
                nodes={"a", "b"},
                edges={ve("R", "a"), te("a", "b", "l"), ne("a", "b")},
            )

    def test_cycle_in_dag(self, fig4):
        c = Component(fig4.layout, fig4.vars, fig4.nodes, fig4.edges | {ne("h1", "h0")})
        assert [v.code for v in validate_component(c)] == ["CycleInDag"]

    def test_dag_self_edge_is_not_a_cycle(self, fig4):
        c = Component(fig4.layout, fig4.vars, fig4.nodes, fig4.edges | {ne("h1", "h1")})
        assert validate_component(c) == []

    def test_undeclared_endpoint(self):
        # No component holds an undeclared endpoint, so validation has no rule for one.
        with pytest.raises(UnknownNodeError, match=r"^edge \(a,ghost\) has an undeclared endpoint$"):
            comp(Layout.SLL, nodes={"a"}, edges={ne("a", "ghost")})
        with pytest.raises(UnknownNodeError, match=r"^edge \(ghost,a\) has an undeclared endpoint$"):
            comp(Layout.SLL, nodes={"a"}, edges={ve("ghost", "a")})
        # The smallest such edge is named: node edges sort before variable edges.
        with pytest.raises(UnknownNodeError, match=r"^edge \(b,zz\) has an undeclared endpoint$"):
            comp(Layout.SLL, nodes={"a", "b"}, edges={ve("ghost", "a"), ne("b", "zz"), ne("a", "b")})
        # An endpoint that is not a string, hashable or not, is never declared;
        # the edges are ordered by the text of their fields.
        for src in (1, ["x"]):
            with pytest.raises(UnknownNodeError, match=rf"^edge \({re.escape(str(src))},a\) has an"):
                Component(Layout.SLL, set(), {"a", "b"}, [ne(src, "a")])
        with pytest.raises(UnknownNodeError, match=r"^edge \(\['x'\],a\) has an undeclared endpoint$"):
            Component(Layout.SLL, set(), {"a"}, [ne("a", 1), ne(["x"], "a")])

    def test_unreachable_sll_node(self):
        c = comp(
            Layout.SLL,
            nodes={"a", "b", "x", "y"},
            edges={ne("a", "b"), ne("x", "y"), ne("y", "x")},
        )
        codes = [v.code for v in validate_component(c)]
        assert codes == ["UnreachableNode", "UnreachableNode"]

    def test_branching_list_rejected(self):
        c = comp(
            Layout.SLL,
            vars={"v"},
            nodes={"a", "b", "x"},
            edges={ve("v", "a"), ne("a", "b"), ne("a", "x")},
        )
        assert [v.code for v in validate_component(c)] == ["BranchingList"]

    def test_an_index_of_another_component_is_refused(self):
        # Read through b's index, a would branch at a and hold b's node c.
        a = comp(Layout.SLL, {"x"}, {"a", "b"}, {ve("x", "a"), ne("a", "b")})
        b = comp(Layout.SLL, {"x"}, {"a", "b", "c"}, {ve("x", "a"), ne("a", "b"), ne("a", "c")})
        assert validate_component(a, ComponentIndex(a)) == []
        assert list(node_classes(a, ComponentIndex(a))) == ["a", "b"]
        for rule in (validate_component, node_classes):
            with pytest.raises(ValueError, match="not this component's"):
                rule(a, ComponentIndex(b))

    def test_tail_back_edge_is_not_branching(self, fig1):
        # The tail's single next pointer may aim backwards.
        assert validate_component(fig1) == []

    def test_self_edge_does_not_count_as_branching(self):
        c = comp(
            Layout.SLL,
            vars={"v"},
            nodes={"a", "b"},
            edges={ve("v", "a"), ne("a", "a"), ne("a", "b")},
        )
        assert validate_component(c) == []

    def test_cycle_component_needs_a_cycle(self):
        c = comp(Layout.C, nodes={"a", "b"}, edges={ne("a", "b")})
        assert [v.code for v in validate_component(c)] == ["MissingCycle"]

    def test_self_edge_satisfies_cycle_requirement(self):
        c = comp(Layout.C, nodes={"a"}, edges={ne("a", "a")})
        assert validate_component(c) == []

    def test_tree_skeleton_rule(self):
        # A tree holds only labeled edges, so every reachable node below the
        # entries has a labeled edge from a shallower node: its BFS parent.
        # The one way to break that, an unlabeled edge, is refused when built.
        with pytest.raises(ValueError, match=r"^unlabeled edge \(a,c\) in T component$"):
            comp(
                Layout.T,
                vars={"R"},
                nodes={"a", "b", "c"},
                edges={ve("R", "a"), te("a", "b", "l"), ne("a", "c")},
            )
        c = comp(
            Layout.T,
            vars={"R"},
            nodes={"a", "b", "c"},
            edges={ve("R", "a"), te("a", "b", "l"), te("a", "c", "r")},
        )
        assert validate_component(c) == []
        # So is an unlabeled self edge, or one beside a labeled parent edge.
        for unlabeled in (ne("b", "b"), ne("a", "b")):
            edges = {ve("R", "a"), te("a", "b", "l"), unlabeled}
            with pytest.raises(ValueError, match=re.escape(f"unlabeled edge {unlabeled} in T")):
                comp(Layout.T, vars={"R"}, nodes={"a", "b"}, edges=edges)

    def test_violations_have_details(self):
        # An undeclared ghost is named when the component is built; one that
        # is declared but unreachable is named by its violation.
        with pytest.raises(UnknownNodeError, match="ghost"):
            comp(Layout.SLL, nodes={"a"}, edges={ne("a", "ghost")})
        c = comp(Layout.SLL, nodes={"a", "ghost", "g2"}, edges={ne("ghost", "g2"), ne("g2", "ghost")})
        v = validate_component(c)[0]
        assert (v.code, v.detail) == ("UnreachableNode", "node g2 unreachable from entries")

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_random_generated_components_are_valid(self, seed):
        rng = random.Random(seed)
        for layout in Layout:
            assert validate_component(random_component(rng, layout, max_nodes=14)) == []

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_random_heaps_are_constructible(self, seed):
        rng = random.Random(seed)
        heap = random_heap(rng)
        for c in heap.components:
            assert validate_component(c) == []
