"""Tests for the JSON heap/witness formats and DOT export."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import load_fixture_text
from genheaps import comp, ne, random_heap, ve
from heapabstract import (
    Heap,
    Layout,
    ModelError,
    ParseError,
    SchemaError,
    abstract_component,
    check_valid_abstraction,
    export_dot,
    identity_witness,
    parse_heap,
    parse_witnesses,
    serialize_heap,
    serialize_witnesses,
)


class TestParseHeap:
    def test_fig1_roundtrip_shape(self, fig1):
        assert len(fig1.nodes) == 8
        assert len(fig1.vars) == 2
        assert len(fig1.edges) == 10

    def test_empty_heap(self):
        assert parse_heap('{"components":[]}') == Heap(())

    def test_labeled_edge_in_sll_rejected(self):
        text = load_fixture_text("broken_sll_labeled_edge.json")
        with pytest.raises(SchemaError) as exc:
            parse_heap(text)
        assert exc.value.code == "EdgeKindMismatch"
        assert "node_edges" in exc.value.location

    def test_invalid_json_position(self):
        with pytest.raises(ParseError) as exc:
            parse_heap('{"components": [}')
        assert exc.value.code == "InvalidJson"
        assert "line 1" in exc.value.location

    def test_unknown_field(self):
        with pytest.raises(SchemaError) as exc:
            parse_heap('{"components": [], "comment": "hi"}')
        assert exc.value.code == "UnknownField"

    def test_missing_field(self):
        doc = {"components": [{"layout": "SLL"}]}
        with pytest.raises(SchemaError) as exc:
            parse_heap(json.dumps(doc))
        assert exc.value.code == "MissingField"

    def test_wrong_type(self):
        with pytest.raises(SchemaError) as exc:
            parse_heap('{"components": 5}')
        assert exc.value.code == "WrongType"

    def test_bad_token(self):
        doc = {
            "components": [
                {
                    "layout": "SLL",
                    "variables": [],
                    "nodes": ["a b"],
                    "var_edges": [],
                    "node_edges": [],
                }
            ]
        }
        with pytest.raises(SchemaError) as exc:
            parse_heap(json.dumps(doc))
        assert exc.value.code == "BadToken"

    def test_duplicate_id(self):
        doc = {
            "components": [
                {
                    "layout": "SLL",
                    "variables": [],
                    "nodes": ["a", "a"],
                    "var_edges": [],
                    "node_edges": [],
                }
            ]
        }
        with pytest.raises(SchemaError) as exc:
            parse_heap(json.dumps(doc))
        assert exc.value.code == "DuplicateId"

    def test_duplicate_object_key(self):
        with pytest.raises(SchemaError) as exc:
            parse_heap('{"components": [], "components": []}')
        assert exc.value.code == "DuplicateKey"

    def test_unknown_layout(self):
        doc = {
            "components": [
                {
                    "layout": "LIST",
                    "variables": [],
                    "nodes": [],
                    "var_edges": [],
                    "node_edges": [],
                }
            ]
        }
        with pytest.raises(SchemaError) as exc:
            parse_heap(json.dumps(doc))
        assert exc.value.code == "UnknownLayout"

    def test_undeclared_edge_ids(self):
        doc = {
            "components": [
                {
                    "layout": "SLL",
                    "variables": ["v"],
                    "nodes": ["a"],
                    "var_edges": [["w", "a"]],
                    "node_edges": [],
                }
            ]
        }
        with pytest.raises(SchemaError) as exc:
            parse_heap(json.dumps(doc))
        assert exc.value.code == "UnknownVariable"
        doc["components"][0]["var_edges"] = [["v", "zz"]]
        with pytest.raises(SchemaError) as exc:
            parse_heap(json.dumps(doc))
        assert exc.value.code == "UnknownNode"

    def test_bad_tree_label(self):
        doc = {
            "components": [
                {
                    "layout": "T",
                    "variables": [],
                    "nodes": ["a", "b"],
                    "var_edges": [],
                    "node_edges": [["a", "b", "x"]],
                }
            ]
        }
        with pytest.raises(SchemaError) as exc:
            parse_heap(json.dumps(doc))
        assert exc.value.code == "BadLabel"

    def test_pair_edge_in_tree_rejected(self):
        doc = {
            "components": [
                {
                    "layout": "T",
                    "variables": [],
                    "nodes": ["a", "b"],
                    "var_edges": [],
                    "node_edges": [["a", "b"]],
                }
            ]
        }
        with pytest.raises(SchemaError) as exc:
            parse_heap(json.dumps(doc))
        assert exc.value.code == "EdgeKindMismatch"

    def test_cross_component_id_clash(self):
        component = {
            "layout": "SLL",
            "variables": [],
            "nodes": ["a"],
            "var_edges": [],
            "node_edges": [],
        }
        doc = {"components": [component, dict(component)]}
        with pytest.raises(ModelError) as exc:
            parse_heap(json.dumps(doc))
        assert exc.value.code == "IdClash"

    def test_var_node_overlap_is_model_error(self):
        doc = {
            "components": [
                {
                    "layout": "SLL",
                    "variables": ["a"],
                    "nodes": ["a"],
                    "var_edges": [],
                    "node_edges": [],
                }
            ]
        }
        with pytest.raises(ModelError) as exc:
            parse_heap(json.dumps(doc))
        assert exc.value.code == "IdClash"

    def test_duplicate_edges_collapse(self):
        doc = {
            "components": [
                {
                    "layout": "SLL",
                    "variables": [],
                    "nodes": ["a", "b"],
                    "var_edges": [],
                    "node_edges": [["a", "b"], ["a", "b"]],
                }
            ]
        }
        heap = parse_heap(json.dumps(doc))
        assert len(heap.components[0].edges) == 1


class TestSerializeHeap:
    def test_canonical_empty_document(self):
        assert serialize_heap(Heap(())) == '{\n  "components": []\n}\n'

    def test_fixture_roundtrips(self, fixture_dir):
        for name in (
            "fig1_sll.json",
            "fig2_tree.json",
            "fig3_cycle.json",
            "fig4_dag.json",
        ):
            text = (fixture_dir / name).read_text(encoding="utf-8")
            heap = parse_heap(text)
            out = serialize_heap(heap)
            assert parse_heap(out) == heap
            assert serialize_heap(parse_heap(out)) == out

    def test_fixture_files_are_canonical(self, fixture_dir):
        for name in ("fig1_sll.json", "fig2_tree.json", "fig3_cycle.json", "fig4_dag.json"):
            text = (fixture_dir / name).read_text(encoding="utf-8")
            assert serialize_heap(parse_heap(text)) == text

    def test_key_and_list_order_fixed(self, fig1):
        out = serialize_heap(Heap((fig1,)))
        doc = json.loads(out)
        assert list(doc) == ["components"]
        assert list(doc["components"][0]) == [
            "layout",
            "variables",
            "nodes",
            "var_edges",
            "node_edges",
        ]
        assert doc["components"][0]["nodes"] == sorted(doc["components"][0]["nodes"])
        assert doc["components"][0]["node_edges"] == sorted(
            doc["components"][0]["node_edges"]
        )

    def test_golden_fig3_abstraction(self, fig3, golden_dir):
        out = serialize_heap(Heap((abstract_component(fig3).output,)))
        golden = (golden_dir / "fig3_abstract.json").read_text(encoding="utf-8")
        assert out == golden

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_random_heap_roundtrip(self, seed):
        heap = random_heap(random.Random(seed))
        text = serialize_heap(heap)
        assert parse_heap(text) == heap
        assert serialize_heap(parse_heap(text)) == text


class TestWitnessDocuments:
    def test_identity_of_single_node_component(self):
        c = comp(Layout.SLL, vars={"v"}, nodes={"n"}, edges={ve("v", "n")})
        [doc] = json.loads(serialize_witnesses([identity_witness(c)]))["witnesses"]
        assert doc["node_map"] == {"n": "n"}
        assert doc["edge_map"] == [[["var", "v", "n"], ["var", "v", "n"]]]

    def test_roundtrip_on_abstraction_witnesses(self, fig1, fig2, fig3, fig4):
        for c in (fig1, fig2, fig3, fig4):
            w = abstract_component(c).witness
            text = serialize_witnesses([w])
            assert parse_witnesses(text) == [w]
            assert serialize_witnesses(parse_witnesses(text)) == text

    def test_unknown_node_with_context(self, fig1):
        # The parser checks only the document; whether the witness fits its
        # components is for the checker to say.
        result = abstract_component(fig1)
        doc = json.loads(serialize_witnesses([result.witness]))
        doc["witnesses"][0]["node_map"]["ghost"] = "h1"
        [w] = parse_witnesses(json.dumps(doc))
        found = check_valid_abstraction(fig1, result.output, w)
        assert [v.code for v in found] == ["NodeMapDomainUnknown"]

    def test_node_map_must_be_an_object(self):
        text = json.dumps({"witnesses": [{"node_map": [], "edge_map": []}]})
        with pytest.raises(SchemaError) as exc:
            parse_witnesses(text)
        assert (exc.value.code, exc.value.location) == ("WrongType", "$.witnesses[0].node_map")

    def test_context_free_parse_accepts_any_ids(self):
        text = '{"witnesses": [{"node_map": {"x": "y"}, "edge_map": []}]}'
        [w] = parse_witnesses(text)
        assert w.node_map == {"x": "y"}

    def test_unknown_edge_kind(self):
        entry = [["arc", "a", "b"], ["arc", "a", "b"]]
        text = json.dumps({"witnesses": [{"node_map": {}, "edge_map": [entry]}]})
        with pytest.raises(SchemaError) as exc:
            parse_witnesses(text)
        assert exc.value.code == "UnknownEdgeKind"

    def test_duplicate_edge_entry(self):
        entry = [["node", "a", "b"], ["node", "a", "b"]]
        text = json.dumps({"witnesses": [{"node_map": {}, "edge_map": [entry, entry]}]})
        with pytest.raises(SchemaError) as exc:
            parse_witnesses(text)
        assert exc.value.code == "DuplicateEdge"

    def test_witness_set_roundtrip(self, fig1, fig3):
        from genheaps import random_relabeling, relabel
        from heapabstract import heap_abstract_results

        other = relabel(fig3, random_relabeling(random.Random(5), fig3))
        other = comp(
            other.layout,
            {"s2"},
            other.nodes,
            {ve("s2", e.target) if hasattr(e, "var") else e for e in other.edges},
        )
        heap = Heap((fig1, other))
        witnesses = [r.witness for r in heap_abstract_results(heap)]
        text = serialize_witnesses(witnesses)
        assert parse_witnesses(text) == witnesses
        assert serialize_witnesses(parse_witnesses(text)) == text


class TestExportDot:
    def test_fig1_edges_present(self, fig1):
        dot = export_dot(Heap((fig1,)))
        assert "s -> h0;" in dot
        assert "h7 -> h6;" in dot
        assert "s [shape=circle];" in dot
        assert "h0 [shape=oval];" in dot

    def test_empty_heap(self):
        assert export_dot(Heap(())) == "digraph heap {\n}\n"

    def test_tree_edges_carry_labels(self, fig2):
        dot = export_dot(Heap((fig2,)))
        for line in dot.splitlines():
            stripped = line.strip()
            if "->" in stripped and not stripped.startswith("R "):
                assert 'label="l"' in stripped or 'label="r"' in stripped

    def test_deterministic(self, fig1, fig4):
        from genheaps import random_relabeling, relabel

        other = relabel(fig4, {n: f"d_{n}" for n in fig4.nodes})
        other = comp(
            other.layout,
            {"s4"},
            other.nodes,
            {ve("s4", e.target) if hasattr(e, "var") else e for e in other.edges},
        )
        heap = Heap((fig1, other))
        assert export_dot(heap) == export_dot(heap)

    def test_clusters_per_component(self, fig1, fig2):
        from genheaps import relabel

        other = relabel(fig2, {n: f"t_{n}" for n in fig2.nodes})
        heap = Heap((fig1, other))
        dot = export_dot(heap)
        assert "subgraph cluster_0 {" in dot
        assert "subgraph cluster_1 {" in dot

    def test_dot_keywords_get_quoted(self):
        # DOT keywords in any letter case are ids only when quoted.
        c = comp(
            Layout.SLL,
            {"edge", "Strict"},
            {"node", "graph", "nodes", "x1", "DiGraph", "SUBGRAPH"},
            {ve("edge", "node"), ve("Strict", "x1"), ne("node", "graph"), ne("nodes", "x1")},
        )
        dot = export_dot(Heap((c,)))
        assert '"edge" [shape=circle];' in dot
        assert '"Strict" [shape=circle];' in dot
        assert '"node" -> "graph";' in dot
        assert '"DiGraph" [shape=oval];' in dot
        assert '"SUBGRAPH" [shape=oval];' in dot
        assert "nodes -> x1;" in dot
        assert "x1 [shape=oval];" in dot

    def test_graph_name_is_quoted_when_needed(self):
        assert export_dot(Heap(()), name="my heap") == 'digraph "my heap" {\n}\n'
        assert export_dot(Heap(()), name="graph") == 'digraph "graph" {\n}\n'

    def test_odd_identifiers_get_quoted(self):
        c = comp(Layout.SLL, nodes={"a-1"}, edges=set())
        dot = export_dot(Heap((c,)))
        assert '"a-1" [shape=oval];' in dot
