"""Fuzzing of the document parsers and the CLI.

Any input, however malformed, must end in success or a ``DocumentError``
(exit 2 from the CLI, or exit 1 where a witness check fails), never in
another exception or exit 3.  Inputs are arbitrary JSON values and valid
documents with one token, edge or label replaced.  Explicit cases pin the
error code and location of edge rows that the parser's edge loop refuses,
and so the order in which those rows are checked, and of the first bad
entry of a long witness document.
"""

import contextlib
import io
import json
import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from genheaps import random_heap
from heapabstract import (
    Component,
    Heap,
    heap_abstract_results,
    parse_heap,
    parse_witnesses,
    serialize_heap,
    serialize_witnesses,
    validate_component,
)
from heapabstract.cli import run
from heapabstract.errors import DocumentError

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-5, 5)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)

# Strings a mutation may put where an id, a label or a kind tag belongs.
# A lone surrogate is valid JSON text but no UTF-8 output can carry it.
odd_strings = st.sampled_from(
    ["", " ", "a b", "x,y", "l", "r", "m", "var", "node", "tree", "n", "é", "\u0001", "\ud800"]
)


def _sites(value) -> list:
    """Every (container, key) slot inside a JSON value, in document order."""
    sites = []
    stack = [value]
    while stack:
        node = stack.pop()
        keys = node.keys() if isinstance(node, dict) else range(len(node))
        for key in keys:
            sites.append((node, key))
            if isinstance(node[key], (dict, list)):
                stack.append(node[key])
    return sites


@st.composite
def mutated(draw, doc):
    """``doc`` with one slot (an id, an edge, a label, a list...) replaced."""
    sites = _sites(doc)
    container, key = sites[draw(st.integers(0, len(sites) - 1))]
    ids = [v for c, k in sites if isinstance(v := c[k], str)]
    choices = [json_values, odd_strings, st.lists(odd_strings, max_size=4)]
    if ids:
        choices.append(st.sampled_from(ids))
        choices.append(st.lists(st.sampled_from(ids), max_size=4))
    container[key] = draw(st.one_of(choices))
    return doc


def _heap_and_witnesses(seed: int):
    heap = random_heap(random.Random(seed), max_components=3, max_nodes=8)
    results = heap_abstract_results(heap)
    target = Heap(tuple(r.output for r in results))
    return heap, target, [r.witness for r in results]


@st.composite
def mutated_heap(draw):
    heap, _, _ = _heap_and_witnesses(draw(st.integers(0, 10**6)))
    return draw(mutated(json.loads(serialize_heap(heap))))


@st.composite
def mutated_witnesses(draw):
    _, _, witnesses = _heap_and_witnesses(draw(st.integers(0, 10**6)))
    return draw(mutated(json.loads(serialize_witnesses(witnesses))))


def _parses_or_rejects(parse, value):
    try:
        parse(json.dumps(value))
    except DocumentError:
        pass


@given(json_values)
@settings(max_examples=100)
def test_parse_heap_arbitrary_json(value):
    _parses_or_rejects(parse_heap, value)
    _parses_or_rejects(parse_heap, {"components": [value]})


@given(mutated_heap())
@settings(max_examples=300)
def test_parse_heap_mutated(doc):
    try:
        heap = parse_heap(json.dumps(doc))
    except DocumentError:
        return
    # What parses declares every endpoint and fits its layout's edge kind,
    # so the constructor, which refuses anything else, builds it again.
    for c in heap.components:
        assert Component(c.layout, c.vars, c.nodes, c.edges) == c
        validate_component(c)  # and validation runs to its end on it
    assert parse_heap(serialize_heap(heap)) == heap


@given(json_values)
@settings(max_examples=100)
def test_parse_witnesses_arbitrary_json(value):
    _parses_or_rejects(parse_witnesses, value)
    _parses_or_rejects(parse_witnesses, {"witnesses": [value]})


@given(mutated_witnesses())
@settings(max_examples=300)
def test_parse_witnesses_mutated(doc):
    _parses_or_rejects(parse_witnesses, doc)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _run_strict(argv) -> int:
    # The exit code with stdout a strict UTF-8 stream, as a terminal or a pipe is.
    with contextlib.redirect_stdout(io.TextIOWrapper(io.BytesIO(), encoding="utf-8")):
        return run(argv)


SURROGATE_HEAP = {
    "components": [
        {
            "layout": "SLL",
            "variables": ["x"],
            "nodes": ["\ud800"],
            "var_edges": [["x", "\ud800"]],
            "node_edges": [],
        }
    ]
}


@given(doc=st.one_of(json_values, mutated_heap()))
@example(doc=SURROGATE_HEAP)
@settings(max_examples=150)
def test_cli_validate_and_abstract_exit_codes(workdir, doc):
    # Every command that reads one heap: validate, abstract, classify, export-dot.
    heap = workdir / "heap.json"
    heap.write_text(json.dumps(doc), encoding="utf-8")
    assert _run_strict(["validate", str(heap)]) in (0, 2)
    argv = ["abstract", str(heap), "--out", str(workdir / "out.json")]
    assert _run_strict([*argv, "--witness", str(workdir / "w.json")]) in (0, 2)
    assert _run_strict(["classify", str(heap)]) in (0, 2)
    assert _run_strict(["export-dot", str(heap)]) in (0, 2)


@given(seed=st.integers(0, 10**6), data=st.data())
@settings(max_examples=150)
def test_cli_check_witness_exit_codes(workdir, seed, data):
    heap, target, witnesses = _heap_and_witnesses(seed)
    docs = {
        "source": json.loads(serialize_heap(heap)),
        "target": json.loads(serialize_heap(target)),
        "witness": json.loads(serialize_witnesses(witnesses)),
    }
    name = data.draw(st.sampled_from(sorted(docs)))
    docs[name] = data.draw(st.one_of(json_values, mutated(docs[name])))
    for key, doc in docs.items():
        (workdir / f"{key}.json").write_text(json.dumps(doc), encoding="utf-8")
    paths = [str(workdir / f"{key}.json") for key in ("source", "target", "witness")]
    assert run(["check-witness", *paths]) in (0, 1, 2)


@pytest.mark.parametrize(
    "parse, text",
    [(parse_heap, '{"components": [%s]}'), (parse_witnesses, '{"witnesses": [%s]}')],
    ids=["heap", "witnesses"],
)
def test_oversized_integer_literal_is_a_document_error(parse, text):
    # Past the interpreter's integer conversion limit (4,300 digits by
    # default) json.loads raises a plain ValueError; without the limit the
    # integer is read and fails the schema.
    with pytest.raises(DocumentError) as exc:
        parse(text % ("1" * 5000))
    if hasattr(sys, "get_int_max_str_digits"):
        assert exc.value.code == "InvalidJson"


def _heap_doc(layout, var_edges, node_edges):
    return json.dumps(
        {
            "components": [
                {
                    "layout": layout,
                    "variables": ["x"],
                    "nodes": ["a", "b"],
                    "var_edges": var_edges,
                    "node_edges": node_edges,
                }
            ]
        }
    )


@pytest.mark.parametrize(
    "layout, var_edges, node_edges, code, location",
    [
        ("SLL", [["x", "bad token"]], [], "BadToken", "var_edges[0][1]"),
        ("SLL", [["x", 5]], [], "WrongType", "var_edges[0][1]"),
        ("SLL", [["x y", "a"]], [], "BadToken", "var_edges[0][0]"),
        ("SLL", [[None, "a"]], [], "WrongType", "var_edges[0][0]"),
        ("SLL", [["a", "x"]], [], "UnknownVariable", "var_edges[0]"),
        ("SLL", [["x", "a"]], [["a", "b c"]], "BadToken", "node_edges[0][1]"),
        ("SLL", [["x", "a"]], [["a", 7]], "WrongType", "node_edges[0][1]"),
        ("SLL", [["x", "a"]], [[["a"], "b"]], "WrongType", "node_edges[0][0]"),
        ("SLL", [["x", "a"]], [["a", "b"], ["b", "zz"]], "UnknownNode", "node_edges[1]"),
        ("SLL", [["x", "a"]], [["a", "b", "l"]], "EdgeKindMismatch", "node_edges[0]"),
        ("T", [["x", "a"]], [["a", "", "l"]], "BadToken", "node_edges[0][1]"),
        ("T", [["x", "a"]], [["a", "b", "m"]], "BadLabel", "node_edges[0]"),
        ("T", [["x", "a"]], [["a", "b", ["l"]]], "BadLabel", "node_edges[0]"),
        ("DAG", [["x", "a"]], [["a", {"k": 1}]], "WrongType", "node_edges[0][1]"),
        ("T", [["x", "a"]], [["a", "zz", "m"]], "UnknownNode", "node_edges[0]"),
        ("SLL", [["zz", "b c"]], [], "BadToken", "var_edges[0][1]"),
        ("SLL", [["x"]], [], "EdgeKindMismatch", "var_edges[0]"),
        ("SLL", [["x", "zz"]], [], "UnknownNode", "var_edges[0]"),
        ("SLL", ["x"], [], "WrongType", "var_edges[0]"),
        ("DAG", [["x", "a"]], [{"a": "b"}], "WrongType", "node_edges[0]"),
    ],
)
def test_edge_with_one_declared_endpoint_keeps_code_and_location(
    layout, var_edges, node_edges, code, location
):
    with pytest.raises(DocumentError) as exc:
        parse_heap(_heap_doc(layout, var_edges, node_edges))
    assert (exc.value.code, exc.value.location) == (code, f"$.components[0].{location}")


@pytest.mark.parametrize(
    "layout, node_edges, code, location",
    [
        ("DAG", ["ab"], "WrongType", "node_edges[0]"),
        ("SLL", [["a", "b"]] * 1500 + [["b", "zz"]] + [["a", "q"]] * 600,
         "UnknownNode", "node_edges[1500]"),
        ("DAG", [["a", "b"]] * 500 + [["a", 5]] + [["a", "b"]] * 2000,
         "WrongType", "node_edges[500][1]"),
        ("T", [["a", "b", "l"]] * 1100 + [["a", "b", "m"]], "BadLabel", "node_edges[1100]"),
    ],
)
def test_first_bad_row_is_named_in_any_list(layout, node_edges, code, location):
    # Rows are converted in blocks; a row that unpacks like an edge but is
    # no list, and the first bad row of a long list, are still the ones named.
    with pytest.raises(DocumentError) as exc:
        parse_heap(_heap_doc(layout, [["x", "a"]], node_edges))
    assert (exc.value.code, exc.value.location) == (code, f"$.components[0].{location}")


@pytest.mark.parametrize(
    "nodes, code",
    [(["a", 1], "WrongType"), (["a", ["a"]], "WrongType"), (["a", True], "WrongType"),
     (["a", "a"], "DuplicateId"), (["a", "b c"], "BadToken"), (["a", "b\n"], "BadToken")],
)
def test_bad_id_list_keeps_code_and_location(nodes, code):
    doc = json.loads(_heap_doc("DAG", [], []))
    doc["components"][0]["nodes"] = nodes
    with pytest.raises(DocumentError) as exc:
        parse_heap(json.dumps(doc))
    assert (exc.value.code, exc.value.location) == (code, "$.components[0].nodes[1]")


GOOD_ENTRIES = [[["node", f"n{i}", f"n{i + 1}"], ["node", "m", "m"]] for i in range(1100)]


@pytest.mark.parametrize(
    "node_map, entry, code, location",
    [
        ({}, [["node", "n0", "b c"], ["node", "m", "m"]], "BadToken", "edge_map[1100][0][2]"),
        ({}, [["node", "n0", "n1"], ["var", "x y", "m"]], "BadToken", "edge_map[1100][1][1]"),
        ({}, [["node", 5, "n1"], ["node", "m", "m"]], "WrongType", "edge_map[1100][0][1]"),
        ({}, [["node", ["n0"], "n1"], ["node", "m", "m"]], "WrongType", "edge_map[1100][0][1]"),
        ({}, [["node", "m", "m"], ["node", "m", {}]], "WrongType", "edge_map[1100][1][2]"),
        ({}, [["edge", "n0", "n1"], ["node", "m", "m"]], "UnknownEdgeKind", "edge_map[1100][0]"),
        ({}, [["node", "n0", "n1", "l"], ["node", "m", "m"]], "UnknownEdgeKind",
         "edge_map[1100][0]"),
        ({}, [[], ["node", "m", "m"]], "UnknownEdgeKind", "edge_map[1100][0]"),
        ({}, [["tree", "n0", "n1", "m"], ["node", "m", "m"]], "BadLabel", "edge_map[1100][0]"),
        ({}, [["node", "n0", "n1"], ["tree", "m", "m", ["l"]]], "BadLabel", "edge_map[1100][1]"),
        ({}, GOOD_ENTRIES[3], "DuplicateEdge", "edge_map[1100]"),
        ({}, [["node", "n0", "n1"]], "WrongType", "edge_map[1100]"),
        ({}, "node", "WrongType", "edge_map[1100]"),
        ({"zz": "b c"}, None, "BadToken", "node_map.zz"),
        ({"zz": 5}, None, "WrongType", "node_map.zz"),
        ({"zz": ["m"]}, None, "WrongType", "node_map.zz"),
        ({"z z": "m"}, None, "BadToken", "node_map.z z"),
    ],
)
def test_first_bad_witness_entry_is_named_in_any_list(node_map, entry, code, location):
    # The bad entry follows more than a block of good ones, and another bad
    # entry follows it; the first is the one named.
    doc = {"node_map": {f"n{i}": "m" for i in range(1101)}, "edge_map": list(GOOD_ENTRIES)}
    if entry is None:  # a bad node-map entry
        doc["node_map"].update(node_map, later="b c")
    else:
        doc["edge_map"] += [entry, [["node", "n0", "x y"], ["node", "m", "m"]]]
    with pytest.raises(DocumentError) as exc:
        parse_witnesses(json.dumps({"witnesses": [doc]}))
    assert (exc.value.code, exc.value.location) == (code, f"$.witnesses[0].{location}")
