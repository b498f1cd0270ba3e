"""Large components through the ``abstract`` command, end to end.

Each heap has one variable on its head or root, so the closed-form output
size follows from the layout alone.  These check that large inputs finish
and abstract correctly; they set no time bound.  The writers are checked
to hold a bounded part of a large document at a time.
"""

import json
import tracemalloc

import pytest

from heapabstract import (
    Component,
    Heap,
    Layout,
    NodeEdge,
    TreeEdge,
    VarEdge,
    abstract_component,
    serialize_heap,
    serialize_witnesses,
)
from heapabstract.cli import run
from heapabstract.formats import _heap_chunks, _witness_chunks

DAG_WIDTH = 8


def _headed(layout: Layout, n: int, edges: list) -> Component:
    nodes = [f"n{i}" for i in range(n)]
    return Component(layout, {"x"}, set(nodes), {VarEdge("x", "n0"), *edges})


def _chain(layout: Layout, n: int) -> Component:
    edges = [NodeEdge(f"n{i}", f"n{i + 1}") for i in range(n - 1)]
    if layout is Layout.C:
        edges.append(NodeEdge(f"n{n - 1}", "n0"))
    return _headed(layout, n, edges)


def _perfect_tree(height: int) -> Component:
    n = 2**height - 1
    edges = [
        TreeEdge(f"n{i}", f"n{2 * i + k}", label)
        for i in range(n // 2)
        for k, label in ((1, "l"), (2, "r"))
    ]
    return _headed(Layout.T, n, edges)


def _layered_dag(n: int) -> Component:
    # A root over layers of DAG_WIDTH nodes, complete bipartite between
    # consecutive layers: each layer is one reference-similar group.
    layers = [range(s, min(n, s + DAG_WIDTH)) for s in range(1, n, DAG_WIDTH)]
    edges = [NodeEdge("n0", f"n{j}") for j in layers[0]]
    for upper, lower in zip(layers, layers[1:]):
        edges.extend(NodeEdge(f"n{a}", f"n{b}") for a in upper for b in lower)
    return _headed(Layout.DAG, n, edges)


@pytest.mark.parametrize(
    "build, expected",
    [
        (lambda: _chain(Layout.SLL, 20_000), 2),
        (lambda: _chain(Layout.C, 20_000), 2),
        (lambda: _perfect_tree(14), 3),
        (lambda: _layered_dag(10_000), 1_251),
    ],
    ids=["list", "ring", "tree", "dag"],
)
def test_large_component_abstracts(build, expected, tmp_path):
    heap_path, out, wit = (tmp_path / name for name in ("heap.json", "out.json", "w.json"))
    heap_path.write_text(serialize_heap(Heap((build(),))), encoding="utf-8")
    assert run(["abstract", str(heap_path), "--out", str(out), "--witness", str(wit)]) == 0
    (component,) = json.loads(out.read_text(encoding="utf-8"))["components"]
    assert len(component["nodes"]) == expected


@pytest.mark.parametrize(
    "document",
    [
        lambda dag: (_heap_chunks, serialize_heap, Heap((dag,))),
        lambda dag: (_witness_chunks, serialize_witnesses, [abstract_component(dag).witness]),
    ],
    ids=["heap", "witnesses"],
)
def test_writing_is_bounded(document, tmp_path):
    chunks, serialize, value = document(_layered_dag(10_000))
    text = serialize(value)
    assert "".join(chunks(value)) == text
    path = tmp_path / "doc.json"
    with open(path, "w", encoding="utf-8", newline="") as handle:
        tracemalloc.start()
        try:
            handle.writelines(chunks(value))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < len(text) / 4
    assert path.read_text(encoding="utf-8") == text
