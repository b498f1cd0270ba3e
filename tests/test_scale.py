"""Large components through the ``abstract`` command, end to end.

Each heap has one variable on its head or root, so the closed-form output
size follows from the layout alone.  Components of 10^5 nodes must
abstract correctly within a wall-time bound, and the witness of one must
check within another.  The writers are checked to hold a bounded part of
a large document at a time, and a command short of memory must end in a
coded error.
"""

import json
import os
import re
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import heapabstract
from heapabstract import (
    Component,
    Heap,
    Layout,
    NodeEdge,
    VarEdge,
    abstract_component,
    serialize_heap,
    serialize_witnesses,
)
from heapabstract.cli import run
from heapabstract.formats import _heap_chunks, _witness_chunks

DAG_WIDTH = 8


def _write_heap(path, layout: Layout, n: int, arcs) -> None:
    # Generated straight to JSON: the parser reads any layout of the document.
    nodes = [f"n{i}" for i in range(n)]
    doc = {
        "layout": layout.value,
        "variables": ["x"],
        "nodes": nodes,
        "var_edges": [["x", "n0"]],
        "node_edges": [[f"n{a}", f"n{b}", *label] for a, b, *label in arcs],
    }
    path.write_text(json.dumps({"components": [doc]}), encoding="utf-8")


def _chain_arcs(n: int, ring: bool) -> list:
    return [(i, i + 1) for i in range(n - 1)] + ([(n - 1, 0)] if ring else [])


def _tree_arcs(height: int) -> list:
    inner = range(2 ** (height - 1) - 1)
    return [(i, 2 * i + k, label) for i in inner for k, label in ((1, "l"), (2, "r"))]


def _in_forest_arcs(height: int) -> list:
    # A perfect binary tree with every edge reversed: each node points at
    # its parent.  The leaves are the entries and every edge leads one step
    # deeper, so only the variable's root is special and each of the
    # root's two subtrees contracts to one node.
    return [(i, (i - 1) // 2) for i in range(1, 2**height - 1)]


def _dag_arcs(n: int) -> list:
    # A root over layers of DAG_WIDTH nodes, complete bipartite between
    # consecutive layers: each layer is one reference-similar group.
    layers = [range(s, min(n, s + DAG_WIDTH)) for s in range(1, n, DAG_WIDTH)]
    arcs = [(0, j) for j in layers[0]]
    for upper, lower in zip(layers, layers[1:]):
        arcs.extend((a, b) for a in upper for b in lower)
    return arcs


def _layered_dag(n: int) -> Component:
    edges = [NodeEdge(f"n{a}", f"n{b}") for a, b in _dag_arcs(n)]
    return Component(Layout.DAG, {"x"}, {f"n{i}" for i in range(n)}, {VarEdge("x", "n0"), *edges})


# Wall-time bounds of the abstract command at 10^5 nodes: three times the
# median of three runs when the ranked index landed (1.7, 1.6, 2.0 and
# 6.1 s on a shared 2-vCPU VM, Python 3.11), and for the converging list
# when the list merges became one rank-order scan (3.9 s, same VM).
# Never loosen them.
@pytest.mark.parametrize(
    "layout, n, arcs, expected, bound_s",
    [
        (Layout.SLL, 100_000, lambda: _chain_arcs(100_000, ring=False), 2, 5.1),
        (Layout.C, 100_000, lambda: _chain_arcs(100_000, ring=True), 2, 4.8),
        (Layout.T, 2**17 - 1, lambda: _tree_arcs(17), 3, 6.0),
        (Layout.DAG, 100_000, lambda: _dag_arcs(100_000), 12_501, 18.4),
        (Layout.SLL, 2**17 - 1, lambda: _in_forest_arcs(17), 3, 11.8),
    ],
    ids=["list", "ring", "tree", "dag", "converging"],
)
def test_large_component_abstracts(layout, n, arcs, expected, bound_s, tmp_path):
    heap_path, out, wit = (tmp_path / name for name in ("heap.json", "out.json", "w.json"))
    _write_heap(heap_path, layout, n, arcs())
    start = time.perf_counter()
    assert run(["abstract", str(heap_path), "--out", str(out), "--witness", str(wit)]) == 0
    elapsed = time.perf_counter() - start
    (component,) = json.loads(out.read_text(encoding="utf-8"))["components"]
    assert len(component["nodes"]) == expected
    assert elapsed < bound_s


# Wall-time bound of the check-witness command on the abstract command's
# output for the 10^5-node DAG: three times the median of three runs when
# witness documents came to be judged on ranks (13.0, 14.5 and 14.8 s on
# a shared 2-vCPU VM, Python 3.11).  With the witness parse reading one
# entry at a time the runs read 15.6, 16.6 and 17.1 s on the same VM;
# the bound was kept.  Never loosen it.
def test_large_witness_checks(tmp_path):
    heap_path, out, wit = (tmp_path / name for name in ("heap.json", "out.json", "w.json"))
    _write_heap(heap_path, Layout.DAG, 100_000, _dag_arcs(100_000))
    assert run(["abstract", str(heap_path), "--out", str(out), "--witness", str(wit)]) == 0
    start = time.perf_counter()
    assert run(["check-witness", str(heap_path), str(out), str(wit)]) == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 43.5


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



MB = 2**20
# Runs the CLI on its arguments, then writes the process status, whose
# VmPeak line is its peak address-space size, to stderr.
_PEAK = """import sys
from heapabstract.cli import run
code = run(sys.argv[1:])
sys.stderr.write(open("/proc/self/status").read())
sys.exit(code)"""


def _child(args, limit=None) -> tuple:
    """Exit status and stderr of ``python *args`` in a child process, its
    address space capped at ``limit`` bytes when given."""
    src = str(Path(heapabstract.__file__).resolve().parents[1])

    def cap():  # runs in the child only
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    proc = subprocess.run(
        [sys.executable, *args],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        preexec_fn=cap if limit else None,
    )
    return proc.returncode, proc.stderr


@pytest.fixture(scope="module")
def import_floor():
    """The lowest address-space limit, to 64 KB, at which the CLI module imports."""
    low, high = 0, 256 * MB
    while high - low > 64 * 1024:
        mid = (low + high) // 2
        if _child(["-c", "import heapabstract.cli"], mid)[0] == 0:
            high = mid
        else:
            low = mid
    return high


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
@pytest.mark.parametrize("command", ["abstract", "check-witness", "validate"])
def test_out_of_memory_is_an_input_error(command, import_floor, tmp_path):
    # Each command on the 10^4-node DAG, under six address-space limits
    # from just above the import floor to above its peak, ends in success
    # or in the OutOfMemory error (exit 2), and leaves no file behind.  A
    # failed import is the interpreter's exit 1, and within a megabyte or
    # so of the floor the import can still fail (with Python 3.10, at the
    # floor plus 1 MB but not plus 0.5 or 1.25 MB), so the limits start 2 MB up.
    heap, out, wit, staged = (tmp_path / n for n in ("heap.json", "out.json", "w.json", "staged"))
    _write_heap(heap, Layout.DAG, 10_000, _dag_arcs(10_000))
    cli = ["-m", "heapabstract.cli"]
    assert _child([*cli, "abstract", str(heap), "--out", str(out), "--witness", str(wit)])[0] == 0
    staged.mkdir()
    inputs = {
        "abstract": [str(heap)],
        "check-witness": [str(heap), str(out), str(wit)],
        "validate": [str(heap)],
    }[command]
    outputs = ["--out", str(staged / "o.json"), "--witness", str(staged / "w.json")]
    argv = [command, *inputs, *(outputs if command == "abstract" else [])]
    status, err = _child(["-c", _PEAK, *argv])
    assert status == 0
    peak = int(re.search(r"VmPeak:\s*(\d+) kB", err)[1]) * 1024
    start, top = import_floor + 2 * MB, peak * 5 // 4
    expected = f"error: OutOfMemory: {command} ran out of memory on {', '.join(inputs)}\n"
    statuses = []
    for limit in (int(start * (top / start) ** (i / 5)) for i in range(6)):
        for f in staged.iterdir():  # what the last successful run wrote
            f.unlink()
        status, err = _child([*cli, *argv], limit)
        assert status in (0, 2), (limit, status, err)
        if status == 2:
            assert err == expected
        written = sorted(f.name for f in staged.iterdir())
        assert written == (["o.json", "w.json"] if status == 0 and command == "abstract" else [])
        statuses.append(status)
    assert sorted(f.name for f in tmp_path.iterdir()) == ["heap.json", "out.json", "staged", "w.json"]
    assert statuses[0] == 2 and statuses[-1] == 0
