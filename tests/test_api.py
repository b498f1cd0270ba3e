"""The public API: its exact name list, and the README's library tour."""

import re
from pathlib import Path

import heapabstract

README = Path(__file__).resolve().parent.parent / "README.md"

# What the paper defines plus what the CLI and the benchmark need; a new
# public name has to be added here on purpose.
PUBLIC_API = [
    "AbstractionResult",
    "BudgetExceededError",
    "Component",
    "DomainMismatchError",
    "Edge",
    "EmptyComponentError",
    "Heap",
    "HeapAbstractError",
    "InternalInvariantError",
    "InvalidComponentError",
    "Layout",
    "LayoutMismatchError",
    "MergeEvent",
    "ModelError",
    "NodeClass",
    "NodeEdge",
    "ParseError",
    "Reason",
    "SameNodeError",
    "SchemaError",
    "SimilarityPartition",
    "TreeEdge",
    "UnknownNodeError",
    "UnreachableNodeError",
    "VarEdge",
    "Violation",
    "Witness",
    "abstract_component",
    "check_valid_abstraction",
    "compose",
    "depth_map",
    "edges_in",
    "edges_out",
    "entry_nodes",
    "export_dot",
    "find_witness_bruteforce",
    "heap_abstract_results",
    "height",
    "identity_witness",
    "isomorphic",
    "node_classes",
    "ordinary_nodes",
    "parse_heap",
    "parse_witnesses",
    "ref_similar_dag",
    "reference_similar",
    "reference_similar_set",
    "region_edges",
    "serialize_heap",
    "serialize_witnesses",
    "validate_component",
]


def test_public_api_is_pinned():
    assert heapabstract.__all__ == PUBLIC_API
    assert all(hasattr(heapabstract, name) for name in PUBLIC_API)


def test_readme_quick_tour_runs(monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    monkeypatch.chdir(README.parent)
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
