"""Heap abstraction by grouping logically related regions.

The library models program heaps as collections of labeled directed graph
components (lists, binary trees, cycles, DAGs), classifies each node as
special or ordinary, and merges ordinary nodes into compact abstract
components.  Every abstraction run yields a witness, an onto node map and
edge map, that certifies the output as a valid abstraction of the input
and can be checked independently.
"""

__version__ = "0.1.0"

from .abstraction import (
    AbstractionResult,
    MergeEvent,
    abstract_component,
    heap_abstract_results,
)
from .classify import (
    NodeClass,
    Reason,
    SimilarityPartition,
    node_classes,
    ordinary_nodes,
    ref_similar_dag,
    reference_similar,
    reference_similar_set,
)
from .errors import (
    BudgetExceededError,
    DomainMismatchError,
    EmptyComponentError,
    HeapAbstractError,
    InternalInvariantError,
    InvalidComponentError,
    LayoutMismatchError,
    ModelError,
    ParseError,
    SameNodeError,
    SchemaError,
    UnknownNodeError,
    UnreachableNodeError,
)
from .formats import (
    export_dot,
    parse_heap,
    parse_witnesses,
    serialize_heap,
    serialize_witnesses,
)
from .model import (
    Component,
    Edge,
    Heap,
    Layout,
    NodeEdge,
    TreeEdge,
    VarEdge,
    Violation,
    depth_map,
    edges_in,
    edges_out,
    entry_nodes,
    height,
    region_edges,
    validate_component,
)
from .witness import (
    Witness,
    check_valid_abstraction,
    compose,
    find_witness_bruteforce,
    identity_witness,
    isomorphic,
)

__all__ = [
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
