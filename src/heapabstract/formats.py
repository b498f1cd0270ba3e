"""Textual formats: canonical JSON for heaps and witnesses, DOT export.

Serialization is canonical: fixed key order, sorted id and edge lists,
two-space indentation, LF line endings.  The same heap serializes to the
same bytes on every run and platform, which is what makes golden-file
testing and diffing of outputs workable.

Parsing is strict: unknown fields, duplicate ids, and kind/layout
mismatches are errors with stable codes and input locations, never
silently ignored.
"""

from __future__ import annotations

import json
import re

from .errors import ModelError, ParseError, SchemaError
from .model import (
    Component,
    Edge,
    Heap,
    Layout,
    NodeEdge,
    TreeEdge,
    VarEdge,
    _token_ok,
    edge_sort_key,
    first_id_clash,
)
from .witness import Witness

_HEAP_KEYS = ("layout", "variables", "nodes", "var_edges", "node_edges")


def _load_json(text: str):
    def reject_duplicates(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise SchemaError("DuplicateKey", f"duplicate object key {key!r}")
            seen.add(key)
        return dict(pairs)

    try:
        return json.loads(text, object_pairs_hook=reject_duplicates)
    except json.JSONDecodeError as exc:
        raise ParseError(
            "InvalidJson", exc.msg, f"line {exc.lineno} column {exc.colno}"
        ) from exc
    except RecursionError:
        raise ParseError("InvalidJson", "nesting too deep") from None


def _require_object(value, path: str, keys: tuple) -> dict:
    if not isinstance(value, dict):
        raise SchemaError("WrongType", "expected an object", path)
    unknown = set(value) - set(keys)
    if unknown:
        raise SchemaError("UnknownField", f"unknown fields: {sorted(unknown)}", path)
    missing = set(keys) - set(value)
    if missing:
        raise SchemaError("MissingField", f"missing fields: {sorted(missing)}", path)
    return value


def _require_list(value, path: str) -> list:
    if not isinstance(value, list):
        raise SchemaError("WrongType", "expected an array", path)
    return value


def _parse_token(value, path: str) -> str:
    if not isinstance(value, str):
        raise SchemaError("WrongType", "expected a string", path)
    if not _token_ok(value):
        raise SchemaError("BadToken", f"bad identifier token: {value!r}", path)
    return value


def _parse_id_list(value, path: str) -> list:
    items = _require_list(value, path)
    seen = set()
    out = []
    for i, item in enumerate(items):
        token = _parse_token(item, f"{path}[{i}]")
        if token in seen:
            raise SchemaError("DuplicateId", f"duplicate id {token}", f"{path}[{i}]")
        seen.add(token)
        out.append(token)
    return out


def _parse_component(doc, path: str) -> Component:
    obj = _require_object(doc, path, _HEAP_KEYS)

    layout_name = obj["layout"]
    if not isinstance(layout_name, str):
        raise SchemaError("WrongType", "expected a string", f"{path}.layout")
    try:
        layout = Layout(layout_name)
    except ValueError:
        raise SchemaError(
            "UnknownLayout", f"unknown layout {layout_name!r}", f"{path}.layout"
        ) from None

    variables = _parse_id_list(obj["variables"], f"{path}.variables")
    nodes = _parse_id_list(obj["nodes"], f"{path}.nodes")
    overlap = set(variables) & set(nodes)
    if overlap:
        raise ModelError(
            "IdClash",
            f"ids declared as both variable and node: {sorted(overlap)}",
            path,
        )
    var_set, node_set = set(variables), set(nodes)

    edges: set = set()
    for i, entry in enumerate(_require_list(obj["var_edges"], f"{path}.var_edges")):
        epath = f"{path}.var_edges[{i}]"
        pair = _require_list(entry, epath)
        if len(pair) != 2:
            raise SchemaError("EdgeKindMismatch", "variable edge must be [var, node]", epath)
        var = _parse_token(pair[0], f"{epath}[0]")
        target = _parse_token(pair[1], f"{epath}[1]")
        if var not in var_set:
            raise SchemaError("UnknownVariable", f"undeclared variable {var}", epath)
        if target not in node_set:
            raise SchemaError("UnknownNode", f"undeclared node {target}", epath)
        edges.add(VarEdge(var, target))

    arity = 3 if layout is Layout.T else 2
    for i, entry in enumerate(_require_list(obj["node_edges"], f"{path}.node_edges")):
        epath = f"{path}.node_edges[{i}]"
        parts = _require_list(entry, epath)
        if len(parts) != arity:
            raise SchemaError(
                "EdgeKindMismatch",
                f"{layout.value} node edge must have {arity} elements, got {len(parts)}",
                epath,
            )
        src = _parse_token(parts[0], f"{epath}[0]")
        dst = _parse_token(parts[1], f"{epath}[1]")
        for endpoint in (src, dst):
            if endpoint not in node_set:
                raise SchemaError("UnknownNode", f"undeclared node {endpoint}", epath)
        if layout is Layout.T:
            label = parts[2]
            if label not in ("l", "r"):
                raise SchemaError("BadLabel", f"label must be 'l' or 'r', got {label!r}", epath)
            edges.add(TreeEdge(src, dst, label))
        else:
            edges.add(NodeEdge(src, dst))

    return Component(layout, frozenset(variables), frozenset(nodes), frozenset(edges))


def parse_heap(text: str) -> Heap:
    """Parse the canonical heap document format."""
    data = _load_json(text)
    obj = _require_object(data, "$", ("components",))
    docs = _require_list(obj["components"], "$.components")
    components = [
        _parse_component(doc, f"$.components[{i}]") for i, doc in enumerate(docs)
    ]
    try:
        return Heap(tuple(components))
    except ValueError:  # the only check Heap makes: ids reused across components
        i, kind, ids = first_id_clash(components)
        raise ModelError(
            "IdClash", f"{kind} ids reused across components: {ids}", f"$.components[{i}]"
        ) from None


def _component_doc(c: Component) -> dict:
    var_edges = sorted([e.var, e.target] for e in c.var_edges())
    if c.layout is Layout.T:
        node_edges = sorted([e.src, e.dst, e.label] for e in c.node_edges())
    else:
        node_edges = sorted([e.src, e.dst] for e in c.node_edges())
    return {
        "layout": c.layout.value,
        "variables": sorted(c.vars),
        "nodes": sorted(c.nodes),
        "var_edges": var_edges,
        "node_edges": node_edges,
    }


def _dump(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def serialize_heap(h: Heap) -> str:
    """Serialize a heap to its canonical byte-stable document."""
    return _dump({"components": [_component_doc(c) for c in h.components]})


def _encode_edge(e: Edge) -> list:
    if isinstance(e, VarEdge):
        return ["var", e.var, e.target]
    if isinstance(e, NodeEdge):
        return ["node", e.src, e.dst]
    return ["tree", e.src, e.dst, e.label]


def _decode_edge(entry, path: str) -> Edge:
    parts = _require_list(entry, path)
    if not parts or not isinstance(parts[0], str):
        raise SchemaError("UnknownEdgeKind", "edge must start with a kind tag", path)
    kind = parts[0]
    if kind == "var" and len(parts) == 3:
        return VarEdge(
            _parse_token(parts[1], f"{path}[1]"), _parse_token(parts[2], f"{path}[2]")
        )
    if kind == "node" and len(parts) == 3:
        return NodeEdge(
            _parse_token(parts[1], f"{path}[1]"), _parse_token(parts[2], f"{path}[2]")
        )
    if kind == "tree" and len(parts) == 4:
        src = _parse_token(parts[1], f"{path}[1]")
        dst = _parse_token(parts[2], f"{path}[2]")
        if parts[3] not in ("l", "r"):
            raise SchemaError("BadLabel", f"label must be 'l' or 'r', got {parts[3]!r}", path)
        return TreeEdge(src, dst, parts[3])
    raise SchemaError("UnknownEdgeKind", f"unrecognized edge form {parts!r}", path)


def _witness_from_doc(doc, path: str, source=None, target=None) -> Witness:
    obj = _require_object(doc, path, ("node_map", "edge_map"))
    node_map_doc = obj["node_map"]
    if not isinstance(node_map_doc, dict):
        raise SchemaError("WrongType", "expected an object", f"{path}.node_map")

    node_map = {}
    for key, value in node_map_doc.items():
        kpath = f"{path}.node_map.{key}"
        src_id = _parse_token(key, kpath)
        dst_id = _parse_token(value, kpath)
        if source is not None and src_id not in source.nodes:
            raise SchemaError("UnknownNode", f"node {src_id} not in source component", kpath)
        if target is not None and dst_id not in target.nodes:
            raise SchemaError("UnknownNode", f"node {dst_id} not in target component", kpath)
        node_map[src_id] = dst_id

    edge_map = {}
    for i, entry in enumerate(_require_list(obj["edge_map"], f"{path}.edge_map")):
        epath = f"{path}.edge_map[{i}]"
        pair = _require_list(entry, epath)
        if len(pair) != 2:
            raise SchemaError("WrongType", "edge map entry must be [edge, edge]", epath)
        src_edge = _decode_edge(pair[0], f"{epath}[0]")
        dst_edge = _decode_edge(pair[1], f"{epath}[1]")
        for edge, comp, side in ((src_edge, source, "source"), (dst_edge, target, "target")):
            if comp is None:
                continue
            ids = (
                (edge.target,) if isinstance(edge, VarEdge) else (edge.src, edge.dst)
            )
            for ident in ids:
                if ident not in comp.nodes:
                    raise SchemaError(
                        "UnknownNode", f"node {ident} not in {side} component", epath
                    )
        if src_edge in edge_map:
            raise SchemaError("DuplicateEdge", f"edge {pair[0]!r} mapped twice", epath)
        edge_map[src_edge] = dst_edge
    return Witness(node_map, edge_map)


def parse_witness(
    text: str, source: Component | None = None, target: Component | None = None
) -> Witness:
    """Parse a witness document.

    When the source and target components are supplied, every node id in
    the document is checked against their declarations; without them the
    document is only checked structurally.
    """
    return _witness_from_doc(_load_json(text), "$", source, target)


def _witness_doc(w: Witness) -> dict:
    node_map = {k: w.node_map[k] for k in sorted(w.node_map)}
    entries = sorted(
        ([_encode_edge(e), _encode_edge(img)] for e, img in w.edge_map.items()),
        key=lambda pair: pair[0],
    )
    return {"node_map": node_map, "edge_map": entries}


def serialize_witness(w: Witness) -> str:
    """Serialize one witness to its canonical document."""
    return _dump(_witness_doc(w))


def parse_witnesses(text: str) -> list:
    """Parse a witness-set document, as written for a whole heap."""
    data = _load_json(text)
    obj = _require_object(data, "$", ("witnesses",))
    docs = _require_list(obj["witnesses"], "$.witnesses")
    return [_witness_from_doc(doc, f"$.witnesses[{i}]") for i, doc in enumerate(docs)]


def serialize_witnesses(witnesses) -> str:
    """Serialize the per-component witnesses of one heap run."""
    return _dump({"witnesses": [_witness_doc(w) for w in witnesses]})


_DOT_SAFE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$|^[0-9]+$")


def _dot_id(ident: str) -> str:
    if _DOT_SAFE.match(ident):
        return ident
    return '"' + ident.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(h: Heap, name: str = "heap") -> str:
    """Render a heap as one DOT document, one cluster per component.

    Variables are drawn as circles and nodes as ovals; tree edges carry
    their l/r labels.  Output ordering is deterministic.
    """
    lines = [f"digraph {name} {{"]
    for i, comp in enumerate(h.components):
        lines.append(f"  subgraph cluster_{i} {{")
        lines.append(f'    label="component {i} ({comp.layout.value})";')
        for v in sorted(comp.vars):
            lines.append(f"    {_dot_id(v)} [shape=circle];")
        for n in sorted(comp.nodes):
            lines.append(f"    {_dot_id(n)} [shape=oval];")
        for e in sorted(comp.edges, key=edge_sort_key):
            if isinstance(e, VarEdge):
                lines.append(f"    {_dot_id(e.var)} -> {_dot_id(e.target)};")
            elif isinstance(e, NodeEdge):
                lines.append(f"    {_dot_id(e.src)} -> {_dot_id(e.dst)};")
            else:
                lines.append(
                    f'    {_dot_id(e.src)} -> {_dot_id(e.dst)} [label="{e.label}"];'
                )
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"
