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
from json.encoder import encode_basestring_ascii

from .errors import ModelError, ParseError, SchemaError
from .model import (
    Component,
    Edge,
    Heap,
    Layout,
    NodeEdge,
    TreeEdge,
    VarEdge,
    _tokens_ok,
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
    if not _tokens_ok((value,)):
        raise SchemaError("BadToken", f"bad identifier token: {value!r}", path)
    return value


def _parse_id_list(value, path: str) -> list:
    items = _require_list(value, path)
    if not _tokens_ok(items) or len(set(items)) != len(items):
        # Name the first bad or repeated id.
        seen = set()
        for i, item in enumerate(items):
            token = _parse_token(item, f"{path}[{i}]")
            if token in seen:
                raise SchemaError("DuplicateId", f"duplicate id {token}", f"{path}[{i}]")
            seen.add(token)
    return items


def _bad_label(label, path: str) -> SchemaError:
    return SchemaError("BadLabel", f"label must be 'l' or 'r', got {label!r}", path)


def _refuse_edge(row, path: str, kind: type, layout: Layout, firsts: set, nodes: set):
    """Raise the error of an edge row that the edge loop refused.

    The checks run in a fixed order: the row is a list of the right
    arity, its two ids are tokens ([0], then [1]), they are declared,
    and last a tree edge's label is "l" or "r".
    """
    _require_list(row, path)
    arity = 3 if kind is TreeEdge else 2
    if len(row) != arity:
        if kind is VarEdge:
            raise SchemaError("EdgeKindMismatch", "variable edge must be [var, node]", path)
        raise SchemaError(
            "EdgeKindMismatch",
            f"{layout.value} node edge must have {arity} elements, got {len(row)}",
            path,
        )
    first, second = [_parse_token(row[i], f"{path}[{i}]") for i in (0, 1)]
    if first not in firsts:
        if kind is VarEdge:
            raise SchemaError("UnknownVariable", f"undeclared variable {first}", path)
        raise SchemaError("UnknownNode", f"undeclared node {first}", path)
    if second not in nodes:
        raise SchemaError("UnknownNode", f"undeclared node {second}", path)
    raise _bad_label(row[2], path)  # only a tree row's label is left


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

    variables = set(_parse_id_list(obj["variables"], f"{path}.variables"))
    nodes = set(_parse_id_list(obj["nodes"], f"{path}.nodes"))
    overlap = variables & nodes
    if overlap:
        raise ModelError(
            "IdClash",
            f"ids declared as both variable and node: {sorted(overlap)}",
            path,
        )

    # A row between declared ids (which are tokens, so membership proves
    # the token) becomes its edge; any other row is refused with the error
    # and location that name what is wrong with it.
    tree = layout is Layout.T
    edges: set = set()
    for key, kind, arity, firsts in (
        ("var_edges", VarEdge, 2, variables),
        ("node_edges", TreeEdge if tree else NodeEdge, 3 if tree else 2, nodes),
    ):
        for i, row in enumerate(_require_list(obj[key], f"{path}.{key}")):
            try:
                if type(row) is list and len(row) == arity and row[0] in firsts and row[1] in nodes:
                    edges.add(kind(*row))
                    continue
            except (TypeError, ValueError):  # an unhashable id; a tree edge's label
                pass
            _refuse_edge(row, f"{path}.{key}[{i}]", kind, layout, firsts, nodes)

    return Component(layout, variables, nodes, edges)


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


# The canonical layout is exactly ``json.dumps(doc, indent=2) + "\n"`` of
# the fixed-schema documents below, written directly: json.dumps only uses
# its C encoder when no indent is given.  Strings are escaped by
# encode_basestring_ascii, which is what json.dumps applies by default.
# Writers append pieces to one list that is joined once, and an id's
# literal is shared by all its occurrences, so little is held at a time.
_INDENT = ["\n" + "  " * depth for depth in range(8)]


class _Quoted(dict):
    """JSON string literals of ids, each encoded once."""

    def __missing__(self, ident: str) -> str:
        literal = self[ident] = encode_basestring_ascii(ident)
        return literal


def _document(key: str, items, put) -> str:
    """``{key: [items]}`` as canonical text; ``put(out, item)`` appends one item."""
    out = ["{" + _INDENT[1] + f'"{key}": ']
    opening = "["
    for item in items:
        out.append(opening + _INDENT[2])
        put(out, item)
        opening = ","
    out.append(_INDENT[1] + "]" if opening == "," else "[]")
    out.append(_INDENT[0] + "}\n")
    return "".join(out)


def _put_items(out: list, items: list, depth: int, brackets: str = "[]") -> None:
    """Append encoded items as a JSON array (or object, given "{}") at ``depth``."""
    if not items:
        out.append(brackets)
        return
    inner = _INDENT[depth + 1]
    out.append(brackets[0] + inner + ("," + inner).join(items) + _INDENT[depth] + brackets[1])


def _put_rows(out: list, rows: list, depth: int, quote: _Quoted) -> None:
    """Append a JSON array at ``depth`` whose items are arrays of ids."""
    if not rows:
        out.append("[]")
        return
    get = quote.__getitem__
    outer, inner = _INDENT[depth + 1], _INDENT[depth + 2]
    head, later = "[" + outer + "[" + inner, "," + outer + "[" + inner
    sep, tail = "," + inner, outer + "]"
    for row in rows:
        out.append(head + sep.join(map(get, row)) + tail)
        head = later
    out.append(_INDENT[depth] + "]")


def _put_component(out: list, c: Component, quote: _Quoted) -> None:
    # A component is an item of the components array, at depth 2.  An
    # edge's heap-document row is the edge without its kind tag.
    var_edges, node_edges = [], []
    for e in sorted(c.edges):
        (var_edges if isinstance(e, VarEdge) else node_edges).append(e[1:])
    member = "," + _INDENT[3]
    out.append("{" + _INDENT[3] + '"layout": ' + quote[c.layout.value])
    out.append(member + '"variables": ')
    _put_items(out, [quote[v] for v in sorted(c.vars)], 3)
    out.append(member + '"nodes": ')
    _put_items(out, [quote[n] for n in sorted(c.nodes)], 3)
    out.append(member + '"var_edges": ')
    _put_rows(out, var_edges, 3, quote)
    out.append(member + '"node_edges": ')
    _put_rows(out, node_edges, 3, quote)
    out.append(_INDENT[2] + "}")


def serialize_heap(h: Heap) -> str:
    """Serialize a heap to its canonical byte-stable document."""
    quote = _Quoted()
    return _document("components", h.components, lambda out, c: _put_component(out, c, quote))


_EDGE_KINDS = {("var", 3): VarEdge, ("node", 3): NodeEdge, ("tree", 4): TreeEdge}


def _decode_edge(entry, path: str) -> Edge:
    parts = _require_list(entry, path)
    if not parts or not isinstance(parts[0], str):
        raise SchemaError("UnknownEdgeKind", "edge must start with a kind tag", path)
    kind = _EDGE_KINDS.get((parts[0], len(parts)))
    if kind is None:
        raise SchemaError("UnknownEdgeKind", f"unrecognized edge form {parts!r}", path)
    ids = [_parse_token(parts[i], f"{path}[{i}]") for i in (1, 2)]
    try:
        return kind(*ids, *parts[3:])
    except ValueError:  # a tree edge's label
        raise _bad_label(parts[3], path) from None


def _witness_from_doc(doc, path: str) -> Witness:
    obj = _require_object(doc, path, ("node_map", "edge_map"))
    node_map_doc = obj["node_map"]
    if not isinstance(node_map_doc, dict):
        raise SchemaError("WrongType", "expected an object", f"{path}.node_map")

    node_map = {}
    for key, value in node_map_doc.items():
        kpath = f"{path}.node_map.{key}"
        src_id = _parse_token(key, kpath)
        node_map[src_id] = _parse_token(value, kpath)

    edge_map = {}
    for i, entry in enumerate(_require_list(obj["edge_map"], f"{path}.edge_map")):
        epath = f"{path}.edge_map[{i}]"
        pair = _require_list(entry, epath)
        if len(pair) != 2:
            raise SchemaError("WrongType", "edge map entry must be [edge, edge]", epath)
        src_edge = _decode_edge(pair[0], f"{epath}[0]")
        dst_edge = _decode_edge(pair[1], f"{epath}[1]")
        if src_edge in edge_map:
            raise SchemaError("DuplicateEdge", f"edge {pair[0]!r} mapped twice", epath)
        edge_map[src_edge] = dst_edge
    return Witness(node_map, edge_map)


def _put_witness(out: list, w: Witness, quote: _Quoted) -> None:
    # A witness is an item of the witnesses array, at depth 2.
    node_map = w.node_map
    out.append("{" + _INDENT[3] + '"node_map": ')
    entries = [quote[k] + ": " + quote[node_map[k]] for k in sorted(node_map)]
    _put_items(out, entries, 3, "{}")
    out.append("," + _INDENT[3] + '"edge_map": ')
    # Each entry is a [source edge, image edge] pair; an edge is its own
    # array, and source edges are distinct, so the entries sort by source edge.
    sources = sorted(w.edge_map)
    if not sources:
        out.append("[]")
    else:
        get = quote.__getitem__
        entry, edge, field = _INDENT[4], _INDENT[5], _INDENT[6]
        head, later = "[" + entry + "[" + edge + "[" + field, "," + entry + "[" + edge + "[" + field
        sep, middle = "," + field, edge + "]," + edge + "[" + field
        tail = edge + "]" + entry + "]"
        for source in sources:
            out.append(head + sep.join(map(get, source)) + middle)
            out.append(sep.join(map(get, w.edge_map[source])) + tail)
            head = later
        out.append(_INDENT[3] + "]")
    out.append(_INDENT[2] + "}")


def parse_witnesses(text: str) -> list:
    """Parse a witness-set document, as written for a whole heap."""
    data = _load_json(text)
    obj = _require_object(data, "$", ("witnesses",))
    docs = _require_list(obj["witnesses"], "$.witnesses")
    return [_witness_from_doc(doc, f"$.witnesses[{i}]") for i, doc in enumerate(docs)]


def serialize_witnesses(witnesses) -> str:
    """Serialize the per-component witnesses of one heap run."""
    quote = _Quoted()
    return _document("witnesses", witnesses, lambda out, w: _put_witness(out, w, quote))


_DOT_SAFE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[0-9]+")  # used with fullmatch
_DOT_KEYWORDS = frozenset({"node", "edge", "graph", "digraph", "subgraph", "strict"})  # any case


def _dot_id(ident: str) -> str:
    if _DOT_SAFE.fullmatch(ident) and ident.lower() not in _DOT_KEYWORDS:
        return ident
    return '"' + ident.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(h: Heap, name: str = "heap") -> str:
    """Render a heap as one DOT document, one cluster per component.

    Variables are drawn as circles and nodes as ovals; tree edges carry
    their l/r labels.  Output ordering is deterministic.
    """
    lines = [f"digraph {_dot_id(name)} {{"]
    for i, comp in enumerate(h.components):
        lines.append(f"  subgraph cluster_{i} {{")
        lines.append(f'    label="component {i} ({comp.layout.value})";')
        for v in sorted(comp.vars):
            lines.append(f"    {_dot_id(v)} [shape=circle];")
        for n in sorted(comp.nodes):
            lines.append(f"    {_dot_id(n)} [shape=oval];")
        for e in sorted(comp.edges):
            label = f' [label="{e[3]}"]' if len(e) == 4 else ""
            lines.append(f"    {_dot_id(e[1])} -> {_dot_id(e[2])}{label};")
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"
