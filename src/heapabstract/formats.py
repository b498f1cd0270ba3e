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
    _TOKEN,
    _token_ok,
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
    # Fast path: distinct valid tokens; anything else is diagnosed below.
    try:
        if len(set(items)) == len(items) and all(map(_TOKEN.fullmatch, items)):
            return items
    except TypeError:  # an unhashable or non-string item
        pass
    seen = set()
    out = []
    for i, item in enumerate(items):
        token = _parse_token(item, f"{path}[{i}]")
        if token in seen:
            raise SchemaError("DuplicateId", f"duplicate id {token}", f"{path}[{i}]")
        seen.add(token)
        out.append(token)
    return out


def _declared(ident, ids: set) -> bool:
    # Declared ids are valid tokens, so membership also proves the token.
    try:
        return ident in ids
    except TypeError:  # unhashable
        return False


def _parse_var_edge(entry, epath: str, var_set: set, node_set: set) -> VarEdge:
    pair = _require_list(entry, epath)
    if len(pair) != 2:
        raise SchemaError("EdgeKindMismatch", "variable edge must be [var, node]", epath)
    var = _parse_token(pair[0], f"{epath}[0]")
    target = _parse_token(pair[1], f"{epath}[1]")
    if var not in var_set:
        raise SchemaError("UnknownVariable", f"undeclared variable {var}", epath)
    if target not in node_set:
        raise SchemaError("UnknownNode", f"undeclared node {target}", epath)
    return VarEdge(var, target)


def _parse_node_edge(entry, epath: str, layout: Layout, node_set: set) -> Edge:
    arity = 3 if layout is Layout.T else 2
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
        return TreeEdge(src, dst, label)
    return NodeEdge(src, dst)


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

    # Well-formed edges between declared ids are taken as they are; any
    # other entry goes through the checks that name its error and location.
    edges: set = set()
    for i, entry in enumerate(_require_list(obj["var_edges"], f"{path}.var_edges")):
        if (
            type(entry) is list
            and len(entry) == 2
            and _declared(entry[0], var_set)
            and _declared(entry[1], node_set)
        ):
            edges.add(VarEdge(entry[0], entry[1]))
        else:
            edges.add(_parse_var_edge(entry, f"{path}.var_edges[{i}]", var_set, node_set))

    tree = layout is Layout.T
    arity = 3 if tree else 2
    for i, entry in enumerate(_require_list(obj["node_edges"], f"{path}.node_edges")):
        if (
            type(entry) is list
            and len(entry) == arity
            and _declared(entry[0], node_set)
            and _declared(entry[1], node_set)
        ):
            if not tree:
                edges.add(NodeEdge(entry[0], entry[1]))
                continue
            if entry[2] in ("l", "r"):
                edges.add(TreeEdge(entry[0], entry[1], entry[2]))
                continue
        edges.add(_parse_node_edge(entry, f"{path}.node_edges[{i}]", layout, node_set))

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
        raise SchemaError("BadLabel", f"label must be 'l' or 'r', got {parts[3]!r}", path) from None


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
            for ident in edge.ends:
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


def _put_witness(out: list, w: Witness, depth: int, quote: _Quoted) -> None:
    member = "," + _INDENT[depth + 1]
    node_map = w.node_map
    out.append("{" + _INDENT[depth + 1] + '"node_map": ')
    entries = [quote[k] + ": " + quote[node_map[k]] for k in sorted(node_map)]
    _put_items(out, entries, depth + 1, "{}")
    out.append(member + '"edge_map": ')
    # Each entry is a [source edge, image edge] pair; an edge is its own
    # array, and source edges are distinct, so the items sort by source edge.
    pairs = sorted(w.edge_map.items())
    if not pairs:
        out.append("[]")
    else:
        get = quote.__getitem__
        entry, edge, field = _INDENT[depth + 2], _INDENT[depth + 3], _INDENT[depth + 4]
        head, later = "[" + entry + "[" + edge + "[" + field, "," + entry + "[" + edge + "[" + field
        sep, middle = "," + field, edge + "]," + edge + "[" + field
        tail = edge + "]" + entry + "]"
        for source, image in pairs:
            out.append(head + sep.join(map(get, source)) + middle)
            out.append(sep.join(map(get, image)) + tail)
            head = later
        out.append(_INDENT[depth + 1] + "]")
    out.append(_INDENT[depth] + "}")


def serialize_witness(w: Witness) -> str:
    """Serialize one witness to its canonical document."""
    out: list = []
    _put_witness(out, w, 0, _Quoted())
    out.append("\n")
    return "".join(out)


def parse_witnesses(text: str) -> list:
    """Parse a witness-set document, as written for a whole heap."""
    data = _load_json(text)
    obj = _require_object(data, "$", ("witnesses",))
    docs = _require_list(obj["witnesses"], "$.witnesses")
    return [_witness_from_doc(doc, f"$.witnesses[{i}]") for i, doc in enumerate(docs)]


def serialize_witnesses(witnesses) -> str:
    """Serialize the per-component witnesses of one heap run."""
    quote = _Quoted()
    return _document("witnesses", witnesses, lambda out, w: _put_witness(out, w, 2, quote))


_DOT_SAFE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[0-9]+")  # used with fullmatch


def _dot_id(ident: str) -> str:
    if _DOT_SAFE.fullmatch(ident):
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
        for e in sorted(comp.edges):
            label = f' [label="{e[3]}"]' if len(e) == 4 else ""
            lines.append(f"    {_dot_id(e[1])} -> {_dot_id(e[2])}{label};")
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"
