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
from itertools import chain, islice
from json.encoder import encode_basestring_ascii as _quote

from .errors import ModelError, ParseError, SchemaError
from .model import (
    Component,
    Heap,
    Layout,
    NodeEdge,
    RankedCore,
    TreeEdge,
    VarEdge,
    _tokens_ok,
    edge_keys,
    first_id_clash,
)
from .witness import Witness, _edge_image

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
    except ValueError as exc:  # an integer literal too long to convert
        raise ParseError("InvalidJson", str(exc)) from None


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


def _refuse_edge(row, path: str, kind: type, layout: Layout, firsts: dict, nodes: dict):
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


def _row_keys(rows: list, labeled: bool, firsts: dict, rank: dict):
    """The :func:`edge_keys` of edge rows that are lists; None for a bad row."""
    if set(map(type, rows)) <= {list}:
        try:  # unpacking refuses a row of another arity with a ValueError
            return edge_keys(rows, firsts, rank, labeled)
        except (KeyError, TypeError, ValueError):  # an undeclared or unhashable id or label
            pass
    return None


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

    variables = sorted(_parse_id_list(obj["variables"], f"{path}.variables"))
    ids = sorted(_parse_id_list(obj["nodes"], f"{path}.nodes"))
    var_rank, rank = dict(zip(variables, range(len(variables)))), dict(zip(ids, range(len(ids))))
    overlap = var_rank.keys() & rank.keys()
    if overlap:
        raise ModelError(
            "IdClash",
            f"ids declared as both variable and node: {sorted(overlap)}",
            path,
        )

    # Rows between declared ids (which are tokens, so membership proves
    # the token) become keys over the ids' ranks, and repeated rows
    # collapse; the first row that is not one is refused with the error
    # and location that name what is wrong with it.
    tree = layout is Layout.T
    keys: list = [[], [], []]  # node, tree and variable edges, as in RankedCore
    for key, kind, labeled, firsts, slot in (
        ("var_edges", VarEdge, False, var_rank, 2),
        ("node_edges", TreeEdge if tree else NodeEdge, tree, rank, int(tree)),
    ):
        rows, converted = _require_list(obj[key], f"{path}.{key}"), []
        while rows:  # a block at a time from the end, each dropped once converted
            block = rows[-_CHUNK:]
            del rows[-_CHUNK:]
            block_keys = _row_keys(block, labeled, firsts, rank)
            if block_keys is None:  # every row after the block is good
                for i, row in enumerate(rows + block):
                    if _row_keys([row], labeled, firsts, rank) is None:
                        _refuse_edge(row, f"{path}.{key}[{i}]", kind, layout, firsts, rank)
            converted += block_keys
        keys[slot] = sorted(dict.fromkeys(converted))
    return Component._from_core(layout, variables, ids, RankedCore(ids, variables, tuple(keys)))


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
# Writers append pieces, each at most _CHUNK rows, to a list that is
# joined and handed on as a chunk after each _CHUNK rows, so no document
# is held whole.
_INDENT = ["\n" + "  " * depth for depth in range(8)]
_CHUNK = 1024


def _document(key: str, items, put):
    """Chunks of ``{key: [items]}`` as canonical text.

    ``put(out, item)`` appends one item's pieces to ``out`` and yields each
    chunk it fills.
    """
    out = ["{" + _INDENT[1] + f'"{key}": ']
    opening = "["
    for item in items:
        out.append(opening + _INDENT[2])
        yield from put(out, item)
        opening = ","
    out.append(_INDENT[1] + "]" if opening == "," else "[]")
    out.append(_INDENT[0] + "}\n")
    yield "".join(out)


def _put_array(out: list, texts, depth: int, brackets: str = "[]"):
    """Append a JSON array (object, given "{}") of encoded items at ``depth``.

    Items are joined _CHUNK at a time, and ``out`` is yielded as one chunk
    after each full batch.
    """
    opening, sep = brackets[0] + _INDENT[depth + 1], "," + _INDENT[depth + 1]
    texts = iter(texts)
    while batch := list(islice(texts, _CHUNK)):
        out.append(opening + sep.join(batch))
        opening = sep
        if len(batch) == _CHUNK:
            yield "".join(out)
            out.clear()
    out.append(_INDENT[depth] + brackets[1] if opening is sep else brackets)


def _put_component(out: list, c: Component):
    # A component is an item of the components array, at depth 2.  An
    # edge's heap-document row is the edge without its kind tag, its
    # fields the quoted ids of its ranks.
    core = c._core
    (node_keys, tree_keys, var_keys), n = core.keys, len(core.ids)
    names, var_names = list(map(_quote, core.ids)), list(map(_quote, core.vars))
    head, sep, end, m = "[" + _INDENT[5], "," + _INDENT[5], _INDENT[4] + "]", n * 2
    labels = [f'{sep}"l"{end}', f'{sep}"r"{end}']
    member = "," + _INDENT[3]
    out.append("{" + _INDENT[3] + '"layout": ' + _quote(c.layout.value))
    out.append(member + '"variables": ')
    yield from _put_array(out, var_names, 3)
    out.append(member + '"nodes": ')
    yield from _put_array(out, names, 3)
    out.append(member + '"var_edges": ')
    var_rows = (f"{head}{var_names[k // n]}{sep}{names[k % n]}{end}" for k in var_keys)
    yield from _put_array(out, var_rows, 3)
    out.append(member + '"node_edges": ')
    node_rows = (f"{head}{names[k // n]}{sep}{names[k % n]}{end}" for k in node_keys)
    tree_rows = (f"{head}{names[k // m]}{sep}{names[k % m // 2]}{labels[k % 2]}" for k in tree_keys)
    yield from _put_array(out, chain(node_rows, tree_rows), 3)
    out.append(_INDENT[2] + "}")


def _heap_chunks(h: Heap):
    """The canonical document of a heap, in chunks of at most _CHUNK rows."""
    return _document("components", h.components, _put_component)


def serialize_heap(h: Heap) -> str:
    """Serialize a heap to its canonical byte-stable document."""
    return "".join(_heap_chunks(h))


def _witness_from_doc(doc, path: str) -> Witness:
    obj = _require_object(doc, path, ("node_map", "edge_map"))
    node_map = obj["node_map"]
    if not isinstance(node_map, dict):
        raise SchemaError("WrongType", "expected an object", f"{path}.node_map")
    if not (_tokens_ok(node_map) and _tokens_ok(node_map.values())):
        for key, value in node_map.items():  # name the first bad entry
            # Escaped, a key that UTF-8 cannot carry can be named on any stream.
            kpath = f"{path}.node_map." + key.encode("utf-8", "backslashreplace").decode("utf-8")
            _parse_token(key, kpath)
            _parse_token(value, kpath)

    # An edge is its row, as a tuple of the row's kind.  Each entry's checks
    # run in a fixed order, so the first bad entry is named; a token is
    # checked the first time its id is seen, and its edges share that object.
    kinds = {("node", 3): NodeEdge, ("tree", 4): TreeEdge, ("var", 3): VarEdge}
    seen, edge_map = {i: i for i in chain(node_map.values(), node_map)}, {}
    for i, entry in enumerate(_require_list(obj["edge_map"], f"{path}.edge_map")):
        epath = f"{path}.edge_map[{i}]"
        if len(_require_list(entry, epath)) != 2:
            raise SchemaError("WrongType", "edge map entry must be [edge, edge]", epath)
        edges = []
        for j, row in enumerate(entry):
            rpath = f"{epath}[{j}]"
            if not _require_list(row, rpath) or not isinstance(row[0], str):
                raise SchemaError("UnknownEdgeKind", "edge must start with a kind tag", rpath)
            kind = kinds.get((row[0], len(row)))
            if kind is None:
                raise SchemaError("UnknownEdgeKind", f"unrecognized edge form {row!r}", rpath)
            for k in (1, 2):  # the row takes the one object kept for its id
                if type(row[k]) is not str or row[k] not in seen:
                    seen[row[k]] = _parse_token(row[k], f"{rpath}[{k}]")
                row[k] = seen[row[k]]
            if kind is TreeEdge and row[3] not in ("l", "r"):
                raise _bad_label(row[3], rpath)
            edges.append(tuple.__new__(kind, row))
        if edges[0] in edge_map:
            raise SchemaError("DuplicateEdge", f"edge {entry[0]!r} mapped twice", epath)
        edge_map[edges[0]] = edges[1]
    return Witness(node_map, edge_map)


def _put_witness(out: list, w: Witness):
    # A witness is an item of the witnesses array, at depth 2.
    node_map, source = w.node_map, w._source
    keys = sorted(node_map)
    names = list(map(_quote, keys))
    quoted = dict(zip(keys, names))
    images = [quoted.get(i) or _quote(i) for i in map(node_map.__getitem__, keys)]
    out.append("{" + _INDENT[3] + '"node_map": ')
    yield from _put_array(out, map("{}: {}".format, names, images), 3, "{}")
    out.append("," + _INDENT[3] + '"edge_map": ')
    # Each entry is a [source edge, image edge] pair, an edge its own array,
    # in the canonical order of the distinct source edges: the key order of
    # a produced witness's source, and ``sorted()`` of the keys of any other edge map.
    edge, field = _INDENT[5], _INDENT[6]
    sep = "," + field
    opening, middle = "[" + edge + "[" + field, edge + "]," + edge + "[" + field
    close = edge + "]" + _INDENT[4] + "]"
    if source is not None and source._core.ids == keys:
        # Each image is the edge between its ends' images.  An entry is one
        # format over the node map's own quoted keys and images, which are
        # the quoted names of the source edge's ranks and of their images.
        core = source._core
        (node_keys, tree_keys, var_keys), n = core.keys, len(core.ids)
        m = n * 2
        var_names = list(map(_quote, core.vars))
        node, tree, var = (_quote(kind) + sep for kind in ("node", "tree", "var"))
        labels = [(f'{sep}"{label}"{middle}{tree}', f'{sep}"{label}"{close}') for label in "lr"]
        node_rows = (
            f"{opening}{node}{names[k // n]}{sep}{names[k % n]}{middle}{node}"
            f"{images[k // n]}{sep}{images[k % n]}{close}"
            for k in node_keys
        )
        tree_rows = (
            f"{opening}{tree}{names[k // m]}{sep}{names[k % m // 2]}{labels[k % 2][0]}"
            f"{images[k // m]}{sep}{images[k % m // 2]}{labels[k % 2][1]}"
            for k in tree_keys
        )
        var_rows = (
            f"{opening}{var}{var_names[k // n]}{sep}{names[k % n]}{middle}{var}"
            f"{var_names[k // n]}{sep}{images[k % n]}{close}"
            for k in var_keys
        )
        entries = chain(node_rows, tree_rows, var_rows)
    else:  # an unmapped (None) image gets no entry
        edge_map = w.edge_map
        pairs = ((e, _edge_image(e, edge_map[e])) for e in sorted(edge_map))
        entries = (
            opening + sep.join(map(_quote, e)) + middle + sep.join(map(_quote, i)) + close
            for e, i in pairs if i is not None
        )
    yield from _put_array(out, entries, 3)
    out.append(_INDENT[2] + "}")


def parse_witnesses(text: str) -> list:
    """Parse a witness-set document, as written for a whole heap."""
    data = _load_json(text)
    obj = _require_object(data, "$", ("witnesses",))
    docs = _require_list(obj["witnesses"], "$.witnesses")
    return [_witness_from_doc(doc, f"$.witnesses[{i}]") for i, doc in enumerate(docs)]


def _witness_chunks(witnesses):
    """The witness-set document of one heap run, in chunks of at most _CHUNK rows."""
    return _document("witnesses", witnesses, _put_witness)


def serialize_witnesses(witnesses) -> str:
    """Serialize the per-component witnesses of one heap run."""
    return "".join(_witness_chunks(witnesses))


_DOT_SAFE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[0-9]+")  # used with fullmatch
_DOT_KEYWORDS = frozenset({"node", "edge", "graph", "digraph", "subgraph", "strict"})  # any case


def _dot_id(ident: str) -> str:
    if _DOT_SAFE.fullmatch(ident) and ident.lower() not in _DOT_KEYWORDS:
        return ident
    return '"' + ident.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(h: Heap) -> str:
    """Render a heap as one DOT document, the graph ``heap``, one cluster per component.

    Variables are drawn as circles and nodes as ovals; tree edges carry
    their l/r labels.  Output ordering is deterministic.
    """
    lines = ["digraph heap {"]
    for i, comp in enumerate(h.components):
        lines.append(f"  subgraph cluster_{i} {{")
        lines.append(f'    label="component {i} ({comp.layout.value})";')
        for v in sorted(comp.vars):
            lines.append(f"    {_dot_id(v)} [shape=circle];")
        for n in sorted(comp.nodes):
            lines.append(f"    {_dot_id(n)} [shape=oval];")
        for e in comp._core.edges():
            label = f' [label="{e[3]}"]' if len(e) == 4 else ""
            lines.append(f"    {_dot_id(e[1])} -> {_dot_id(e[2])}{label};")
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"
