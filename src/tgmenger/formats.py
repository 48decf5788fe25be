"""Reading, writing, and exporting temporal graphs.

Two interchange formats are supported:

* a plain edge list — one ``u v t`` triple per line, ``#`` starts a
  comment, edge ids are assigned 0, 1, 2, ... in file order;
* a JSON document ``{"vertices": [...], "edges": [{"id", "u", "v", "t"}]}``
  that preserves edge ids and isolated vertices.

Plus a one-way Graphviz DOT export for eyeballing instances and witnesses.
Files are read by :func:`read_file` and written by :func:`write_file`, so
a path that cannot be read or written is malformed input.
"""

from __future__ import annotations

import json
from typing import Iterable, Optional

from .core import TemporalGraph, TemporalWalk, token_key
from .errors import MalformedInput


def _token(text: str):
    """Edge-list vertex tokens: integers where they parse, else strings."""
    try:
        return int(text)
    except ValueError:
        return text


def parse_edge_list(text: str) -> TemporalGraph:
    """Parse the ``u v t`` line format (``#`` comments, blank lines ok)."""
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise MalformedInput(
                f"line {lineno}: expected 'u v t', got {raw.strip()!r}"
            )
        u, v = _token(parts[0]), _token(parts[1])
        try:
            t = int(parts[2])
        except ValueError:
            raise MalformedInput(
                f"line {lineno}: label {parts[2]!r} is not an integer"
            ) from None
        edges.append((len(edges), u, v, t))
    return TemporalGraph(edges)


def format_edge_list(g: TemporalGraph) -> str:
    """Inverse of :func:`parse_edge_list` up to edge ids (which the line
    format does not carry) and isolated vertices (which it drops).  A
    vertex whose text would not read back as itself (empty, containing
    whitespace or ``#``, or a string that parses as an integer) needs the
    JSON format instead."""
    for v in g.vertices:
        text = str(v)
        if not text or "#" in text or any(ch.isspace() for ch in text) or _token(text) != v:
            raise MalformedInput(
                f"vertex {v!r} does not read back from an edge list; use the JSON format"
            )
    lines = ["# u v t"]
    for e in g.edges:
        lines.append(f"{e.u} {e.v} {e.t}")
    return "\n".join(lines) + "\n"


def graph_to_document(g: TemporalGraph) -> dict:
    return {
        "vertices": sorted(g.vertices, key=token_key),
        "edges": [{"id": e.eid, "u": e.u, "v": e.v, "t": e.t} for e in g.edges],
    }


def document_to_graph(doc) -> TemporalGraph:
    if not isinstance(doc, dict) or "edges" not in doc:
        raise MalformedInput("graph document must be an object with an 'edges' list")
    raw_edges = doc["edges"]
    if not isinstance(raw_edges, list):
        raise MalformedInput("'edges' must be a list")
    edges = []
    for i, item in enumerate(raw_edges):
        if not isinstance(item, dict) or not {"u", "v", "t"} <= set(item):
            raise MalformedInput(f"edge #{i} must be an object with u, v, t")
        edge = (item.get("id", i), item["u"], item["v"], item["t"])
        # Arrays and objects cannot name a vertex or an edge.
        if any(isinstance(x, (list, dict)) for x in edge[:3]):
            raise MalformedInput(f"edge #{i}: an id or endpoint cannot be an array or object")
        edges.append(edge)
    vertices = doc.get("vertices", [])
    if not isinstance(vertices, list):
        raise MalformedInput("'vertices' must be a list")
    if any(isinstance(v, (list, dict)) for v in vertices):
        raise MalformedInput("a vertex cannot be an array or object")
    return TemporalGraph(edges, vertices=vertices)


def dumps_graph(g: TemporalGraph) -> str:
    return json.dumps(graph_to_document(g), indent=2, sort_keys=True) + "\n"


def read_file(path) -> str:
    """The text of the file at *path*; an unreadable file is malformed input."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise MalformedInput(f"cannot read {path}: {exc}") from None


def write_file(path, text: str) -> None:
    """Write *text* to the file at *path*; an unwritable path is malformed
    input, as an unreadable one is."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise MalformedInput(f"cannot write {path}: {exc}") from None


def loads_json(text: str):
    """The JSON document in *text*; bad JSON is malformed input."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"bad JSON: {exc}") from None


def loads_graph(text: str) -> TemporalGraph:
    return document_to_graph(loads_json(text))


def load_graph(path) -> TemporalGraph:
    """Load a graph file, sniffing the format (JSON object vs edge list)."""
    text = read_file(path)
    if text.lstrip().startswith("{"):
        return loads_graph(text)
    return parse_edge_list(text)


def save_graph(path, g: TemporalGraph, fmt: str = "json") -> None:
    if fmt == "json":
        text = dumps_graph(g)
    elif fmt == "edges":
        text = format_edge_list(g)
    else:
        raise MalformedInput(f"unknown graph format {fmt!r}")
    write_file(path, text)


def walk_document(walk: TemporalWalk) -> dict:
    return {
        "vertices": list(walk.vertices),
        "edge_ids": list(walk.edge_ids),
        "labels": list(walk.labels),
        "pretty": walk.pretty(),
    }


# -- DOT export ---------------------------------------------------------------


def _dot_id(token) -> str:
    text = str(token)
    safe = text.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{safe}"'


def to_dot(
    g: TemporalGraph,
    name: str = "tg",
    only_labels: Optional[Iterable[int]] = None,
    highlight_labels: Iterable[int] = (),
    highlight_edges: Iterable = (),
) -> str:
    """Graphviz rendering; optionally restrict to a label subset and/or
    highlight labels or specific edge ids (drawn red and thick)."""
    keep = None if only_labels is None else frozenset(only_labels)
    hot_labels = frozenset(highlight_labels)
    hot_edges = frozenset(highlight_edges)
    lines = [f"graph {_dot_id(name)} {{"]
    for v in sorted(g.vertices, key=token_key):
        lines.append(f"  {_dot_id(v)};")
    for e in g.edges:
        if keep is not None and e.t not in keep:
            continue
        attrs = [f'label="{e.t}"']
        if e.t in hot_labels or e.eid in hot_edges:
            attrs.append('color="red"')
            attrs.append("penwidth=2")
        lines.append(f"  {_dot_id(e.u)} -- {_dot_id(e.v)} [{', '.join(attrs)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
