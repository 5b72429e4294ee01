"""JSON and DOT wire formats.

Vertex identities are encoded as tagged lists: ["shared", i, j],
["unshared", clique, slot], ["general", label].  Graphs round-trip as
{"n", "shared_pairs", "cliques"?}: the explicit clique lists appear only
when the shared pairs alone do not reconstruct the graph.  Emitted
collections are always sorted so output is byte-stable.  Readers take an
index, order, palette or color only when it is a JSON integer: a string,
float or boolean is a FormatError, never coerced.
"""

from __future__ import annotations

import json

from .core import (
    MAX_ORDER,
    EflGraph,
    GeneralVertex,
    Rejection,
    SharedVertex,
    UnsharedVertex,
    build_from_pairs,
    validate,
    vertex_key,
)
from .decomposition import (
    CliqueDecomposition,
    DecompositionColoring,
    HostGraph,
    complete_host,
    intersection_graph,
    validate_decomposition,
)

__all__ = [
    "FormatError",
    "vertex_to_json",
    "vertex_from_json",
    "graph_to_json",
    "graph_from_json",
    "pairs_from_json",
    "coloring_to_json",
    "coloring_text",
    "vertex_coloring_from_json",
    "decomposition_to_json",
    "decomposition_text",
    "decomposition_from_json",
    "decomposition_coloring_to_json",
    "decomposition_coloring_from_json",
    "host_dot",
    "intersection_dot",
    "dumps",
]


class FormatError(ValueError):
    """Input does not match the expected schema."""


def dumps(data) -> str:
    return json.dumps(data, indent=2) + "\n"


def _is_int(x) -> bool:
    """A JSON integer: Python's bool is an int subclass, so test the type."""
    return type(x) is int


_VERTEX_TYPES = {
    "shared": SharedVertex,
    "unshared": UnsharedVertex,
    "general": GeneralVertex,
}


def vertex_to_json(v) -> list:
    if isinstance(v, SharedVertex):
        return ["shared", v.i, v.j]
    if isinstance(v, UnsharedVertex):
        return ["unshared", v.clique, v.slot]
    if isinstance(v, GeneralVertex):
        return ["general", v.label]
    raise FormatError(f"vertex {v!r} has no JSON encoding")


def vertex_from_json(obj):
    if not isinstance(obj, list) or not obj or not isinstance(obj[0], str):
        raise FormatError(f"bad vertex encoding: {obj!r}")
    tag, *rest = obj
    if tag not in _VERTEX_TYPES:
        raise FormatError(f"unknown vertex tag {tag!r}")
    if not all(map(_is_int, rest)):
        raise FormatError(f"bad vertex encoding {obj!r}: not an integer")
    try:
        return _VERTEX_TYPES[tag](*rest)
    except (TypeError, ValueError) as e:
        raise FormatError(f"bad vertex encoding {obj!r}: {e}") from None


def graph_to_json(g: EflGraph) -> dict:
    """The shared pairs, plus the explicit cliques unless the pairs alone
    rebuild g.

    They do exactly when every vertex carries a pair or slot identity:
    validated graphs keep those identities true to membership and fill
    each clique's slots 1..free, as :func:`build_from_pairs` does.
    """
    named = all(
        isinstance(v, (SharedVertex, UnsharedVertex))
        for q in g.cliques for v in q
    )
    pairs = sorted(c for c in map(g.cliques_of, g.shared) if len(c) == 2)
    out = {"n": g.n, "shared_pairs": [list(p) for p in pairs]}
    if not named:
        out["cliques"] = [
            [vertex_to_json(v) for v in sorted(q, key=vertex_key)]
            for q in g.cliques
        ]
    return out


def pairs_from_json(pairs, what: str) -> list:
    """A JSON list of [i, j] integer pairs as tuples; FormatError naming
    the first entry that is not one."""
    if not isinstance(pairs, list):
        raise FormatError(f"{what} must be a list of [i, j] pairs")
    for p in pairs:
        if not (isinstance(p, list) and len(p) == 2 and all(map(_is_int, p))):
            raise FormatError(
                f"{what} entries must be [i, j] integer pairs, got {p!r}"
            )
    return [tuple(p) for p in pairs]


def graph_from_json(data) -> EflGraph:
    if not isinstance(data, dict) or not _is_int(data.get("n")):
        raise FormatError('graph JSON needs an integer "n"')
    n = data["n"]
    if "cliques" in data and data["cliques"] is not None:
        if not isinstance(data["cliques"], list) or not all(
            isinstance(q, list) for q in data["cliques"]
        ):
            raise FormatError('"cliques" must be a list of vertex lists')
        cliques = [
            frozenset(vertex_from_json(v) for v in q) for q in data["cliques"]
        ]
        g = validate(cliques, n)
        if isinstance(g, Rejection):
            raise FormatError(f"invalid graph: {g.message}")
        return g
    pairs = data.get("shared_pairs")
    if not isinstance(pairs, list):
        raise FormatError('graph JSON needs "shared_pairs" or "cliques"')
    pairs = pairs_from_json(pairs, '"shared_pairs"')
    try:
        return build_from_pairs(n, pairs)
    except ValueError as e:
        raise FormatError(f"invalid graph: {e}") from None


def coloring_to_json(coloring) -> dict:
    items = sorted(coloring.colors.items(), key=lambda kv: vertex_key(kv[0]))
    return {
        "palette": coloring.palette_size,
        "assignments": [
            {"vertex": vertex_to_json(v), "color": c} for v, c in items
        ],
    }


def coloring_text(coloring) -> str:
    """``dumps(coloring_to_json(coloring))``, written straight from the
    sorted items with no intermediate dicts and no JSON encoder."""
    items = sorted(coloring.colors.items(), key=lambda kv: vertex_key(kv[0]))
    head = f'{{\n  "palette": {coloring.palette_size},\n  "assignments": '
    if not items:
        return head + "[]\n}\n"
    out = [head, "["]
    sep = "\n"
    for v, c in items:
        if isinstance(v, SharedVertex):
            fields = f'"shared",\n        {v.i},\n        {v.j}'
        elif isinstance(v, UnsharedVertex):
            fields = f'"unshared",\n        {v.clique},\n        {v.slot}'
        else:
            tag, label = vertex_to_json(v)
            fields = f'"{tag}",\n        {json.dumps(label)}'
        out.append(
            f'{sep}    {{\n      "vertex": [\n        {fields}\n      ],'
            f'\n      "color": {c}\n    }}'
        )
        sep = ",\n"
    out.append("\n  ]\n}\n")
    return "".join(out)


def vertex_coloring_from_json(data) -> tuple:
    """Returns (palette, {vertex: color}); the caller decides shared vs full."""
    if not isinstance(data, dict) or not _is_int(data.get("palette")):
        raise FormatError('coloring JSON needs an integer "palette"')
    if not isinstance(data.get("assignments"), list):
        raise FormatError('coloring JSON needs an "assignments" list')
    colors = {}
    for entry in data["assignments"]:
        if not isinstance(entry, dict) or "vertex" not in entry:
            raise FormatError(f"bad assignment entry: {entry!r}")
        if not _is_int(entry.get("color")):
            raise FormatError(f"bad color in entry: {entry!r}")
        colors[vertex_from_json(entry["vertex"])] = entry["color"]
    return data["palette"], colors


def decomposition_to_json(d: CliqueDecomposition) -> dict:
    host = (
        "complete"
        if d.host.is_complete
        else [list(e) for e in sorted(d.host.edges)]
    )
    return {
        "n": d.host.vertex_count,
        "host_edges": host,
        "cliques": [list(c) for c in d.cliques],
    }


def _int_lists(rows) -> str:
    """A list of integer lists as ``dumps`` writes it as an object's value."""
    if not rows:
        return "[]"
    items = ",\n".join(
        "    [\n      " + ",\n      ".join(map(str, row)) + "\n    ]"
        if row else "    []"
        for row in rows
    )
    return f"[\n{items}\n  ]"


def decomposition_text(d: CliqueDecomposition) -> str:
    """``dumps(decomposition_to_json(d))``, written straight from the host
    edges and cliques with no intermediate lists and no JSON encoder."""
    host = (
        '"complete"'
        if d.host.is_complete
        else _int_lists(sorted(d.host.edges))
    )
    return (
        f'{{\n  "n": {d.host.vertex_count},\n  "host_edges": {host},\n'
        f'  "cliques": {_int_lists(d.cliques)}\n}}\n'
    )


def decomposition_from_json(data) -> CliqueDecomposition:
    if not isinstance(data, dict) or not _is_int(data.get("n")):
        raise FormatError('decomposition JSON needs an integer "n"')
    n = data["n"]
    if n > MAX_ORDER:  # before K_n, or the EFL graph of order n, is built
        raise FormatError(f"invalid host: n must be <= {MAX_ORDER}, got {n}")
    raw = data.get("host_edges")
    if raw == "complete":
        edges = None
    elif isinstance(raw, list):
        edges = pairs_from_json(raw, '"host_edges"')
    else:
        raise FormatError('"host_edges" must be "complete" or a list of pairs')
    try:
        if edges is None:
            host = complete_host(n)
        else:
            host = HostGraph.from_edges(n, edges)
    except ValueError as e:
        raise FormatError(f"invalid host: {e}") from None
    if not isinstance(data.get("cliques"), list):
        raise FormatError('decomposition JSON needs a "cliques" list')
    for c in data["cliques"]:
        if not (isinstance(c, list) and all(map(_is_int, c))):
            raise FormatError(
                f"invalid decomposition clique {c!r}: not a list of integers"
            )
    d = validate_decomposition(host, data["cliques"])
    if isinstance(d, Rejection):
        raise FormatError(f"invalid decomposition: {d.message}")
    return d


def decomposition_coloring_to_json(c: DecompositionColoring) -> dict:
    return {
        "palette": c.palette_size,
        "assignments": [
            {"clique": t, "color": c.colors[t]} for t in sorted(c.colors)
        ],
    }


def decomposition_coloring_from_json(data) -> DecompositionColoring:
    if not isinstance(data, dict) or not _is_int(data.get("palette")):
        raise FormatError('coloring JSON needs an integer "palette"')
    if not isinstance(data.get("assignments"), list):
        raise FormatError('coloring JSON needs an "assignments" list')
    colors = {}
    for entry in data["assignments"]:
        if (
            not isinstance(entry, dict)
            or not _is_int(entry.get("clique"))
            or not _is_int(entry.get("color"))
        ):
            raise FormatError(f"bad assignment entry: {entry!r}")
        colors[entry["clique"]] = entry["color"]
    return DecompositionColoring(data["palette"], colors)


def host_dot(host: HostGraph, name: str = "host") -> str:
    lines = [f"graph {name} {{"]
    lines.extend(f"  {v};" for v in range(1, host.vertex_count + 1))
    lines.extend(f"  {i} -- {j};" for i, j in sorted(host.edges))
    lines.append("}")
    return "\n".join(lines) + "\n"


def intersection_dot(d: CliqueDecomposition) -> str:
    ig = intersection_graph(d)
    lines = ["graph intersection {"]
    for t, c in enumerate(d.cliques, start=1):
        label = ",".join(map(str, c))
        lines.append(f'  {t} [label="D{t}: {label}"];')
    lines.extend(f"  {s} -- {t};" for s, t in sorted(ig.edges))
    lines.append("}")
    return "\n".join(lines) + "\n"
