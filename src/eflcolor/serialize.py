"""JSON and DOT wire formats.

Vertex identities are encoded as tagged lists: ["shared", i, j],
["unshared", clique, slot], ["general", label].  Graphs round-trip as
{"n", "shared_pairs", "cliques"?}: the explicit clique lists appear only
when the shared pairs alone do not reconstruct the graph.  Emitted
collections are always sorted so output is byte-stable.  Readers take an
index, order, palette or color only when it is a JSON integer: a string,
float or boolean is a FormatError, never coerced.

The writers (``graph_text``, ``coloring_text``, ``decomposition_text``,
``sweep_text`` and the DOT exports) yield their output in chunks, one per
pair, clique, assignment or line, so no caller holds a whole document.
A vertex coloring is read with :func:`fold_assignment` as ``json.load``'s
object hook, which turns each well-formed entry into a compact pair the
moment it is decoded.
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
    "graph_text",
    "graph_from_json",
    "pairs_from_json",
    "coloring_to_json",
    "coloring_text",
    "fold_assignment",
    "vertex_coloring_from_json",
    "decomposition_to_json",
    "decomposition_text",
    "decomposition_from_json",
    "decomposition_coloring_to_json",
    "decomposition_coloring_from_json",
    "sweep_text",
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
    pairs, named = _pairs_and_named(g)
    out = {"n": g.n, "shared_pairs": [list(p) for p in pairs]}
    if not named:
        out["cliques"] = [
            [vertex_to_json(v) for v in sorted(q, key=vertex_key)]
            for q in g.cliques
        ]
    return out


def _pairs_and_named(g: EflGraph) -> tuple:
    """g's sorted shared pairs, and whether they alone rebuild g.

    A SharedVertex names its pair.  Any other shared vertex is placed by
    one scan of the cliques rather than by ``g.membership``, which would
    index every vertex of g to place these few.
    """
    named = all(
        isinstance(v, (SharedVertex, UnsharedVertex))
        for q in g.cliques for v in q
    )
    pairs = [(v.i, v.j) for v in g.shared if isinstance(v, SharedVertex)]
    if not named:
        found = {v: [] for v in g.shared if not isinstance(v, SharedVertex)}
        for idx, q in enumerate(g.cliques, start=1):
            for v in found.keys() & q:
                found[v].append(idx)
        pairs += [tuple(ix) for ix in found.values() if len(ix) == 2]
    pairs.sort()
    return pairs, named


def _json_list(items, indent: str = "  "):
    """Yields a list of items already written as ``dumps`` writes them,
    one item at a time, with the list's closing bracket at ``indent``."""
    lead = "[\n"
    for item in items:
        yield lead + item
        lead = ",\n"
    yield "[]" if lead == "[\n" else f"\n{indent}]"


def _vertex_text(v) -> str:
    """A vertex's JSON list as ``dumps`` writes it three levels deep: in a
    clique of a graph's "cliques", or as a coloring entry's "vertex"."""
    if isinstance(v, SharedVertex):
        fields = f'"shared",\n        {v.i},\n        {v.j}'
    elif isinstance(v, UnsharedVertex):
        fields = f'"unshared",\n        {v.clique},\n        {v.slot}'
    elif isinstance(v, GeneralVertex) and type(v.label) is int:
        fields = f'"general",\n        {v.label}'
    else:  # FormatError for a vertex with no encoding
        tag, label = vertex_to_json(v)
        fields = f'"{tag}",\n        {json.dumps(label)}'
    return f"[\n        {fields}\n      ]"


def graph_text(g: EflGraph):
    """Yields ``dumps(graph_to_json(g))`` one shared pair or clique at a
    time, written straight from g with no JSON encoder."""
    pairs, named = _pairs_and_named(g)
    yield f'{{\n  "n": {g.n},\n  "shared_pairs": '
    yield from _int_lists(pairs)
    if not named:
        yield ',\n  "cliques": '
        yield from _json_list(
            "    [\n      "
            + ",\n      ".join(map(_vertex_text, sorted(q, key=vertex_key)))
            + "\n    ]"
            for q in g.cliques
        )
    yield "\n}\n"


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


def _in_key_order(vertices):
    """The vertices sorted by :func:`vertex_key`, one group sharing the
    key's first two fields (a pair's first clique, a slot's clique) at a
    time, so the sort keys of a whole graph are never held at once."""
    groups = {}
    for v in vertices:
        groups.setdefault(vertex_key(v)[:2], []).append(v)
    for k in sorted(groups):
        yield from sorted(groups.pop(k), key=vertex_key)


def coloring_text(coloring):
    """Yields ``dumps(coloring_to_json(coloring))`` one assignment at a
    time, written straight from the colors with no JSON encoder."""
    colors = coloring.colors
    yield f'{{\n  "palette": {coloring.palette_size},\n  "assignments": '
    yield from _json_list(
        f'    {{\n      "vertex": {_vertex_text(v)},'
        f'\n      "color": {colors[v]}\n    }}'
        for v in _in_key_order(colors)
    )
    yield "\n}\n"


class _Assignment(tuple):
    """A coloring entry folded by :func:`fold_assignment` into
    ``(vertex, color)``.  Its repr is that of the dict it was decoded
    from, so an error naming an object that encloses it reads the same
    as when nothing is folded."""

    __slots__ = ()

    def __repr__(self):
        return repr({"vertex": vertex_to_json(self[0]), "color": self[1]})


def fold_assignment(obj: dict):
    """``json.load``'s object hook for a vertex coloring.

    An object whose keys are "vertex" then "color", with an integer color
    and a vertex that :func:`vertex_from_json` accepts, becomes a compact
    ``(vertex, color)`` entry as soon as it is decoded; any other object
    stays a dict, for :func:`vertex_coloring_from_json` to reject or read.
    """
    if tuple(obj) != ("vertex", "color") or not _is_int(obj["color"]):
        return obj
    try:
        v = vertex_from_json(obj["vertex"])
    except FormatError:
        return obj
    return _Assignment((v, obj["color"]))


def vertex_coloring_from_json(data) -> tuple:
    """Returns (palette, {vertex: color}); the caller decides shared vs full.

    Entries may be dicts or entries folded by :func:`fold_assignment`;
    the first bad one in document order is the FormatError.
    """
    if not isinstance(data, dict) or not _is_int(data.get("palette")):
        raise FormatError('coloring JSON needs an integer "palette"')
    if not isinstance(data.get("assignments"), list):
        raise FormatError('coloring JSON needs an "assignments" list')
    colors = {}
    for entry in data["assignments"]:
        if type(entry) is _Assignment:
            v, c = entry
        else:
            if not isinstance(entry, dict) or "vertex" not in entry:
                raise FormatError(f"bad assignment entry: {entry!r}")
            c = entry.get("color")
            if not _is_int(c):
                raise FormatError(f"bad color in entry: {entry!r}")
            v = vertex_from_json(entry["vertex"])
        if v in colors:
            raise FormatError(
                f"vertex {vertex_to_json(v)!r} is assigned twice"
            )
        colors[v] = c
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


def _int_lists(rows, indent: str = "  "):
    """Yields a list of integer lists, one row at a time, as ``dumps``
    writes it with its closing bracket at ``indent``: by default, as a
    top-level object's value."""
    row_in = indent + "  "
    head, sep = f"{row_in}[\n{row_in}  ", f",\n{row_in}  "
    tail = f"\n{row_in}]"
    # pairs, the bulk of every output, skip the join
    return _json_list((
        f"{head}{row[0]}{sep}{row[1]}{tail}" if len(row) == 2
        else head + sep.join(map(str, row)) + tail if row
        else row_in + "[]"
        for row in rows
    ), indent)


def decomposition_text(d: CliqueDecomposition):
    """Yields ``dumps(decomposition_to_json(d))`` one host edge or clique
    at a time, written straight from d with no JSON encoder."""
    yield f'{{\n  "n": {d.host.vertex_count},\n  "host_edges": '
    if d.host.is_complete:
        yield '"complete"'
    else:
        yield from _int_lists(sorted(d.host.edges))
    yield ',\n  "cliques": '
    yield from _int_lists(d.cliques)
    yield "\n}\n"


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
        if entry["clique"] in colors:
            raise FormatError(f"clique {entry['clique']} is assigned twice")
        colors[entry["clique"]] = entry["color"]
    return DecompositionColoring(data["palette"], colors)


def _clique_lists(entries):
    """Yields a list of clique lists, such as a sweep report's
    "not_colorable", one entry at a time, as ``dumps`` writes it as a
    top-level object's value."""
    return _json_list("    " + "".join(_int_lists(e, "    ")) for e in entries)


def sweep_text(report):
    """Yields a :class:`eflcolor.solver.SweepReport` as ``dumps`` writes
    its fields (min_palettes only when set), one listed instance at a
    time, with no JSON encoder."""
    yield (
        f'{{\n  "n": {report.n},\n  "r": {report.r},'
        f'\n  "instances": {report.instances},'
        f'\n  "colorable": {report.colorable},'
        f'\n  "not_colorable": '
    )
    yield from _clique_lists(report.not_colorable)
    yield ',\n  "budget_exhausted": '
    yield from _clique_lists(report.budget_exhausted)
    yield f',\n  "max_nodes": {report.max_nodes}'
    if report.min_palettes is not None:
        yield ',\n  "min_palettes": '
        yield from _json_list(
            f'    {{\n      "cliques": '
            f'{"".join(_int_lists(m["cliques"], "      "))},'
            f'\n      "min_palette": {m["min_palette"]}\n    }}'
            for m in report.min_palettes
        )
    yield "\n}\n"


def host_dot(host: HostGraph, name: str = "host"):
    """Yields the host graph in DOT, one line at a time."""
    yield f"graph {name} {{\n"
    for v in range(1, host.vertex_count + 1):
        yield f"  {v};\n"
    for i, j in sorted(host.edges):
        yield f"  {i} -- {j};\n"
    yield "}\n"


def intersection_dot(d: CliqueDecomposition):
    """Yields the intersection graph of d in DOT, one line at a time."""
    ig = intersection_graph(d)
    yield "graph intersection {\n"
    for t, c in enumerate(d.cliques, start=1):
        label = ",".join(map(str, c))
        yield f'  {t} [label="D{t}: {label}"];\n'
    for s, t in sorted(ig.edges):
        yield f"  {s} -- {t};\n"
    yield "}\n"
