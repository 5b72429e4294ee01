"""JSON and DOT wire formats.

Vertex identities are encoded as tagged lists: ["shared", i, j],
["unshared", clique, slot], ["general", label].  Graphs round-trip as
{"n", "shared_pairs", "cliques"?}: the explicit clique lists appear only
when the shared pairs alone do not reconstruct the graph, and a document
that has both must list in "shared_pairs" exactly the pairs its cliques
give.  Clique lists are read straight into vertex keys (see
:func:`eflcolor.core.validate_keys`) and written from them, with no
vertex object.  Emitted collections are sorted, so output is
byte-stable.  Readers take an
index, order, palette or color only when it is a JSON integer: a string,
float or boolean is a FormatError, never coerced.

The writers (``graph_text``, ``coloring_text``, ``decomposition_text``,
``sweep_text`` and the DOT exports) yield their output in chunks, one per
pair, clique, assignment or line, so no caller holds a whole document.
A vertex coloring read whole is decoded with :func:`fold_assignment` as
``json.load``'s object hook, which turns each well-formed entry into a
tuple of ints the moment it is decoded; :func:`vertex_coloring_on` then
places each entry by its vertex number, with no vertex object.

The readers here take a whole decoded document.  The CLI reads every
graph document with :func:`eflcolor.chunked.read_graph` (its pairs a
chunk at a time, its cliques one at a time) and vertex colorings with
:func:`eflcolor.chunked.read_vertex_coloring`, which screen and place
what they decode with the helpers here (a clique by ``_clique_keys``,
the screen of :func:`graph_from_json`); a document they refuse is read
whole by the readers here.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from collections import Counter
from itertools import chain, repeat
from operator import itemgetter, lt

from .check import (
    CliqueDecomposition, DecompositionColoring, FullColoring, NumberedColors,
    SharedColoring, validate_decomposition,
)
from .core import (
    MAX_ORDER,
    EflGraph,
    GeneralVertex,
    Rejection,
    SharedVertex,
    UnsharedVertex,
    build_from_pairs,
    key_vertex,
    validate_keys,
    vertex_key,
)
from .decomposition import HostGraph, complete_host, intersection_graph

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
    "vertex_coloring_on",
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
# the tag of each vertex_key kind
_TAGS = ("shared", "unshared", "general")


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
    rebuild g (:attr:`EflGraph.is_pair_graph`)."""
    out = {"n": g.n, "shared_pairs": [list(p) for p in g.pairs]}
    if not g.is_pair_graph:
        out["cliques"] = [
            [vertex_to_json(v) for v in sorted(q, key=vertex_key)]
            for q in g.cliques
        ]
    return out


def _json_list(items, indent: str = "  "):
    """Yields a list of items already written as ``dumps`` writes them,
    one item at a time, with the list's closing bracket at ``indent``."""
    lead = "[\n"
    for item in items:
        yield lead + item
        lead = ",\n"
    yield "[]" if lead == "[\n" else f"\n{indent}]"


def _key_text(kind: int, a: int, b: int = 0) -> str:
    """The JSON list of the vertex whose :func:`vertex_key` is
    (kind, a, b), or (2, a) for kind 2, as ``dumps`` writes it three
    levels deep: in a clique of a graph's "cliques", or as a coloring
    entry's "vertex"."""
    if kind == 2:
        return f'[\n        "general",\n        {a}\n      ]'
    return f'[\n        "{_TAGS[kind]}",\n        {a},\n        {b}\n      ]'


def _vertex_text(v) -> str:
    """:func:`_key_text` of vertex v."""
    if isinstance(v, (SharedVertex, UnsharedVertex)) or (
        isinstance(v, GeneralVertex) and type(v.label) is int
    ):
        return _key_text(*vertex_key(v))
    # FormatError for a vertex with no encoding
    tag, label = vertex_to_json(v)
    return f'[\n        "{tag}",\n        {json.dumps(label)}\n      ]'


def _clique_text(vertices) -> str:
    return "    [\n      " + ",\n      ".join(vertices) + "\n    ]"


def _clique_texts(g: EflGraph):
    """The cliques of g as ``graph_text`` writes them, each in
    :func:`vertex_key` order: its shared pairs, its slots, then its
    general labels, from g's sorted pairs and labels alone."""
    n = g.n
    head: list = [[] for _ in range(n + 1)]  # the pairs of each clique
    tail: list = [[] for _ in range(n + 1)]  # its general labels
    for p in g.named_pairs:
        text = _key_text(0, *p)
        for c in p:
            head[c].append(text)
    for t, ix in zip(g.labels, g.label_cliques):
        text = _key_text(2, t)
        for c in ix:
            tail[c].append(text)
    for c in range(1, n + 1):
        slots = n - len(head[c]) - len(tail[c])
        yield _clique_text(chain(
            head[c], (_key_text(1, c, s) for s in range(1, slots + 1)),
            tail[c],
        ))


def graph_text(g: EflGraph):
    """Yields ``dumps(graph_to_json(g))`` one shared pair or clique at a
    time, written straight from g's pairs and labels with no JSON encoder
    and no vertex object."""
    yield f'{{\n  "n": {g.n},\n  "shared_pairs": '
    yield from _int_lists(g.pairs)
    if not g.is_pair_graph:
        yield ',\n  "cliques": '
        yield from _json_list(_clique_texts(g))
    yield "\n}\n"


def _int_pairs(pairs: list) -> bool:
    """True when every entry of a list is an [i, j] list of two ints,
    screened without a Python-level loop."""
    return (set(map(type, pairs)) <= {list} and set(map(len, pairs)) <= {2}
            and set(map(type, chain.from_iterable(pairs))) <= {int})


def pairs_from_json(pairs, what: str) -> list:
    """A JSON list of [i, j] integer pairs as tuples; FormatError naming
    the first entry that is not one."""
    if not isinstance(pairs, list):
        raise FormatError(f"{what} must be a list of [i, j] pairs")
    if not _int_pairs(pairs):  # the loop names an offender
        for p in pairs:
            if not (isinstance(p, list) and len(p) == 2
                    and all(map(_is_int, p))):
                raise FormatError(
                    f"{what} entries must be [i, j] integer pairs, got {p!r}"
                )
    return list(map(tuple, pairs))


def _screened_keys(q: list):
    """The :func:`vertex_key` tuples of a clique's vertex lists, checked
    in bulk; None unless :func:`vertex_from_json` accepts every one."""
    if not set(map(type, q)) <= {list}:
        return None
    try:  # IndexError: an empty list, TypeError: fields that do not compare
        ts = sorted(map(tuple, q))
        if not set(map(itemgetter(0), ts)) <= _VERTEX_TYPES.keys():
            return None
    except (IndexError, TypeError):
        return None
    # the tags sort general < shared < unshared
    a, b = bisect_left(ts, ("shared",)), bisect_left(ts, ("unshared",))
    general, shared, unshared = ts[:a], ts[a:b], ts[b:]
    if not (set(map(len, general)) <= {2} and set(map(len, shared)) <= {3}
            and set(map(len, unshared)) <= {3}):
        return None
    labels = list(map(itemgetter(1), general))
    i, j = list(zip(*shared))[1:] if shared else ((), ())
    c, k = list(zip(*unshared))[1:] if unshared else ((), ())
    if not (set(map(type, chain(labels, i, j, c, k))) <= {int}
            and min(chain(i, c, k), default=1) >= 1 and all(map(lt, i, j))):
        return None
    return chain(
        zip(repeat(0), i, j), zip(repeat(1), c, k), zip(repeat(2), labels)
    )


def _clique_keys(q):
    """The vertex_key tuples of one clique of a "cliques" list, whichever
    reader meets it.  Its vertex lists are screened in bulk, and read one
    by one with :func:`vertex_from_json` only when the screen fails, so
    the first vertex it refuses, in document order, is the FormatError."""
    if not isinstance(q, list):
        raise FormatError('"cliques" must be a list of vertex lists')
    keys = _screened_keys(q)
    if keys is None:
        keys = [vertex_key(vertex_from_json(v)) for v in q]
    return keys


def _check_pairs(pairs, g: EflGraph):
    """FormatError unless the "shared_pairs" of a document with cliques
    are the pairs of g, in any order, naming the least pair listed more
    or fewer times than the cliques give it."""
    given = sorted(pairs_from_json(pairs, '"shared_pairs"'))
    if tuple(given) != g.pairs:
        odd = Counter(given)
        odd.subtract(g.pairs)
        p = min(q for q, k in odd.items() if k)
        raise FormatError(
            f'invalid graph: "shared_pairs" does not match the cliques at '
            f"{list(p)}: listed {given.count(p)}, in the cliques "
            f"{g.pairs.count(p)}"
        )


def graph_from_json(data) -> EflGraph:
    """The graph of a graph document: built from its "shared_pairs", or,
    when it has "cliques", validated from those with
    :func:`eflcolor.core.validate_keys`, its "shared_pairs", when
    present, checked against them.  Each parsed
    clique list is dropped from the document as the rule scan takes it,
    so the document is not held while the graph is validated."""
    if not isinstance(data, dict) or not _is_int(data.get("n")):
        raise FormatError('graph JSON needs an integer "n"')
    n = data["n"]
    if "cliques" in data and data["cliques"] is not None:
        if not isinstance(data["cliques"], list) or not all(
            isinstance(q, list) for q in data["cliques"]
        ):
            raise FormatError('"cliques" must be a list of vertex lists')

        def taken(cliques):
            for t, q in enumerate(cliques):
                cliques[t] = None
                yield _clique_keys(q)

        keys = taken(data["cliques"])
        g = validate_keys(keys, n)
        if isinstance(g, Rejection):
            list(keys)  # a bad vertex is reported before a bad order
            raise FormatError(f"invalid graph: {g.message}")
        if data.get("shared_pairs") is not None:
            _check_pairs(data["shared_pairs"], g)
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


def _assignment_text(vertex: str, color) -> str:
    return (f'    {{\n      "vertex": {vertex},'
            f'\n      "color": {color}\n    }}')


def _numbered_assignments(colors: NumberedColors):
    """The assignments of colors by vertex number, in :func:`vertex_key`
    order: the pairs, then each clique's slots, then the labels."""
    g, by_number = colors.graph, colors.by_number
    for (i, j), c in zip(g.named_pairs, by_number):
        if c is not None:
            yield _assignment_text(
                f'[\n        "shared",\n        {i},\n        {j}\n      ]', c
            )
    for clique in range(1, g.n + 1):
        for slot, k in enumerate(g.slots(clique), start=1):
            c = by_number[k]
            if c is not None:
                yield _assignment_text(
                    f'[\n        "unshared",\n        {clique},'
                    f'\n        {slot}\n      ]', c
                )
    for label, c in zip(g.labels, by_number[g.start[-1]:]):
        if c is not None:
            yield _assignment_text(_key_text(2, label), c)


def coloring_text(coloring):
    """Yields ``dumps(coloring_to_json(coloring))`` one assignment at a
    time, written straight from the colors with no JSON encoder, and with
    no vertex object when a graph numbers them all."""
    colors = coloring.colors
    yield f'{{\n  "palette": {coloring.palette_size},\n  "assignments": '
    if isinstance(colors, NumberedColors) and not colors.extra:
        yield from _json_list(_numbered_assignments(colors))
    else:
        yield from _json_list(
            _assignment_text(_vertex_text(v), colors[v])
            for v in sorted(colors, key=vertex_key)
        )
    yield "\n}\n"


class _Assignment(tuple):
    """A coloring entry folded by :func:`fold_assignment` into
    ``(kind, a, b, color)``, where (kind, a, b) is its vertex's
    :func:`vertex_key` (b is 0 for a general vertex).  Its repr is that of
    the dict it was decoded from, so an error naming an object that
    encloses it reads the same as when nothing is folded."""

    __slots__ = ()

    def __repr__(self):
        kind, a, b, color = self
        vertex = vertex_to_json(key_vertex(kind, a, b))
        return repr({"vertex": vertex, "color": color})


def fold_assignment(obj: dict):
    """``json.load``'s object hook for a vertex coloring.

    An object whose keys are "vertex" then "color", with an integer color
    and a vertex that :func:`vertex_from_json` accepts, becomes a compact
    ``(kind, a, b, color)`` entry of ints as soon as it is decoded, with
    no vertex object; any other object stays a dict, for the coloring
    readers to reject or read.
    """
    if len(obj) != 2 or tuple(obj) != ("vertex", "color"):
        return obj
    v, c = obj["vertex"], obj["color"]
    if type(c) is not int or type(v) is not list:
        return obj
    if len(v) == 3:
        tag, a, b = v
        if type(a) is int and type(b) is int:
            if tag == "shared" and 1 <= a < b:
                return _Assignment((0, a, b, c))
            if tag == "unshared" and a >= 1 and b >= 1:
                return _Assignment((1, a, b, c))
    elif len(v) == 2 and v[0] == "general" and type(v[1]) is int:
        return _Assignment((2, v[1], 0, c))
    return obj


def _assignment(entry) -> tuple:
    """A coloring entry as ``(kind, a, b, color)``, as folded by
    :func:`fold_assignment`; FormatError when it is not one."""
    if type(entry) is _Assignment:
        return entry
    if not isinstance(entry, dict) or "vertex" not in entry:
        raise FormatError(f"bad assignment entry: {entry!r}")
    c = entry.get("color")
    if not _is_int(c):
        raise FormatError(f"bad color in entry: {entry!r}")
    v = vertex_from_json(entry["vertex"])
    if isinstance(v, GeneralVertex):
        return (2, v.label, 0, c)
    return (*vertex_key(v), c)


def _assignments(data, read=_assignment) -> tuple:
    """A coloring document's palette, and its entries read by ``read`` in
    document order, by default as ``(kind, a, b, color)``, the first bad
    one a FormatError when it is reached."""
    if not isinstance(data, dict) or not _is_int(data.get("palette")):
        raise FormatError('coloring JSON needs an integer "palette"')
    if not isinstance(data.get("assignments"), list):
        raise FormatError('coloring JSON needs an "assignments" list')
    return data["palette"], map(read, data["assignments"])


def _assigned_twice(kind: int, a: int, b: int) -> FormatError:
    vertex = vertex_to_json(key_vertex(kind, a, b))
    return FormatError(f"vertex {vertex!r} is assigned twice")


def vertex_coloring_from_json(data) -> tuple:
    """Returns (palette, {vertex: color}); the caller decides shared vs full.

    Entries may be dicts or entries folded by :func:`fold_assignment`;
    the first bad one in document order is the FormatError.
    """
    palette, entries = _assignments(data)
    colors = {}
    for kind, a, b, c in entries:
        v = key_vertex(kind, a, b)
        if v in colors:
            raise _assigned_twice(kind, a, b)
        colors[v] = c
    return palette, colors


def vertex_coloring_on(g: EflGraph, data):
    """A vertex-coloring document read as a coloring of g: a FullColoring
    when it colors exactly the vertices of g, else a SharedColoring, for
    :func:`eflcolor.coloring.check_proper` to judge.

    Each entry goes straight to its vertex number (see
    :meth:`eflcolor.core.EflGraph.number`), so a pair graph's coloring is
    read with no vertex object.  The first bad entry or repeated vertex in
    document order is the FormatError, as in
    :func:`vertex_coloring_from_json`.
    """
    return _numbered_coloring(g, *_assignments(data))


def _numbered_coloring(g: EflGraph, palette: int, entries):
    """The coloring of g whose entries, folded as
    ``(kind, a, b, color)``, go straight to their vertex numbers;
    FormatError at the first vertex assigned twice."""
    by_number = [None] * g.size
    extra = {}
    number = g.number
    for kind, a, b, c in entries:
        k = number(kind, a, b)
        if k is None:
            v = key_vertex(kind, a, b)
            if v in extra:
                raise _assigned_twice(kind, a, b)
            extra[v] = c
        elif by_number[k] is None:
            by_number[k] = c
        else:
            raise _assigned_twice(kind, a, b)
    colors = NumberedColors(g, by_number, extra)
    full = not extra and len(colors) == len(by_number)
    return (FullColoring if full else SharedColoring)(palette, colors)


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
    elif len(d.cliques) == d.host.edge_count:
        # one edge per clique: the cliques are the sorted edges
        yield from _int_lists(d.cliques)
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
    d = validate_decomposition(host, data.pop("cliques"))
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


def _clique_assignment(entry) -> tuple:
    """A decomposition-coloring entry as (clique, color)."""
    if not (isinstance(entry, dict) and _is_int(entry.get("clique"))
            and _is_int(entry.get("color"))):
        raise FormatError(f"bad assignment entry: {entry!r}")
    return entry["clique"], entry["color"]


def decomposition_coloring_from_json(data) -> DecompositionColoring:
    palette, entries = _assignments(data, _clique_assignment)
    colors = {}
    for t, c in entries:
        if t in colors:
            raise FormatError(f"clique {t} is assigned twice")
        colors[t] = c
    return DecompositionColoring(palette, colors)


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
