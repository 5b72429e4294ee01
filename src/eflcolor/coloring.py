"""Closed-form proper colorings for two-clique EFL graphs.

Shared vertices are colored by modular arithmetic on their clique-index
pair: with palette t, colors live in the complete residue system
{1, ..., t}, so a residue of 0 is written t.  For even n the palette is
n - 1 and the vertex shared by Q_i and Q_j gets i + j (mod n-1), except
that the j = n column gets 2i (mod n-1).  For odd n the palette is n and
every shared vertex gets i + j (mod n).

A proper shared coloring of any EFL graph extends to a proper
n-coloring of the whole graph: inside each defining clique the unshared
vertices take the colors its shared vertices do not use.

The colorings are lists of colors by vertex number (:class:`NumberedColors`
over :class:`eflcolor.core.Numbering`), in :func:`vertex_key` order: the
shared pairs, then each clique's slots, then the general labels.
Coloring, extending and checking work on those lists, on every graph,
and build no vertex object.  A vertex is the clique of its
defining cliques' indices, so :func:`first_clash` judges vertex and
clique colorings alike.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from .core import EflGraph, vertex_key

__all__ = [
    "SharedColoring",
    "FullColoring",
    "NumberedColors",
    "ProperCheck",
    "pair_color",
    "pair_colors",
    "color_shared",
    "extend_to_full",
    "first_clash",
    "check_proper",
]


def _mod1(x: int, t: int) -> int:
    """x reduced into the residue system {1, ..., t}."""
    return (x - 1) % t + 1


def pair_color(n: int, i: int, j: int) -> int:
    """Closed-form color of the vertex shared by Q_i and Q_j in order n.

    Even n: i + j (mod n-1) when j < n and 2i (mod n-1) when j = n, in the
    residue system {1, ..., n-1}.  Odd n: i + j (mod n), in {1, ..., n}.
    Raises ValueError unless 1 <= i < j <= n.
    """
    if not 1 <= i < j <= n:
        raise ValueError(f"pair ({i}, {j}) out of range for n={n}")
    if n % 2:
        return _mod1(i + j, n)
    return _mod1(i + j, n - 1) if j < n else _mod1(2 * i, n - 1)


def pair_colors(n: int, pairs) -> list:
    """:func:`pair_color` of every pair (i, j) in pairs, with one int
    object per color, not per pair."""
    ints = list(range(n + 1))
    return [ints[pair_color(n, i, j)] for i, j in pairs]


@dataclass(frozen=True)
class SharedColoring:
    """Colors for (a subset of) the shared vertices of an EFL graph."""

    palette_size: int
    colors: Mapping


@dataclass(frozen=True)
class FullColoring:
    """Colors for every vertex of an EFL graph."""

    palette_size: int
    colors: Mapping


@dataclass(frozen=True)
class ProperCheck:
    """Outcome of a properness check; falsy when a violation was found."""

    ok: bool
    violation: tuple = None
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


class NumberedColors(Mapping):
    """A read-only vertex -> color Mapping held as a list by vertex number.

    ``by_number[k]`` is the color of vertex k of ``graph.numbering``, or
    None when it is uncolored; ``extra`` maps any colored vertex that the
    graph does not have to its color.  Vertex objects are built only when
    a caller reads the mapping by vertex; its length is counted once.
    """

    __slots__ = ("graph", "by_number", "extra", "_len", "_dict")

    def __init__(self, graph: EflGraph, by_number: list, extra=None):
        self.graph, self.by_number = graph, by_number
        self.extra = extra or {}
        self._len = len(by_number) - by_number.count(None) + len(self.extra)
        self._dict = None

    def _as_dict(self) -> dict:
        if self._dict is None:
            vertex = self.graph.numbering.vertex
            self._dict = {
                vertex(k): c for k, c in enumerate(self.by_number)
                if c is not None
            }
            self._dict.update(self.extra)
        return self._dict

    def __getitem__(self, v):
        return self._as_dict()[v]

    def __iter__(self):
        return iter(self._as_dict())

    def __len__(self):
        return self._len

    def __repr__(self):
        return repr(self._as_dict())


def _numbered(g: EflGraph, colors) -> NumberedColors:
    """colors, a vertex -> color Mapping, numbered by g's vertices."""
    if isinstance(colors, NumberedColors) and (
        colors.graph is g or colors.graph == g
    ):
        return colors
    numbering = g.numbering
    by_number = [None] * numbering.size
    extra = {}
    for v, c in colors.items():
        k = numbering.number_of(v)
        if k is None:
            extra[v] = c
        else:
            by_number[k] = c
    return NumberedColors(g, by_number, extra)


def color_shared(g: EflGraph) -> SharedColoring:
    """Proper coloring of the shared vertices of a two-clique EFL graph.

    Colors every shared vertex by :func:`pair_color`, one color per pair
    of ``g.pairs``; the palette is n - 1 for even n and n for odd n
    regardless of how many shared vertices the graph has (the pairs of any
    such graph are a subset of the maximal instance's, so the restriction
    stays proper).  Raises ValueError when some shared vertex lies in
    three or more cliques.
    """
    if not g.is_two_clique:
        raise ValueError(
            "graph has a shared vertex in three or more defining cliques; "
            "translate to a clique decomposition and search instead"
        )
    n, numbering = g.n, g.numbering
    by_number = pair_colors(n, numbering.pairs)
    by_number += [None] * (numbering.start[-1] - len(by_number))
    by_number += [pair_color(n, *ix) if len(ix) > 1 else None
                  for ix in numbering.label_cliques]
    return SharedColoring(n if n % 2 else n - 1, NumberedColors(g, by_number))


def _first(g: EflGraph, by_number: list, shared: bool, colored: bool):
    """The least number of a vertex that g shares, or does not share when
    not shared, and that by_number colors, or leaves uncolored when not
    colored; None when there is none."""
    numbering = g.numbering
    P, L = len(numbering.pairs), numbering.start[-1]
    part, lo = (by_number[:P], 0) if shared else (by_number[P:L], P)
    if part.count(None) != (len(part) if colored else 0):
        return next(k for k, c in enumerate(part, lo)
                    if (c is None) != colored)
    return next((k for k, ix in enumerate(numbering.label_cliques, L)
                 if (len(ix) > 1) == shared
                 and (by_number[k] is None) != colored), None)


def _least_not_shared(g: EflGraph, colors: NumberedColors):
    """The least vertex by :func:`vertex_key` that colors colors and g
    does not share, or None."""
    k = _first(g, colors.by_number, shared=False, colored=True)
    found = [*colors.extra, *([] if k is None else [g.numbering.vertex(k)])]
    return min(found, key=vertex_key, default=None)


def extend_to_full(g: EflGraph, shared: SharedColoring) -> FullColoring:
    """Extend a proper shared coloring to a proper n-coloring of all of g.

    Shared vertices keep their colors.  Within each defining clique the
    unshared vertices receive the clique's free colors, smallest color to
    smallest vertex, cliques processed in ascending index order; a clique
    with s shared vertices has n - s of each, on any graph.  Raises
    ValueError when the shared coloring misses a shared vertex, colors a
    non-shared vertex, repeats a color inside some clique, or uses a color
    above n; the message names the offending clique.
    """
    colors = _numbered(g, shared.colors)
    k = _first(g, colors.by_number, shared=True, colored=False)
    if k is not None:
        raise ValueError(
            f"shared coloring misses shared vertex {g.numbering.vertex(k)!r}"
        )
    v = _least_not_shared(g, colors)
    if v is not None:
        raise ValueError(f"shared coloring colors non-shared vertex {v!r}")
    return _fill(g, colors.by_number[:], g.n)


def _fill(g: EflGraph, full: list, palette: int) -> FullColoring:
    """:func:`extend_to_full`'s fill of full, g's colors by vertex number
    with its shared vertices colored and the others None, within palette
    >= n; full is filled in place.  Raises ValueError for the first clique
    that repeats a color or holds one outside 1..palette, at its least
    such vertex."""
    numbering = g.numbering
    by_clique: list = [[] for _ in range(g.n)]  # their colors, per clique
    for ix, c in zip(numbering.pairs, full):
        for i in ix:
            by_clique[i - 1].append(c)
    lone: dict = {}  # clique -> the numbers of its labels in no other
    for k, ix in enumerate(numbering.label_cliques, numbering.start[-1]):
        if len(ix) == 1:
            lone.setdefault(ix[0], []).append(k)
            continue
        for i in ix:
            by_clique[i - 1].append(full[k])
    colors = set(range(1, palette + 1))
    # full's own int objects where it has them: one object per color
    colors = {c for c in set(full) if c in colors} | colors
    for idx, used in enumerate(by_clique, start=1):
        free = colors.difference(used)
        if len(free) + len(used) != palette:  # a repeat, or a color outside
            seen = set()
            for k, ix in enumerate(numbering.cliques):
                if idx not in ix or len(ix) == 1:
                    continue
                c = full[k]
                if not 1 <= c <= palette:
                    raise ValueError(
                        f"clique {idx}: color {c} outside the palette "
                        f"1..{palette}"
                    )
                if c in seen:
                    raise ValueError(
                        f"clique {idx}: shared coloring repeats color {c}"
                    )
                seen.add(c)
        free = sorted(free)
        slots = numbering.slots(idx)
        full[slots.start:slots.stop] = free[:len(slots)]
        for k, c in zip(lone.get(idx, ()), free[len(slots):]):
            full[k] = c
    return FullColoring(palette, NumberedColors(g, full))


def first_clash(cliques, colors) -> tuple | None:
    """The lexicographically first pair (s, t), s < t, of cliques that
    share a host vertex and a color, or None when no two do.

    colors[t - 1] is the color of clique t (both 1-based); None leaves it
    uncolored.  The cost is linear in the clique-vertex incidences: each
    color class lists the vertices of its cliques, and there is no clash
    exactly when no class repeats a vertex.  On a clash the cliques are
    bucketed by (vertex, color); every clashing pair lies in one bucket,
    whose two least indices form a pair no later than it, so the least
    such pair over the buckets is the answer.
    """
    classes: dict = {}  # color -> the vertices of its cliques
    for c, q in zip(colors, cliques):
        classes.setdefault(c, []).extend(q)
    classes.pop(None, None)
    for vs in classes.values():
        if len(set(vs)) < len(vs):
            break
    else:
        return None
    buckets: dict = {}  # (vertex, color) -> the cliques holding both
    for t, (c, q) in enumerate(zip(colors, cliques), start=1):
        for v in q:
            buckets.setdefault((v, c), []).append(t)
    return min(
        tuple(b[:2]) for (_, c), b in buckets.items()
        if len(b) > 1 and c is not None
    )


def check_proper(g: EflGraph, coloring) -> ProperCheck:
    """Check that no edge of g joins two equally colored vertices.

    A FullColoring must cover exactly the vertices of g; a SharedColoring
    may cover any subset of the shared vertices, and only edges inside its
    domain are examined.  Two vertices are adjacent exactly when their
    defining cliques meet, so :func:`first_clash` runs on each vertex's
    cliques, ``numbering.cliques``.  Vertex numbers follow
    :func:`vertex_key` order, so its first clash is the lexicographically
    first monochromatic pair by :func:`vertex_key`, which is reported.  A
    vertex outside the domain or a color outside 1..palette_size is a
    ValueError naming the least such vertex.  Nothing is allocated per
    palette value.
    """
    colors = _numbered(g, coloring.colors)
    by_number, numbering = colors.by_number, g.numbering
    if isinstance(coloring, FullColoring):
        if None in by_number:
            v = numbering.vertex(by_number.index(None))
            raise ValueError(f"full coloring misses vertex {v!r}")
        if colors.extra:
            v = min(colors.extra, key=vertex_key)
            raise ValueError(f"full coloring names unknown vertex {v!r}")
    else:
        v = _least_not_shared(g, colors)
        if v is not None:
            raise ValueError(
                f"shared coloring names non-shared vertex {v!r}"
            )
    p = coloring.palette_size
    used = set(by_number) - {None}
    if used and not 1 <= min(used) <= max(used) <= p:
        k = next(k for k, c in enumerate(by_number)
                 if c is not None and not 1 <= c <= p)
        raise ValueError(
            f"vertex {numbering.vertex(k)!r} has color {by_number[k]} "
            f"outside 1..{p}"
        )
    clash = first_clash(numbering.cliques, by_number)
    if not clash:
        return ProperCheck(True)
    u, w = numbering.vertex(clash[0] - 1), numbering.vertex(clash[1] - 1)
    return ProperCheck(
        False, (u, w),
        f"{u!r} and {w!r} are adjacent and share color "
        f"{by_number[clash[0] - 1]}",
    )
