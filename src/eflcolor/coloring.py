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
Coloring and extending work on those lists, on every graph, and build no
vertex object; :func:`eflcolor.check.check_proper` judges the result.
"""

from __future__ import annotations

from .check import (  # ProperCheck and the checks: importable as before
    FullColoring, NumberedColors, ProperCheck, SharedColoring, _first,
    _least_not_shared, _numbered, check_proper, first_clash,
)
from .core import EflGraph

__all__ = [
    "pair_color",
    "pair_colors",
    "color_shared",
    "extend_to_full",
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
