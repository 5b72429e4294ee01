"""Closed-form proper colorings for two-clique EFL graphs.

Shared vertices are colored by modular arithmetic on their clique-index
pair: with palette t, colors live in the complete residue system
{1, ..., t}, so a residue of 0 is written t.  For even n the palette is
n - 1 and the vertex shared by Q_i and Q_j gets i + j (mod n-1), except
that the j = n column gets 2i (mod n-1).  For odd n the palette is n and
every shared vertex gets i + j (mod n).

A proper shared coloring extends to a proper n-coloring of the whole
graph: inside each defining clique the unshared vertices take the colors
its shared vertices do not use.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import EflGraph, SharedVertex, vertex_key

__all__ = [
    "SharedColoring",
    "FullColoring",
    "ProperCheck",
    "pair_color",
    "color_shared",
    "extend_to_full",
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


@dataclass(frozen=True)
class SharedColoring:
    """Colors for (a subset of) the shared vertices of an EFL graph."""

    palette_size: int
    colors: dict


@dataclass(frozen=True)
class FullColoring:
    """Colors for every vertex of an EFL graph."""

    palette_size: int
    colors: dict


@dataclass(frozen=True)
class ProperCheck:
    """Outcome of a properness check; falsy when a violation was found."""

    ok: bool
    violation: tuple = None
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


def color_shared(g: EflGraph) -> SharedColoring:
    """Proper coloring of the shared vertices of a two-clique EFL graph.

    Colors every shared vertex by :func:`pair_color`; the palette is n - 1
    for even n and n for odd n regardless of how many shared vertices the
    graph has (the pairs of any such graph are a subset of the maximal
    instance's, so the restriction stays proper).  Raises ValueError when
    some shared vertex lies in three or more cliques.
    """
    n = g.n
    if not g.is_two_clique:
        raise ValueError(
            "graph has a shared vertex in three or more defining cliques; "
            "translate to a clique decomposition and search instead"
        )
    # a SharedVertex names its pair; only other vertices need cliques_of
    cmap = {
        v: pair_color(n, v.i, v.j) if type(v) is SharedVertex
        else pair_color(n, *g.cliques_of(v))
        for v in g.shared
    }
    return SharedColoring(n if n % 2 else n - 1, cmap)


def extend_to_full(g: EflGraph, shared: SharedColoring) -> FullColoring:
    """Extend a proper shared coloring to a proper n-coloring of all of g.

    Shared vertices keep their colors.  Within each defining clique the
    unshared vertices receive the clique's free colors, smallest color to
    smallest vertex, cliques processed in ascending index order.  Raises
    ValueError when the shared coloring misses a shared vertex, colors a
    non-shared vertex, repeats a color inside some clique, or uses a color
    above n; the message names the offending clique.
    """
    n = g.n
    cmap = shared.colors
    missing = g.shared - cmap.keys()
    if missing:
        v = min(missing, key=vertex_key)
        raise ValueError(f"shared coloring misses shared vertex {v!r}")
    extra = cmap.keys() - g.shared
    if extra:
        v = min(extra, key=vertex_key)
        raise ValueError(f"shared coloring colors non-shared vertex {v!r}")
    full = dict(cmap)
    for idx, q in enumerate(g.cliques, start=1):
        used = set()
        for v in q:
            c = cmap.get(v)
            if c is None:
                continue
            if not 1 <= c <= n:
                raise ValueError(
                    f"clique {idx}: color {c} outside the palette 1..{n}"
                )
            if c in used:
                raise ValueError(
                    f"clique {idx}: shared coloring repeats color {c}"
                )
            used.add(c)
        free = [c for c in range(1, n + 1) if c not in used]
        rest = sorted((v for v in q if v not in cmap), key=vertex_key)
        for v, c in zip(rest, free):
            full[v] = c
    return FullColoring(n, full)


def check_proper(g: EflGraph, coloring) -> ProperCheck:
    """Check that no edge of g joins two equally colored vertices.

    A FullColoring must cover exactly the vertices of g; a SharedColoring
    may cover any subset of the shared vertices, and only edges inside its
    domain are examined.  Every edge lies in exactly one defining clique,
    so properness is a per-clique distinctness check; on failure the
    lexicographically first monochromatic vertex pair is reported.  A
    vertex outside the domain or a color outside 1..palette_size is a
    ValueError naming the least such vertex.
    """
    cmap = coloring.colors
    if isinstance(coloring, FullColoring):
        if cmap.keys() != g.vertex_set:
            missing = g.vertex_set - cmap.keys()
            if missing:
                v = min(missing, key=vertex_key)
                raise ValueError(f"full coloring misses vertex {v!r}")
            v = min(cmap.keys() - g.vertex_set, key=vertex_key)
            raise ValueError(f"full coloring names unknown vertex {v!r}")
    else:
        if not cmap.keys() <= g.shared:
            v = min(cmap.keys() - g.shared, key=vertex_key)
            raise ValueError(
                f"shared coloring names non-shared vertex {v!r}"
            )
    p = coloring.palette_size
    if cmap and not 1 <= min(cmap.values()) <= max(cmap.values()) <= p:
        v = min((v for v, c in cmap.items() if not 1 <= c <= p),
                key=vertex_key)
        raise ValueError(f"vertex {v!r} has color {cmap[v]} outside 1..{p}")

    worst = None
    worst_key = None
    for q in g.cliques:
        cols = [c for c in map(cmap.get, q) if c is not None]
        if len(set(cols)) == len(cols):
            continue
        by_color: dict = {}
        for v in q:
            c = cmap.get(v)
            if c is not None:
                by_color.setdefault(c, []).append(v)
        for vs in by_color.values():
            if len(vs) < 2:
                continue
            vs.sort(key=vertex_key)
            cand = (vs[0], vs[1])
            ck = (vertex_key(cand[0]), vertex_key(cand[1]))
            if worst_key is None or ck < worst_key:
                worst, worst_key = cand, ck
    if worst is not None:
        u, w = worst
        return ProperCheck(
            False, worst, f"{u!r} and {w!r} are adjacent and share color {cmap[u]}"
        )
    return ProperCheck(True)
