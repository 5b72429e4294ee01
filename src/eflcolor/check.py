"""The checks a user must trust, and the types they read.

Every colorability answer eflcolor gives out is believable because of
the rules in this module, and only these:

- :func:`first_clash` finds the first two cliques that share a host
  vertex and a color; :func:`check_cliques` reports it.
- :func:`check_proper` judges a vertex coloring of an EFL graph, and
  :func:`check_n_coloring` also fails one whose palette exceeds the order.
- :func:`validate_decomposition` checks that cliques partition a host's
  edges; :func:`check_decomposition_coloring` judges an n-coloring of
  such a decomposition.
- :func:`over_capacity` is the counting bound that refutes a palette
  with no search.

The module imports nothing from eflcolor but :mod:`eflcolor.core`: no
search, closed form or I/O code, so a wrong answer from any of those is
caught here, not excused.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from itertools import chain, combinations
from math import gcd

from .core import EflGraph, Rejection, vertex_key

__all__ = [
    "SharedColoring",
    "FullColoring",
    "NumberedColors",
    "ProperCheck",
    "CliqueDecomposition",
    "DecompositionColoring",
    "first_clash",
    "check_cliques",
    "check_proper",
    "check_n_coloring",
    "validate_decomposition",
    "check_decomposition_coloring",
    "over_capacity",
]


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

    def require(self, what: str):
        """AssertionError "what: reason" unless the check passed: for an
        answer eflcolor built itself, which must pass."""
        if not self.ok:
            raise AssertionError(f"{what}: {self.reason}")


PROPER = ProperCheck(True)


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


@dataclass(frozen=True)
class CliqueDecomposition:
    """Host graph plus cliques partitioning its edge set.

    Cliques are sorted vertex tuples in canonical order (size, then
    lexicographic), so equal decompositions serialize identically.  The
    host is an :class:`eflcolor.decomposition.HostGraph`.
    """

    host: object
    cliques: tuple


@dataclass(frozen=True)
class DecompositionColoring:
    """Colors for the cliques of a decomposition, keyed by canonical index."""

    palette_size: int
    colors: dict


def _canonical_order(cliques) -> list:
    """Cliques by size, then lexicographically: the size sort is stable."""
    return sorted(sorted(cliques), key=len)


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


def check_cliques(cliques, colors) -> ProperCheck:
    """Whether no two cliques that share a host vertex share a color,
    colors[t - 1] being clique t's; a failure names :func:`first_clash`'s
    pair."""
    clash = first_clash(cliques, colors)
    if not clash:
        return PROPER
    s, t = clash
    return ProperCheck(
        False, clash,
        f"cliques {s} and {t} share a vertex and color {colors[s - 1]}",
    )


def check_proper(g: EflGraph, coloring) -> ProperCheck:
    """Check that no edge of g joins two equally colored vertices.

    A FullColoring must cover exactly the vertices of g; a SharedColoring
    may cover any subset of the shared vertices, and only edges inside its
    domain are examined.  A vertex outside the domain or a color outside
    1..palette_size is a ValueError naming the least such vertex.  Every
    edge lies in one defining clique, so the coloring is proper when no
    clique holds a color twice: its pairs' and labels' colors, and its
    slots' as one slice.  Otherwise :func:`first_clash` runs on each
    vertex's defining cliques, ``numbering.cliques``, which meet exactly
    when the vertices are adjacent; vertex numbers follow
    :func:`vertex_key` order, so the first monochromatic pair by
    :func:`vertex_key` is reported.  Nothing is allocated per palette
    value.
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
    start, rows = numbering.start, numbering.rows
    # at[c]: clique c's colors, None for an uncolored vertex; those of the
    # pairs (c, *), and of its slots, which only a full coloring colors,
    # are one slice each
    ends = start[1:] if isinstance(coloring, FullColoring) else start
    at = [by_number[rows[c]:rows[c + 1]] + by_number[start[c]:ends[c]]
          for c in range(g.n + 1)]
    for (_, j), c in zip(numbering.pairs, by_number):
        at[j].append(c)
    for ix, c in zip(numbering.label_cliques, by_number[start[-1]:]):
        for i in ix:
            at[i].append(c)
    clash = any(len(set(cs)) < len(cs) for cs in at) and first_clash(
        numbering.cliques, by_number)
    if not clash:  # no clique repeats a color; None, uncolored, may repeat
        return PROPER
    u, w = numbering.vertex(clash[0] - 1), numbering.vertex(clash[1] - 1)
    return ProperCheck(
        False, (u, w),
        f"{u!r} and {w!r} are adjacent and share color "
        f"{by_number[clash[0] - 1]}",
    )


def _n_coloring(chk: ProperCheck, palette: int, n: int, of: str):
    """chk, or a failure when palette exceeds n, the order of the graph
    or host named by of: an n-coloring has at most n colors."""
    return chk if palette <= n else ProperCheck(
        False, None, f"palette {palette} exceeds the {of} order {n}")


def check_n_coloring(g: EflGraph, coloring) -> ProperCheck:
    """:func:`check_proper`, failed also when the palette exceeds g's
    order n, as :func:`check_decomposition_coloring` does the host's."""
    return _n_coloring(check_proper(g, coloring), coloring.palette_size,
                       g.n, "graph")


def validate_decomposition(host, cliques):
    """Check the edge-partition and clique-completeness invariants of
    cliques on host, an :class:`eflcolor.decomposition.HostGraph`.

    Returns the decomposition with cliques in canonical order, or a
    Rejection naming the first offense in a fixed scan order: a repeated
    vertex, an undersized clique, an out-of-range vertex, a non-edge
    inside a clique, a doubly covered edge, then the lexicographically
    first uncovered edge.  Edges of int vertices are checked by number
    (i * (N + 1) + j for the edge (i, j) of a host on N vertices), so no
    edge tuple is hashed, and a complete host's edges are known by range
    alone.
    """
    canon = []
    for c in cliques:
        c = tuple(c)
        if len(set(c)) != len(c):
            return Rejection(
                "clique-vertices", f"clique {c} repeats a vertex", (c,)
            )
        canon.append(tuple(sorted(c)))
    del cliques  # freed here when the caller passed its only reference
    canon = _canonical_order(canon)
    N = host.vertex_count
    M = N + 1
    # int vertices give each edge (i, j) of 1..N its own number; anything
    # else is checked as the tuples host.edges holds.  A host's vertices are
    # screened in what it holds, given edges or a built host's cliques, so
    # K_n, which holds none, builds no edge for it
    ints = set(map(type, chain.from_iterable(
        chain(canon, host._spans or ())))) <= {int}
    if not ints:
        edges = host.edges
    elif not host.is_complete:
        edges = {i * M + j for i, j in host.edges}
    else:  # every in-range pair is an edge
        edges = None
    covered = set()
    for t, c in enumerate(canon, start=1):
        if len(c) < 2:
            return Rejection(
                "clique-size",
                f"clique {t} has {len(c)} vertices; decomposition cliques "
                "must carry at least one edge",
                (t,),
            )
        if not ints or c[0] < 1 or c[-1] > N:  # c is sorted
            out = [v for v in c if not 1 <= v <= N]
            if out:
                return Rejection(
                    "vertex-range",
                    f"clique {t} names vertex {out[0]}, outside 1..{N}",
                    (t, out[0]),
                )
        for i, j in combinations(c, 2):
            e = i * M + j if ints else (i, j)
            if edges is not None and e not in edges:
                return Rejection(
                    "not-a-clique",
                    f"clique {t} spans {(i, j)}, which is not a host edge",
                    (t, (i, j)),
                )
            if e in covered:
                return Rejection(
                    "edge-covered-twice",
                    f"edge {(i, j)} belongs to two cliques",
                    (i, j),
                )
            covered.add(e)
    # every covered edge is a host edge
    if len(covered) < host.edge_count:
        e = next(e for e in sorted(host.edges)
                 if (e[0] * M + e[1] if ints else e) not in covered)
        return Rejection(
            "edge-uncovered", f"edge {e} belongs to no clique", e
        )
    return CliqueDecomposition(host, tuple(canon))


def check_decomposition_coloring(
    d: CliqueDecomposition, coloring: DecompositionColoring
) -> ProperCheck:
    """Check a coloring as an n-coloring of (host, cliques).

    n is the host order: a coloring of one clique or more whose palette
    exceeds it is not an n-coloring and fails.  Vertex-intersecting
    cliques must receive distinct colors; :func:`check_cliques` reports
    the first violating index pair (lexicographic).  Raises ValueError
    when the coloring is not total on the cliques or steps outside its
    own palette.
    """
    k = len(d.cliques)
    cmap = coloring.colors
    for t in range(1, k + 1):
        if t not in cmap:
            raise ValueError(f"coloring misses clique {t}")
        c = cmap[t]
        if not 1 <= c <= coloring.palette_size:
            raise ValueError(
                f"clique {t} has color {c} outside 1..{coloring.palette_size}"
            )
    if len(cmap) != k:
        extra = sorted(set(cmap) - set(range(1, k + 1)))
        raise ValueError(f"coloring names unknown clique index {extra[0]}")
    chk = check_cliques(d.cliques, [cmap[t] for t in range(1, k + 1)])
    return _n_coloring(chk, coloring.palette_size, d.host.vertex_count,
                       "host") if k else chk


def over_capacity(cliques, palette: int, order: int) -> bool:
    """Whether palette colors cannot hold cliques, those of a
    decomposition of a host of the given order: a color class is a set of
    pairwise vertex-disjoint cliques, so it covers at most order host
    vertices, and a multiple of the gcd of the clique sizes, and the
    cliques hold more clique-vertex incidences than palette such classes
    do.  A proof by counting, with no search."""
    sizes = list(map(len, cliques))
    step = gcd(*sizes) or 1
    return sum(sizes) > palette * (order - order % step)
