"""Clique decompositions of host graphs and their EFL correspondence.

A clique decomposition of a simple host graph H is a family of cliques
covering every edge of H exactly once.  Coloring the decomposition means
assigning colors to its cliques so that vertex-intersecting cliques
differ, which is exactly a proper coloring of the family's intersection
graph; :func:`eflcolor.coloring.first_clash` checks it on the
clique-vertex incidences, without building that graph.  EFL graphs and
clique decompositions translate into each other: defining cliques become
host vertices and shared vertices become decomposition cliques, so an
n-coloring of the decomposition is a proper coloring of the shared
vertices.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations
from math import comb
from typing import Iterable

from .coloring import ProperCheck, first_clash
from .core import EflGraph, Rejection

__all__ = [
    "HostGraph",
    "CliqueDecomposition",
    "DecompositionColoring",
    "CliqueCapacityError",
    "complete_host",
    "validate_decomposition",
    "intersection_graph",
    "clique_masks",
    "efl_cliques",
    "efl_to_decomposition",
    "decomposition_to_efl",
    "check_decomposition_coloring",
]


class CliqueCapacityError(ValueError):
    """A host vertex lies in more decomposition cliques than a defining
    n-clique can host as shared vertices."""


class HostGraph:
    """Simple graph on vertices {1, ..., vertex_count}; edges are sorted pairs.

    ``HostGraph(vertex_count, edges)`` checks the edges it is given and
    holds them.  :func:`complete_host` and :func:`efl_to_decomposition`
    build hosts that hold their edge count and where the edges come from
    instead: every pair of 1..n, or cliques of int vertices meeting
    pairwise in at most one vertex, whose pairs are the edges.  Such a
    host builds ``edges`` the first time a caller reads it, so K_2048
    holds no edge tuple until one is asked for; ``edge_count`` and
    :attr:`is_complete` need none.  Equality and hash are those of
    (vertex_count, edges), and instances are immutable.
    """

    def __init__(self, vertex_count: int, edges: frozenset):
        self._hold(vertex_count, edges, len(edges))
        for e in edges:
            i, j = e
            if not (1 <= i < j <= vertex_count):
                raise ValueError(
                    f"edge {e} invalid for a simple graph on "
                    f"{vertex_count} vertices"
                )
        vars(self)["edges"] = edges

    @classmethod
    def _spanned(cls, vertex_count: int, spans, edge_count: int):
        """The host whose edge_count edges are the pairs inside ``spans``,
        sorted int cliques meeting pairwise in at most one vertex, or every
        pair of 1..vertex_count when spans is None."""
        host = cls.__new__(cls)
        host._hold(vertex_count, spans, edge_count)
        return host

    def _hold(self, vertex_count: int, spans, edge_count: int):
        """Sets what every host holds; given edges are their own spans."""
        if vertex_count < 0:
            raise ValueError("vertex_count must be non-negative")
        vars(self).update(vertex_count=vertex_count, edge_count=edge_count,
                          _spans=spans)

    @classmethod
    def from_edges(cls, vertex_count: int, edges: Iterable) -> "HostGraph":
        """Normalize arbitrary unordered pairs (loops and range errors raise)."""
        norm = set()
        for u, v in edges:
            norm.add((u, v) if u < v else (v, u))
        return cls(vertex_count, frozenset(norm))

    def __setattr__(self, name, value):
        raise AttributeError(f"HostGraph is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"HostGraph is immutable: cannot delete {name!r}")

    def __eq__(self, other):
        if not isinstance(other, HostGraph):
            return NotImplemented
        return (self.vertex_count == other.vertex_count
                and self.edges == other.edges)

    def __hash__(self):
        return hash((self.vertex_count, self.edges))

    def __repr__(self):
        return (f"HostGraph(vertex_count={self.vertex_count!r}, "
                f"edges={self.edges!r})")

    @cached_property
    def edges(self) -> frozenset:
        spans = self._spans
        if spans is None:
            return frozenset(combinations(range(1, self.vertex_count + 1), 2))
        if len(spans) == self.edge_count:  # every clique is an edge
            return frozenset(spans)
        return frozenset(chain.from_iterable(combinations(c, 2) for c in spans))

    @property
    def is_complete(self) -> bool:
        return self.edge_count == comb(self.vertex_count, 2)


def complete_host(n: int) -> HostGraph:
    """The complete graph K_n."""
    return HostGraph._spanned(n, None, n * (n - 1) // 2)


@dataclass(frozen=True)
class CliqueDecomposition:
    """Host graph plus cliques partitioning its edge set.

    Cliques are sorted vertex tuples in canonical order (size, then
    lexicographic), so equal decompositions serialize identically.
    """

    host: HostGraph
    cliques: tuple


@dataclass(frozen=True)
class DecompositionColoring:
    """Colors for the cliques of a decomposition, keyed by canonical index."""

    palette_size: int
    colors: dict


def _canonical_order(cliques) -> list:
    """Cliques by size, then lexicographically: the size sort is stable."""
    return sorted(sorted(cliques), key=len)


def validate_decomposition(host: HostGraph, cliques: Iterable):
    """Check the edge-partition and clique-completeness invariants.

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


def clique_masks(cliques) -> list:
    """Neighbor bitmask of every clique in the cliques' intersection graph.

    Entry t - 1 has bit s - 1 set when cliques t and s (1-based, s != t)
    share a host vertex.  Built from membership: each host vertex maps to
    the bitmask of the cliques containing it, so the cost is linear in the
    total clique size rather than quadratic in the clique count.
    """
    member: dict = {}
    for t, c in enumerate(cliques):
        bit = 1 << t
        for v in c:
            member[v] = member.get(v, 0) | bit
    masks = []
    for t, c in enumerate(cliques):
        mask = 0
        for v in c:
            mask |= member[v]
        masks.append(mask & ~(1 << t))
    return masks


def intersection_graph(d: CliqueDecomposition) -> HostGraph:
    """Graph on clique indices 1..k, joined when the cliques share a vertex.

    A decomposition coloring is valid exactly when it is a proper vertex
    coloring of this graph.
    """
    edges = set()
    for t, mask in enumerate(clique_masks(d.cliques), start=1):
        mask >>= t  # the neighbors s > t
        s = t
        while mask:
            low = mask & -mask
            s += low.bit_length()
            mask >>= low.bit_length()
            edges.add((t, s))
    return HostGraph(len(d.cliques), frozenset(edges))


def efl_cliques(g: EflGraph) -> tuple:
    """The cliques of :func:`efl_to_decomposition`'s decomposition of g,
    in canonical order, with no host built: every shared vertex
    contributes the clique of the indices of the defining cliques
    containing it, so the 2-cliques are ``g.pairs``."""
    return g.pairs + tuple(
        _canonical_order(ix for ix in g.label_cliques if len(ix) > 2)
    )


def efl_to_decomposition(g: EflGraph) -> CliqueDecomposition:
    """Translate an EFL graph into a clique decomposition of its index graph.

    Host vertex i stands for defining clique Q_i; {i, j} is a host edge
    iff Q_i and Q_j intersect, and the cliques are :func:`efl_cliques`,
    so a pair graph's cliques and host edges are its pairs.  Works for
    any EFL graph, including shared vertices in three or more cliques.
    The EFL invariants make this a valid decomposition, with cliques in
    canonical order.
    """
    cliques = efl_cliques(g)
    # Q_i and Q_j share at most one vertex, so no two cliques share an
    # edge; the cliques before the larger ones are g.pairs, an edge each
    edges = len(g.pairs)
    count = edges + sum(comb(len(c), 2) for c in cliques[edges:])
    return CliqueDecomposition(HostGraph._spanned(g.n, cliques, count),
                               cliques)


def decomposition_to_efl(d: CliqueDecomposition) -> EflGraph:
    """Inverse translation: one defining n-clique per host vertex.

    Decomposition clique D_t becomes one shared vertex placed in the
    defining cliques its host vertices index: a SharedVertex for a
    2-clique, a GeneralVertex labeled t otherwise.  Defining cliques are
    padded to order n with slot-numbered unshared vertices.  The graph is
    built from the cliques with no vertex object (see
    :class:`eflcolor.core.EflGraph`).  Three guards catch unvalidated
    input, which a validated decomposition of a simple host never trips:
    CliqueCapacityError when a host vertex lies in more than n cliques,
    then ValueError naming the first repeated clique, then the first
    clique with a vertex outside 1..n.
    """
    n = d.host.vertex_count
    if n < 2:
        raise ValueError(f"host must have >= 2 vertices, got {n}")
    count = Counter(chain.from_iterable(d.cliques))
    _check_capacity(n, count)
    _check_repeats(d.cliques)
    if count.keys() - range(1, n + 1):
        c = next(c for c in d.cliques if not 1 <= min(c) <= max(c) <= n)
        raise ValueError(f"clique {c} out of range for n={n}")
    labels = tuple(t for t, c in enumerate(d.cliques, start=1)
                   if len(c) != 2)
    return EflGraph(n, tuple(sorted(c for c in d.cliques if len(c) == 2)),
                    labels, tuple(d.cliques[t - 1] for t in labels))


def _check_capacity(n: int, count):
    """CliqueCapacityError for the least host vertex i whose clique count
    count[i] exceeds n."""
    for i in range(1, n + 1):
        if count[i] > n:
            raise CliqueCapacityError(
                f"host vertex {i} lies in {count[i]} cliques; defining "
                f"clique {i} can hold at most {n} shared vertices"
            )


def _check_repeats(cliques):
    """ValueError naming the first clique that appears twice."""
    repeated = [c for c, k in Counter(cliques).items() if k > 1]
    if repeated:
        raise ValueError(f"duplicate clique {repeated[0]}")


def check_decomposition_coloring(
    d: CliqueDecomposition, coloring: DecompositionColoring
) -> ProperCheck:
    """Check a coloring as an n-coloring of (host, cliques).

    n is the host order: a coloring whose palette exceeds it is not an
    n-coloring and fails.  Vertex-intersecting cliques must receive
    distinct colors; :func:`eflcolor.coloring.first_clash` on d's
    cliques reports the first violating index pair (lexicographic).
    Raises ValueError when the coloring is not total on the cliques or
    steps outside its own palette.
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
    if k > 0 and coloring.palette_size > d.host.vertex_count:
        return ProperCheck(
            False,
            None,
            f"palette {coloring.palette_size} exceeds the host order "
            f"{d.host.vertex_count}",
        )
    clash = first_clash(d.cliques, [cmap[t] for t in range(1, k + 1)])
    if clash:
        s, t = clash
        return ProperCheck(
            False,
            clash,
            f"cliques {s} and {t} share a vertex and color {cmap[s]}",
        )
    return ProperCheck(True)

