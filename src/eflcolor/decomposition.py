"""Clique decompositions of host graphs and their EFL correspondence.

A clique decomposition of a simple host graph H is a family of cliques
covering every edge of H exactly once.  Coloring the decomposition means
assigning colors to its cliques so that vertex-intersecting cliques
differ, which is exactly a proper coloring of the family's intersection
graph; :func:`eflcolor.check.check_decomposition_coloring` checks it on
the clique-vertex incidences, without building that graph.  EFL graphs and
clique decompositions translate into each other: defining cliques become
host vertices and shared vertices become decomposition cliques, so an
n-coloring of the decomposition is a proper coloring of the shared
vertices.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from itertools import chain, combinations
from math import comb
from typing import Iterable

from .check import (  # the moved names: importable as before
    CliqueDecomposition, DecompositionColoring, _canonical_order,
    check_decomposition_coloring, validate_decomposition,
)
from .core import EflGraph

__all__ = [
    "HostGraph",
    "CliqueCapacityError",
    "complete_host",
    "intersection_graph",
    "clique_masks",
    "efl_cliques",
    "efl_to_decomposition",
    "decomposition_to_efl",
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
