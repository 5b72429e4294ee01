"""Erdos-Faber-Lovasz graphs: vertex identities, construction, validation.

An EFL graph of order n is the union of n defining cliques Q_1, ..., Q_n,
each on n vertices, with any two defining cliques meeting in at most one
vertex.  Edges exist only inside defining cliques.  A vertex lying in two
or more cliques is "shared"; the maximal instance G_n has one shared
vertex for every pair of defining cliques, hence C(n, 2) of them.

Clique indices are 1-based throughout.  Vertices carry one of three
identities: a shared vertex in exactly two cliques is named by its sorted
clique-index pair, an unshared vertex by its clique and a slot number, and
anything else (for graphs whose shared vertices may lie in three or more
cliques) by an opaque integer label.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Hashable, Iterable, Union

__all__ = [
    "SharedVertex",
    "UnsharedVertex",
    "GeneralVertex",
    "VertexId",
    "vertex_key",
    "Rejection",
    "EflGraph",
    "MAX_ORDER",
    "build_maximal",
    "build_from_pairs",
    "validate",
    "adjacency",
]


@dataclass(frozen=True, slots=True)
class SharedVertex:
    """Vertex shared by exactly two defining cliques, named by their indices."""

    i: int
    j: int

    def __post_init__(self):
        if not 1 <= self.i < self.j:
            raise ValueError(
                f"shared vertex needs 1 <= i < j, got ({self.i}, {self.j})"
            )


@dataclass(frozen=True, slots=True)
class UnsharedVertex:
    """Vertex belonging to a single defining clique, numbered by slot."""

    clique: int
    slot: int

    def __post_init__(self):
        if self.clique < 1 or self.slot < 1:
            raise ValueError(
                f"unshared vertex needs clique >= 1 and slot >= 1, "
                f"got ({self.clique}, {self.slot})"
            )


@dataclass(frozen=True, slots=True)
class GeneralVertex:
    """Opaque vertex label, used when no pair or slot identity applies."""

    label: int


VertexId = Union[SharedVertex, UnsharedVertex, GeneralVertex, Hashable]


def vertex_key(v) -> tuple:
    """Deterministic total sort key over vertex identities.

    Shared vertices sort first (by index pair), then unshared (by clique
    and slot), then general labels.  Unrecognized hashables sort last by
    repr, so ordering stays total on arbitrary validated input.
    """
    if isinstance(v, SharedVertex):
        return (0, v.i, v.j)
    if isinstance(v, UnsharedVertex):
        return (1, v.clique, v.slot)
    if isinstance(v, GeneralVertex):
        return (2, v.label)
    if isinstance(v, int):
        return (3, v)
    return (4, repr(v))


def _named_cliques(v):
    """The cliques a SharedVertex or UnsharedVertex identity names, or None
    for any other vertex."""
    if isinstance(v, SharedVertex):
        return (v.i, v.j)
    if isinstance(v, UnsharedVertex):
        return (v.clique,)
    return None


@dataclass(frozen=True)
class Rejection:
    """Structured validation failure naming the first violated invariant.

    ``rule`` is a stable machine-readable tag, ``message`` is human
    readable, and ``detail`` carries the offending indices or edge when
    one applies.
    """

    rule: str
    message: str
    detail: tuple = ()


@dataclass(frozen=True, eq=False)
class EflGraph:
    """Union of n defining n-cliques, any two meeting in at most one vertex.

    ``cliques[k]`` is the vertex set of Q_{k+1}; ``shared`` holds exactly
    the vertices lying in two or more defining cliques.  Instances are
    immutable and safe to share across threads.  Build through
    :func:`build_maximal`, :func:`build_from_pairs`,
    :func:`validate`, or the decomposition translators, which all keep the
    identity scheme consistent with actual clique membership.
    """

    n: int
    cliques: tuple
    shared: frozenset

    def __eq__(self, other):
        if not isinstance(other, EflGraph):
            return NotImplemented
        return self.n == other.n and self.cliques == other.cliques

    def __hash__(self):
        return hash((self.n, self.cliques))

    @cached_property
    def vertex_set(self) -> frozenset:
        out = set()
        for q in self.cliques:
            out.update(q)
        return frozenset(out)

    @cached_property
    def vertices(self) -> tuple:
        """All vertices in canonical order."""
        return tuple(sorted(self.vertex_set, key=vertex_key))

    @cached_property
    def membership(self) -> dict:
        """Vertex -> ascending tuple of defining-clique indices containing it."""
        seen: dict = {}
        for idx, q in enumerate(self.cliques, start=1):
            for v in q:
                seen.setdefault(v, []).append(idx)
        return {v: tuple(ix) for v, ix in seen.items()}

    @cached_property
    def is_two_clique(self) -> bool:
        """True when every shared vertex lies in exactly two cliques."""
        return all(len(self.cliques_of(v)) == 2 for v in self.shared)

    def cliques_of(self, v) -> tuple:
        """Ascending indices of the defining cliques containing vertex v.

        A pair or slot identity names them, since validated graphs keep
        those identities true to membership; any other vertex is looked up
        in :attr:`membership`.
        """
        return _named_cliques(v) or self.membership[v]


# the largest order built or read: G_n has about n^2 / 2 vertices, so an
# order far above the working sizes of the closed form (n = 600) is
# refused before anything is allocated
MAX_ORDER = 2048


def _order_error(n: int):
    """Why no EFL graph of order n is built, or None when one may be."""
    if n < 2:
        return f"n must be >= 2, got {n}"
    if n > MAX_ORDER:
        return f"n must be <= {MAX_ORDER}, got {n}"
    return None


def build_maximal(n: int) -> EflGraph:
    """The maximal instance G_n: every two defining cliques share a vertex.

    G_n has C(n, 2) shared vertices and n^2 - C(n, 2) vertices in total;
    each defining clique carries exactly one unshared vertex.
    """
    why = _order_error(n)  # before combinations() copies its pool
    if why:
        raise ValueError(why)
    return build_from_pairs(n, combinations(range(1, n + 1), 2))


def build_from_pairs(n: int, pairs: Iterable) -> EflGraph:
    """EFL graph of order n whose shared vertices are exactly ``pairs``.

    Each pair (i, j) with 1 <= i < j <= n names one vertex shared by
    cliques Q_i and Q_j; every defining clique is padded with unshared
    vertices up to order n.  Rejects an order outside 2..MAX_ORDER, and
    out-of-range and duplicate pairs.
    """
    why = _order_error(n)
    if why:
        raise ValueError(why)
    members: list = [[] for _ in range(n + 1)]
    shared = set()
    for p in pairs:
        i, j = (p.i, p.j) if isinstance(p, SharedVertex) else p
        if not (1 <= i < j <= n):
            raise ValueError(f"pair ({i}, {j}) out of range for n={n}")
        v = SharedVertex(i, j)
        if v in shared:
            raise ValueError(f"duplicate shared pair ({i}, {j})")
        shared.add(v)
        members[i].append(v)
        members[j].append(v)
    cliques = []
    for i in range(1, n + 1):
        ms = members[i]
        pad = n - len(ms)
        ms.extend(UnsharedVertex(i, s) for s in range(1, pad + 1))
        cliques.append(frozenset(ms))
    return EflGraph(n, tuple(cliques), frozenset(shared))


def validate(cliques: Iterable, n: int):
    """Check the EFL invariants over an arbitrary clique list.

    Returns a validated graph or a :class:`Rejection` naming the first
    violated invariant.  The scan order is fixed so the report is
    deterministic: order n (2..MAX_ORDER), clique count, clique sizes by
    ascending index, the lexicographically first pair of cliques sharing
    two or more vertices, then identity consistency (named identities must match
    actual membership, the least offender by :func:`vertex_key` in the
    first clique holding one, and unshared slots must fit the clique's
    free capacity).
    """
    why = _order_error(n)
    if why:
        return Rejection("order", why)
    qs = [frozenset(q) for q in cliques]
    if len(qs) != n:
        return Rejection(
            "clique-count", f"expected {n} cliques, got {len(qs)}", (len(qs),)
        )
    for idx, q in enumerate(qs, start=1):
        if len(q) != n:
            return Rejection(
                "clique-order",
                f"clique {idx} has {len(q)} vertices, expected {n}",
                (idx,),
            )
    membership: dict = {}
    for idx, q in enumerate(qs, start=1):
        for v in q:
            membership.setdefault(v, []).append(idx)
    membership = {v: tuple(ix) for v, ix in membership.items()}
    # cliques a < b share one vertex per membership tuple holding both
    common = Counter(
        p for ix in membership.values() if len(ix) > 1
        for p in combinations(ix, 2)
    )
    bad = [p for p, count in common.items() if count > 1]
    if bad:
        a, b = min(bad)
        return Rejection(
            "pairwise-intersection",
            f"cliques {a} and {b} share {common[a, b]} vertices",
            (a, b),
        )

    for idx, q in enumerate(qs, start=1):
        # a named identity that disagrees with membership
        wrong = [
            v for v in q if _named_cliques(v) not in (None, membership[v])
        ]
        if wrong:
            v = min(wrong, key=vertex_key)
            return Rejection(
                "identity",
                f"vertex {v!r} lies in cliques {membership[v]}, "
                f"not {_named_cliques(v)}",
                (idx,),
            )
    for idx, q in enumerate(qs, start=1):
        slots = [v.slot for v in q if isinstance(v, UnsharedVertex)]
        free = n - (len(q) - len(slots))
        bad = sorted(s for s in slots if s > free)
        if bad:
            return Rejection(
                "slot-range",
                f"clique {idx} has unshared slot {bad[0]} but only "
                f"{free} unshared places",
                (idx, bad[0]),
            )

    shared = frozenset(v for v, ix in membership.items() if len(ix) >= 2)
    g = EflGraph(n, tuple(qs), shared)
    g.__dict__["membership"] = membership
    return g


def adjacency(g: EflGraph, u, v) -> bool:
    """True iff u and v are distinct and lie in a common defining clique."""
    for w in (u, v):
        if w not in g.vertex_set:
            raise ValueError(f"unknown vertex {w!r}")
    if u == v:
        return False
    return not set(g.cliques_of(u)).isdisjoint(g.cliques_of(v))
