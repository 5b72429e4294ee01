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
cliques) by an opaque integer label.  Every graph is held in one form,
with no vertex object until a caller asks for vertices: n, the sorted
pairs of its pair-named vertices, and its sorted general labels with each
label's clique indices.  Its slots are implied.
"""

from __future__ import annotations

import gc
from bisect import bisect_left, bisect_right
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations, repeat
from typing import Iterable

__all__ = [
    "SharedVertex",
    "UnsharedVertex",
    "GeneralVertex",
    "vertex_key",
    "key_vertex",
    "Rejection",
    "EflGraph",
    "Numbering",
    "MAX_ORDER",
    "build_maximal",
    "build_from_pairs",
    "validate",
    "validate_keys",
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


def key_vertex(kind: int, a: int, b: int = 0):
    """The vertex whose :func:`vertex_key` is (kind, a, b) for a shared
    (0) or unshared (1) vertex, or (2, a) for a general one (kind 2)."""
    if kind == 2:
        return GeneralVertex(a)
    return (SharedVertex, UnsharedVertex)[kind](a, b)


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


class EflGraph:
    """Union of n defining n-cliques, any two meeting in at most one vertex.

    ``EflGraph(n, named_pairs, labels, label_cliques)`` is the graph of
    order n whose vertices other than slots are SharedVertex(*p) for each
    p of ``named_pairs``, sorted, and GeneralVertex(t) for each t of
    ``labels``, ascending, lying in the cliques of the same place of
    ``label_cliques``, each an ascending index tuple.  A validated
    clique's unshared vertices fill slots 1..free, so n and these three
    tuples are the whole graph, and all it holds: ``cliques[k]`` (the
    vertex set of Q_{k+1}), ``shared`` (the vertices lying in two or more
    cliques) and the vertex indexes are built the first time a caller
    reads them.  ``pairs`` lists, sorted, the clique-index pairs of the
    shared vertices lying in exactly two cliques: ``named_pairs`` itself
    unless some label lies in exactly two.  A pair graph
    (``is_pair_graph``) has no label.  Instances are immutable and safe to
    share across threads.  Build through :func:`build_maximal`,
    :func:`build_from_pairs`, :func:`validate` or :func:`validate_keys`,
    so the identity scheme stays consistent with actual clique
    membership.
    """

    def __init__(self, n: int, named_pairs: tuple, labels: tuple = (),
                 label_cliques: tuple = ()):
        vars(self).update(n=n, named_pairs=named_pairs, labels=labels,
                          label_cliques=label_cliques)

    def __setattr__(self, name, value):
        raise AttributeError(f"EflGraph is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"EflGraph is immutable: cannot delete {name!r}")

    def __eq__(self, other):
        if not isinstance(other, EflGraph):
            return NotImplemented
        return (self.n == other.n and self.labels == other.labels
                and self.label_cliques == other.label_cliques
                and self.named_pairs == other.named_pairs)

    def __hash__(self):
        # the shared vertex count, found without building them
        return hash((self.n, len(self.named_pairs) + sum(
            len(ix) > 1 for ix in self.label_cliques)))

    def _placed(self):
        """(vertex, clique indices) of every vertex that is not a slot."""
        return chain(
            ((SharedVertex(*p), p) for p in self.named_pairs),
            zip(map(GeneralVertex, self.labels), self.label_cliques),
        )

    @cached_property
    def cliques(self) -> tuple:
        n = self.n
        members: list = [[] for _ in range(n + 1)]
        for v, ix in self._placed():
            for c in ix:
                members[c].append(v)
        return tuple(
            frozenset(ms + [UnsharedVertex(c, s)
                            for s in range(1, n - len(ms) + 1)])
            for c, ms in enumerate(members) if c
        )

    @cached_property
    def shared(self) -> frozenset:
        return frozenset(v for v, ix in self._placed() if len(ix) > 1)

    @cached_property
    def pairs(self) -> tuple:
        """Sorted clique-index pairs of the shared vertices lying in
        exactly two defining cliques."""
        two = [ix for ix in self.label_cliques if len(ix) == 2]
        return tuple(sorted(chain(self.named_pairs, two))) if two \
            else self.named_pairs

    @property
    def is_pair_graph(self) -> bool:
        """True when every vertex carries a pair or slot identity."""
        return not self.labels

    @cached_property
    def is_two_clique(self) -> bool:
        """True when every shared vertex lies in exactly two cliques."""
        return all(len(ix) <= 2 for ix in self.label_cliques)

    @cached_property
    def numbering(self) -> "Numbering":
        """The vertex numbering of g, see :class:`Numbering`."""
        return Numbering(self)

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

    def cliques_of(self, v) -> tuple:
        """Ascending indices of the defining cliques containing vertex v.

        A pair or slot identity names them, since validated graphs keep
        those identities true to membership; any other vertex is looked up
        among the labels, a KeyError when g has no such vertex.
        """
        if isinstance(v, SharedVertex):
            return (v.i, v.j)
        if isinstance(v, UnsharedVertex):
            return (v.clique,)
        key = vertex_key(v)
        if key[0] == 2 and type(key[1]) is int:
            k = bisect_left(self.labels, key[1])
            if k < len(self.labels) and self.labels[k] == key[1]:
                return self.label_cliques[k]
        raise KeyError(key)


class _Joined:
    """Each vertex number's ascending clique tuple, in number order: the
    pairs, (c,) for each slot of clique c, then the labels' tuples.  It is
    walked as often as a caller asks (:func:`eflcolor.check.first_clash`
    walks it twice on a clash), with no copy of the pairs and nothing held
    per slot."""

    def __init__(self, pairs, start, labels):
        self.parts = pairs, start, labels

    def __iter__(self):
        pairs, start, labels = self.parts
        slots = (repeat((c,), start[c + 1] - start[c])
                 for c in range(1, len(start) - 1))
        return chain(pairs, chain.from_iterable(slots), labels)


class Numbering:
    """Numbers 0..size-1 for the vertices of an EFL graph g, in
    :func:`vertex_key` order, found from g's lists with no vertex object.

    Number k < len(pairs) is SharedVertex(*pairs[k]), where ``pairs`` is
    ``g.named_pairs``.  Clique c's slots UnsharedVertex(c, 1), (c, 2), ...
    take the numbers ``slots(c)``, and from ``start[-1]`` on,
    GeneralVertex(label) takes the numbers of ``labels``, g's labels.
    ``cliques`` walks each number's ascending clique tuple; the shared
    vertices are the pairs and the labels in two or more cliques.
    """

    def __init__(self, g: EflGraph):
        n, pairs = g.n, g.named_pairs
        self.n, self.pairs = n, pairs
        self.labels, self.label_cliques = g.labels, g.label_cliques
        degree = Counter(chain.from_iterable(chain(pairs, g.label_cliques)))
        # the slots of clique c are numbered start[c] .. start[c + 1] - 1
        start = [len(pairs)] * 2
        for c in range(1, n + 1):
            start.append(start[-1] + n - degree[c])
        self.start = start
        self.size = start[-1] + len(g.labels)
        # the pairs (i, *) are pairs[rows[i]:rows[i + 1]]
        self.rows = [bisect_left(pairs, (i,)) for i in range(n + 2)]
        self.cliques = _Joined(pairs, start, g.label_cliques)

    def slots(self, c: int) -> range:
        """The numbers of clique c's unshared vertices."""
        return range(self.start[c], self.start[c + 1])

    def number(self, kind: int, a: int, b: int = 0):
        """The number of the vertex whose :func:`vertex_key` is
        (kind, a, b), or (2, a) for kind 2; None when g has no such
        vertex."""
        n = self.n
        if kind == 0:
            if not 1 <= a < b <= n:
                return None
            lo, hi = self.rows[a], self.rows[a + 1]
            k = lo + b - a - 1 if hi - lo == n - a \
                else bisect_left(self.pairs, (a, b), lo, hi)
            return k if k < hi and self.pairs[k] == (a, b) else None
        if kind == 1 and 1 <= a <= n and 1 <= b <= len(self.slots(a)):
            return self.start[a] + b - 1
        if kind == 2 and type(a) is int:
            k = bisect_left(self.labels, a)
            if k < len(self.labels) and self.labels[k] == a:
                return self.start[-1] + k
        return None

    def number_of(self, v):
        """The number of vertex v, or None when g has no such vertex."""
        key = vertex_key(v)
        if key[0] > 2 or {type(x) for x in key[1:]} != {int}:
            return None
        return self.number(*key)

    def vertex(self, k: int):
        """The vertex numbered k."""
        if k < len(self.pairs):
            return SharedVertex(*self.pairs[k])
        if k >= self.start[-1]:
            return GeneralVertex(self.labels[k - self.start[-1]])
        c = bisect_right(self.start, k) - 1
        return UnsharedVertex(c, k - self.start[c] + 1)


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
    return EflGraph(n, tuple(combinations(range(1, n + 1), 2)))


def build_from_pairs(n: int, pairs: Iterable) -> EflGraph:
    """EFL graph of order n whose shared vertices are exactly ``pairs``.

    Each pair (i, j) with 1 <= i < j <= n names one vertex shared by
    cliques Q_i and Q_j; every defining clique is padded with unshared
    vertices up to order n.  Rejects an order outside 2..MAX_ORDER, and
    out-of-range and duplicate pairs: the first offender in input order
    is the ValueError.
    """
    why = _order_error(n)
    if why:
        raise ValueError(why)
    out = []
    ascending = True  # then no pair repeats, and none needs hashing
    for p in pairs:
        i, j = (p.i, p.j) if isinstance(p, SharedVertex) else p
        if not (1 <= i < j <= n):
            if not ascending:
                _refuse_repeats(out)
            raise ValueError(f"pair ({i}, {j}) out of range for n={n}")
        p = p if type(p) is tuple else (i, j)
        ascending = ascending and (not out or out[-1] < p)
        out.append(p)
    if not ascending:
        _refuse_repeats(out)
        out.sort()
    return EflGraph(n, tuple(out))


def _refuse_repeats(pairs: list):
    """ValueError naming the first pair, in list order, that repeats an
    earlier one."""
    seen = set()
    for p in pairs:
        if p in seen:
            raise ValueError(f"duplicate shared pair {p}")
        seen.add(p)


def validate(cliques: Iterable, n: int):
    """Check the EFL invariants over a list of cliques of SharedVertex,
    UnsharedVertex and GeneralVertex (with an int label) objects; a
    TypeError names any other vertex.

    Returns a validated graph or a :class:`Rejection` naming the first
    violated invariant.  The scan order is fixed so the report is
    deterministic: order n (2..MAX_ORDER), clique count, clique sizes by
    ascending index, the lexicographically first pair of cliques sharing
    two or more vertices, then identity consistency (named identities must match
    actual membership, the least offender by :func:`vertex_key` in the
    first clique holding one, and unshared slots must fit the clique's
    free capacity).  The cliques are checked as their vertices' keys, by
    :func:`validate_keys`.
    """
    return validate_keys((map(_checked_key, q) for q in cliques), n)


def _checked_key(v) -> tuple:
    """:func:`vertex_key` of v, a TypeError unless :func:`key_vertex`
    gives v back."""
    k = vertex_key(v)
    if k[0] > 2 or (k[0] == 2 and type(k[1]) is not int):
        raise TypeError(
            "validate takes SharedVertex, UnsharedVertex and GeneralVertex "
            f"with an int label, got {v!r}"
        )
    return k


def validate_keys(cliques: Iterable, n: int):
    """:func:`validate` over cliques given as iterables of
    :func:`vertex_key` tuples of shared, unshared and general vertices:
    (0, i, j), (1, clique, slot) and (2, label).

    The same rules, scan order and messages, with no vertex object built
    unless one is named in a rejection.  The cliques are read one at a
    time, each dropped once scanned, so a caller may stream them.
    """
    why = _order_error(n)
    if why:
        return Rejection("order", why)
    return _rule_scan(cliques, n)


@contextmanager
def _gc_paused():
    """Pause the cyclic garbage collector, then restore its prior state:
    for building large acyclic containers, whose allocations would
    otherwise start collections that walk everything already held."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _rule_scan(cliques: Iterable, n: int):
    """The rules of :func:`validate` after the order, over cliques of
    :func:`vertex_key` tuples read one at a time: the graph they make, or
    the first :class:`Rejection`.

    The scan keeps the first short clique, the membership of shared pairs
    and general labels, each clique's unshared slots (a range when they
    fill 1..free, as in every valid clique) and, for an unshared key met
    outside its own clique, the cliques it was met in.  Every rule is
    decided from these after the last clique.
    """
    placed: dict = {}
    strays: dict = {}
    slots: list = [()]
    short = None
    count = 0
    with _gc_paused():
        for q in cliques:  # no enumerate, which would hold the last clique
            count += 1
            q = set(q)
            if short or count > n or len(q) != n:
                if not short and count <= n:
                    short = count, len(q)
                continue
            own, here = [], (count,)
            for k in q:
                if k[0] != 1:
                    ix = placed.get(k)
                    placed[k] = here if ix is None else ix + here
                elif k[1] == count:
                    own.append(k[2])
                else:
                    strays.setdefault(k, []).append(count)
            free = len(own)
            slots.append(range(1, free + 1) if min(own, default=1) >= 1
                         and max(own, default=0) <= free else own)
        if count != n:
            return Rejection(
                "clique-count", f"expected {n} cliques, got {count}",
                (count,),
            )
        if short:
            idx, size = short
            return Rejection(
                "clique-order",
                f"clique {idx} has {size} vertices, expected {n}",
                (idx,),
            )
        # a stray key lies in its own clique too when that holds its slot
        for k, ix in strays.items():
            c, s = k[1], k[2]
            held = 1 <= c <= n and s in slots[c]
            strays[k] = tuple(sorted(ix + [c])) if held else tuple(ix)
        # cliques a < b share one vertex per membership holding both
        m = n + 1
        met, twice = set(), set()
        for ix in chain(placed.values(), strays.values()):
            for a, b in combinations(ix, 2):
                p = a * m + b
                (twice if p in met else met).add(p)
    if twice:
        a, b = divmod(min(twice), m)
        common = sum(a in ix and b in ix
                     for ix in chain(placed.values(), strays.values()))
        return Rejection(
            "pairwise-intersection",
            f"cliques {a} and {b} share {common} vertices",
            (a, b),
        )
    # the named identities that disagree with membership: the cliques
    # (i, j) of a shared key (0, i, j), the clique (c,) of a slot (1, c, s)
    wrong = {k: ix for k, ix in placed.items() if k[0] == 0 and ix != k[1:]}
    wrong.update(strays)
    if wrong:
        idx = min(ix[0] for ix in wrong.values())
        v = min(k for k, ix in wrong.items() if idx in ix)
        return Rejection(
            "identity",
            f"vertex {key_vertex(*v)!r} lies in cliques {wrong[v]}, "
            f"not {v[1:] if v[0] == 0 else v[1:2]}",
            (idx,),
        )
    for idx in range(1, n + 1):
        if type(slots[idx]) is range:
            continue
        # a clique's unshared places are those its other vertices leave
        free = len(slots[idx])
        bad = [s for s in slots[idx] if s > free]
        if bad:
            return Rejection(
                "slot-range",
                f"clique {idx} has unshared slot {min(bad)} but only "
                f"{free} unshared places",
                (idx, min(bad)),
            )
    # a valid kind-0 key's cliques are its pair, k[1:]
    pairs = tuple(sorted(ix for k, ix in placed.items() if k[0] == 0))
    labels = tuple(sorted(k[1] for k in placed if k[0] == 2))
    return EflGraph(n, pairs, labels, tuple(placed[2, t] for t in labels))
