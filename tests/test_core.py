import gc
import random
import re
from functools import lru_cache
from itertools import combinations
from math import comb

import pytest

from eflcolor.core import (
    MAX_ORDER,
    EflGraph,
    GeneralVertex,
    Rejection,
    SharedVertex,
    UnsharedVertex,
    _gc_paused,
    build_from_pairs,
    build_maximal,
    validate,
    vertex_key,
)
from eflcolor.decomposition import (
    decomposition_to_efl,
    efl_to_decomposition,
    validate_decomposition,
)
from eflcolor.serialize import dumps, graph_to_json
from eflcolor.solver import enumerate_two_r_decompositions
from helpers import adjacency, reference_graph_to_json, reference_validate


def expected_vertex_count(n, shared):
    # each of the n cliques has n vertices; every shared vertex is counted
    # once per containing clique
    return n * n - sum(len(ix) - 1 for ix in shared)


class TestVertexIds:
    def test_shared_vertex_requires_sorted_pair(self):
        with pytest.raises(ValueError):
            SharedVertex(3, 2)
        with pytest.raises(ValueError):
            SharedVertex(2, 2)
        with pytest.raises(ValueError):
            SharedVertex(0, 1)

    def test_unshared_vertex_requires_positive_fields(self):
        with pytest.raises(ValueError):
            UnsharedVertex(0, 1)
        with pytest.raises(ValueError):
            UnsharedVertex(1, 0)

    def test_identities_do_not_collide(self):
        assert SharedVertex(1, 2) != UnsharedVertex(1, 2)
        assert GeneralVertex(1) != UnsharedVertex(1, 1)
        assert len({SharedVertex(1, 2), UnsharedVertex(1, 2), GeneralVertex(1)}) == 3

    def test_sort_key_orders_kinds_then_fields(self):
        vs = [GeneralVertex(1), UnsharedVertex(1, 2), SharedVertex(2, 3),
              SharedVertex(1, 9), UnsharedVertex(1, 1)]
        assert sorted(vs, key=vertex_key) == [
            SharedVertex(1, 9), SharedVertex(2, 3),
            UnsharedVertex(1, 1), UnsharedVertex(1, 2), GeneralVertex(1),
        ]


class TestBuildMaximal:
    def test_n3_counts_and_explicit_construction(self):
        g = build_maximal(3)
        # counting oracle: n^2 - C(n,2) vertices, C(n,2) shared
        assert len(g.vertices) == 9 - 3 == 6
        assert g.shared == {SharedVertex(1, 2), SharedVertex(1, 3), SharedVertex(2, 3)}
        assert g.cliques[0] == {SharedVertex(1, 2), SharedVertex(1, 3), UnsharedVertex(1, 1)}
        assert g.cliques[1] == {SharedVertex(1, 2), SharedVertex(2, 3), UnsharedVertex(2, 1)}
        assert g.cliques[2] == {SharedVertex(1, 3), SharedVertex(2, 3), UnsharedVertex(3, 1)}

    def test_n10_counts(self):
        g = build_maximal(10)
        assert len(g.shared) == 45
        assert len(g.vertices) == 100 - 45 == 55

    def test_n2_smallest_case(self):
        g = build_maximal(2)
        assert g.shared == {SharedVertex(1, 2)}
        assert len(g.vertices) == 3

    def test_rejects_degenerate_order(self):
        with pytest.raises(ValueError):
            build_maximal(1)
        with pytest.raises(ValueError):
            build_maximal(0)

    def test_rejects_order_above_the_limit_before_building(self):
        def pairs():  # never read: the order is refused first
            raise AssertionError("pairs read")
            yield

        for n in (MAX_ORDER + 1, 10**12):
            with pytest.raises(ValueError, match=f"n must be <= {MAX_ORDER}"):
                build_from_pairs(n, pairs())
            with pytest.raises(ValueError, match=f"n must be <= {MAX_ORDER}"):
                build_maximal(n)

    @pytest.mark.parametrize("n", range(2, 51))
    def test_validates_with_expected_shared_structure(self, n):
        g = build_maximal(n)
        checked = validate(g.cliques, n)
        assert checked.is_two_clique
        assert checked == g
        assert len(g.shared) == comb(n, 2)
        assert all(len(g.cliques_of(v)) == 2 for v in g.shared)
        assert len(g.vertices) == expected_vertex_count(n, [g.cliques_of(v) for v in g.shared])


class TestBuildFromPairs:
    def test_single_pair(self):
        g = build_from_pairs(4, [(1, 2)])
        assert g.shared == {SharedVertex(1, 2)}
        assert len(g.vertices) == 16 - 1
        # cliques 3 and 4 touch no other clique
        assert g.cliques[2].isdisjoint(g.cliques[0] | g.cliques[1] | g.cliques[3])
        assert g.cliques[3].isdisjoint(g.cliques[0] | g.cliques[1] | g.cliques[2])

    def test_full_pair_set_equals_maximal(self):
        pairs = [(i, j) for i in range(1, 4) for j in range(i + 1, 5)]
        g = build_from_pairs(4, pairs)
        assert g == build_maximal(4)
        assert g.vertex_set == build_maximal(4).vertex_set

    def test_two_disjoint_pairs_count(self):
        g = build_from_pairs(5, [(1, 2), (3, 4)])
        assert len(g.shared) == 2
        assert len(g.vertices) == 25 - 2 == 23

    def test_rejects_bad_pairs(self):
        with pytest.raises(ValueError):
            build_from_pairs(4, [(1, 5)])
        with pytest.raises(ValueError):
            build_from_pairs(4, [(2, 1)])
        with pytest.raises(ValueError):
            build_from_pairs(4, [(1, 2), (1, 2)])
        with pytest.raises(ValueError):
            build_from_pairs(1, [])
        # the first bad pair in input order is the one reported
        with pytest.raises(ValueError, match=r"^duplicate shared pair"):
            build_from_pairs(4, [(1, 2), (3, 4), (1, 2), (1, 5)])
        with pytest.raises(ValueError, match=r"^pair \(1, 5\) out of range"):
            build_from_pairs(4, [(1, 2), (1, 5), (1, 2)])

    def test_accepts_shared_vertex_objects(self):
        assert build_from_pairs(4, [SharedVertex(1, 2)]) == build_from_pairs(4, [(1, 2)])


class TestValidate:
    def test_rejects_oversized_intersection(self):
        a, b = GeneralVertex(1), GeneralVertex(2)
        cliques = [
            {a, b, GeneralVertex(3)},
            {a, b, GeneralVertex(4)},
            {GeneralVertex(5), GeneralVertex(6), GeneralVertex(7)},
        ]
        rej = validate(cliques, 3)
        assert isinstance(rej, Rejection)
        assert rej.rule == "pairwise-intersection"
        assert rej.detail == (1, 2)

    def test_accepts_constructor_output(self):
        g = build_maximal(6)
        assert validate(g.cliques, 6) == g

    def test_rejects_short_clique(self):
        g = build_maximal(3)
        cliques = list(g.cliques)
        cliques[1] = cliques[1] - {UnsharedVertex(2, 1)}
        rej = validate(cliques, 3)
        assert isinstance(rej, Rejection)
        assert rej.rule == "clique-order"
        assert rej.detail == (2,)

    def test_rejects_wrong_clique_count(self):
        g = build_maximal(3)
        rej = validate(g.cliques[:2], 3)
        assert isinstance(rej, Rejection)
        assert rej.rule == "clique-count"

    def test_rejects_degenerate_order(self):
        rej = validate([], 1)
        assert isinstance(rej, Rejection)
        assert rej.rule == "order"

    def test_rejects_order_above_the_limit(self):
        rej = validate([], MAX_ORDER + 1)
        assert rej == Rejection(
            "order", f"n must be <= {MAX_ORDER}, got {MAX_ORDER + 1}"
        )

    def test_rejects_misplaced_shared_identity(self):
        # the vertex named (1, 2) actually lives in cliques 2 and 3
        v = SharedVertex(1, 2)
        cliques = [
            {GeneralVertex(1), GeneralVertex(2), GeneralVertex(3)},
            {v, GeneralVertex(4), GeneralVertex(5)},
            {v, GeneralVertex(6), GeneralVertex(7)},
        ]
        rej = validate(cliques, 3)
        assert isinstance(rej, Rejection)
        assert rej.rule == "identity"
        # clique 1 holds two misnamed vertices; the vertex_key-least one
        # is reported, in the same words for either identity kind
        g = build_from_pairs(4, [(1, 2), (1, 3)])
        cliques = [set(q) for q in g.cliques]
        cliques[0] -= {UnsharedVertex(1, 1), UnsharedVertex(1, 2)}
        cliques[0] |= {UnsharedVertex(3, 4), SharedVertex(2, 4)}
        assert validate(cliques, 4) == Rejection(
            "identity",
            "vertex SharedVertex(i=2, j=4) lies in cliques (1,), not (2, 4)",
            (1,),
        )
        cliques[0] -= {SharedVertex(2, 4)}
        cliques[0] |= {UnsharedVertex(1, 1)}
        assert validate(cliques, 4) == Rejection(
            "identity",
            "vertex UnsharedVertex(clique=3, slot=4) lies in cliques (1,), "
            "not (3,)",
            (1,),
        )

    def test_rejects_out_of_range_slot(self):
        g = build_maximal(3)
        cliques = list(g.cliques)
        cliques[0] = (cliques[0] - {UnsharedVertex(1, 1)}) | {UnsharedVertex(1, 3)}
        rej = validate(cliques, 3)
        assert isinstance(rej, Rejection)
        assert rej.rule == "slot-range"

    def test_accepts_general_ids_in_more_than_two_cliques(self):
        hub = GeneralVertex(0)
        cliques = [
            {hub, GeneralVertex(1), GeneralVertex(2)},
            {hub, GeneralVertex(3), GeneralVertex(4)},
            {hub, GeneralVertex(5), GeneralVertex(6)},
        ]
        g = validate(cliques, 3)
        assert isinstance(g, EflGraph)
        assert g.cliques_of(hub) == (1, 2, 3)
        assert g.shared == {hub}
        assert not g.is_two_clique

    @pytest.mark.parametrize(
        "other", [1, GeneralVertex("hub"), (1, 2)],
        ids=["int", "str_label", "tuple"],
    )
    def test_rejects_vertices_outside_the_three_types(self, other):
        # key_vertex cannot give back a raw id, a label that is not an
        # int or any other hashable, so no graph is built on one
        cliques = [
            {other, GeneralVertex(1), GeneralVertex(2)},
            {other, GeneralVertex(3), GeneralVertex(4)},
            {GeneralVertex(5), GeneralVertex(6), GeneralVertex(7)},
        ]
        with pytest.raises(TypeError, match=f"got {re.escape(repr(other))}$"):
            validate(cliques, 3)


class TestAdjacency:
    def test_shared_index_means_adjacent(self):
        g = build_maximal(4)
        assert adjacency(g, SharedVertex(1, 2), SharedVertex(1, 3))

    def test_disjoint_indices_not_adjacent(self):
        g = build_maximal(4)
        assert not adjacency(g, SharedVertex(1, 2), SharedVertex(3, 4))

    def test_unshared_neighbor_in_same_clique(self):
        g = build_maximal(4)
        assert adjacency(g, SharedVertex(1, 2), UnsharedVertex(2, 1))
        assert not adjacency(g, SharedVertex(1, 2), UnsharedVertex(3, 1))

    def test_self_is_not_adjacent(self):
        g = build_maximal(4)
        assert not adjacency(g, SharedVertex(1, 2), SharedVertex(1, 2))

    def test_unknown_vertex_errors(self):
        g = build_maximal(4)
        with pytest.raises(ValueError):
            adjacency(g, SharedVertex(1, 2), SharedVertex(1, 5))


class TestGraphBasics:
    def test_equality_ignores_two_clique_subtype(self):
        g = build_maximal(4)
        h = validate(g.cliques, g.n)
        assert g == h and h == g
        assert hash(g) == hash(h)

    def test_shared_pairs_sorted(self):
        g = build_from_pairs(5, [(3, 4), (1, 2)])
        assert g.is_two_clique
        assert sorted(map(g.cliques_of, g.shared)) == [(1, 2), (3, 4)]

    def test_membership_is_ascending(self):
        g = build_maximal(5)
        for v in g.shared:
            ix = g.cliques_of(v)
            assert ix == tuple(sorted(ix))
            assert ix == (v.i, v.j)


def _perturbed(rng, cliques, n):
    """A clique list with one random defect, or none."""
    qs = [set(q) for q in cliques]
    kind = rng.randrange(6)
    a = rng.randrange(len(qs))
    if kind == 1:  # a member moved in from another clique
        b = rng.randrange(len(qs))
        qs[a].discard(rng.choice(sorted(qs[a], key=vertex_key)))
        qs[a].add(rng.choice(sorted(qs[b], key=vertex_key)))
    elif kind == 2:  # a member renamed
        qs[a].discard(rng.choice(sorted(qs[a], key=vertex_key)))
        qs[a].add(_random_vertex(rng, n))
    elif kind == 3:  # two cliques swapped
        b = rng.randrange(len(qs))
        qs[a], qs[b] = qs[b], qs[a]
    elif kind == 4:  # a member added or dropped
        if rng.random() < 0.5:
            qs[a].add(_random_vertex(rng, n))
        else:
            qs[a].discard(rng.choice(sorted(qs[a], key=vertex_key)))
    return qs


def _random_vertex(rng, n):
    kind = rng.randrange(3)
    if kind == 0:
        i = rng.randrange(1, n + 1)
        return SharedVertex(i, rng.randrange(i + 1, n + 2))
    if kind == 1:
        return UnsharedVertex(rng.randrange(1, n + 1), rng.randrange(1, n + 1))
    return GeneralVertex(rng.randrange(2 * n))


def _random_clique_lists(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randrange(2, 7)
        source = rng.randrange(3)
        if source == 0:  # a valid two-clique graph
            pairs = [
                p for p in combinations(range(1, n + 1), 2)
                if rng.random() < 0.5
            ]
            yield n, _perturbed(rng, build_from_pairs(n, pairs).cliques, n)
        elif source == 1 and n >= 3:  # a valid graph with general vertices
            d = rng.choice(_triangle_decompositions(n))
            yield n, _perturbed(rng, decomposition_to_efl(d).cliques, n)
        else:  # a soup of random identities
            sizes = [n + rng.choice((0, 0, 1)) for _ in range(n)]
            yield n, [
                {_random_vertex(rng, n) for _ in range(size)} for size in sizes
            ]


@lru_cache(maxsize=None)
def _triangle_decompositions(n):
    return list(enumerate_two_r_decompositions(n, 3))


@pytest.mark.parametrize("seed", range(4))
def test_validate_and_graph_to_json_match_the_pairwise_oracles(seed):
    graphs = 0
    for n, cliques in _random_clique_lists(seed, 1000):
        got = validate(cliques, n)
        want = reference_validate(cliques, n)
        assert got == want, cliques
        if isinstance(got, Rejection):
            continue
        graphs += 1
        assert got.shared == want.shared
        # both sides of got == want are keyed graphs: check the cliques
        # against the input itself
        assert got.cliques == tuple(map(frozenset, cliques))
        assert dumps(graph_to_json(got)) == dumps(reference_graph_to_json(got))
        # membership recomputed from the cliques, not taken from validate
        member = {
            v: tuple(i for i, q in enumerate(got.cliques, start=1) if v in q)
            for v in got.vertex_set
        }
        assert all(got.cliques_of(v) == member[v] for v in member)
        assert got.is_two_clique == all(
            len(member[v]) == 2 for v in got.shared
        )
        d = efl_to_decomposition(got)
        assert validate_decomposition(d.host, d.cliques) == d
    assert graphs > 0


def test_gc_paused_restores_the_prior_state():
    was = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            with _gc_paused():
                assert not gc.isenabled()
            assert gc.isenabled() == enabled
            with pytest.raises(KeyError), _gc_paused():
                raise KeyError
            assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()
