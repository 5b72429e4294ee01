import random
import tracemalloc
from collections import deque
from itertools import combinations

import pytest

from eflcolor.core import (
    GeneralVertex,
    Rejection,
    UnsharedVertex,
    build_from_pairs,
    build_maximal,
    validate,
)
from eflcolor.decomposition import (
    CliqueCapacityError,
    CliqueDecomposition,
    DecompositionColoring,
    HostGraph,
    check_decomposition_coloring,
    complete_host,
    decomposition_to_efl,
    efl_to_decomposition,
    intersection_graph,
    validate_decomposition,
)
from eflcolor.serialize import decomposition_text
from helpers import (
    FANO_TRIANGLES,
    family_to_clique_list,
    round_robin_edge_coloring,
)


def decomposition(n, cliques, host=None):
    d = validate_decomposition(host or complete_host(n), cliques)
    assert isinstance(d, CliqueDecomposition), d
    return d


def fano_decomposition():
    return decomposition(7, FANO_TRIANGLES)


class TestHostGraph:
    def test_from_edges_normalizes(self):
        h = HostGraph.from_edges(3, [(2, 1), (1, 3)])
        assert h.edges == {(1, 2), (1, 3)}

    def test_rejects_loop(self):
        with pytest.raises(ValueError):
            HostGraph.from_edges(3, [(2, 2)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            HostGraph.from_edges(3, [(1, 4)])

    def test_immutable_and_unequal_to_other_types(self):
        h = complete_host(3)
        h.edges
        for name in ("vertex_count", "edges", "other"):
            with pytest.raises(AttributeError, match="HostGraph is immutable"):
                setattr(h, name, 1)
            with pytest.raises(AttributeError, match="HostGraph is immutable"):
                delattr(h, name)
        assert h.vertex_count == 3 and h.edge_count == 3
        assert h != h.edges and h != build_maximal(3)
        assert not h == (3, h.edges)

    def test_repr_names_the_edges(self):
        h = HostGraph.from_edges(3, [(2, 1)])
        assert repr(h) == \
            "HostGraph(vertex_count=3, edges=frozenset({(1, 2)}))"

    def test_completeness(self):
        assert complete_host(4).is_complete
        assert not HostGraph.from_edges(3, [(1, 2)]).is_complete

    def test_hosts_built_unchecked_equal_checked_ones(self):
        # complete_host and efl_to_decomposition hold an edge count, not an
        # edge set, and build no edge before one is read: they equal, and
        # hash as, the checked hosts on the same edges
        for n in range(0, 7):
            edges = frozenset(combinations(range(1, n + 1), 2))
            host = complete_host(n)
            assert host.edge_count == len(edges)
            assert hash(host) == hash(HostGraph(n, edges))
            assert host == HostGraph(n, edges)
        sparse = [(1, 2), (1, 3), (1, 4), (2, 3), (4, 5)]
        mixed = decomposition_to_efl(decomposition(
            5, [(1, 2, 3), (1, 4), (4, 5)],
            host=HostGraph.from_edges(5, sparse),
        ))
        assert not mixed.is_pair_graph
        pair_graph = build_from_pairs(6, [(1, 2), (1, 3), (2, 5), (4, 6)])
        for g, edges in [(pair_graph, pair_graph.pairs), (mixed, sparse)]:
            checked = HostGraph(g.n, frozenset(edges))
            host = efl_to_decomposition(g).host
            assert host.edge_count == len(edges)
            assert hash(host) == hash(checked)
            assert host == checked
        d = fano_decomposition()
        ig = intersection_graph(d)
        assert ig == HostGraph(ig.vertex_count, ig.edges)
        with pytest.raises(ValueError, match="non-negative"):
            complete_host(-1)


def traced_peak(fn):
    """Peak bytes traced while fn runs, above what was held before."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestHostEdgeSet:
    """A built host makes no edge set on the way from a graph to its text,
    or through validation: at G_300, a frozenset of the 44,850 pairs
    alone would take 2 MiB."""

    def test_efl_to_decomposition_and_its_text(self):
        g = build_maximal(300)
        peak = traced_peak(
            lambda: deque(decomposition_text(efl_to_decomposition(g)), 0)
        )
        assert peak < 512 * 1024

    def test_validate_decomposition_on_a_complete_host(self):
        pairs = list(combinations(range(1, 301), 2))

        def covered():  # the cliques and covered edges validation holds
            canon = sorted(tuple(sorted(c)) for c in pairs)
            return canon, {i * 301 + j for i, j in canon}

        floor = traced_peak(covered)
        peak = traced_peak(
            lambda: validate_decomposition(complete_host(300), pairs)
        )
        assert peak < floor + 512 * 1024

    def test_complete_host(self):
        assert traced_peak(lambda: complete_host(2048)) < 64 * 1024


class TestValidateDecomposition:
    def test_triangle_as_single_clique(self):
        d = decomposition(3, [(1, 2, 3)])
        assert d.cliques == ((1, 2, 3),)

    def test_triangle_as_three_edges(self):
        d = decomposition(3, [(1, 2), (1, 3), (2, 3)])
        assert d.cliques == ((1, 2), (1, 3), (2, 3))

    def test_rejects_double_cover(self):
        rej = validate_decomposition(
            complete_host(3), [(1, 2, 3), (1, 2)]
        )
        assert isinstance(rej, Rejection)
        assert rej.rule == "edge-covered-twice"
        assert rej.detail == (1, 2)

    def test_rejects_uncovered_edge(self):
        rej = validate_decomposition(complete_host(3), [(1, 2)])
        assert isinstance(rej, Rejection)
        assert rej.rule == "edge-uncovered"
        assert rej.detail == (1, 3)

    def test_rejects_non_clique(self):
        host = HostGraph.from_edges(3, [(1, 2), (2, 3)])
        rej = validate_decomposition(host, [(1, 2, 3)])
        assert isinstance(rej, Rejection)
        assert rej.rule == "not-a-clique"

    def test_rejects_singleton_clique(self):
        rej = validate_decomposition(complete_host(3), [(1,), (1, 2), (1, 3), (2, 3)])
        assert isinstance(rej, Rejection)
        assert rej.rule == "clique-size"

    def test_rejects_repeated_vertex(self):
        rej = validate_decomposition(complete_host(3), [(1, 1, 2)])
        assert isinstance(rej, Rejection)
        assert rej.rule == "clique-vertices"

    def test_canonical_order_is_size_then_lex(self):
        d = decomposition(4, [(2, 3, 4), (1, 4), (1, 3), (1, 2)])
        assert d.cliques == ((1, 2), (1, 3), (1, 4), (2, 3, 4))

    def test_empty_decomposition_of_empty_host(self):
        d = decomposition(3, [], host=HostGraph(3, frozenset()))
        assert d.cliques == ()


class TestIntersectionGraph:
    def test_three_edges_of_a_triangle_pairwise_meet(self):
        d = decomposition(3, [(1, 2), (1, 3), (2, 3)])
        ig = intersection_graph(d)
        assert ig.vertex_count == 3
        assert ig.edges == {(1, 2), (1, 3), (2, 3)}

    def test_disjoint_cliques_make_edgeless_graph(self):
        host = HostGraph.from_edges(4, [(1, 2), (3, 4)])
        d = decomposition(4, [(1, 2), (3, 4)], host=host)
        assert intersection_graph(d).edges == frozenset()

    def test_fano_lines_pairwise_meet(self):
        d = fano_decomposition()
        ig = intersection_graph(d)
        # oracle: check all 21 line pairs directly
        for s, t in combinations(range(7), 2):
            assert set(d.cliques[s]) & set(d.cliques[t])
        assert ig.edges == frozenset(combinations(range(1, 8), 2))

    def test_mixed_sizes_match_pairwise_scan(self):
        d = decomposition(6, family_to_clique_list(6, [(1, 2, 3), (3, 4, 5)]))
        want = {
            (s, t)
            for s, t in combinations(range(1, len(d.cliques) + 1), 2)
            if set(d.cliques[s - 1]) & set(d.cliques[t - 1])
        }
        ig = intersection_graph(d)
        assert ig.vertex_count == len(d.cliques)
        assert ig.edges == want
        assert len(want) < len(list(combinations(d.cliques, 2)))


class TestEflToDecomposition:
    def test_maximal_gives_all_two_cliques(self):
        for n in range(2, 9):
            d = efl_to_decomposition(build_maximal(n))
            assert d.host == complete_host(n)
            assert d.cliques == tuple(combinations(range(1, n + 1), 2))

    def test_hub_graph_gives_single_triangle(self):
        hub = GeneralVertex(0)
        g = validate(
            [
                {hub, GeneralVertex(1), GeneralVertex(2)},
                {hub, GeneralVertex(3), GeneralVertex(4)},
                {hub, GeneralVertex(5), GeneralVertex(6)},
            ],
            3,
        )
        d = efl_to_decomposition(g)
        assert d.host == complete_host(3)
        assert d.cliques == ((1, 2, 3),)

    def test_single_pair_gives_single_edge(self):
        d = efl_to_decomposition(build_from_pairs(4, [(1, 2)]))
        assert d.host.edges == {(1, 2)}
        assert d.cliques == ((1, 2),)


class TestDecompositionToEfl:
    def test_triangle_clique_gives_hub_graph(self):
        g = decomposition_to_efl(decomposition(3, [(1, 2, 3)]))
        assert not g.is_two_clique
        (hub,) = g.shared
        assert hub == GeneralVertex(1)
        assert all(hub in q for q in g.cliques)
        # inverse of the translation above
        assert efl_to_decomposition(g) == decomposition(3, [(1, 2, 3)])

    def test_all_two_cliques_gives_maximal(self):
        for n in range(2, 9):
            d = decomposition(n, list(combinations(range(1, n + 1), 2)))
            assert decomposition_to_efl(d) == build_maximal(n)

    def test_empty_decomposition_gives_disjoint_cliques(self):
        d = decomposition(3, [], host=HostGraph(3, frozenset()))
        g = decomposition_to_efl(d)
        assert g.shared == frozenset()
        assert g.cliques[0] == {UnsharedVertex(1, s) for s in (1, 2, 3)}
        for a, b in combinations(range(3), 2):
            assert g.cliques[a].isdisjoint(g.cliques[b])

    def test_round_trip_preserves_shared_pairs(self):
        for pairs in [[(1, 2)], [(1, 2), (3, 4)], [(1, 4), (2, 4), (2, 3)]]:
            g = build_from_pairs(5, pairs)
            back = decomposition_to_efl(efl_to_decomposition(g))
            assert back.is_two_clique
            assert sorted(map(back.cliques_of, back.shared)) == sorted(pairs)
            assert back == g

    def test_round_trip_from_decomposition_side(self):
        for family in [(), ((1, 2, 3),), ((1, 2, 3), (1, 4, 5))]:
            d = decomposition(5, family_to_clique_list(5, family))
            again = efl_to_decomposition(decomposition_to_efl(d))
            assert again == d

    def test_capacity_guard_on_unchecked_input(self):
        # bypasses validate_decomposition: vertex 1 appears in 4 cliques of a
        # 3-vertex host, which no defining 3-clique can host
        bogus = CliqueDecomposition(
            complete_host(3), ((1, 2), (1, 2), (1, 3), (1, 3))
        )
        with pytest.raises(CliqueCapacityError):
            decomposition_to_efl(bogus)

    def test_rejects_repeated_clique_on_unchecked_input(self):
        # bypasses validate_decomposition: a repeated 2-clique would name
        # one shared vertex twice and leave cliques 1 and 2 short
        bogus = CliqueDecomposition(complete_host(3), ((1, 2), (1, 2)))
        with pytest.raises(ValueError, match=r"^duplicate clique \(1, 2\)$"):
            decomposition_to_efl(bogus)
        bogus = CliqueDecomposition(
            complete_host(4), ((1, 4), (1, 2, 3), (2, 4), (1, 2, 3))
        )
        with pytest.raises(ValueError, match=r"^duplicate clique \(1, 2, 3\)"):
            decomposition_to_efl(bogus)

    def test_rejects_out_of_range_clique_on_unchecked_input(self):
        # bypasses validate_decomposition: host vertex 5 names no defining
        # clique of order 3
        for cliques in [((1, 5),), ((1, 2), (1, 3, 5))]:
            bogus = CliqueDecomposition(complete_host(3), cliques)
            with pytest.raises(ValueError, match="out of range for n=3$"):
                decomposition_to_efl(bogus)

    def test_rejects_tiny_host(self):
        d = decomposition(1, [], host=HostGraph(1, frozenset()))
        with pytest.raises(ValueError):
            decomposition_to_efl(d)


class TestDecompositionColoring:
    def test_distinct_colors_on_triangle_edges(self):
        d = decomposition(3, [(1, 2), (1, 3), (2, 3)])
        ok = check_decomposition_coloring(
            d, DecompositionColoring(3, {1: 1, 2: 2, 3: 3})
        )
        assert ok

    def test_conflict_detected(self):
        d = decomposition(3, [(1, 2), (1, 3), (2, 3)])
        chk = check_decomposition_coloring(
            d, DecompositionColoring(3, {1: 1, 2: 1, 3: 2})
        )
        assert not chk
        assert chk.violation == (1, 2)

    def test_reports_lexicographically_first_conflict(self):
        d = decomposition(5, family_to_clique_list(5, [(1, 2, 3)]))
        rng = random.Random(7)
        for _ in range(200):
            palette = rng.randrange(1, 6)
            colors = {
                t: rng.randrange(1, palette + 1)
                for t in range(1, len(d.cliques) + 1)
            }
            first = next(
                (
                    (s, t)
                    for s, t in combinations(range(1, len(d.cliques) + 1), 2)
                    if set(d.cliques[s - 1]) & set(d.cliques[t - 1])
                    and colors[s] == colors[t]
                ),
                None,
            )
            chk = check_decomposition_coloring(
                d, DecompositionColoring(palette, colors)
            )
            assert chk.violation == first
            assert bool(chk) == (first is None)

    def test_round_robin_edge_coloring_of_g4(self):
        # the circle method colors K_4's edges, the 2-cliques of G_4
        d = efl_to_decomposition(build_maximal(4))
        edge_colors = round_robin_edge_coloring(4)
        coloring = DecompositionColoring(
            3, {t: edge_colors[c] for t, c in enumerate(d.cliques, start=1)}
        )
        assert check_decomposition_coloring(d, coloring)

    def test_fano_bijection_is_valid(self):
        d = fano_decomposition()
        perm = {1: 4, 2: 1, 3: 7, 4: 2, 5: 6, 6: 3, 7: 5}
        assert check_decomposition_coloring(d, DecompositionColoring(7, perm))

    def test_palette_above_host_order_fails(self):
        d = decomposition(3, [(1, 2), (1, 3), (2, 3)])
        chk = check_decomposition_coloring(
            d, DecompositionColoring(4, {1: 1, 2: 2, 3: 4})
        )
        assert not chk
        assert "palette" in chk.reason

    def test_partial_coloring_errors(self):
        d = decomposition(3, [(1, 2), (1, 3), (2, 3)])
        with pytest.raises(ValueError, match="misses"):
            check_decomposition_coloring(d, DecompositionColoring(3, {1: 1}))

    def test_color_outside_palette_errors(self):
        d = decomposition(3, [(1, 2), (1, 3), (2, 3)])
        with pytest.raises(ValueError, match="outside"):
            check_decomposition_coloring(
                d, DecompositionColoring(2, {1: 1, 2: 2, 3: 3})
            )
