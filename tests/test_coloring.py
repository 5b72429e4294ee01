import json
import time
from collections import Counter
from itertools import combinations
from pathlib import Path

import pytest

from eflcolor.coloring import (
    FullColoring,
    SharedColoring,
    check_proper,
    color_shared,
    extend_to_full,
    pair_color,
)
from eflcolor.core import (
    SharedVertex,
    UnsharedVertex,
    build_from_pairs,
    build_maximal,
    validate,
    GeneralVertex,
)
from helpers import brute_force_proper, round_robin_edge_coloring

FIXTURES = Path(__file__).parent / "fixtures"


def load_golden_g10():
    data = json.loads((FIXTURES / "g10_shared_coloring.json").read_text())
    return {
        SharedVertex(e["vertex"][1], e["vertex"][2]): e["color"]
        for e in data["assignments"]
    }


def all_pairs(n):
    return [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]


def pair_colors(n, pairs):
    return {SharedVertex(i, j): pair_color(n, i, j) for i, j in pairs}


class TestEvenFormula:
    def test_published_g10_values(self):
        assert color_shared(build_maximal(10)).palette_size == 9
        assert pair_color(10, 1, 9) == 1
        assert pair_color(10, 5, 10) == 1
        assert pair_color(10, 2, 9) == 2
        assert pair_color(10, 8, 9) == 8
        assert pair_color(10, 9, 10) == 9

    def test_matches_golden_fixture_everywhere(self):
        assert pair_colors(10, all_pairs(10)) == load_golden_g10()

    def test_n2_single_vertex(self):
        c = color_shared(build_maximal(2))
        assert c.palette_size == 1
        assert c.colors == {SharedVertex(1, 2): 1}
        assert pair_color(2, 1, 2) == 1

    def test_n4_hand_computed(self):
        # evaluated by hand: residues mod 3 in {1, 2, 3}, doubling on j = 4
        expected = {
            SharedVertex(1, 2): 3,
            SharedVertex(1, 3): 1,
            SharedVertex(2, 3): 2,
            SharedVertex(1, 4): 2,
            SharedVertex(2, 4): 1,
            SharedVertex(3, 4): 3,
        }
        colors = pair_colors(4, all_pairs(4))
        assert colors == expected
        assert brute_force_proper(build_maximal(4), colors)

    def test_rejects_index_below_one(self):
        with pytest.raises(ValueError, match=r"pair \(0, 2\) out of range"):
            pair_color(4, 0, 2)

    def test_rejects_out_of_range_pair(self):
        with pytest.raises(ValueError):
            pair_color(4, 1, 6)


class TestOddFormula:
    def test_n3_triangle(self):
        c = color_shared(build_maximal(3))
        assert c.palette_size == 3
        assert pair_colors(3, all_pairs(3)) == c.colors == {
            SharedVertex(1, 2): 3,
            SharedVertex(1, 3): 1,
            SharedVertex(2, 3): 2,
        }
        assert brute_force_proper(build_maximal(3), c.colors)

    def test_published_g9_values(self):
        assert pair_color(9, 1, 8) == 9
        assert pair_color(9, 4, 5) == 9

    def test_n5_values_and_nonadjacent_repeat(self):
        colors = pair_colors(5, all_pairs(5))
        assert colors[SharedVertex(2, 3)] == 5
        assert colors[SharedVertex(1, 4)] == 5
        assert colors[SharedVertex(2, 4)] == 1
        # (2,3) and (1,4) share a color but no clique index, so no conflict
        assert brute_force_proper(build_maximal(5), colors)

    def test_rejects_unordered_pair(self):
        for i, j in ((3, 2), (2, 2)):
            with pytest.raises(ValueError, match="out of range for n=5"):
                pair_color(5, i, j)


class TestColorShared:
    def test_g10_dispatches_to_even(self):
        c = color_shared(build_maximal(10))
        assert c.colors == load_golden_g10()

    def test_restriction_agrees_pointwise(self):
        full = color_shared(build_maximal(10))
        sub_pairs = [p for p in all_pairs(10) if p != (3, 7) and p != (2, 10)]
        sub = color_shared(build_from_pairs(10, sub_pairs))
        for v, c in sub.colors.items():
            assert full.colors[v] == c

    def test_single_pair_even(self):
        c = color_shared(build_from_pairs(6, [(1, 2)]))
        assert c.palette_size == 5
        assert c.colors == {SharedVertex(1, 2): 3}

    def test_rejects_hub_vertex(self):
        hub = GeneralVertex(0)
        g = validate(
            [
                {hub, GeneralVertex(1), GeneralVertex(2)},
                {hub, GeneralVertex(3), GeneralVertex(4)},
                {hub, GeneralVertex(5), GeneralVertex(6)},
            ],
            3,
        )
        with pytest.raises(ValueError, match="three or more"):
            color_shared(g)

    def test_works_on_general_ids_with_two_clique_structure(self):
        # same hub structure but only ever two cliques per shared vertex
        u, v = GeneralVertex(10), GeneralVertex(20)
        g = validate(
            [
                {u, v, GeneralVertex(1)},
                {u, GeneralVertex(2), GeneralVertex(3)},
                {v, GeneralVertex(4), GeneralVertex(5)},
            ],
            3,
        )
        c = color_shared(g)
        assert c.colors == {u: 3, v: 1}  # membership pairs (1,2) and (1,3)
        assert check_proper(g, c)

    @pytest.mark.parametrize("n", range(2, 61))
    def test_proper_and_palette_exact_on_maximal(self, n):
        g = build_maximal(n)
        c = color_shared(g)
        assert check_proper(g, c)
        palette = n - 1 if n % 2 == 0 else n
        assert c.palette_size == palette
        counts = Counter(c.colors.values())
        assert set(counts) == set(range(1, palette + 1))
        size = n // 2 if n % 2 == 0 else (n - 1) // 2
        assert all(v == size for v in counts.values())


class TestExtendToFull:
    def test_g4_unshared_all_get_color_4(self):
        g = build_maximal(4)
        full = extend_to_full(g, color_shared(g))
        assert full.palette_size == 4
        for i in range(1, 5):
            assert full.colors[UnsharedVertex(i, 1)] == 4
        assert check_proper(g, full)
        assert brute_force_proper(g, full.colors)
        assert len(set(full.colors.values())) == 4

    def test_no_shared_vertices_colors_each_clique_independently(self):
        g = build_from_pairs(3, [])
        full = extend_to_full(g, SharedColoring(3, {}))
        for i in range(1, 4):
            got = sorted(full.colors[UnsharedVertex(i, s)] for s in range(1, 4))
            assert got == [1, 2, 3]
        assert check_proper(g, full)

    def test_g10_unshared_all_get_color_10(self):
        g = build_maximal(10)
        full = extend_to_full(g, color_shared(g))
        for i in range(1, 11):
            assert full.colors[UnsharedVertex(i, 1)] == 10
        assert check_proper(g, full)

    def test_slot_order_gets_ascending_free_colors(self):
        g = build_from_pairs(4, [(1, 2)])
        full = extend_to_full(g, SharedColoring(4, {SharedVertex(1, 2): 2}))
        # clique 1: free colors 1, 3, 4 onto slots 1, 2, 3
        assert full.colors[UnsharedVertex(1, 1)] == 1
        assert full.colors[UnsharedVertex(1, 2)] == 3
        assert full.colors[UnsharedVertex(1, 3)] == 4

    def test_rejects_improper_shared_coloring(self):
        g = build_maximal(3)
        bad = SharedColoring(3, {v: 1 for v in g.shared})
        with pytest.raises(ValueError, match="clique 1"):
            extend_to_full(g, bad)

    def test_rejects_color_above_n(self):
        g = build_from_pairs(4, [(1, 2)])
        with pytest.raises(ValueError, match="palette"):
            extend_to_full(g, SharedColoring(9, {SharedVertex(1, 2): 9}))

    def test_rejects_missing_shared_vertex(self):
        g = build_maximal(3)
        c = color_shared(g)
        partial = dict(c.colors)
        partial.pop(SharedVertex(1, 2))
        with pytest.raises(ValueError, match="misses"):
            extend_to_full(g, SharedColoring(3, partial))


class TestRoundRobin:
    def test_n2_single_edge(self):
        assert round_robin_edge_coloring(2) == {(1, 2): 1}

    def test_n4_three_perfect_matchings(self):
        colors = round_robin_edge_coloring(4)
        assert set(colors) == set(combinations(range(1, 5), 2))
        classes = {}
        for e, c in colors.items():
            classes.setdefault(c, []).append(e)
        assert set(classes) == {1, 2, 3}
        for edges in classes.values():
            assert len(edges) == 2
            touched = [v for e in edges for v in e]
            assert len(set(touched)) == 4  # perfect matching

    def test_n5_five_near_matchings(self):
        colors = round_robin_edge_coloring(5)
        assert set(colors) == set(combinations(range(1, 6), 2))
        classes = {}
        for e, c in colors.items():
            classes.setdefault(c, []).append(e)
        assert set(classes) == {1, 2, 3, 4, 5}
        for edges in classes.values():
            assert len(edges) == 2
            touched = [v for e in edges for v in e]
            assert len(set(touched)) == 4

    @pytest.mark.parametrize("n", range(2, 31))
    def test_proper_edge_coloring_with_tight_palette(self, n):
        colors = round_robin_edge_coloring(n)
        assert set(colors) == set(combinations(range(1, n + 1), 2))
        palette = n - 1 if n % 2 == 0 else n
        assert set(colors.values()) == set(range(1, palette + 1))
        for e, f in combinations(colors, 2):
            if set(e) & set(f):
                assert colors[e] != colors[f], (e, f)

    def test_rejects_degenerate_order(self):
        with pytest.raises(ValueError):
            round_robin_edge_coloring(1)


class TestCheckProper:
    def test_accepts_golden_coloring(self):
        g = build_maximal(10)
        assert check_proper(g, SharedColoring(9, load_golden_g10()))

    def test_monochromatic_triangle_reports_first_pair(self):
        g = build_maximal(3)
        chk = check_proper(g, SharedColoring(3, {v: 1 for v in g.shared}))
        assert not chk
        assert chk.violation == (SharedVertex(1, 2), SharedVertex(1, 3))

    def test_recolored_vertex_detected(self):
        g = build_maximal(4)
        full = extend_to_full(g, color_shared(g))
        colors = dict(full.colors)
        colors[SharedVertex(1, 2)] = 1  # collides with (1,3) inside Q_1
        chk = check_proper(g, FullColoring(4, colors))
        assert not chk
        assert chk.violation == (SharedVertex(1, 2), SharedVertex(1, 3))

    def test_partial_full_coloring_errors(self):
        g = build_maximal(3)
        full = extend_to_full(g, color_shared(g))
        colors = dict(full.colors)
        colors.pop(UnsharedVertex(2, 1))
        with pytest.raises(ValueError, match="misses"):
            check_proper(g, FullColoring(3, colors))

    def test_unknown_vertex_errors(self):
        g = build_maximal(3)
        with pytest.raises(ValueError):
            check_proper(g, SharedColoring(3, {SharedVertex(1, 9): 1}))

    @pytest.mark.parametrize("color", [-1, 0, 4, 100])
    def test_color_outside_palette_errors(self, color):
        # the least offender by vertex_key is named, even on a coloring
        # that is also improper
        g = build_maximal(4)
        colors = dict(color_shared(g).colors)
        colors[SharedVertex(3, 4)] = colors[SharedVertex(2, 4)] = color
        message = (
            rf"vertex SharedVertex\(i=2, j=4\) has color {color} "
            rf"outside 1\.\.3$"
        )
        with pytest.raises(ValueError, match=message):
            check_proper(g, SharedColoring(3, colors))

    def test_full_coloring_above_its_palette_errors(self):
        g = build_maximal(4)
        full = extend_to_full(g, color_shared(g))
        assert check_proper(g, full)
        with pytest.raises(ValueError, match=r"UnsharedVertex\(clique=1, "
                           r"slot=1\) has color 4 outside 1\.\.3"):
            check_proper(g, FullColoring(3, full.colors))

    def test_huge_palette_and_color_cost_nothing_per_color_value(self):
        # a bit mask or a table indexed by color would never finish
        g = build_maximal(4)
        t0 = time.perf_counter()
        chk = check_proper(g, SharedColoring(10**30, {SharedVertex(1, 2): 10**29}))
        assert chk
        assert time.perf_counter() - t0 < 1.0

    def test_shared_subset_is_allowed(self):
        g = build_maximal(6)
        c = color_shared(g)
        some = dict(list(sorted(c.colors.items(), key=repr))[:4])
        assert check_proper(g, SharedColoring(c.palette_size, some))
