import json
from itertools import combinations

import pytest

from eflcolor import solver
from eflcolor.coloring import check_proper, color_shared, extend_to_full
from eflcolor.core import GeneralVertex, build_maximal, validate
from eflcolor.decomposition import (
    CliqueDecomposition,
    check_decomposition_coloring,
    clique_masks,
    complete_host,
    decomposition_to_efl,
    validate_decomposition,
)
from eflcolor.serialize import sweep_text
from eflcolor.solver import (
    BudgetExhausted,
    SearchConfig,
    Status,
    chromatic_number,
    color_decomposition,
    enumerate_two_r_decompositions,
    sweep_two_r_decompositions,
)
from helpers import (
    FANO_TRIANGLES,
    adjacency,
    brute_force_chromatic,
    edge_disjoint_r_families,
    family_to_clique_list,
)


def two_clique_decomposition(n):
    d = validate_decomposition(
        complete_host(n), list(combinations(range(1, n + 1), 2))
    )
    assert isinstance(d, CliqueDecomposition)
    return d


def triangle_decomposition(n):
    """K_n's edges with the triangle (1, 2, 3) in place of its three
    edges: not all 2-cliques, so the closed form does not color it."""
    edges = set(combinations(range(1, n + 1), 2))
    edges -= {(1, 2), (1, 3), (2, 3)}
    d = validate_decomposition(complete_host(n), [*edges, (1, 2, 3)])
    assert isinstance(d, CliqueDecomposition)
    return d


def fano_decomposition():
    d = validate_decomposition(complete_host(7), FANO_TRIANGLES)
    assert isinstance(d, CliqueDecomposition)
    return d


class TestChromaticNumber:
    def test_g2_matches_exhaustive_oracle(self):
        g = build_maximal(2)
        assert brute_force_chromatic(g) == 2
        assert chromatic_number(g).value == 2

    def test_g3_matches_exhaustive_oracle(self):
        g = build_maximal(3)
        assert brute_force_chromatic(g) == 3
        assert chromatic_number(g).value == 3

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_maximal_needs_exactly_n(self, n):
        g = build_maximal(n)
        result = chromatic_number(g)
        assert result.value == n
        assert check_proper(g, result.witness)
        # constructive upper bound agrees
        constructive = extend_to_full(g, color_shared(g))
        assert len(set(constructive.colors.values())) == n

    def test_hub_graph(self):
        hub = GeneralVertex(0)
        g = validate(
            [
                {hub, GeneralVertex(1), GeneralVertex(2)},
                {hub, GeneralVertex(3), GeneralVertex(4)},
                {hub, GeneralVertex(5), GeneralVertex(6)},
            ],
            3,
        )
        assert brute_force_chromatic(g) == 3
        assert chromatic_number(g).value == 3

    def test_symmetry_fixing_matches_plain_search(self):
        # the Fano EFL graph is not two-clique, so chromatic_number
        # searches its decomposition's cliques with a greedy preset
        g = decomposition_to_efl(fano_decomposition())
        fixed = chromatic_number(g)
        # plain search: the same engine on every vertex of the graph with
        # no preset, palettes upward from n
        verts = g.vertices
        nb = [
            sum(1 << i for i, u in enumerate(verts) if adjacency(g, u, v))
            for v in verts
        ]
        palette, plain_nodes = g.n, 0
        while True:
            found, _, nodes = solver._search(nb, palette, [], 10**8)
            plain_nodes += nodes
            if found:
                break
            palette += 1
        assert fixed.value == palette == 7
        assert fixed.nodes <= plain_nodes

    def test_budget_exhaustion_raises(self):
        # the Fano EFL graph is not two-clique, so it is searched
        g = decomposition_to_efl(fano_decomposition())
        with pytest.raises(BudgetExhausted):
            chromatic_number(g, SearchConfig(node_limit=3))

    def test_deterministic_node_counts(self):
        g = decomposition_to_efl(fano_decomposition())  # searched
        a = chromatic_number(g)
        b = chromatic_number(g)
        assert a.value == b.value
        assert a.nodes == b.nodes
        assert a.witness == b.witness


class TestColorDecomposition:
    def test_triangle_edges_need_three_colors(self):
        d = two_clique_decomposition(3)
        assert color_decomposition(d, 3).status is Status.COLORABLE
        assert color_decomposition(d, 2).status is Status.NOT_COLORABLE

    def test_fano_needs_exactly_seven(self):
        d = fano_decomposition()
        yes = color_decomposition(d, 7)
        assert yes.status is Status.COLORABLE
        assert check_decomposition_coloring(d, yes.certificate)
        assert color_decomposition(d, 6).status is Status.NOT_COLORABLE

    def test_certificates_verify(self):
        for n in range(2, 7):
            d = two_clique_decomposition(n)
            palette = n - 1 if n % 2 == 0 else n
            out = color_decomposition(d, palette)
            assert out.status is Status.COLORABLE
            assert check_decomposition_coloring(d, out.certificate)

    @pytest.mark.parametrize(
        "n,needs",
        [(2, 1), (3, 3), (4, 3), (5, 5), (6, 5), (7, 7), (8, 7)],
    )
    def test_line_graph_chromatic_index_agreement(self, n, needs):
        # the all-2-cliques intersection graph is the line graph of K_n,
        # and its chromatic number is the chromatic index of K_n
        d = two_clique_decomposition(n)
        assert color_decomposition(d, needs).status is Status.COLORABLE
        if needs > 1:
            out = color_decomposition(d, needs - 1)
            assert out.status is Status.NOT_COLORABLE

    @pytest.mark.parametrize("palette", [4, 5, 9])
    def test_improper_certificate_never_returned(self, palette, monkeypatch):
        # a faulty engine claiming one color for every clique of K_4 with
        # a triangle, whose cliques 1 and 2 are (1, 4) and (2, 4)
        def stub(nb, palette, preset, node_limit, progress):
            return True, [1] * len(nb), 1

        monkeypatch.setattr(solver, "_search", stub)
        d = triangle_decomposition(4)
        with pytest.raises(AssertionError, match="cliques 1 and 2 share"):
            color_decomposition(d, palette)

    def test_empty_decomposition_trivially_colorable(self):
        d = validate_decomposition(
            complete_host(2).__class__(3, frozenset()), []
        )
        out = color_decomposition(d, 0)
        assert out.status is Status.COLORABLE
        assert out.certificate.colors == {}

    def test_budget_outcome_not_conflated_with_proof(self):
        # colorable, so the capacity bound cannot settle it, and not all
        # 2-cliques, so the closed form does not
        d = triangle_decomposition(7)
        assert color_decomposition(d, 7).status is Status.COLORABLE
        out = color_decomposition(d, 7, SearchConfig(node_limit=2))
        assert out.status is Status.BUDGET_EXHAUSTED
        assert out.certificate is None

    def test_deterministic_node_counts(self):
        d = two_clique_decomposition(6)
        a = color_decomposition(d, 5)
        b = color_decomposition(d, 5)
        assert a.nodes == b.nodes
        assert a.certificate == b.certificate

    def test_without_symmetry_fixing_same_verdicts(self):
        d = fano_decomposition()
        nb = clique_masks(d.cliques)
        verdicts = [(7, Status.COLORABLE), (6, Status.NOT_COLORABLE)]
        for palette, status in verdicts:
            fixed = color_decomposition(d, palette)
            found, _, nodes = solver._search(nb, palette, [], 10**8)
            assert fixed.status is status
            assert found == (status is Status.COLORABLE)
            assert fixed.nodes <= nodes


class TestEnumeration:
    @pytest.mark.parametrize("n,r", [(3, 3), (4, 3)])
    def test_matches_subset_oracle(self, n, r):
        got = {
            d.cliques
            for d in enumerate_two_r_decompositions(n, r)
        }
        want = set()
        for family in edge_disjoint_r_families(n, r):
            d = validate_decomposition(
                complete_host(n), family_to_clique_list(n, family)
            )
            assert isinstance(d, CliqueDecomposition)
            want.add(d.cliques)
        assert got == want

    def test_n3_instances(self):
        got = [
            d.cliques
            for d in enumerate_two_r_decompositions(3, 3)
        ]
        assert got == [((1, 2, 3),), ((1, 2), (1, 3), (2, 3))]

    def test_n4_has_zero_or_one_triangles(self):
        instances = list(enumerate_two_r_decompositions(4, 3))
        assert len(instances) == 5
        for d in instances:
            triangles = [c for c in d.cliques if len(c) == 3]
            assert len(triangles) <= 1

    def test_no_duplicates_at_n6(self):
        seen = [
            d.cliques
            for d in enumerate_two_r_decompositions(6, 3)
        ]
        assert len(seen) == len(set(seen))

    def test_first_instance_at_n7_is_a_triple_system(self):
        first = next(enumerate_two_r_decompositions(7, 3))
        cliques = first.cliques
        assert all(len(c) == 3 for c in cliques)
        assert len(cliques) == 7
        assert cliques == FANO_TRIANGLES

    def test_rejects_bad_r(self):
        with pytest.raises(ValueError):
            list(enumerate_two_r_decompositions(4, 2))
        with pytest.raises(ValueError):
            list(enumerate_two_r_decompositions(4, 5))

    def test_r_equal_n_gives_whole_clique_or_all_edges(self):
        got = [
            d.cliques
            for d in enumerate_two_r_decompositions(4, 4)
        ]
        assert got == [
            ((1, 2, 3, 4),),
            ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)),
        ]

    def test_instances_validate_and_use_only_allowed_sizes(self):
        for n in range(3, 8):
            for r in range(3, n + 1):
                for d in enumerate_two_r_decompositions(n, r):
                    assert {len(c) for c in d.cliques} <= {2, r}
                    assert d.host.is_complete
                    # the enumerator builds each instance valid and in
                    # canonical order, with no re-check of its own
                    assert validate_decomposition(d.host, d.cliques) == d


class TestSweep:
    def test_n3_report(self):
        report = sweep_two_r_decompositions(3, 3)
        assert report.instances == 2
        assert report.colorable == 2
        assert report.not_colorable == []
        assert report.budget_exhausted == []

    def test_n5_all_colorable(self):
        report = sweep_two_r_decompositions(5, 3)
        assert report.instances == 26
        assert report.colorable == 26
        assert report.not_colorable == []

    def test_n7_all_colorable_including_triple_systems(self):
        report = sweep_two_r_decompositions(7, 3)
        assert report.instances == 5596
        assert report.colorable == 5596
        assert report.not_colorable == []
        # the triple-system instances admit no smaller palette
        fano = fano_decomposition()
        assert color_decomposition(fano, 6).status is Status.NOT_COLORABLE

    def test_minimum_palettes_on_n4(self):
        report = sweep_two_r_decompositions(4, 3, minimum_palettes=True)
        assert report.instances == 5
        by_cliques = {
            tuple(map(tuple, entry["cliques"])): entry["min_palette"]
            for entry in report.min_palettes
        }
        # all six 2-cliques form the line graph of K_4: chromatic index 3
        all_two = tuple(combinations(range(1, 5), 2))
        assert by_cliques[all_two] == 3

    @pytest.mark.parametrize("node_limit", [13, 10**8])
    def test_minimum_palettes_are_proven(self, node_limit):
        # a probe that runs out of budget proves nothing: at node_limit 13
        # such instances were once reported with the last palette that
        # succeeded (65 at min_palette 6 instead of the true 20)
        cfg = SearchConfig(node_limit=node_limit)
        report = sweep_two_r_decompositions(6, 3, cfg, minimum_palettes=True)
        host = complete_host(6)
        for entry in report.min_palettes:
            d = validate_decomposition(host, entry["cliques"])
            p = entry["min_palette"]
            assert color_decomposition(d, p).status is Status.COLORABLE
            assert color_decomposition(d, p - 1).status is (
                Status.NOT_COLORABLE
            ), entry
        # every instance is settled or listed as unsettled, and colorable
        # counts each one the palette 6 search colored
        decomps = list(enumerate_two_r_decompositions(6, 3))
        listed = [e["cliques"] for e in report.min_palettes]
        assert sorted(listed + report.budget_exhausted) == sorted(
            [list(c) for c in d.cliques] for d in decomps
        )
        at_six = [color_decomposition(d, 6, cfg).status for d in decomps]
        assert report.colorable == at_six.count(Status.COLORABLE)

    def test_budget_on_a_downward_probe_is_reported(self):
        # colorable at palette 5, but the probe needs more than 13 nodes
        cliques = [[1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [2, 5], [2, 6],
                   [3, 5], [4, 5], [1, 5, 6], [3, 4, 6]]
        d = validate_decomposition(complete_host(6), cliques)
        assert color_decomposition(d, 5).status is Status.COLORABLE
        report = sweep_two_r_decompositions(
            6, 3, SearchConfig(node_limit=13), minimum_palettes=True
        )
        assert cliques in report.budget_exhausted
        assert all(e["cliques"] != cliques for e in report.min_palettes)

    def test_budget_entries_are_reported(self):
        # first fit, or the closed form for K_6's edges, colors 219 of the
        # instances of (6, 3) before any search; the other 52, each with
        # a triangle, are searched
        report = sweep_two_r_decompositions(6, 3, SearchConfig(node_limit=1))
        assert report.instances == 271
        assert len(report.budget_exhausted) + report.colorable + len(
            report.not_colorable
        ) == 271
        assert report.budget_exhausted  # limit 1 cannot finish every search

    def test_report_json_schema(self):
        report = sweep_two_r_decompositions(3, 3)
        data = json.loads("".join(sweep_text(report)))
        assert set(data) == {
            "n", "r", "instances", "colorable", "not_colorable",
            "budget_exhausted", "max_nodes",
        }

