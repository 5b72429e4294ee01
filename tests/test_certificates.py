"""The answers that skip the search, checked against the search.

color_decomposition refutes a palette whose color classes cannot cover
the clique-vertex incidences, and colors a decomposition made only of
2-cliques by the paper's closed form at any palette that holds it;
chromatic_number answers a two-clique EFL graph with that closed form on
its decomposition's cliques.  Each shortcut must agree with the search
path it bypasses on every instance small enough to search.  Projective
planes and Bose's triple systems, whose answers are known by
construction, are answered node for node as the recursive reference
engine answers them.
"""

import random
import time
from hashlib import sha256
from itertools import combinations
from pathlib import Path

import pytest

from eflcolor import coloring, solver
from eflcolor.cli import main
from eflcolor.coloring import FullColoring, pair_color
from eflcolor.core import build_from_pairs, build_maximal
from eflcolor.decomposition import (
    DecompositionColoring,
    HostGraph,
    check_decomposition_coloring,
    clique_masks,
    complete_host,
    validate_decomposition,
)
from eflcolor.serialize import dumps, graph_to_json
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
    bose_sts,
    projective_plane,
    reference_chromatic,
    reference_search,
)

CFG = SearchConfig()


def complete_edges(n):
    return validate_decomposition(
        complete_host(n), list(combinations(range(1, n + 1), 2))
    )


def affine_plane_of_order_3():
    """AG(2, 3): 9 points, 12 lines of 3 in 4 parallel classes."""
    point = {(x, y): 3 * x + y + 1 for x in range(3) for y in range(3)}
    lines = [
        tuple(sorted(point[x, (a * x + b) % 3] for x in range(3)))
        for a in range(3)
        for b in range(3)
    ]
    lines += [tuple(point[x, y] for y in range(3)) for x in range(3)]
    return validate_decomposition(complete_host(9), lines)


@pytest.fixture
def searches(monkeypatch):
    """The outcomes of every search color_decomposition runs, each as
    (found, colors, nodes) from the engine."""
    calls = []
    search = solver._search

    def spy(*args):
        calls.append(search(*args))
        return calls[-1]

    monkeypatch.setattr(solver, "_search", spy)
    return calls


def closed_form_palette(n):
    """The least palette the closed form colors K_n's edges in, its
    chromatic index: n - 1 for even n, n for odd n."""
    return n - 1 + n % 2


def bound_free_search(d, palette, node_limit=CFG.node_limit):
    """Whether _search, with neither the capacity bound nor the closed
    form in front of it, colors the masks of d's cliques."""
    nb = clique_masks(d.cliques)
    return solver._search(
        nb, max(palette, 0), solver._greedy_preset(nb), node_limit
    )[0]


def assert_closed_form(d, got):
    """got is the closed form's coloring of d's 2-cliques at 0 nodes, and
    proper as an n-coloring of d."""
    n = d.host.vertex_count
    assert (got.status, got.nodes) == (Status.COLORABLE, 0)
    assert got.certificate.colors == {
        t: pair_color(n, *c) for t, c in enumerate(d.cliques, start=1)
    }
    checked = check_decomposition_coloring(
        d, DecompositionColoring(n, got.certificate.colors)
    )
    assert checked, (d.cliques, checked.reason)


def assert_matches_search(d, palette, searches):
    """color_decomposition either returns the search's own outcome, or
    answers at 0 nodes with no search where the search, run with no
    bound and no closed form, agrees: the bound refutes the palette, or
    the closed form colors 2-cliques.  Returns the outcome and whether the
    bound refuted the palette."""
    searches.clear()
    got = color_decomposition(d, palette)
    if searches:
        found, colors, nodes = searches[0]
        assert (got.status is Status.COLORABLE) == found
        assert got.nodes == nodes
        if found:
            assert got.certificate.colors == dict(enumerate(colors, 1))
        return got, False
    refuted = got.status is Status.NOT_COLORABLE
    if refuted:
        assert got.nodes == 0
    else:
        assert_closed_form(d, got)
    assert bound_free_search(d, palette) != refuted, (d.cliques, palette)
    return got, refuted


def test_sweep_instances_every_palette(searches):
    refuted = 0
    for n in range(3, 8):
        for r in range(3, n + 1):
            for d in enumerate_two_r_decompositions(n, r):
                for palette in range(n + 1):
                    refuted += assert_matches_search(d, palette, searches)[1]
    assert refuted  # the bound fires on some of them


@pytest.mark.parametrize("n", range(2, 13))
def test_complete_graph_edges(n, searches):
    # K_n's edges are settled with no search at every palette: the bound
    # refutes those below the chromatic index, and the closed form colors
    # the others.  The bound-free search agrees wherever it finishes in
    # 10^4 nodes (it takes at most 690 where it does): everywhere but K_9
    # at palettes 8 and 9, which take 7,612,056 and 1,685,343 nodes
    # (about 24 s together), and K_11 at palettes 10 and 11.
    d = complete_edges(n)
    unfinished = []
    for palette in range(max(n - 2, 0), n + 1):
        searches.clear()
        got = color_decomposition(d, palette)
        assert searches == []
        colorable = palette >= closed_form_palette(n)
        if colorable:
            assert_closed_form(d, got)
        else:
            assert (got.status, got.nodes) == (Status.NOT_COLORABLE, 0)
        try:
            assert bound_free_search(d, palette, 10**4) == colorable
        except BudgetExhausted:
            unfinished.append(palette)
    assert unfinished == {9: [8, 9], 11: [10, 11]}.get(n, [])


def labeled_graphs(order):
    """Every labeled simple graph on 1..order, as the decomposition of
    its edges into 2-cliques."""
    pairs = list(combinations(range(1, order + 1), 2))
    for mask in range(1 << len(pairs)):
        edges = [e for t, e in enumerate(pairs) if mask >> t & 1]
        yield validate_decomposition(
            HostGraph(order, frozenset(edges)), edges
        )


@pytest.mark.parametrize("order", range(1, 6))
def test_edge_decompositions_of_small_graphs(order, searches):
    graphs = 0
    for d in labeled_graphs(order):
        graphs += 1
        for palette in range(order + 2):
            got, _ = assert_matches_search(d, palette, searches)
            if palette >= closed_form_palette(order):
                assert_closed_form(d, got)
    assert graphs == 2 ** (order * (order - 1) // 2)


def test_sweep_9_4_searches_no_complete_edges():
    # K_9's edges, the one leaf with no 4-clique, took 1,685,343 nodes to
    # search at palette 9; the closed form colors them at 0
    report = sweep_two_r_decompositions(9, 4)
    assert report.colorable == report.instances == 10522
    assert report.max_nodes == 42


def test_affine_plane(searches):
    d = affine_plane_of_order_3()
    assert len(d.cliques) == 12
    assert assert_matches_search(d, 3, searches)[1]
    # one color per parallel class
    four, _ = assert_matches_search(d, 4, searches)
    assert four.status is Status.COLORABLE


def assert_family_answer(d, palette, status, nodes):
    """color_decomposition answers d at palette with status in exactly
    nodes, the recursive reference engine agrees node for node, and a
    certificate is the reference's coloring and passes
    check_decomposition_coloring."""
    got = color_decomposition(d, palette)
    assert (got.status, got.nodes) == (status, nodes)
    nb = clique_masks(d.cliques)
    neighbors = [[u for u in range(len(nb)) if nb[v] >> u & 1]
                 for v in range(len(nb))]
    found, colors, searched = reference_search(
        neighbors, palette, solver._greedy_preset(nb), CFG.node_limit
    )
    assert (found, searched) == (status is Status.COLORABLE, nodes)
    if found:
        assert got.certificate.colors == dict(enumerate(colors, 1))
        assert check_decomposition_coloring(d, got.certificate)


def test_family_block_orders_are_pinned():
    # node counts depend on the labeling and the order of the blocks
    assert projective_plane(2) == list(FANO_TRIANGLES)
    blocks = bose_sts(15)
    assert blocks[:8] == [(1, 2, 9), (1, 3, 7), (1, 4, 10), (1, 5, 8),
                          (1, 6, 11), (1, 12, 15), (1, 13, 14), (2, 3, 10)]
    assert sha256(repr(blocks).encode()).hexdigest().startswith(
        "2fdd2ef77f90"
    )
    assert sha256(repr(projective_plane(5)).encode()).hexdigest(
    ).startswith("bb268c60b52e")


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_projective_plane_needs_a_color_per_line(p):
    # any two lines meet, so the greedy preset is every line: n nodes
    # color PG(2, p) at palette n, and n - 1 refute palette n - 1
    n = p * p + p + 1
    lines = projective_plane(p)
    d = validate_decomposition(complete_host(n), lines)
    assert d.cliques == tuple(lines) and len(lines) == n
    assert_family_answer(d, n, Status.COLORABLE, n)
    assert_family_answer(d, n - 1, Status.NOT_COLORABLE, n - 1)


def test_bose_sts_15_needs_nine_colors():
    # the hardest refutation in the tier: about 0.1 s of search
    d = validate_decomposition(complete_host(15), bose_sts(15))
    assert d.cliques == tuple(bose_sts(15))
    assert_family_answer(d, 8, Status.NOT_COLORABLE, 33490)
    assert_family_answer(d, 9, Status.COLORABLE, 250)


@pytest.mark.parametrize("n,palette", [(9, 8), (11, 10)])
def test_odd_complete_graph_refuted_at_the_root(n, palette):
    out = color_decomposition(complete_edges(n), palette)
    assert (out.status, out.nodes) == (Status.NOT_COLORABLE, 0)


def test_random_pair_subsets_match_search():
    rng = random.Random(6)
    for _ in range(200):
        n = rng.randint(2, 8)
        universe = list(combinations(range(1, n + 1), 2))
        pairs = rng.sample(universe, rng.randint(0, len(universe)))
        g = build_from_pairs(n, pairs)
        got = chromatic_number(g)
        assert (got.value, got.nodes) == (n, 0)
        assert reference_chromatic(g)[0] == n


@pytest.mark.parametrize("n", [11, 13, 60])
def test_two_clique_chromatic_under_a_second(n):
    t0 = time.perf_counter()
    result = chromatic_number(build_maximal(n))
    assert time.perf_counter() - t0 < 1.0
    assert (result.value, result.nodes) == (n, 0)


def test_closed_form_witness_shares_its_color_objects():
    # pair_colors and the fill hold one int object per color, so G_301's
    # 45,451 colored vertices hold 301 objects, not one per color above 256
    by_number = chromatic_number(build_maximal(301)).witness.colors.by_number
    assert len({id(c) for c in by_number}) <= 301


def test_faulty_closed_form_raises(monkeypatch):
    # the fill of the unshared vertices finds clique 1 repeating color 1
    monkeypatch.setattr(coloring, "pair_color", lambda n, i, j: 1)
    with pytest.raises(AssertionError, match="improper witness: clique 1"):
        chromatic_number(build_maximal(4))


def test_improper_extension_raises(monkeypatch):
    def monochromatic(g, *_):
        return FullColoring(g.n, dict.fromkeys(g.vertex_set, 1))

    monkeypatch.setattr(solver, "_fill", monochromatic)
    with pytest.raises(AssertionError, match="improper witness"):
        chromatic_number(build_maximal(4))


@pytest.mark.parametrize("n", range(2, 13))
def test_chromatic_witness_is_the_extended_closed_form(n, tmp_path, capsys):
    graph = tmp_path / "g.json"
    graph.write_text(dumps(graph_to_json(build_maximal(n))))
    witness, extended = tmp_path / "w.json", tmp_path / "x.json"
    assert main(["chromatic", "--in", str(graph), "--out", str(witness)]) == 0
    assert main(
        ["color", "--in", str(graph), "--extend", "--out", str(extended)]
    ) == 0
    assert capsys.readouterr().out == f"{n}\n"
    assert Path(witness).read_bytes() == Path(extended).read_bytes()
