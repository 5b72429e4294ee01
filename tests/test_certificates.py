"""The two answers that skip the search, checked against the search.

chromatic_number certifies chi = n for a two-clique EFL graph with the
checked closed-form coloring, and color_decomposition refutes a palette
whose color classes cannot cover the clique-vertex incidences.  Each
shortcut must agree with the search path it bypasses on every instance
small enough to search.
"""

import random
import time
from itertools import combinations
from pathlib import Path

import pytest

from eflcolor import coloring, solver
from eflcolor.cli import main
from eflcolor.coloring import FullColoring
from eflcolor.core import build_from_pairs, build_maximal
from eflcolor.decomposition import (
    complete_host,
    intersection_masks,
    validate_decomposition,
)
from eflcolor.serialize import dumps, graph_to_json
from eflcolor.solver import (
    SearchConfig,
    Status,
    chromatic_number,
    color_decomposition,
    enumerate_two_r_decompositions,
)
from helpers import reference_chromatic

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


def assert_matches_search(d, palette, searches):
    """color_decomposition either returns the search's own outcome, or
    refutes the palette at 0 nodes where the search, run with no bound,
    exhausts it.  Returns the outcome and whether the bound refuted the
    palette."""
    searches.clear()
    got = color_decomposition(d, palette)
    if searches:
        found, colors, nodes = searches[0]
        assert (got.status is Status.COLORABLE) == found
        assert got.nodes == nodes
        if found:
            assert got.certificate.colors == dict(enumerate(colors, 1))
        return got, False
    assert (got.status, got.nodes) == (Status.NOT_COLORABLE, 0)
    nb = intersection_masks(d)
    found, _, _ = solver._search(
        nb, max(palette, 0), solver._greedy_preset(nb), CFG.node_limit
    )
    assert not found, (d.cliques, palette)
    return got, True


def test_sweep_instances_every_palette(searches):
    refuted = 0
    for n in range(3, 8):
        for r in range(3, n + 1):
            for d in enumerate_two_r_decompositions(n, r):
                for palette in range(n + 1):
                    refuted += assert_matches_search(d, palette, searches)[1]
    assert refuted  # the bound fires on some of them


@pytest.mark.parametrize("n", range(2, 10))
def test_complete_graph_edges(n, searches):
    for palette in range(max(n - 2, 0), n + 1):
        got, _ = assert_matches_search(complete_edges(n), palette, searches)
        # the chromatic index of K_n: n - 1 for even n, n for odd n
        colorable = palette >= (n if n % 2 else n - 1)
        assert (got.status is Status.COLORABLE) == colorable


def test_affine_plane(searches):
    d = affine_plane_of_order_3()
    assert len(d.cliques) == 12
    assert assert_matches_search(d, 3, searches)[1]
    # one color per parallel class
    four, _ = assert_matches_search(d, 4, searches)
    assert four.status is Status.COLORABLE


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


def test_faulty_closed_form_raises(monkeypatch):
    monkeypatch.setattr(coloring, "pair_color", lambda n, i, j: 1)
    with pytest.raises(AssertionError, match="closed form"):
        chromatic_number(build_maximal(4))


def test_improper_extension_raises(monkeypatch):
    def monochromatic(g, shared):
        return FullColoring(g.n, dict.fromkeys(g.vertex_set, 1))

    monkeypatch.setattr(solver, "extend_to_full", monochromatic)
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
