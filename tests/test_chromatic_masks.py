"""chromatic_number on graphs that are not two-clique, which it answers by
searching the cliques of the graph's decomposition, palettes n, n + 1, ...

Every answer is chi = n with a witness that check_proper passes, and an
independent vertex-level search with no preset (``helpers.
reference_chromatic``) agrees where it is quick.  The node budget is
cumulative over the palettes tried.  The witness's unshared vertices are
filled as extend_to_full fills them, and extend_to_full, which now takes
every graph, matches the per-vertex oracle ``helpers.
reference_extend_to_full`` on these graphs and on graphs with general
labels in one clique and in two, its errors among them.
"""

import random

import pytest

from eflcolor import solver
from eflcolor.cli import main
from eflcolor.coloring import SharedColoring, check_proper, extend_to_full
from eflcolor.core import GeneralVertex, validate, vertex_key
from eflcolor.decomposition import (
    complete_host,
    decomposition_to_efl,
    validate_decomposition,
)
from eflcolor.serialize import graph_text
from eflcolor.solver import (
    BudgetExhausted,
    SearchConfig,
    chromatic_number,
    enumerate_two_r_decompositions,
)
from helpers import (
    FANO_TRIANGLES,
    four_clique_packing,
    mixed_graph,
    reference_chromatic,
    reference_extend_to_full,
    triangle_packing,
)


def fano():
    return decomposition_to_efl(
        validate_decomposition(complete_host(7), FANO_TRIANGLES)
    )


def hub():
    """Three triangles through one vertex."""
    h = GeneralVertex(0)
    return validate(
        [{h, GeneralVertex(1), GeneralVertex(2)},
         {h, GeneralVertex(3), GeneralVertex(4)},
         {h, GeneralVertex(5), GeneralVertex(6)}],
        3,
    )


def _packings():
    """(name, graph) of seeded triangle and 4-clique packings of K_n,
    n = 4..10, each keeping at least one clique larger than an edge."""
    rng = random.Random(20261020)
    for n in range(4, 11):
        for t in range(3):
            for name, pack in (("triangles", triangle_packing),
                               ("quads", four_clique_packing)):
                cliques = pack(n, rng)
                assert any(len(c) > 2 for c in cliques)
                yield f"{name}_K{n}_{t}", decomposition_to_efl(
                    validate_decomposition(complete_host(n), cliques)
                )


PACKINGS = list(_packings())


def assert_chi_is_n(g, cross_check):
    assert not g.is_two_clique
    result = chromatic_number(g)
    assert result.value == g.n
    assert result.witness.palette_size == g.n
    assert check_proper(g, result.witness)
    if cross_check:
        value, witness = reference_chromatic(g)
        assert value == result.value
        assert check_proper(g, witness)
    return result


@pytest.mark.parametrize("name,g", PACKINGS, ids=[n for n, _ in PACKINGS])
def test_packings(name, g):
    assert_chi_is_n(g, g.n <= 7)


@pytest.mark.parametrize("n", range(3, 7))
def test_every_n_3_decomposition_with_a_triangle(n):
    count = 0
    for d in enumerate_two_r_decompositions(n, 3):
        if any(len(c) == 3 for c in d.cliques):
            assert_chi_is_n(decomposition_to_efl(d), True)
            count += 1
    assert count


class TestBudget:
    @pytest.mark.parametrize("limit,spent", [(10, 5), (5, 5)])
    def test_budget_is_cumulative_over_palettes(
        self, monkeypatch, limit, spent
    ):
        # palette n is made to fail after spent nodes, so palette n + 1
        # has limit - spent left, none at all when spent = limit
        search = solver._search
        budgets = []

        def failing_at_n(nb, palette, preset, node_limit, progress=None):
            budgets.append(node_limit)
            if palette == 7:
                return False, None, spent
            return search(nb, palette, preset, node_limit, progress)

        monkeypatch.setattr(solver, "_search", failing_at_n)
        with pytest.raises(BudgetExhausted) as info:
            chromatic_number(fano(), SearchConfig(node_limit=limit))
        assert budgets == [limit, limit - spent]
        assert info.value.nodes == limit + 1

    def test_cli_exits_4(self, tmp_path, capsys):
        graph = tmp_path / "g.json"
        graph.write_text("".join(graph_text(fano())))
        assert main(
            ["chromatic", "--in", str(graph), "--node-limit", "2"]
        ) == 4
        out = capsys.readouterr()
        assert out.err == "error: node budget exhausted after 3 nodes\n"


@pytest.mark.parametrize("make", [fano, hub])
def test_cli_witness_verifies(make, tmp_path, capsys):
    g = make()
    graph, witness = tmp_path / "g.json", tmp_path / "w.json"
    graph.write_text("".join(graph_text(g)))
    assert main(
        ["chromatic", "--in", str(graph), "--out", str(witness)]
    ) == 0
    assert main(
        ["verify", "--graph", str(graph), "--coloring", str(witness)]
    ) == 0
    assert capsys.readouterr().out == f"{g.n}\nproper\n"


def outcome(fn, g, shared):
    try:
        return fn(g, shared)
    except ValueError as e:
        return f"ValueError: {e}"


def faults(rng, g, shared: dict):
    """(kind, colors): the shared colors of a witness with one fault each."""
    verts = sorted(shared, key=vertex_key)
    missing = dict(shared)
    del missing[rng.choice(verts)]
    yield "missing", missing
    slot = rng.choice(sorted(g.vertex_set - g.shared, key=vertex_key))
    yield "non-shared", {**shared, slot: 1}
    crowded = [q for q in g.cliques if len(q & shared.keys()) > 1]
    if crowded:
        u, w = rng.sample(
            sorted(shared.keys() & rng.choice(crowded), key=vertex_key), 2
        )
        yield "repeat", {**shared, u: shared[w]}
    # two faults in one clique: the one at the least vertex is named
    crowded = [q for q in g.cliques if len(q & shared.keys()) > 2]
    if crowded:
        a, b, *_, z = sorted(shared.keys() & crowded[0], key=vertex_key)
        yield "two faults", {**shared, b: shared[a], z: g.n + 1}
    yield "above n", {**shared, rng.choice(verts): g.n + 1}


def _mixed():
    """(name, graph) of helpers.mixed_graph at n = 5..8: a general label
    in one clique and one in two, numbered after the slots."""
    for n in range(5, 9):
        g = mixed_graph(n, random.Random(n))
        sizes = set(map(len, g.label_cliques))
        assert {1, 2} <= sizes
        yield f"mixed_{n}", g


GRAPHS = [("fano", fano()), ("hub", hub())] + [
    (name, g) for name, g in PACKINGS if g.n <= 8
] + list(_mixed())


@pytest.mark.parametrize("name,g", GRAPHS, ids=[n for n, _ in GRAPHS])
def test_extend_to_full_matches_the_oracle(name, g):
    witness = chromatic_number(g).witness
    shared = {v: witness.colors[v] for v in g.shared}
    full = extend_to_full(g, SharedColoring(g.n, shared))
    assert full == reference_extend_to_full(g, SharedColoring(g.n, shared))
    assert full == witness
    rng = random.Random(name)
    kinds = []
    for kind, colors in faults(rng, g, shared):
        kinds.append(kind)
        c = SharedColoring(g.n, colors)
        got = outcome(extend_to_full, g, c)
        assert got.startswith("ValueError"), kind
        assert got == outcome(reference_extend_to_full, g, c), kind
    most = max(len(q & g.shared) for q in g.cliques)
    want = ["missing", "non-shared", "repeat", "two faults", "above n"]
    if most < 3:
        want.remove("two faults")
    if most < 2:
        want.remove("repeat")  # no clique has two colors to repeat
    assert kinds == want
