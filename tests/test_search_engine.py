"""The iterative bit-parallel search engine against the recursive one it
replaced, also at palettes above the vertex count, the node counts it
must not exceed, and instances deeper than the interpreter's recursion
limit; the bitmask (2, r) enumerator against the recursive one it
replaced, the intersection masks of each leaf's clique list against those
of the decomposition, the first-fit coloring it keeps against an
independent model, and first_clash, the one check of a clique coloring,
against the first clash found on intersection masks."""

import random
import tracemalloc
from itertools import combinations, islice

import pytest

from eflcolor import decomposition, solver
from eflcolor.coloring import first_clash
from eflcolor.core import GeneralVertex, build_maximal, validate, vertex_key
from eflcolor.decomposition import (
    DecompositionColoring,
    check_decomposition_coloring,
    complete_host,
    decomposition_to_efl,
    validate_decomposition,
)
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
    complete_with_triangle,
    first_fit_colors,
    four_clique_packing,
    reference_enumerate_two_r,
    reference_first_clash,
    reference_search,
    triangle_packing,
)


def reference_engine(nb, palette, preset, node_limit, progress=None,
                     interval=10**6):
    """The recursive engine behind _search's bitmask interface."""
    neighbors = [
        [u for u in range(len(nb)) if nb[v] >> u & 1] for v in range(len(nb))
    ]
    return reference_search(
        neighbors, palette, preset, node_limit, progress, interval
    )


def run(engine, *args):
    """(found, colors, nodes) and the progress calls, or the node count
    of an exhausted budget."""
    calls = []
    try:
        return engine(*args, calls.append, 3), calls
    except BudgetExhausted as e:
        return ("budget", e.nodes), calls


def random_instance(rng):
    m = rng.randrange(0, 14)
    density = rng.random()
    nb = [0] * m
    for a, b in combinations(range(m), 2):
        if rng.random() < density:
            nb[a] |= 1 << b
            nb[b] |= 1 << a
    palette = rng.randrange(0, 7)
    # presets may repeat a color on neighbors or step past the palette
    preset = [
        (v, rng.randrange(1, palette + 2))
        for v in rng.sample(range(m), rng.randrange(0, min(m, 4) + 1))
    ]
    node_limit = rng.choice([1, 2, 3, 5, 8, 13, 50, 400, 10**6])
    return nb, palette, preset, node_limit


@pytest.mark.parametrize("seed", range(4))
def test_random_graphs_match_reference(seed):
    rng = random.Random(seed)
    for _ in range(400):
        args = random_instance(rng)
        assert run(solver._search, *args) == run(reference_engine, *args), args


def reference_greedy_clique(nb):
    """_greedy_clique with its seed picked by the rule it had before:
    a key per vertex, most neighbors first, ties to the lowest index."""
    if not nb:
        return []
    seed = max(range(len(nb)), key=lambda v: (nb[v].bit_count(), -v))
    clique = [seed]
    cands = nb[seed]
    while cands:
        low = cands & -cands
        v = low.bit_length() - 1
        clique.append(v)
        cands &= nb[v]
    return sorted(clique)


@pytest.mark.parametrize("seed", range(4))
def test_palettes_above_the_vertex_count_match_reference(seed):
    # _search caps such a palette at the vertex count or the highest
    # preset color; the reference engine keeps every color of it
    rng = random.Random(100 + seed)
    for _ in range(200):
        nb, _, preset, node_limit = random_instance(rng)
        palette = rng.randrange(len(nb), 2 * len(nb) + 8)
        args = nb, palette, preset, node_limit
        assert run(solver._search, *args) == run(reference_engine, *args), args


def test_huge_palette_costs_no_more_than_the_clique_count():
    d = two_clique_decomposition(5)
    small = color_decomposition(d, 10)
    tracemalloc.start()
    try:
        huge = color_decomposition(d, 10**12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert small.status is Status.COLORABLE
    assert (huge.status, huge.nodes, huge.certificate.colors) == (
        small.status, small.nodes, small.certificate.colors
    )
    assert huge.certificate.palette_size == 10**12
    assert peak < 2**18


@pytest.mark.parametrize("seed", range(4))
def test_greedy_clique_matches_reference(seed):
    rng = random.Random(seed)
    for _ in range(400):
        nb = random_instance(rng)[0]
        assert solver._greedy_clique(nb) == reference_greedy_clique(nb), nb


@pytest.mark.parametrize(
    "n,r",
    [
        (n, r)
        for n in range(3, 9)
        for r in range(3, n + 1)
        if (n, r) != (8, 3)
    ],
)
def test_enumeration_matches_reference(n, r):
    got = list(enumerate_two_r_decompositions(n, r))
    assert got == list(reference_enumerate_two_r(n, r))


def test_enumeration_8_3_prefix_and_count():
    # the whole reference stream takes about 15 s, so (8, 3) is compared
    # on its first 20,000 instances and its labeled total
    got = enumerate_two_r_decompositions(8, 3)
    want = reference_enumerate_two_r(8, 3)
    assert list(islice(got, 20000)) == list(islice(want, 20000))
    assert 20000 + sum(1 for _ in got) == 231577


@pytest.mark.parametrize(
    "n,r",
    [(n, r) for n in range(3, 8) for r in range(3, n + 1)] + [(8, 4)],
)
def test_leaves_carry_the_masks_and_outcomes_of_their_decompositions(n, r):
    cfg = SearchConfig()
    leaves = solver._two_r_leaves(n, r, 0, 1)
    for d, (twos, chosen, _) in zip(
        reference_enumerate_two_r(n, r), leaves, strict=True
    ):
        cliques = twos + chosen
        assert tuple(cliques) == d.cliques
        assert decomposition.clique_masks(cliques) == (
            decomposition.clique_masks(d.cliques)
        )
        for palette in (n, n - 1):
            out = color_decomposition(d, palette)
            status, colors, nodes = solver._color_cliques(
                cliques, palette, n, cfg.node_limit, cfg.progress
            )
            assert (status, nodes) == (out.status, out.nodes), (
                d.cliques, palette
            )
            assert colors == (
                out.certificate and list(out.certificate.colors.values())
            )


@pytest.mark.parametrize(
    "n,r", [(n, r) for n in range(3, 8) for r in range(3, n + 1)]
)
def test_leaf_certificates_are_first_fit_colorings(n, r):
    certified = 0
    leaves = solver._two_r_leaves(n, r, 0, 1)
    for d, (*_, colors) in zip(
        reference_enumerate_two_r(n, r), leaves, strict=True
    ):
        assert colors == first_fit_colors(d.cliques, n), d.cliques
        if colors is None:
            continue
        certified += 1
        checked = check_decomposition_coloring(
            validate_decomposition(d.host, d.cliques),
            DecompositionColoring(n, dict(enumerate(colors, 1))),
        )
        assert checked, (d.cliques, checked.reason)
    if (n, r) == (7, 3):
        assert certified == 5041  # of 5,596


@pytest.mark.parametrize(
    "n,r", [(n, r) for n in range(3, 8) for r in range(3, n + 1)]
)
def test_class_check_agrees_with_first_clash(monkeypatch, n, r):
    # on each leaf: its first-fit colors, a first-fit coloring with one
    # clique recolored at random, and one color for every clique; the
    # clash pair is the one found on intersection masks, and where a
    # coloring clashes, a sweep given it raises that pair's message
    rng = random.Random(10 * n + r)
    leaves = solver._two_r_leaves(n, r, 0, 1)
    clashes = 0
    for d, (twos, chosen, colors) in zip(
        reference_enumerate_two_r(n, r), leaves, strict=True
    ):
        nb = decomposition.clique_masks(d.cliques)
        recolored = first_fit_colors(d.cliques, len(d.cliques))
        recolored[rng.randrange(len(nb))] = rng.randint(1, n)
        for trial in (colors, recolored, [1] * len(nb)):
            if trial is None:
                continue
            clash = first_clash(d.cliques, trial)
            assert clash == reference_first_clash(nb, trial), (
                d.cliques, trial
            )
            if clash is None:
                continue
            clashes += 1
            leaf = list(twos), list(chosen), trial
            monkeypatch.setattr(
                solver, "_two_r_leaves", lambda *_, leaf=leaf: iter([leaf])
            )
            with pytest.raises(AssertionError) as failed:
                solver._sweep_shard(n, r, SearchConfig(), False, 0, 1)
            s, t = clash
            assert str(failed.value) == (
                f"solver certificate failed verification: cliques {s} and "
                f"{t} share a vertex and color {trial[s - 1]}"
            )
    assert clashes


@pytest.mark.parametrize("n", range(4, 14))
@pytest.mark.parametrize("packing", [triangle_packing, four_clique_packing])
def test_first_clash_on_seeded_packings(packing, n):
    # a seeded packing of K_n, completed with 2-cliques, under a proper
    # first-fit coloring and 20 recolorings of one to three cliques
    rng = random.Random(n)
    d = validate_decomposition(complete_host(n), packing(n, rng))
    nb = decomposition.clique_masks(d.cliques)
    base = first_fit_colors(d.cliques, len(d.cliques))
    trials = [base]
    for _ in range(20):
        trial = list(base)
        k = rng.randint(1, min(3, len(trial)))
        for t in rng.sample(range(len(trial)), k):
            trial[t] = rng.randint(1, n)
        trials.append(trial)
    got = [first_clash(d.cliques, trial) for trial in trials]
    assert got == [reference_first_clash(nb, trial) for trial in trials]
    assert got[0] is None
    assert any(got) or len(d.cliques) == 1, d.cliques  # K_4 as one clique


@pytest.fixture
def reference_solver(monkeypatch):
    """Run the solver's entry points on the recursive engine."""

    def use_reference():
        monkeypatch.setattr(solver, "_search", reference_engine)

    return use_reference


def test_sweep_instances_match_reference(reference_solver):
    cases = [
        (d, palette)
        for n in range(3, 8)
        for r in range(3, n + 1)
        for d in enumerate_two_r_decompositions(n, r)
        for palette in (n, n - 1)
    ]
    got = [color_decomposition(d, p) for d, p in cases]
    reference_solver()
    want = [color_decomposition(d, p) for d, p in cases]
    for (d, p), a, b in zip(cases, got, want):
        assert (a.status, a.certificate, a.nodes) == (
            b.status, b.certificate, b.nodes
        ), (d.cliques, p)


def test_chromatic_search_on_three_clique_graphs_matches_reference(
    reference_solver,
):
    # graphs with a shared vertex in three defining cliques, which
    # chromatic_number answers by search
    hub = GeneralVertex(0)
    graphs = [
        decomposition_to_efl(
            validate_decomposition(complete_host(7), FANO_TRIANGLES)
        ),
        validate(
            [{hub, GeneralVertex(1), GeneralVertex(2)},
             {hub, GeneralVertex(3), GeneralVertex(4)},
             {hub, GeneralVertex(5), GeneralVertex(6)}],
            3,
        ),
    ]
    graphs += [
        decomposition_to_efl(d)
        for n in range(3, 8)
        for d in enumerate_two_r_decompositions(n, 3)
        if any(len(c) == 3 for c in d.cliques)
    ]
    assert not any(g.is_two_clique for g in graphs)
    got = [chromatic_number(g) for g in graphs]
    reference_solver()
    want = [chromatic_number(g) for g in graphs]
    for g, a, b in zip(graphs, got, want):
        assert a.value == g.n
        assert (a.value, a.nodes, a.witness) == (b.value, b.nodes, b.witness)


def two_clique_decomposition(n):
    return validate_decomposition(
        complete_host(n), list(combinations(range(1, n + 1), 2))
    )


SEARCHED = {
    "fano": lambda: decomposition_to_efl(
        validate_decomposition(complete_host(7), FANO_TRIANGLES)
    ),
    "K9_triangle": lambda: complete_with_triangle(9),
    "K11_triangle": lambda: complete_with_triangle(11),
}


class TestNodeCeilings:
    """Node counts of the engine at the time these tests were written;
    pruning may lower them, nothing may raise them."""

    @pytest.mark.parametrize(
        "name,ceiling",
        [("fano", 7), ("K9_triangle", 158), ("K11_triangle", 141252)],
    )
    def test_chromatic(self, name, ceiling):
        # graphs that are not two-clique, so chromatic_number searches
        # their decompositions' cliques
        g = SEARCHED[name]()
        result = chromatic_number(g, SearchConfig(node_limit=10**6))
        assert result.value == g.n
        assert result.nodes <= ceiling

    @pytest.mark.parametrize(
        "n,palette,status,ceiling",
        [
            (5, 4, Status.NOT_COLORABLE, 12),
            (7, 6, Status.NOT_COLORABLE, 690),
            (7, 7, Status.COLORABLE, 262),
        ],
    )
    def test_line_graphs(self, n, palette, status, ceiling):
        out = color_decomposition(two_clique_decomposition(n), palette)
        assert out.status is status
        assert out.nodes <= ceiling

    def test_fano_at_six(self):
        d = validate_decomposition(complete_host(7), FANO_TRIANGLES)
        out = color_decomposition(d, 6)
        assert out.status is Status.NOT_COLORABLE
        assert out.nodes <= 6

    def test_sweep_7_3(self):
        # first-fit certifies K_7's edges, which take 262 nodes to
        # search; the hardest instance it leaves takes 24
        report = sweep_two_r_decompositions(7, 3)
        assert report.colorable == report.instances == 5596
        assert report.max_nodes == 24


def clique_masks(g):
    """Neighbor bitmasks over g.vertices, and Q_1 pre-colored 1..n in
    vertex order: a search over every vertex of an EFL graph."""
    index = {v: i for i, v in enumerate(g.vertices)}
    nb = [0] * len(index)
    for q in g.cliques:
        for u in q:
            for w in q:
                if u != w:
                    nb[index[u]] |= 1 << index[w]
    q1 = sorted(g.cliques[0], key=vertex_key)
    return nb, [(index[v], c) for c, v in enumerate(q1, start=1)]


def test_budget_past_recursion_limit():
    # G_46's 1,081 vertices at palette 46 with Q_1 pre-colored: the
    # recursive engine raised RecursionError
    g = build_maximal(46)
    nb, preset = clique_masks(g)
    with pytest.raises(BudgetExhausted) as info:
        solver._search(nb, 46, preset, 100000)
    assert info.value.nodes == 100001


@pytest.mark.parametrize("field", ["node_limit"])
def test_config_rejects_counts_below_one(field):
    # the engine's budget check fires when the node count reaches it,
    # which a count below one never does
    with pytest.raises(ValueError, match=field):
        SearchConfig(**{field: 0})
