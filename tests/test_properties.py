"""Invariant tests driven by hypothesis.

Each property mirrors a structural guarantee of the library: adjacency is
index overlap, every constructor output validates, colorings restrict and
extend properly, the two coloring routes (modular formula and round-robin
edge coloring) certify each other, and the decomposition translation is a
bijection on the two-clique fragment.
"""

from itertools import combinations

from hypothesis import assume, given, settings, strategies as st

from eflcolor.coloring import (
    SharedColoring,
    check_proper,
    color_shared,
    extend_to_full,
    pair_color,
)
from eflcolor.core import (
    SharedVertex,
    build_from_pairs,
    build_maximal,
    validate,
)
from eflcolor.decomposition import (
    DecompositionColoring,
    check_decomposition_coloring,
    decomposition_to_efl,
    efl_to_decomposition,
)
from helpers import adjacency, brute_force_proper, round_robin_edge_coloring


@st.composite
def order_and_pairs(draw, min_n=2, max_n=30):
    n = draw(st.integers(min_n, max_n))
    universe = list(combinations(range(1, n + 1), 2))
    pairs = draw(
        st.lists(st.sampled_from(universe), unique=True, max_size=len(universe))
    )
    return n, pairs


@given(order_and_pairs())
def test_constructor_output_validates(np):
    n, pairs = np
    g = build_from_pairs(n, pairs)
    assert validate(g.cliques, n) == g


@given(st.integers(2, 30), st.data())
def test_shared_vertices_adjacent_iff_indices_overlap(n, data):
    universe = list(combinations(range(1, n + 1), 2))
    a = data.draw(st.sampled_from(universe))
    b = data.draw(st.sampled_from(universe))
    assume(a != b)
    g = build_maximal(n)
    expect = bool(set(a) & set(b))
    assert adjacency(g, SharedVertex(*a), SharedVertex(*b)) == expect


@given(order_and_pairs())
def test_restriction_matches_maximal_pointwise(np):
    n, pairs = np
    sub = color_shared(build_from_pairs(n, pairs))
    full = color_shared(build_maximal(n))
    assert sub.palette_size == full.palette_size
    for v, c in sub.colors.items():
        assert full.colors[v] == c
    assert check_proper(build_from_pairs(n, pairs), sub)


@given(order_and_pairs(max_n=60))
@settings(max_examples=60)
def test_extension_is_proper_with_at_most_n_colors(np):
    n, pairs = np
    g = build_from_pairs(n, pairs)
    full = extend_to_full(g, color_shared(g))
    assert full.palette_size == n
    assert max(full.colors.values()) <= n
    assert check_proper(g, full)


@given(st.integers(2, 60))
def test_maximal_extension_uses_exactly_n_colors(n):
    g = build_maximal(n)
    full = extend_to_full(g, color_shared(g))
    assert set(full.colors.values()) == set(range(1, n + 1))


@given(st.integers(1, 29))
def test_odd_formula_is_even_formula_of_next_order_restricted(k):
    n = 2 * k + 1
    pairs = list(combinations(range(1, n + 1), 2))
    assert all(
        pair_color(n, i, j) == pair_color(n + 1, i, j) for i, j in pairs
    )


# the two-pair overlap patterns split the even-n properness argument;
# each must force distinct colors
def _draw_case(draw, case):
    n = 2 * draw(st.integers(2, 30))
    if case == "same-small-index":
        i = draw(st.integers(1, n - 3))
        j = draw(st.integers(i + 1, n - 2))
        l = draw(st.integers(j + 1, n - 1))
        return n, (i, j), (i, l)
    if case == "same-large-index":
        j = draw(st.integers(3, n - 1))
        i = draw(st.integers(1, j - 2))
        k = draw(st.integers(i + 1, j - 1))
        return n, (i, j), (k, j)
    if case == "chained":
        i = draw(st.integers(1, n - 2))
        j = draw(st.integers(i + 1, n - 1))
        l = draw(st.integers(j + 1, n))
        return n, (i, j), (j, l)
    if case == "both-at-column-n":
        i = draw(st.integers(1, n - 2))
        k = draw(st.integers(i + 1, n - 1))
        return n, (i, n), (k, n)
    if case == "one-at-column-n":
        i = draw(st.integers(1, n - 2))
        j = draw(st.integers(i + 1, n - 1))
        return n, (i, j), (i, n)
    raise AssertionError(case)


@given(st.data())
def test_even_formula_separates_every_overlap_pattern(data):
    case = data.draw(
        st.sampled_from(
            [
                "same-small-index",
                "same-large-index",
                "chained",
                "both-at-column-n",
                "one-at-column-n",
            ]
        )
    )
    n, a, b = _draw_case(data.draw, case)
    assert pair_color(n, *a) != pair_color(n, *b), (case, n, a, b)


@given(st.integers(2, 40))
def test_round_robin_agrees_with_formula_on_palette_and_classes(n):
    edge_colors = round_robin_edge_coloring(n)
    modular = color_shared(build_maximal(n))
    palette = n - 1 if n % 2 == 0 else n
    assert set(edge_colors.values()) == set(range(1, palette + 1))
    assert set(modular.colors.values()) == set(range(1, palette + 1))
    # the modular coloring, read as an edge coloring of K_n, is proper:
    # its color classes are matchings
    classes: dict = {}
    for v, c in modular.colors.items():
        classes.setdefault(c, []).append((v.i, v.j))
    for edges in classes.values():
        touched = [u for e in edges for u in e]
        assert len(touched) == len(set(touched))


@given(order_and_pairs(max_n=40))
@settings(max_examples=60)
def test_any_proper_edge_coloring_transports_and_extends(np):
    n, pairs = np
    g = build_from_pairs(n, pairs)
    edge_colors = round_robin_edge_coloring(n)
    shared = SharedColoring(
        n - 1 if n % 2 == 0 else n,
        {SharedVertex(i, j): edge_colors[(i, j)] for i, j in pairs},
    )
    assert check_proper(g, shared)
    full = extend_to_full(g, shared)
    assert max(full.colors.values(), default=0) <= n
    assert check_proper(g, full)


@given(order_and_pairs(max_n=8))
def test_two_clique_round_trip_is_exact(np):
    n, pairs = np
    g = build_from_pairs(n, pairs)
    back = decomposition_to_efl(efl_to_decomposition(g))
    assert back.is_two_clique
    assert back == g
    assert sorted(map(back.cliques_of, back.shared)) == sorted(pairs)


@given(order_and_pairs(max_n=7), st.data())
@settings(max_examples=60)
def test_decomposition_coloring_valid_iff_transport_proper(np, data):
    n, pairs = np
    g = build_from_pairs(n, pairs)
    d = efl_to_decomposition(g)
    k = len(d.cliques)
    colors = {
        t: data.draw(st.integers(1, n), label=f"color D_{t}")
        for t in range(1, k + 1)
    }
    c = DecompositionColoring(n, colors)
    valid = bool(check_decomposition_coloring(d, c))
    # transport by hand so invalid colorings can be carried over too
    index_of = {cl: t for t, cl in enumerate(d.cliques, start=1)}
    carried = {v: colors[index_of[g.cliques_of(v)]] for v in g.shared}
    proper = bool(check_proper(g, SharedColoring(n, carried)))
    assert valid == proper
    assert proper == brute_force_proper(g, carried)
