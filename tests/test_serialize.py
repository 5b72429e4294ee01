from itertools import combinations

import pytest

from eflcolor.coloring import (
    FullColoring,
    SharedColoring,
    color_shared,
    extend_to_full,
)
from eflcolor.core import (
    MAX_ORDER,
    GeneralVertex,
    SharedVertex,
    UnsharedVertex,
    build_from_pairs,
    build_maximal,
    validate,
)
from eflcolor.decomposition import (
    CliqueDecomposition,
    DecompositionColoring,
    HostGraph,
    complete_host,
    efl_to_decomposition,
    validate_decomposition,
)
from eflcolor.serialize import (
    FormatError,
    coloring_text,
    coloring_to_json,
    decomposition_coloring_from_json,
    decomposition_coloring_to_json,
    decomposition_from_json,
    decomposition_text,
    decomposition_to_json,
    dumps,
    graph_from_json,
    graph_to_json,
    host_dot,
    intersection_dot,
    pairs_from_json,
    vertex_coloring_from_json,
    vertex_from_json,
    vertex_to_json,
)


class TestVertexEncoding:
    @pytest.mark.parametrize(
        "v",
        [SharedVertex(1, 2), UnsharedVertex(3, 1), GeneralVertex(7)],
    )
    def test_round_trip(self, v):
        assert vertex_from_json(vertex_to_json(v)) == v

    def test_bad_tag(self):
        with pytest.raises(FormatError):
            vertex_from_json(["edge", 1, 2])

    def test_bad_shape(self):
        with pytest.raises(FormatError):
            vertex_from_json({"shared": [1, 2]})
        with pytest.raises(FormatError):
            vertex_from_json(["shared", 1])

    def test_raw_id_has_no_encoding(self):
        with pytest.raises(FormatError):
            vertex_to_json(42)


class TestGraphJson:
    def test_two_clique_graph_stays_pairs_only(self):
        g = build_from_pairs(5, [(1, 2), (3, 4)])
        data = graph_to_json(g)
        assert data == {"n": 5, "shared_pairs": [[1, 2], [3, 4]]}
        assert graph_from_json(data) == g

    def test_maximal_round_trip(self):
        g = build_maximal(10)
        data = graph_to_json(g)
        assert len(data["shared_pairs"]) == 45
        assert "cliques" not in data
        assert graph_from_json(data) == g

    def test_hub_graph_needs_explicit_cliques(self):
        hub = GeneralVertex(0)
        g = validate(
            [
                {hub, GeneralVertex(1), GeneralVertex(2)},
                {hub, GeneralVertex(3), GeneralVertex(4)},
                {hub, GeneralVertex(5), GeneralVertex(6)},
            ],
            3,
        )
        data = graph_to_json(g)
        assert "cliques" in data
        assert data["shared_pairs"] == []
        assert graph_from_json(data) == g

    def test_general_vertex_in_two_cliques_keeps_explicit_cliques(self):
        # the pairs alone would rebuild the vertex as SharedVertex(1, 2)
        g = validate(
            [
                {GeneralVertex(7), UnsharedVertex(1, 1), UnsharedVertex(1, 2)},
                {GeneralVertex(7), UnsharedVertex(2, 1), UnsharedVertex(2, 2)},
                {UnsharedVertex(3, s) for s in (1, 2, 3)},
            ],
            3,
        )
        assert g.is_two_clique
        data = graph_to_json(g)
        assert data["shared_pairs"] == [[1, 2]]
        assert data["cliques"][0] == [
            ["unshared", 1, 1], ["unshared", 1, 2], ["general", 7]
        ]
        assert graph_from_json(data) == g

    def test_invalid_cliques_rejected(self):
        data = {
            "n": 3,
            "shared_pairs": [],
            "cliques": [
                [["general", 1], ["general", 2], ["general", 3]],
                [["general", 1], ["general", 2], ["general", 4]],
                [["general", 5], ["general", 6], ["general", 7]],
            ],
        }
        with pytest.raises(FormatError, match="share"):
            graph_from_json(data)

    def test_bad_shapes_rejected(self):
        with pytest.raises(FormatError):
            graph_from_json({"n": "4", "shared_pairs": []})
        with pytest.raises(FormatError):
            graph_from_json({"n": 4})
        with pytest.raises(FormatError):
            graph_from_json({"n": 4, "shared_pairs": [[1, 2, 3]]})
        with pytest.raises(FormatError):
            graph_from_json({"n": 1, "shared_pairs": []})


class TestColoringJson:
    def test_shared_round_trip(self):
        g = build_maximal(9)
        c = color_shared(g)
        data = coloring_to_json(c)
        palette, colors = vertex_coloring_from_json(data)
        assert palette == c.palette_size == 9
        assert colors == c.colors

    def test_full_round_trip_sorted_by_vertex(self):
        g = build_maximal(4)
        full = extend_to_full(g, color_shared(g))
        data = coloring_to_json(full)
        keys = [tuple(e["vertex"]) for e in data["assignments"]]
        assert keys == sorted(keys, key=lambda k: (k[0] != "shared", k))
        _, colors = vertex_coloring_from_json(data)
        assert colors == full.colors

    def test_bad_entries_rejected(self):
        with pytest.raises(FormatError):
            vertex_coloring_from_json({"palette": 3})
        with pytest.raises(FormatError):
            vertex_coloring_from_json(
                {"palette": 3, "assignments": [{"color": 1}]}
            )
        with pytest.raises(FormatError):
            vertex_coloring_from_json(
                {"palette": 3,
                 "assignments": [{"vertex": ["shared", 1, 2], "color": "x"}]}
            )


class TestColoringText:
    """The schema-specific writer against the generic encoder."""

    @pytest.mark.parametrize("n", range(2, 13))
    def test_shared_and_full_colorings_of_g_n(self, n):
        g = build_maximal(n)
        shared = color_shared(g)
        for c in (shared, extend_to_full(g, shared)):
            assert coloring_text(c) == dumps(coloring_to_json(c))

    @pytest.mark.parametrize("kind", [SharedColoring, FullColoring])
    def test_empty_coloring(self, kind):
        c = kind(4, {})
        assert coloring_text(c) == dumps(coloring_to_json(c))

    def test_general_vertex_keys(self):
        c = FullColoring(5, {
            GeneralVertex(12): 2,
            UnsharedVertex(2, 1): 5,
            GeneralVertex(3): 1,
            SharedVertex(1, 2): 4,
        })
        assert coloring_text(c) == dumps(coloring_to_json(c))

    def test_vertex_without_encoding_rejected(self):
        with pytest.raises(FormatError):
            coloring_text(FullColoring(1, {42: 1}))


NOT_INTEGERS = ["1", 2.5, 2.0, True, None, [1]]


class TestStrictIntegers:
    """An index is read only from a JSON integer, never coerced."""

    @pytest.mark.parametrize("x", NOT_INTEGERS)
    def test_vertex_fields(self, x):
        for tag, rest in (("shared", [x, 2]), ("unshared", [1, x]),
                          ("general", [x])):
            with pytest.raises(FormatError, match="not an integer"):
                vertex_from_json([tag, *rest])

    @pytest.mark.parametrize("x", NOT_INTEGERS)
    def test_pairs(self, x):
        with pytest.raises(FormatError, match="integer pairs"):
            pairs_from_json([[1, 2], [x, 3]], "pairs")
        with pytest.raises(FormatError, match="integer pairs"):
            graph_from_json({"n": 3, "shared_pairs": [[1, x]]})

    @pytest.mark.parametrize("x", NOT_INTEGERS)
    def test_orders(self, x):
        with pytest.raises(FormatError, match='integer "n"'):
            graph_from_json({"n": x, "shared_pairs": []})
        with pytest.raises(FormatError, match='integer "n"'):
            decomposition_from_json(
                {"n": x, "host_edges": "complete", "cliques": []}
            )

    @pytest.mark.parametrize("x", NOT_INTEGERS)
    def test_decomposition_edges_and_cliques(self, x):
        with pytest.raises(FormatError, match="integer pairs"):
            decomposition_from_json(
                {"n": 3, "host_edges": [[1, x]], "cliques": [[1, 2]]}
            )
        with pytest.raises(FormatError, match="not a list of integers"):
            decomposition_from_json(
                {"n": 3, "host_edges": "complete",
                 "cliques": [[1, 2], [1, 3], [2, x]]}
            )

    def test_string_clique_is_not_split(self):
        with pytest.raises(FormatError, match="not a list of integers"):
            decomposition_from_json(
                {"n": 3, "host_edges": "complete",
                 "cliques": ["12", [1, 3], [2, 3]]}
            )

    @pytest.mark.parametrize("x", NOT_INTEGERS)
    def test_palettes_colors_and_clique_keys(self, x):
        entry = {"vertex": ["shared", 1, 2], "color": 1}
        with pytest.raises(FormatError):
            vertex_coloring_from_json({"palette": x, "assignments": [entry]})
        with pytest.raises(FormatError):
            vertex_coloring_from_json(
                {"palette": 3, "assignments": [dict(entry, color=x)]}
            )
        for bad in ({"palette": x, "assignments": []},
                    {"palette": 3, "assignments": [{"clique": x, "color": 1}]},
                    {"palette": 3, "assignments": [{"clique": 1, "color": x}]}):
            with pytest.raises(FormatError):
                decomposition_coloring_from_json(bad)


class TestDecompositionJson:
    def test_complete_host_round_trip(self):
        d = efl_to_decomposition(build_maximal(5))
        data = decomposition_to_json(d)
        assert data["host_edges"] == "complete"
        assert decomposition_from_json(data) == d

    def test_sparse_host_round_trip(self):
        host = HostGraph.from_edges(4, [(1, 2), (3, 4)])
        d = validate_decomposition(host, [(1, 2), (3, 4)])
        data = decomposition_to_json(d)
        assert data["host_edges"] == [[1, 2], [3, 4]]
        assert decomposition_from_json(data) == d

    def test_invalid_decomposition_rejected(self):
        data = {"n": 3, "host_edges": "complete", "cliques": [[1, 2]]}
        with pytest.raises(FormatError, match="no clique"):
            decomposition_from_json(data)

    def test_coloring_round_trip(self):
        c = DecompositionColoring(3, {1: 1, 2: 2, 3: 3})
        assert decomposition_coloring_from_json(
            decomposition_coloring_to_json(c)
        ) == c


class TestDecompositionText:
    """decomposition_text writes dumps(decomposition_to_json(d))."""

    @pytest.mark.parametrize("n", [2, 5, 7])
    def test_complete_hosts(self, n):
        d = efl_to_decomposition(build_maximal(n))
        assert d.host.is_complete
        assert decomposition_text(d) == dumps(decomposition_to_json(d))

    def test_mixed_clique_sizes(self):
        d = validate_decomposition(
            complete_host(5),
            [(1, 2), (1, 3), (1, 4), (1, 5), (2, 5), (3, 5), (4, 5),
             (2, 3, 4)],
        )
        assert decomposition_text(d) == dumps(decomposition_to_json(d))

    def test_explicit_host(self):
        host = HostGraph.from_edges(5, [(1, 2), (2, 3), (4, 5), (3, 4)])
        d = validate_decomposition(host, [(1, 2), (2, 3), (3, 4), (4, 5)])
        assert not d.host.is_complete
        assert decomposition_text(d) == dumps(decomposition_to_json(d))

    @pytest.mark.parametrize("host", [
        complete_host(0), complete_host(1), HostGraph(3, frozenset()),
    ])
    def test_empty_clique_list(self, host):
        d = CliqueDecomposition(host, ())
        assert decomposition_text(d) == dumps(decomposition_to_json(d))


class TestOrderLimit:
    """An order above MAX_ORDER is refused before anything is built."""

    def test_limit_is_far_above_the_working_sizes(self):
        assert MAX_ORDER == 2048

    @pytest.mark.parametrize("n", [MAX_ORDER + 1, 10**12])
    def test_graph_readers(self, n):
        message = f"n must be <= {MAX_ORDER}, got {n}"
        with pytest.raises(FormatError, match=message):
            graph_from_json({"n": n, "shared_pairs": []})
        with pytest.raises(FormatError, match=message):
            graph_from_json({"n": n, "cliques": []})

    @pytest.mark.parametrize("n", [MAX_ORDER + 1, 10**12])
    def test_decomposition_readers(self, n):
        message = f"invalid host: n must be <= {MAX_ORDER}, got {n}"
        for host in ("complete", [[1, 2]]):
            with pytest.raises(FormatError, match=message):
                decomposition_from_json(
                    {"n": n, "host_edges": host, "cliques": [[1, 2]]}
                )


class TestDot:
    def test_host_dot_lists_vertices_and_edges(self):
        text = host_dot(complete_host(3))
        assert text.startswith("graph host {")
        assert "  1 -- 2;" in text
        assert "  2 -- 3;" in text
        assert text.endswith("}\n")

    def test_intersection_dot_labels_cliques(self):
        d = validate_decomposition(
            complete_host(3), [(1, 2), (1, 3), (2, 3)]
        )
        text = intersection_dot(d)
        assert 'label="D1: 1,2"' in text
        assert "  1 -- 2;" in text

    def test_deterministic(self):
        d = efl_to_decomposition(build_maximal(4))
        assert intersection_dot(d) == intersection_dot(d)
        assert host_dot(d.host) == host_dot(d.host)


class TestCanonicalization:
    def test_all_pairs_graph_serializes_like_maximal(self):
        pairs = list(combinations(range(1, 5), 2))
        assert graph_to_json(build_from_pairs(4, pairs)) == graph_to_json(
            build_maximal(4)
        )
