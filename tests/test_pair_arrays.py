"""The closed form over pairs and color lists against the per-vertex code.

A two-clique graph's closed-form coloring is held as a list of colors by
vertex number (``coloring.NumberedColors``): the shared vertices in pair
order, then each clique's slots.  ``helpers`` keeps the dict-over-vertex-
objects ``color_shared``, ``extend_to_full`` and ``check_proper`` that
this replaced.  On G_n, seeded pair subsets and explicit-clique graphs,
both must give equal colorings and byte-equal writer output, and on
seeded corruptions the same ProperCheck, the same ValueError and the same
``verify`` result.  ``check_proper`` runs the same numbered check on
graphs with a vertex in three or more cliques: on packings of K_n and on
Fano it must give the oracle's answers for the exact search's witness
and its corruptions.  Every graph's numbers follow ``vertex_key`` order,
and a vertex with a field that is not an int is an unknown vertex.  A
structural guard counts the pair and slot vertex objects that the CLI's
closed-form commands build, on pair graphs and on a keyed one: none.
"""

import contextlib
import io
import json
import random
from collections import Counter
from itertools import combinations
from pathlib import Path

import pytest

from eflcolor import cli
from eflcolor.coloring import (
    FullColoring,
    ProperCheck,
    SharedColoring,
    check_proper,
    color_shared,
    extend_to_full,
)
from eflcolor.core import (
    GeneralVertex,
    SharedVertex,
    UnsharedVertex,
    build_from_pairs,
    build_maximal,
    validate,
    vertex_key,
)
from eflcolor.decomposition import (
    complete_host,
    decomposition_to_efl,
    validate_decomposition,
)
from eflcolor.serialize import (
    coloring_text,
    graph_from_json,
    graph_text,
    vertex_to_json,
)
from eflcolor.solver import chromatic_number
from helpers import (
    FANO_TRIANGLES,
    four_clique_packing,
    reference_check_proper,
    reference_color_shared,
    reference_extend_to_full,
    reference_vertex_coloring_from_json,
    triangle_packing,
)

INPUTS = Path(__file__).parent / "fixtures" / "cli_corpus" / "inputs"


def _graphs():
    """(name, graph): G_n, seeded pair subsets in shuffled input order,
    and validated explicit-clique graphs, some with general vertices."""
    for n in range(2, 41):
        yield f"G_{n}", build_maximal(n)
    rng = random.Random(20261018)
    for t in range(30):
        n = rng.randint(2, 24)
        keep = rng.random()
        pairs = [p for p in combinations(range(1, n + 1), 2)
                 if rng.random() < keep]
        rng.shuffle(pairs)
        yield f"subset_{t}", build_from_pairs(n, pairs)
    yield "general_pair", graph_from_json(
        json.loads((INPUTS / "cliques_general_pair.json").read_text())
    )
    for n in (3, 6, 9):
        yield f"validated_G_{n}", validate(build_maximal(n).cliques, n)
    for t in range(12):
        n = rng.randint(3, 12)
        g = build_from_pairs(n, [p for p in combinations(range(1, n + 1), 2)
                                 if rng.random() < 0.6])
        # shared vertices, and the last slot of a clique, may be general
        last = [max((v for v in q if type(v) is UnsharedVertex),
                    key=vertex_key, default=None) for q in g.cliques]
        names = {
            v: GeneralVertex(100 + k)
            for k, v in enumerate(sorted(g.shared, key=vertex_key) + last)
            if v is not None and rng.random() < 0.4
        }
        yield f"relabeled_{t}", validate(
            [{names.get(v, v) for v in q} for q in g.cliques], n
        )


GRAPHS = list(_graphs())
IDS = [name for name, _ in GRAPHS]


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as e:
        return f"ValueError: {e}"


def _outsider(rng, g):
    """A vertex that g does not have."""
    return rng.choice([
        SharedVertex(1, g.n + 1), UnsharedVertex(1, 99), GeneralVertex(-5),
        UnsharedVertex(g.n + 1, 1),
    ])


def corruptions(rng, g, colors: dict, palette: int):
    """(kind, colors) with one defect each, seeded."""
    verts = sorted(colors, key=vertex_key)
    q = sorted(colors.keys() & rng.choice(g.cliques), key=vertex_key)
    if len(q) > 1:
        u, w = rng.sample(q, 2)
        swapped = dict(colors)
        swapped[u], swapped[w] = colors[w], colors[u]
        yield "swapped", swapped
        clash = dict(colors)
        clash[u] = colors[w]
        yield "recolored", clash
    if verts:
        missing = dict(colors)
        del missing[rng.choice(verts)]
        yield "missing", missing
        outside = dict(colors)
        outside[rng.choice(verts)] = rng.choice([0, -1, palette + 1, 10**30])
        yield "outside", outside
    yield "unknown", {**colors, _outsider(rng, g): 1}


@pytest.mark.parametrize("name,g", GRAPHS, ids=IDS)
def test_colorings_and_writers_match_the_oracle(name, g):
    shared, ref_shared = color_shared(g), reference_color_shared(g)
    assert shared == ref_shared
    full, ref_full = extend_to_full(g, shared), reference_extend_to_full(
        g, ref_shared
    )
    assert full == ref_full
    assert len(shared.colors) == len(g.shared)
    assert len(full.colors) == len(g.vertex_set)
    for c, ref in ((shared, ref_shared), (full, ref_full)):
        assert check_proper(g, c) == reference_check_proper(g, ref)
        assert "".join(coloring_text(c)) == "".join(coloring_text(ref))


@pytest.mark.parametrize("name,g", GRAPHS, ids=IDS)
def test_corruptions_give_the_oracle_answers(name, g):
    rng = random.Random(name)
    shared = dict(reference_color_shared(g).colors)
    full = dict(reference_extend_to_full(g, reference_color_shared(g)).colors)
    seen = Counter()
    for colors in (shared, full):
        for kind, bad in corruptions(rng, g, colors, g.n):
            seen[kind] += 1
            for coloring in (FullColoring, SharedColoring):
                c = coloring(g.n, bad)
                assert outcome(check_proper, g, c) == outcome(
                    reference_check_proper, g, c
                ), kind
            c = SharedColoring(g.n, bad)
            assert outcome(extend_to_full, g, c) == outcome(
                reference_extend_to_full, g, c
            ), kind
    assert seen["missing"] and seen["outside"] and seen["unknown"]


@pytest.mark.parametrize("v", [
    GeneralVertex("x"), GeneralVertex(1.5), SharedVertex(1.5, 2),
    UnsharedVertex(1, 1.5),
], ids=repr)
@pytest.mark.parametrize("name", ["G_7", "general_pair"])
def test_a_vertex_with_a_non_int_field_is_unknown(name, v):
    g = dict(GRAPHS)[name]
    shared = dict(reference_color_shared(g).colors)
    full = dict(reference_extend_to_full(g, reference_color_shared(g)).colors)
    for fn, c, why in (
        (check_proper, FullColoring(g.n, {**full, v: 1}),
         "full coloring names unknown vertex"),
        (check_proper, SharedColoring(g.n, {**shared, v: 1}),
         "shared coloring names non-shared vertex"),
        (extend_to_full, SharedColoring(g.n, {**shared, v: 1}),
         "shared coloring colors non-shared vertex"),
    ):
        assert outcome(fn, g, c) == f"ValueError: {why} {v!r}"


def _packed_graphs():
    """(name, graph) of seeded triangle and 4-clique packings of K_3..K_7
    and of Fano, each with a vertex in three or more cliques."""
    rng = random.Random(20261019)
    for n in range(3, 8):
        for t in range(3):
            for name, pack in (("triangles", triangle_packing),
                               ("quads", four_clique_packing)):
                if name == "quads" and n < 4:
                    continue
                yield f"{name}_K{n}_{t}", decomposition_to_efl(
                    validate_decomposition(complete_host(n), pack(n, rng))
                )
    yield "fano", decomposition_to_efl(
        validate_decomposition(complete_host(7), list(FANO_TRIANGLES))
    )


PACKED = list(_packed_graphs())


@pytest.mark.parametrize("name,g", PACKED, ids=[n for n, _ in PACKED])
def test_one_check_on_graphs_with_vertices_in_three_cliques(name, g):
    assert not g.is_two_clique
    rng = random.Random(name)
    witness = chromatic_number(g).witness
    palette = witness.palette_size
    full = dict(witness.colors)
    shared = {v: full[v] for v in g.shared}
    slot = min(g.vertex_set - g.shared, key=vertex_key)
    docs = [("witness", witness.colors), ("proper", full),
            ("shared only", shared),
            ("shared names a slot", {**shared, slot: full[slot]}),
            *corruptions(rng, g, full, palette),
            *corruptions(rng, g, shared, palette)]
    seen = Counter()
    for kind, colors in docs:
        seen[kind] += 1
        for coloring in (FullColoring, SharedColoring):
            c = coloring(palette, colors)
            assert outcome(check_proper, g, c) == outcome(
                reference_check_proper, g, c
            ), kind
    assert check_proper(g, witness)
    assert seen["recolored"] and seen["missing"] and seen["outside"] \
        and seen["unknown"]


@pytest.mark.parametrize("name,g", GRAPHS + PACKED,
                         ids=[n for n, _ in GRAPHS + PACKED])
def test_numbers_follow_vertex_key_order(name, g):
    numbering = g.numbering
    order = sorted(g.vertex_set, key=vertex_key)
    assert [numbering.vertex(k) for k in range(numbering.size)] == order
    for k, v in enumerate(order):
        assert numbering.number_of(v) == numbering.number(*vertex_key(v)) \
            == k
    cliques = [g.cliques_of(v) for v in order]
    assert list(numbering.cliques) == list(numbering.cliques) == cliques


def reference_verify(g, data) -> tuple:
    """(exit, stdout, stderr) of ``verify`` on a vertex coloring, from the
    dict reader and the per-vertex check."""
    try:
        palette, colors = reference_vertex_coloring_from_json(data)
        kind = FullColoring if colors.keys() == g.vertex_set \
            else SharedColoring
        chk = reference_check_proper(g, kind(palette, colors))
    except ValueError as e:
        return 2, "", f"error: {e}\n"
    if palette > g.n:
        chk = ProperCheck(
            False, None, f"palette {palette} exceeds the graph order {g.n}"
        )
    return (0, "proper\n", "") if chk else (1, f"improper: {chk.reason}\n", "")


def run_verify(graph: str, coloring: str) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["verify", "--graph", graph, "--coloring", coloring])
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "name,g", [(n, g) for n, g in GRAPHS if len(g.vertex_set) <= 300],
    ids=[n for n, g in GRAPHS if len(g.vertex_set) <= 300],
)
def test_verify_matches_the_oracle_on_corrupted_documents(name, g, tmp_path):
    rng = random.Random(name)
    graph = tmp_path / "graph.json"
    graph.write_text("".join(graph_text(g)))
    full = dict(reference_extend_to_full(g, reference_color_shared(g)).colors)
    docs = [("proper", full)] + list(corruptions(rng, g, full, g.n))
    for kind, colors in docs:
        entries = [{"vertex": vertex_to_json(v), "color": c}
                   for v, c in colors.items()]
        rng.shuffle(entries)
        variants = [entries, entries + [dict(rng.choice(entries), color=2)]]
        for palette in (g.n, g.n + 1):
            for listed in variants:
                data = {"palette": palette, "assignments": listed}
                path = tmp_path / "coloring.json"
                path.write_text(json.dumps(data))
                assert run_verify(str(graph), str(path)) == reference_verify(
                    g, data
                ), kind


def test_closed_form_commands_build_no_pair_or_slot_vertex(
    tmp_path, monkeypatch
):
    # G_30 with a shared pair and a clique's last slot renamed as labels
    keyed = str(tmp_path / "keyed.json")
    names = {SharedVertex(1, 2): GeneralVertex(7),
             UnsharedVertex(5, 1): GeneralVertex(-3)}
    Path(keyed).write_text("".join(graph_text(validate(
        [{names.get(v, v) for v in q} for q in build_maximal(30).cliques], 30
    ))))
    built = Counter()
    for cls in (SharedVertex, UnsharedVertex):
        def counted(self, check=cls.__post_init__, name=cls.__name__):
            built[name] += 1
            check(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    graph, half, coloring, decomposition, witness = (
        str(tmp_path / f"{name}.json")
        for name in ("graph", "half", "coloring", "decomposition", "witness")
    )
    pairs = tmp_path / "pairs.json"
    pairs.write_text(json.dumps(
        random.Random(30).sample(list(combinations(range(1, 31), 2)), 200)
    ))
    commands = [
        ["gen", "--n", "30", "--pairs", "all", "--out", graph],
        ["gen", "--n", "30", "--pairs", str(pairs), "--out", half],
    ]
    for g in (graph, half):
        commands += [
            ["color", "--in", g, "--extend", "--out", coloring],
            ["verify", "--graph", g, "--coloring", coloring],
            ["color", "--in", g, "--out", coloring],
            ["verify", "--graph", g, "--coloring", coloring],
            ["decompose", "--in", g, "--out", decomposition],
            ["to-efl", "--in", decomposition],
            ["chromatic", "--in", g, "--out", witness],
        ]
    commands += [
        ["color", "--in", keyed, "--extend", "--out", coloring],
        ["verify", "--graph", keyed, "--coloring", coloring],
        ["color", "--in", keyed, "--out", coloring],
        ["verify", "--graph", keyed, "--coloring", coloring],
        ["chromatic", "--in", keyed, "--out", witness],
        ["verify", "--graph", keyed, "--coloring", witness],
    ]
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0, argv
    assert len(chromatic_number(build_maximal(30)).witness.colors) == 900 - 435
    assert built == Counter()
    # the count works: reading a pair graph's vertices builds them
    assert len(build_maximal(3).shared) == 3
    assert built == Counter({"SharedVertex": 3})
