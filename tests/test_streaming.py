"""Streamed output, the folding coloring reader and the chunked readers.

Every writer yields its document in chunks that ``cli._emit`` writes as
they come, and ``verify`` reads a vertex coloring with
``serialize.fold_assignment`` as ``json.load``'s object hook, so each
well-formed entry is folded the moment it is decoded.  tracemalloc bounds
what either holds at once on G_200's full coloring, and the folded
reader is checked against the dict-at-a-time reader of ``helpers`` on
seeded malformed documents: the same coloring or the same FormatError.

Graph documents are read by one chunked reader, ``chunked.read_graph``,
their pairs a chunk of list elements at a time and their cliques one
clique at a time; vertex colorings of any graph are read a chunk of
entries at a time (``chunked.read_vertex_coloring``).  Any document they
refuse goes to the whole-document readers.  Every corpus document, and
variants of G_4's and G_7's documents and of a keyed graph's (other
layouts, key orders and keys, escapes, duplicates, defects, and every
truncation), read alike both ways: the same graph or coloring, or the
same CLI output, error line and exit code, at every chunk size 1..64 and
at the default.  tracemalloc shows no document held whole.
"""

import contextlib
import io
import json
import random
import tracemalloc

import pytest

from eflcolor import chunked, cli, serialize
from eflcolor.coloring import color_shared, extend_to_full
from eflcolor.core import (
    build_from_pairs,
    build_maximal,
    validate_keys,
    vertex_key,
)
from eflcolor.decomposition import (
    complete_host,
    decomposition_to_efl,
    validate_decomposition,
)
from eflcolor.serialize import (
    FormatError,
    coloring_text,
    decomposition_coloring_from_json,
    fold_assignment,
    graph_text,
    vertex_coloring_from_json,
    vertex_to_json,
)
from cli_corpus import CORPUS
from helpers import reference_vertex_coloring_from_json, triangle_packing


def traced_peak(fn):
    """Peak bytes traced while fn runs, above what was held before."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def g200_coloring():
    g = build_maximal(200)
    return extend_to_full(g, color_shared(g))


class TestMemory:
    def test_writing_holds_under_a_quarter_of_the_text(
        self, g200_coloring, tmp_path
    ):
        out = tmp_path / "coloring.json"
        peak = traced_peak(
            lambda: cli._emit(coloring_text(g200_coloring), str(out))
        )
        size = out.stat().st_size
        assert size > 2_000_000
        assert peak < size / 4, (peak, size)

    def test_folding_holds_under_most_of_the_dict_tree(
        self, g200_coloring, tmp_path
    ):
        path = tmp_path / "coloring.json"
        cli._emit(coloring_text(g200_coloring), str(path))

        def plain():
            with open(path, encoding="utf-8") as fh:
                json.load(fh)

        def folded():
            vertex_coloring_from_json(
                cli._read_json(str(path), fold_assignment)
            )

        plain_peak, folded_peak = traced_peak(plain), traced_peak(folded)
        assert folded_peak < 0.6 * plain_peak, (folded_peak, plain_peak)


# pieces of coloring documents, valid and not
VERTICES = [
    ["shared", 1, 2], ["shared", 1, 3], ["shared", 2, 3],
    ["unshared", 1, 1], ["unshared", 3, 2], ["general", 7], ["general", 0],
    ["shared", 2, 1], ["shared", 0, 1], ["unshared", 1, 0],  # out of range
    ["shared", 1, "2"], ["shared", 1, 2.0], ["shared", True, 2],
    ["shared", 1], ["shared", 1, 2, 3], ["general"], ["general", "x"],
    ["odd", 1, 2], [], [1, 2], "shared", 3, None, {"tag": "shared"},
]
COLORS = [1, 2, 3, 0, -1, 10**20, True, False, 1.0, "1", None, [1]]


def random_entry(rng, depth=0):
    roll = rng.random()
    if roll < 0.45:
        return {"vertex": rng.choice(VERTICES), "color": rng.choice(COLORS)}
    if roll < 0.55:
        return {"color": rng.choice(COLORS), "vertex": rng.choice(VERTICES)}
    if roll < 0.65 and depth < 2:  # an entry-shaped object nested inside
        inner = random_entry(rng, depth + 1)
        outer = {"vertex": rng.choice(VERTICES), "color": rng.choice(COLORS)}
        outer[rng.choice(["vertex", "color"])] = inner
        return outer
    if roll < 0.75 and depth < 2:
        return [random_entry(rng, depth + 1)]
    if roll < 0.82:
        return {"vertex": rng.choice(VERTICES), "color": 1, "note": "x"}
    if roll < 0.88:
        return {"vertex": rng.choice(VERTICES)}
    if roll < 0.94:
        return {"clique": rng.randrange(1, 5), "color": rng.choice(COLORS)}
    return rng.choice([None, 1, "entry", {}])


def random_document(rng):
    entries = [random_entry(rng) for _ in range(rng.randrange(0, 6))]
    if entries and rng.random() < 0.3:  # a vertex named twice
        entries.append(dict(rng.choice(
            [e for e in entries if isinstance(e, dict)] or [{}]
        )))
    roll = rng.random()
    if roll < 0.8:
        doc = {"palette": rng.choice([3, 3, 3, True, "3", None]),
               "assignments": entries}
    elif roll < 0.9:
        doc = {"palette": 3, "assignments": random_entry(rng)}
    else:
        doc = random_entry(rng)
    return json.dumps(doc)


def outcome(read, data):
    try:
        return read(data)
    except FormatError as e:
        return f"FormatError: {e}"


class TestFoldingReader:
    def test_differential_against_the_dict_reader(self):
        rng = random.Random(20261018)
        seen = set()
        for _ in range(3000):
            text = random_document(rng)
            expected = outcome(
                reference_vertex_coloring_from_json, json.loads(text)
            )
            got = outcome(
                vertex_coloring_from_json,
                json.loads(text, object_hook=fold_assignment),
            )
            assert got == expected, text
            seen.add(expected if isinstance(expected, str) else "ok")
        # the documents reach every outcome of the reader
        for start in (
            "ok", "FormatError: bad assignment entry",
            "FormatError: bad color in entry",
            "FormatError: bad vertex encoding: ",
            "FormatError: bad vertex encoding [",
            "FormatError: unknown vertex tag",
            "FormatError: vertex ['shared', 1, 2] is assigned twice",
            'FormatError: coloring JSON needs an integer "palette"',
            'FormatError: coloring JSON needs an "assignments" list',
        ):
            assert any(s.startswith(start) for s in seen), start

    def test_decomposition_colorings_read_alike(self):
        rng = random.Random(7)
        for _ in range(1000):
            text = random_document(rng)
            assert outcome(
                decomposition_coloring_from_json,
                json.loads(text, object_hook=fold_assignment),
            ) == outcome(decomposition_coloring_from_json, json.loads(text))

    def test_only_well_formed_entries_fold(self):
        entry = {"vertex": ["shared", 1, 2], "color": 3}
        folded = fold_assignment(dict(entry))
        assert not isinstance(folded, dict)
        assert repr(folded) == repr(entry)
        for obj in (
            {"color": 3, "vertex": ["shared", 1, 2]},
            {"vertex": ["shared", 1, 2], "color": True},
            {"vertex": ["shared", 2, 1], "color": 3},
            {"vertex": ["shared", 1, 2], "color": 3, "note": 1},
        ):
            assert fold_assignment(dict(obj)) == obj

    def test_repeated_vertex_is_named_as_written(self):
        text = json.dumps({"palette": 3, "assignments": [
            {"vertex": ["general", 4], "color": 1},
            {"vertex": ["general", 4], "color": 2},
        ]})
        with pytest.raises(FormatError) as e:
            vertex_coloring_from_json(
                json.loads(text, object_hook=fold_assignment)
            )
        assert str(e.value) == "vertex ['general', 4] is assigned twice"


# -- the chunked readers against the whole-document readers -------------

CHUNKS = [None, *range(1, 65)]  # None: the default chunk size
DOCUMENTS = sorted(
    p for p in CORPUS.rglob("*") if p.suffix in (".json", ".stdout")
)


def set_chunk(monkeypatch, chunk):
    if chunk is not None:
        monkeypatch.setattr(chunked, "_CHUNK", chunk)


def read_chunked(path, reader, *args):
    return cli._read_chunked(str(path), reader, *args)


def whole_graph(path):
    return serialize.graph_from_json(cli._read_json(str(path)))


def whole_coloring(path, g):
    return serialize.vertex_coloring_on(
        g, cli._read_json(str(path), fold_assignment)
    )


def same_coloring(a, b):
    """Equal colorings, held alike: the same kind, palette and colors by
    vertex number."""
    return (type(a) is type(b) and a.palette_size == b.palette_size
            and a.colors.by_number == b.colors.by_number
            and a.colors.extra == b.colors.extra)


@pytest.fixture(scope="module")
def corpus_reads():
    """The corpus documents the chunked readers take at the default chunk
    size: {graph document: graph}, and {(graph document, coloring
    document): coloring} over every graph they read."""
    graphs = {}
    for path in DOCUMENTS:
        g = read_chunked(path, chunked.read_graph)
        if g is not None:
            graphs[path] = g
    colorings = {}
    for gpath, g in graphs.items():
        for path in DOCUMENTS:
            c = read_chunked(path, chunked.read_vertex_coloring, g)
            if c is not None:
                colorings[gpath, path] = c
    return graphs, colorings


class TestCorpusReadsAlike:
    def test_the_readers_take_the_cli_documents(self, corpus_reads):
        graphs, colorings = corpus_reads
        names = {p.name for p in graphs}
        assert {"gen_all_7.stdout", "gen_pairs_6.stdout", "g4_compact.json",
                "to_efl_7.stdout", "to_efl_fano.stdout"} <= names
        # a trailing key and the other kinds are refused
        assert not names & {"g4_extra_key.json", "decompose_7.stdout",
                            "fano.json"}
        pairs = {(g.name, c.name) for g, c in colorings}
        assert {("gen_all_7.stdout", "color_7_extend.stdout"),
                ("gen_all_10.stdout", "color_10.stdout"),
                ("g4_compact.json", "g4_coloring_compact.json"),
                ("gen_all_7.stdout", "g7_coloring_swapped.json"),
                ("cliques_general_pair.json",
                 "color_general_pair_extend.stdout")} <= pairs
        # colorings of a graph with vertices in three cliques
        assert {("to_efl_fano.stdout", f"fano_coloring_{name}.json")
                for name in ("witness", "clash", "unknown_vertex",
                             "shared_names_slot", "color_8")} <= pairs
        assert ("gen_all_4.stdout",
                "g4_coloring_assignments_first.json") not in pairs

    def test_graphs_as_the_whole_document_reader_builds_them(
        self, corpus_reads
    ):
        for path, g in corpus_reads[0].items():
            assert g == whole_graph(path) and g.pairs == whole_graph(path).pairs

    def test_colorings_as_the_whole_document_reader_places_them(
        self, corpus_reads
    ):
        graphs, colorings = corpus_reads
        for (gpath, path), c in colorings.items():
            assert same_coloring(c, whole_coloring(path, graphs[gpath]))

    @pytest.mark.parametrize("chunk", CHUNKS[1:])
    def test_every_chunk_size_reads_the_same(
        self, monkeypatch, corpus_reads, chunk
    ):
        set_chunk(monkeypatch, chunk)
        graphs, colorings = corpus_reads
        for gpath, g in graphs.items():
            for path in DOCUMENTS:
                c = read_chunked(path, chunked.read_vertex_coloring, g)
                assert (c is None) == ((gpath, path) not in colorings), path
                if c is not None:
                    assert same_coloring(c, colorings[gpath, path])

    def test_the_clique_reader_takes_the_clique_documents(
        self, corpus_reads
    ):
        names = {p.name for p in corpus_reads[0]}
        assert {"to_efl_fano.stdout", "to_efl_k30_mixed.stdout",
                "cliques_compact.json", "cliques_only.json",
                "cliques_general_pair.json"} <= names
        # another key order, a trailing key, a cut, a rule broken and the
        # other kinds are refused
        assert not names & {
            "cliques_first.json", "cliques_extra_key.json",
            "cliques_truncated.json", "cliques_two_shared.json",
            "cliques_stray_slot.json", "cliques_contradicting_pairs.json",
            "decompose_7.stdout", "fano.json", "color_7.stdout",
        }

    def test_clique_graphs_as_the_whole_document_reader_builds_them(
        self, corpus_reads
    ):
        for path, g in corpus_reads[0].items():
            whole = whole_graph(path)
            assert "".join(graph_text(g)) == "".join(graph_text(whole))

    @pytest.mark.parametrize("chunk", CHUNKS[1:])
    def test_every_chunk_size_reads_the_cliques_the_same(
        self, monkeypatch, corpus_reads, chunk
    ):
        set_chunk(monkeypatch, chunk)
        graphs = corpus_reads[0]
        for path in DOCUMENTS:
            g = read_chunked(path, chunked.read_graph)
            assert (g is None) == (path not in graphs), path
            if g is not None:
                assert g == graphs[path] and g.pairs == graphs[path].pairs

    def test_clique_documents_through_the_cli(self, monkeypatch):
        for path in DOCUMENTS:
            if b'"cliques"' not in path.read_bytes():
                continue
            for argv in (["decompose", "--in", str(path)],
                         ["color", "--in", str(path), "--extend"]):
                got, whole = both_paths(monkeypatch, argv)
                assert got == whole, (path.name, argv[0])


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def both_paths(monkeypatch, argv):
    """The CLI's (exit, stdout, stderr) for argv, then the same with every
    document read whole."""
    got = run_cli(argv)
    with monkeypatch.context() as m:
        m.setattr(cli, "_read_chunked", lambda *args: None)
        return got, run_cli(argv)


def documents(n):
    """G_n's graph document and its full coloring document, as written."""
    g = build_maximal(n)
    return ("".join(graph_text(g)),
            "".join(coloring_text(extend_to_full(g, color_shared(g)))))


def graph_variants(n):
    """(name, text, read chunked) of G_n's graph document changed in one
    way each."""
    text, _ = documents(n)
    g = build_maximal(n)
    pairs = [list(p) for p in g.pairs]

    def doc(**fields):
        return json.dumps(fields)

    cliques = [[vertex_to_json(v) for v in sorted(q, key=vertex_key)]
               for q in g.cliques]
    return [
        ("as written", text, True),
        ("compact", json.dumps({"n": n, "shared_pairs": pairs},
                               separators=(",", ":")), True),
        ("spaced", " \n\t{ " + doc(n=n, shared_pairs=pairs)[1:] + "\r\n",
         True),
        ("descending", doc(n=n, shared_pairs=pairs[::-1]), True),
        ("no pairs", doc(n=n, shared_pairs=[]), True),
        ("keys swapped", doc(shared_pairs=pairs, n=n), False),
        ("extra key", doc(n=n, shared_pairs=pairs, note="x"), False),
        ("extra key between", doc(n=n, note=[1], shared_pairs=pairs),
         False),
        ("cliques after", doc(n=n, shared_pairs=pairs, cliques=cliques),
         True),
        ("escaped key", text.replace('"n"', '"\\u006e"', 1), False),
        ("duplicate key",
         text.replace('"n"', f'"n": {n + 1}, "n"', 1), False),
        ("duplicate key after", text.rstrip()[:-1] + f', "n": {n + 1}}}',
         False),
        ("trailing text", text + "x", False),
        ("form feed", text + "\f", False),
        ("byte order mark", "﻿" + text, False),
        ("float order", text.replace(f'"n": {n}', f'"n": {n}.0', 1),
         False),
        ("order 1", doc(n=1, shared_pairs=[]), False),
        ("order above the limit", doc(n=4096, shared_pairs=pairs), False),
        ("repeated pair", doc(n=n, shared_pairs=pairs + pairs[:1]), False),
        ("pair out of range",
         doc(n=n, shared_pairs=pairs + [[n, n + 1]]), False),
        ("string index",
         doc(n=n, shared_pairs=pairs[:1] + [[1, "3"]] + pairs[2:]), False),
        ("nested pair",
         doc(n=n, shared_pairs=[[[1], 2]] + pairs[1:]), False),
        ("bool index", doc(n=n, shared_pairs=[[True, 2]] + pairs[1:]),
         False),
        ("not a list", doc(n=n, shared_pairs={"1": 2}), False),
        # each refused by one check alone, the others passing it
        ("text after the end", text + "[[1]]}", False),
        ("form feed in the head", text.replace("{", "{\f", 1), False),
        ("leading zero", text.replace(f'"n": {n}', f'"n": 0{n}', 1), False),
        ("a key inside the list", '{"n": %d, "shared_pairs": [[1, 2]], '
         '"x": [[3, 4]], [2, 3]]}' % n, False),
    ]


def coloring_variants(n):
    """(name, text, read chunked) of G_n's full coloring document changed
    in one way each."""
    _, text = documents(n)
    data = json.loads(text)
    palette, entries = data["palette"], data["assignments"]

    def doc(**fields):
        return json.dumps(fields)

    def changed(k, entry):
        return json.dumps({"palette": palette,
                           "assignments": entries[:k] + [entry]
                           + entries[k + 1:]})

    first, last = entries[0], entries[-1]
    return [
        ("as written", text, True),
        ("compact", json.dumps(data, separators=(",", ":")), True),
        ("spaced", " \r\n" + json.dumps(data) + "\t\n", True),
        ("no assignments", doc(palette=palette, assignments=[]), True),
        ("shared only", doc(palette=palette, assignments=entries[:-n]),
         True),
        ("escaped tag", text.replace('"shared"', '"\\u0073hared"', 1), True),
        ("duplicate entry key", changed(0, dict(first, color=first["color"]))
         .replace('"color": %d}' % first["color"],
                  '"color": 99, "color": %d}' % first["color"], 1), True),
        ("unknown vertex", doc(palette=palette, assignments=entries + [
            {"vertex": ["shared", n, n + 1], "color": 1}]), True),
        ("color above the palette",
         changed(1, dict(entries[1], color=palette + 1)), True),
        ("palette above the order", doc(palette=n + 3, assignments=entries),
         True),
        ("swapped colors", changed(0, dict(first, color=entries[1]["color"])),
         True),
        ("keys swapped", doc(assignments=entries, palette=palette), False),
        ("extra key", doc(palette=palette, assignments=entries, note=1),
         False),
        ("escaped key", text.replace('"palette"', '"p\\u0061lette"', 1),
         False),
        ("duplicate key", text.replace('"palette"', '"palette": 2, "palette"',
                                       1), False),
        ("trailing text", text + "}", False),
        ("entry as a dict",
         changed(0, {"color": first["color"], "vertex": first["vertex"]}),
         False),
        ("entry with a note", changed(1, dict(entries[1], note="},")),
         False),
        ("last entry as a dict",
         changed(len(entries) - 1,
                 {"color": last["color"], "vertex": last["vertex"]}), False),
        ("repeated vertex", doc(palette=palette, assignments=entries + [first]),
         False),
        ("bad entry", changed(2, {"vertex": "bad", "color": 1}), False),
        ("bool color", changed(2, dict(entries[2], color=True)), False),
        ("clique keyed", doc(palette=palette, assignments=[
            {"clique": 1, "color": 1}]), False),
        ("string palette", doc(palette=str(palette), assignments=entries),
         False),
        ("not a list", doc(palette=palette, assignments=first), False),
        # each refused by one check alone, the others passing it
        ("text after the end", text + '[{"color": 1}]}', False),
        ("form feed in the head", text.replace("{", "{\f", 1), False),
        ("leading zero", text.replace('"palette": ', '"palette": 0', 1),
         False),
        ("entry as a list", changed(0, [0, 1, 2, first["color"]]), False),
        ("entry with two notes", changed(1, dict(entries[1], a=1, b=2)),
         False),
    ]


def keyed_graph():
    """A two-clique graph of order 5 held as keys: the pair graph on five
    pairs, with the shared vertex on (2, 4) a general vertex instead."""
    g = build_from_pairs(5, [(1, 2), (1, 3), (2, 4), (3, 4), (3, 5)])
    return validate_keys(
        ([(2, 7) if k == (0, 2, 4) else k for k in map(vertex_key, q)]
         for q in g.cliques), 5
    )


def clique_variants():
    """(name, text, read chunked) of the keyed graph's document changed in
    one way each."""
    g = keyed_graph()
    text = "".join(graph_text(g))
    data = json.loads(text)
    n, pairs, cliques = data["n"], data["shared_pairs"], data["cliques"]

    def doc(**fields):
        return json.dumps(fields)

    def clique_1(*vertices):
        return doc(n=n, shared_pairs=pairs,
                   cliques=[list(vertices)] + cliques[1:])

    first = cliques[0]
    return [
        ("as written", text, True),
        ("compact", json.dumps(data, separators=(",", ":")), True),
        ("spaced", " \r\n\t" + json.dumps(data) + "\n ", True),
        ("cliques only", doc(n=n, cliques=cliques), True),
        ("pairs shuffled", doc(n=n, shared_pairs=pairs[::-1],
                               cliques=cliques), True),
        ("escaped tag", text.replace('"shared"', '"\\u0073hared"'), True),
        ("vertices reordered", clique_1(*first[::-1]), True),
        ("no pairs", doc(n=n, shared_pairs=[], cliques=cliques), False),
        ("pairs null", doc(n=n, shared_pairs=None, cliques=cliques), False),
        ("pair repeated", doc(n=n, shared_pairs=pairs + pairs[:1],
                              cliques=cliques), False),
        ("pair not listed", doc(n=n, shared_pairs=pairs[1:],
                                cliques=cliques), False),
        ("bool index", doc(n=n, shared_pairs=[[True, 2]] + pairs[1:],
                           cliques=cliques), False),
        ("nested pair", doc(n=n, shared_pairs=[[[1], 2]] + pairs[1:],
                            cliques=cliques), False),
        ("cliques first", doc(n=n, cliques=cliques, shared_pairs=pairs),
         False),
        ("extra key", doc(n=n, shared_pairs=pairs, cliques=cliques, x=1),
         False),
        ("extra key between", doc(n=n, x=[[[1]]], cliques=cliques), False),
        ("non-ASCII key", doc(n=n, cliques=cliques, **{"\u00e9": 1}), False),
        ("escaped key", text.replace('"cliques"', '"\\u0063liques"'), False),
        ("duplicate key", text.replace('"n"', '"n": 6, "n"', 1), False),
        ("duplicate key after", text.rstrip()[:-1] + ', "n": 6}', False),
        ("trailing text", text + "x", False),
        ("text after the end", text + "[[[]]]}", False),
        ("form feed", text + "\f", False),
        ("byte order mark", "\ufeff" + text, False),
        ("float order", text.replace('"n": 5', '"n": 5.0', 1), False),
        ("order 1", doc(n=1, cliques=[[["unshared", 1, 1]]]), False),
        ("order above the limit", doc(n=4096, cliques=cliques), False),
        ("no cliques", doc(n=n, cliques=[]), False),
        ("clique not a list", doc(n=n, cliques=cliques[:-1] + [7]), False),
        ("vertex not a list", clique_1("shared", *first[1:]), False),
        ("unknown tag", clique_1(["sharéd", 1, 2], *first[1:]), False),
        ("bool field", clique_1(["shared", 1, True], *first[1:]), False),
        ("string label", clique_1(["general", "]]]}"], *first[1:]), False),
        ("nested too deeply",
         clique_1(json.loads("[" * 50 + "]" * 50), *first[1:]), False),
        ("short clique", clique_1(*first[1:]), False),
        ("vertex repeated", clique_1(first[1], *first[1:]), False),
        ("misnamed", clique_1(["shared", 1, 4], *first[1:]), False),
        ("stray slot", clique_1(["unshared", 2, 1], *first[1:]), False),
        ("slot out of range", clique_1(["unshared", 1, 9], *first[:-1]),
         False),
    ]


@pytest.fixture(scope="module")
def clique_variant_files(tmp_path_factory):
    """The keyed graph's document and full coloring, and its variants,
    written to files: (graph path, coloring path, [(name, path, read
    chunked)])."""
    d = tmp_path_factory.mktemp("keyed")
    g = keyed_graph()

    def write(name, text):
        path = d / (name.replace(" ", "_") + ".json")
        path.write_bytes(text.encode("utf-8"))
        return str(path)

    coloring = "".join(coloring_text(extend_to_full(g, color_shared(g))))
    return (write("graph", "".join(graph_text(g))),
            write("coloring", coloring),
            [(name, write("graph " + name, text), ok)
             for name, text, ok in clique_variants()])


@pytest.fixture(scope="module")
def variant_files(tmp_path_factory):
    """G_4's and G_7's documents and their variants, written to files:
    {n: (graph path, coloring path, [(name, graph path, read chunked)],
    [(name, coloring path, read chunked)])}."""
    out = {}
    for n in (4, 7):
        d = tmp_path_factory.mktemp(f"g{n}")
        graph, coloring = documents(n)

        def write(name, text):
            path = d / (name.replace(" ", "_") + ".json")
            path.write_bytes(text.encode("utf-8"))
            return str(path)

        gs = [(name, write("graph " + name, text), ok)
              for name, text, ok in graph_variants(n)]
        cs = [(name, write("coloring " + name, text), ok)
              for name, text, ok in coloring_variants(n)]
        out[n] = (write("graph", graph), write("coloring", coloring), gs, cs)
    return out


def variant_reads(variants, read, *args):
    """Each variant's read both ways, checked alike, and whether the
    chunked reader took it."""
    taken = []
    for name, path, _ in variants:
        got = read_chunked(path, read, *args)
        if got is not None:
            if args:
                assert same_coloring(got, whole_coloring(path, *args)), name
            else:
                whole = whole_graph(path)
                assert got == whole and got.pairs == whole.pairs, name
        taken.append(got is not None)
    return taken


class TestVariantsReadAlike:
    @pytest.mark.parametrize("n", [4, 7])
    def test_graph_variants_through_the_cli(
        self, monkeypatch, variant_files, n
    ):
        _, coloring, graphs, _ = variant_files[n]
        for name, path, _ in graphs:
            for argv in (["verify", "--graph", path, "--coloring", coloring],
                         ["color", "--in", path, "--extend"],
                         ["decompose", "--in", path],
                         ["export-dot", "--in", path]):
                got, whole = both_paths(monkeypatch, argv)
                assert got == whole, (name, argv[0])

    @pytest.mark.parametrize("n", [4, 7])
    def test_coloring_variants_through_the_cli(
        self, monkeypatch, variant_files, n
    ):
        graph, _, _, colorings = variant_files[n]
        outcomes = set()
        for name, path, _ in colorings:
            got, whole = both_paths(
                monkeypatch, ["verify", "--graph", graph, "--coloring", path]
            )
            assert got == whole, name
            outcomes.add(got[0])
        assert outcomes == {0, 1, 2}  # proper, improper and input errors

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_variants_at_every_chunk_size(
        self, monkeypatch, variant_files, chunk
    ):
        set_chunk(monkeypatch, chunk)
        for n, (_, _, graphs, colorings) in variant_files.items():
            assert variant_reads(graphs, chunked.read_graph) \
                == [ok for _, _, ok in graphs]
            assert variant_reads(
                colorings, chunked.read_vertex_coloring, build_maximal(n)
            ) == [ok for _, _, ok in colorings]

    def test_every_truncation_through_the_cli(
        self, monkeypatch, variant_files, tmp_path
    ):
        _, _, graphs, colorings = variant_files[4]
        graph, coloring = graphs[1][1], colorings[1][1]  # compact
        for path in (graph, coloring):
            data = open(path, "rb").read()
            cut = tmp_path / "cut.json"
            for end in range(len(data)):
                cut.write_bytes(data[:end])
                argv = ["verify", "--graph", graph, "--coloring", coloring]
                argv[argv.index(path)] = str(cut)
                got, whole = both_paths(monkeypatch, argv)
                assert got == whole, (path, end)
                assert got[0] == 2 and "is not valid JSON" in got[2], end

    @pytest.mark.parametrize("chunk", [None, 1, 7, 64])
    def test_every_truncation_is_refused(
        self, monkeypatch, variant_files, tmp_path, chunk
    ):
        set_chunk(monkeypatch, chunk)
        graph, coloring, _, _ = variant_files[4]
        g = build_maximal(4)
        for path, args in ((graph, ()), (coloring, (g,))):
            read = chunked.read_vertex_coloring if args \
                else chunked.read_graph
            data = open(path, "rb").read()
            cut = tmp_path / "cut.json"
            for end in range(len(data.rstrip())):
                cut.write_bytes(data[:end])
                assert read_chunked(cut, read, *args) is None, (path, end)


    def test_clique_variants_through_the_cli(
        self, monkeypatch, clique_variant_files
    ):
        _, coloring, graphs = clique_variant_files
        outcomes = set()
        for name, path, _ in graphs:
            for argv in (["verify", "--graph", path, "--coloring", coloring],
                         ["color", "--in", path, "--extend"],
                         ["decompose", "--in", path],
                         ["export-dot", "--in", path]):
                got, whole = both_paths(monkeypatch, argv)
                assert got == whole, (name, argv[0])
                outcomes.add(got[0])
        assert outcomes == {0, 2}

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_clique_variants_at_every_chunk_size(
        self, monkeypatch, clique_variant_files, chunk
    ):
        set_chunk(monkeypatch, chunk)
        _, _, graphs = clique_variant_files
        for name, path, ok in graphs:
            got = read_chunked(path, chunked.read_graph)
            assert (got is not None) == ok, name
            if got is not None:
                assert got == whole_graph(path) == keyed_graph(), name

    def test_every_clique_truncation_through_the_cli(
        self, monkeypatch, clique_variant_files, tmp_path
    ):
        _, coloring, graphs = clique_variant_files
        data = open(graphs[1][1], "rb").read()  # compact
        cut = tmp_path / "cut.json"
        for end in range(len(data)):
            cut.write_bytes(data[:end])
            for argv in (["decompose", "--in", str(cut)],
                         ["verify", "--graph", str(cut),
                          "--coloring", coloring]):
                got, whole = both_paths(monkeypatch, argv)
                assert got == whole, end
                assert got[0] == 2 and "is not valid JSON" in got[2], end

    @pytest.mark.parametrize("chunk", [None, 1, 7, 64])
    def test_every_clique_truncation_is_refused(
        self, monkeypatch, clique_variant_files, tmp_path, chunk
    ):
        set_chunk(monkeypatch, chunk)
        graph, _, _ = clique_variant_files
        data = open(graph, "rb").read()
        cut = tmp_path / "cut.json"
        for end in range(len(data.rstrip())):
            cut.write_bytes(data[:end])
            assert read_chunked(cut, chunked.read_graph) is None, end


@pytest.fixture(scope="module")
def g200_files(tmp_path_factory, g200_coloring):
    d = tmp_path_factory.mktemp("g200")
    graph, coloring = d / "graph.json", d / "coloring.json"
    cli._emit(graph_text(g200_coloring.colors.graph), str(graph))
    cli._emit(coloring_text(g200_coloring), str(coloring))
    return str(graph), str(coloring)


def traced_held(fn):
    """Bytes traced and still held once fn has returned, its result kept."""
    tracemalloc.start()
    try:
        kept = fn()  # noqa: F841 -- held while measuring
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


class TestChunkedMemory:
    def test_verify_holds_under_half_the_coloring_text(self, g200_files):
        graph, coloring = g200_files
        read_graph = traced_peak(lambda: cli._read_graph(graph))
        verify = traced_peak(
            lambda: run_cli(["verify", "--graph", graph,
                             "--coloring", coloring])
        )
        size = len(open(coloring, "rb").read())
        assert size > 2_000_000
        # what verify needs beyond reading the graph
        assert verify - read_graph < size / 2, (verify, read_graph, size)

    def test_graph_read_holds_less_than_the_decoded_document(
        self, g200_files
    ):
        graph, _ = g200_files
        decoded = traced_held(lambda: cli._read_json(graph))
        peak = traced_peak(lambda: cli._read_graph(graph))
        assert peak < decoded, (peak, decoded)

    def test_clique_graph_read_holds_less_than_the_decoded_document(
        self, tmp_path
    ):
        packing = validate_decomposition(
            complete_host(60), triangle_packing(60, random.Random(60))
        )
        g = decomposition_to_efl(packing)
        path = tmp_path / "efl.json"
        cli._emit(graph_text(g), str(path))
        assert read_chunked(path, chunked.read_graph) == g
        decoded = traced_held(lambda: cli._read_json(str(path)))
        peak = traced_peak(
            lambda: read_chunked(path, chunked.read_graph)
        )
        assert peak < decoded, (peak, decoded)

    def test_a_value_that_does_not_decode_is_read_in_doubling_steps(
        self, monkeypatch, tmp_path
    ):
        # a string left open in clique 1 runs to the end of the file:
        # each read is at least as long as the text left unread, so the
        # reader neither reads nor copies that text once per chunk
        set_chunk(monkeypatch, 64)
        packing = validate_decomposition(
            complete_host(60), triangle_packing(60, random.Random(60))
        )
        text = "".join(graph_text(decomposition_to_efl(packing)))
        cut = text.index('"', text.index('"cliques"') + 9)
        path = tmp_path / "open_string.json"
        path.write_text(text[:cut] + text[cut + 1:])

        class Counted:
            def __init__(self, fh):
                self.fh, self.reads = fh, 0

            def read(self, size=-1):
                self.reads += 1
                return self.fh.read(size)

        with open(path, "rb") as fh:
            counted = Counted(fh)
            with pytest.raises(ValueError):
                chunked.read_graph(counted)
        # one read per chunk would be over 3,000, most of them after the
        # open string; the pairs before it take about 70
        assert len(text) > 100_000 and counted.reads < 200, counted.reads

    def test_ints_above_256_are_held_once(self, tmp_path):
        # clique 1 and clique n meet every other clique: indices and
        # colors up to n, far above the interpreter's cached small ints
        n = 400
        g = build_from_pairs(n, [(1, j) for j in range(2, n + 1)]
                             + [(i, n) for i in range(2, n)])
        shared = color_shared(g)
        graph, coloring = tmp_path / "graph.json", tmp_path / "coloring.json"
        cli._emit(graph_text(g), str(graph))
        cli._emit(coloring_text(shared), str(coloring))
        read = cli._read_graph(str(graph))
        colors = read_chunked(coloring, chunked.read_vertex_coloring, read)
        ints = [x for p in read.pairs for x in p]
        assert max(ints) == n and len(set(map(id, ints))) == len(set(ints))
        for by_number in (shared.colors.by_number, colors.colors.by_number):
            cs = [c for c in by_number if c is not None]
            assert max(cs) > 256 and len(set(map(id, cs))) == len(set(cs))
