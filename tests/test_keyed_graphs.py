"""Explicit-clique graphs with general labels, against the object path.

``graph_from_json`` reads a "cliques" document into a graph held as n,
its sorted pairs and its sorted general labels with their clique indices,
and ``decomposition_to_efl`` builds one from mixed clique sizes.
Every graph, rejection message, written byte and edge-partition verdict
is checked against the oracles in tests/helpers.py, which read vertices
with ``vertex_from_json`` and validate vertex objects and edge tuples.
"""

import copy
import json
import random
import tracemalloc
import weakref
from collections import Counter
from itertools import combinations

import pytest

from cli_corpus import CORPUS
from eflcolor.cli import main
from eflcolor.core import (
    EflGraph,
    GeneralVertex,
    Rejection,
    SharedVertex,
    UnsharedVertex,
    build_from_pairs,
    build_maximal,
    validate,
    validate_keys,
    vertex_key,
)
from eflcolor.decomposition import (
    HostGraph,
    complete_host,
    decomposition_to_efl,
    efl_to_decomposition,
    validate_decomposition,
)
from eflcolor.serialize import (
    FormatError,
    dumps,
    graph_from_json,
    graph_text,
    graph_to_json,
    vertex_from_json,
)
from helpers import (
    mixed_graph,
    reference_graph_from_json,
    reference_validate,
    reference_validate_decomposition,
    triangle_packing,
)


def mixed_graphs(orders, seeds):
    for n in orders:
        for seed in seeds:
            yield n, seed, mixed_graph(n, random.Random(1000 * n + seed))


def outcome(read, doc):
    """What a reader makes of a copy of doc: a graph, or the text of its
    FormatError."""
    try:
        return read(copy.deepcopy(doc))
    except FormatError as e:
        return f"FormatError: {e}"


def text(g) -> str:
    return "".join(graph_text(g))


@pytest.mark.parametrize("n", range(3, 41))
def test_reader_matches_the_object_path_on_mixed_graphs(n):
    for _, _, g in mixed_graphs([n], range(2)):
        doc = graph_to_json(g)
        got = graph_from_json(copy.deepcopy(doc))
        assert not got.is_pair_graph
        assert got == reference_graph_from_json(doc) == g
        assert g == got and hash(got) == hash(g)


def test_keyed_graphs_read_as_their_object_graphs():
    for n, seed, g in mixed_graphs((3, 4, 7, 12, 25), range(3)):
        k = graph_from_json(graph_to_json(g))
        # the lists place every vertex before any vertex index is built
        for v in g.vertex_set:
            assert k.cliques_of(v) == g.cliques_of(v)
        assert "cliques" not in vars(k)
        assert (k.n, k.pairs, k.is_pair_graph, k.is_two_clique) == (
            g.n, g.pairs, g.is_pair_graph, g.is_two_clique
        )
        assert k.cliques == g.cliques and k.shared == g.shared
        assert k.vertex_set == g.vertex_set and k.vertices == g.vertices
        assert efl_to_decomposition(k) == efl_to_decomposition(g)
        other = graph_from_json(
            graph_to_json(mixed_graph(n, random.Random(seed + 7)))
        )
        assert (k == other) == (g.cliques == other.cliques)


def test_keyed_graphs_are_written_as_object_graphs_are():
    for n, _, g in mixed_graphs((3, 5, 8, 13, 21, 34, 40), range(2)):
        want = dumps(graph_to_json(g))
        assert text(g) == want
        k = graph_from_json(json.loads(want))
        assert text(k) == want
        # and the graph of the packing itself, built from its cliques
        d = efl_to_decomposition(g)
        packed = decomposition_to_efl(d)
        assert not packed.is_pair_graph
        objects = validate(packed.cliques, n)
        assert text(packed) == text(objects) == dumps(graph_to_json(objects))


def test_keyed_graphs_of_packings_round_trip():
    for n in (4, 9, 16, 30):
        d = validate_decomposition(
            complete_host(n), triangle_packing(n, random.Random(n))
        )
        g = decomposition_to_efl(d)
        assert not g.is_pair_graph and not g.is_two_clique
        back = graph_from_json(json.loads(text(g)))
        assert back == g and hash(back) == hash(g)
        assert (back.named_pairs, back.labels, back.label_cliques) == (
            g.named_pairs, g.labels, g.label_cliques
        )
        assert efl_to_decomposition(back) == d


def test_no_graph_holds_vertex_objects_until_read():
    hub = GeneralVertex(0)
    packing = validate_decomposition(
        complete_host(9), triangle_packing(9, random.Random(9))
    )
    graphs = [
        validate(build_maximal(4).cliques, 4),
        validate([{hub, GeneralVertex(1), GeneralVertex(2)},
                  {hub, GeneralVertex(3), GeneralVertex(4)},
                  {hub, GeneralVertex(5), GeneralVertex(6)}], 3),
        validate_keys([{(2, 0), (2, 1), (2, 2)}, {(2, 0), (2, 3), (2, 4)},
                       {(2, 0), (2, 5), (2, 6)}], 3),
        validate_keys([{(0, 1, 2), (1, 1, 1)}, {(0, 1, 2), (1, 2, 1)}], 2),
        build_maximal(5),
        build_from_pairs(5, [(1, 2), (3, 4)]),
        decomposition_to_efl(efl_to_decomposition(build_maximal(5))),
        decomposition_to_efl(packing),
        graph_from_json({"n": 3, "shared_pairs": [[1, 2]]}),
        graph_from_json(graph_to_json(decomposition_to_efl(packing))),
    ]
    for g in graphs:
        assert isinstance(g, EflGraph)
        assert "cliques" not in vars(g)
        assert len(g.cliques) == g.n
        assert "cliques" in vars(g)


def test_a_graph_with_a_general_label_is_held_as_two_sorted_lists():
    # G_300 with the pair (1, 2) named as general label 7: the graph holds
    # its 44,849 pairs and one label with its cliques, and nothing per key
    n = 300

    def cliques():
        for c in range(1, n + 1):
            q = [(0, min(c, d), max(c, d)) for d in range(1, n + 1) if d != c]
            yield [(2, 7) if k == (0, 1, 2) else k for k in q] + [(1, c, 1)]

    tracemalloc.start()
    try:
        g = validate_keys(cliques(), n)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert isinstance(g, EflGraph) and not g.is_pair_graph
    assert g.is_two_clique and len(g.pairs) == n * (n - 1) // 2
    assert held < 4 * 2**20, held


def _is_vertex(v) -> bool:
    """Whether v is well formed enough for a corruption to edit."""
    return (isinstance(v, list) and len(v) == (2 if v[:1] == ["general"]
                                               else 3)
            and v[0] in ("shared", "unshared", "general"))


def _pick(doc, rng, tag=None):
    """A random (clique, position) whose vertex has the tag, or None."""
    spots = [(a, b) for a, q in enumerate(doc["cliques"])
             if isinstance(q, list) for b, v in enumerate(q)
             if _is_vertex(v) and tag in (None, v[0])]
    return rng.choice(spots) if spots else None


def _bad_encoding(v, rng):
    tag, *fields = v
    return rng.choice([
        ["pair", *fields], ["Shared", 1, 2],  # unknown tags
        [tag, *fields[:-1], str(fields[-1])], [tag, *fields[:-1], 1.0],
        [tag, *fields[:-1], True], [tag, *fields[:-1], None],
        [tag, *fields[:-1], [fields[-1]]],  # fields that are not integers
        ["shared", 5, 5], ["shared", 6, 2], ["shared", 0, 3],
        ["unshared", 2, 0], ["unshared", 0, 1], ["unshared", -1, 4],
        ["shared", 1], ["shared", 1, 2, 3], ["unshared", 1],
        ["general"], ["general", 1, 2],  # wrong arity
        "shared", 7, {"shared": [1, 2]}, None, [],  # not vertex lists
        [1, 2, 3], [None, 1], [["shared"], 1, 2],  # tags that are not str
    ])


def corrupt(doc, n, rng):
    """One seeded corruption of a "cliques" document of a graph of order
    n, in place."""
    cliques = doc["cliques"]
    kind = rng.randrange(13)
    lists = [a for a, q in enumerate(cliques) if isinstance(q, list)]
    if not lists:
        return
    a = rng.choice(lists)
    if kind == 0:
        doc["n"] = rng.choice([1, 0, -3, 2049, n + 1, n - 1])
    elif kind == 1:
        if rng.random() < 0.5:
            del cliques[a]
        else:
            cliques.insert(rng.randrange(n + 1), list(cliques[a]))
    elif kind == 2 and cliques[a]:
        q = cliques[a]
        if rng.random() < 0.5:
            del q[rng.randrange(len(q))]
        else:
            q[rng.randrange(len(q))] = list(rng.choice(q))
    elif kind == 3:
        b = rng.choice(lists)
        mine = [v for v in cliques[a] if _is_vertex(v)]
        theirs = [v for v in cliques[b] if _is_vertex(v) and v not in mine]
        rng.shuffle(theirs)
        for v in theirs[:2]:
            cliques[a][rng.randrange(len(cliques[a]))] = list(v)
    elif kind == 4:
        spot = _pick(doc, rng, "shared")
        if spot:
            v = cliques[spot[0]][spot[1]]
            v[2] = rng.choice([v[1] + 1, v[2] + 1, n, n + 3])
    elif kind == 5:
        spot = _pick(doc, rng, "unshared")
        if spot:
            cliques[spot[0]][spot[1]][1] = rng.randint(1, n + 1)
    elif kind == 6:
        spot = _pick(doc, rng, "unshared")
        if spot:
            cliques[spot[0]][spot[1]][2] = rng.randint(1, n + 2)
    elif kind == 7:
        # two slots of one clique swap numbers: still valid
        slots = [v for v in cliques[a] if _is_vertex(v)
                 and v[0] == "unshared"]
        if len(slots) > 1:
            u, w = rng.sample(slots, 2)
            u[2], w[2] = w[2], u[2]
    elif kind == 8:
        # a general vertex relabeled wherever it lies: still valid
        spot = _pick(doc, rng, "general")
        if spot:
            old = list(cliques[spot[0]][spot[1]])
            new = ["general", rng.randint(-5, 10**6)]
            for q in map(cliques.__getitem__, lists):
                for t, v in enumerate(q):
                    if v == old:
                        q[t] = list(new)
    elif kind == 9:
        spot = _pick(doc, rng)
        if spot:
            v = cliques[spot[0]][spot[1]]
            cliques[spot[0]][spot[1]] = _bad_encoding(v, rng)
    elif kind == 10:
        cliques[a] = rng.choice([{"a": 1}, "clique", 3, None])
    elif kind == 11:
        doc["cliques"] = rng.choice([{}, "cliques", 5])
    else:
        rng.shuffle(cliques[a])  # order inside a clique does not matter


# every message the readers give, one fragment per rule or encoding error
MESSAGES = (
    "n must be", "cliques, got", "vertices, expected", "share",
    "lies in cliques",
    "unshared slot", "unknown vertex tag", "not an integer",
    "needs 1 <= i < j", "needs clique >= 1 and slot >= 1",
    "positional argument", "bad vertex encoding: ", '"cliques" must be',
)


def test_seeded_corruptions_match_the_object_path():
    seen = Counter()
    for n, seed, g in mixed_graphs((3, 4, 5, 6, 8, 11, 16), range(6)):
        rng = random.Random(seed)
        clean = {"n": n, "cliques": graph_to_json(g)["cliques"]}
        for _ in range(24):
            doc = copy.deepcopy(clean)
            for _ in range(rng.choice([1, 1, 2, 3])):
                if isinstance(doc["cliques"], list) and doc["cliques"]:
                    corrupt(doc, n, rng)
            want = outcome(reference_graph_from_json, doc)
            got = outcome(graph_from_json, doc)
            assert got == want, (doc, want)
            if isinstance(want, EflGraph):
                seen["graph"] += 1
                assert text(got) == text(want)
            else:
                seen.update(m for m in MESSAGES if m in want)
    assert set(seen) == {"graph", *MESSAGES}, seen


class _Clique(list):
    """A clique's vertex keys, in a list a weak reference can watch."""

    __slots__ = ("__weakref__",)


def streamed(cliques):
    """Yields the vertex keys of each clique in a fresh list, first
    checking that the one before is no longer held: the rule scan keeps
    no clique it has taken."""
    last = type(None)  # a dead reference
    for q in cliques:
        assert last() is None, "a scanned clique is still held"
        keys = _Clique(map(vertex_key, q))
        last = weakref.ref(keys)
        yield keys
        del keys


def _mutated(g, rng):
    """The cliques of g as vertex lists, changed in one to three seeded
    ways."""
    n = g.n
    qs = [sorted(q, key=vertex_key) for q in g.cliques]
    for _ in range(rng.choice([1, 1, 2, 3])):
        kind = rng.randrange(6)
        a = rng.randrange(len(qs))
        q = qs[a]
        if kind == 0 and q:
            # a slot renamed, mostly to another clique, or past its range
            slots = [t for t, v in enumerate(q) if type(v) is UnsharedVertex]
            if slots:
                c = a + 1 if rng.random() < 0.25 else rng.choice(
                    [c for c in range(1, n + 2) if c != a + 1])
                q[rng.choice(slots)] = UnsharedVertex(c, rng.randint(1, n))
        elif kind == 1:
            # a shared key copied into a third clique, in place of a
            # vertex or beside them
            shared = [v for q in qs for v in q if type(v) is SharedVertex]
            if shared:
                v = rng.choice(shared)
                third = [b for b in range(len(qs))
                         if b + 1 not in (v.i, v.j) and qs[b]]
                if third:
                    q = qs[rng.choice(third)]
                    if rng.random() < 0.8:
                        q[rng.randrange(len(q))] = v
                    else:
                        q.append(v)
        elif kind == 2 and q:  # a clique shortened
            del q[rng.randrange(len(q))]
        elif kind == 3 and q:  # a vertex repeated in place of another
            q[rng.randrange(len(q))] = rng.choice(q)
        elif kind == 4:
            # a general label shared by two cliques that already meet
            meets = [(x, y) for x, y in combinations(range(len(qs)), 2)
                     if set(qs[x]) & set(qs[y])]
            if meets:
                label = GeneralVertex(10**6 + rng.randrange(3))
                for c in rng.choice(meets):
                    qs[c][rng.randrange(len(qs[c]))] = label
        else:  # a clique dropped or repeated
            if rng.random() < 0.5:
                del qs[a]
            else:
                qs.insert(rng.randrange(len(qs) + 1), list(q))
    return qs


@pytest.mark.parametrize("seed", range(3))
def test_streaming_scan_matches_the_pairwise_oracle(seed):
    seen = Counter()
    for n, _, g in mixed_graphs((3, 4, 5, 7, 10), [seed]):
        rng = random.Random(100 * seed + n)
        for _ in range(80):
            cliques = _mutated(g, rng)
            want = reference_validate(cliques, n)
            # the same rule, message and detail, or equal graphs
            assert validate_keys(streamed(cliques), n) == want, cliques
            assert validate(cliques, n) == want
            seen[want.rule if isinstance(want, Rejection) else "graph"] += 1
    assert set(seen) == {
        "graph", "clique-count", "clique-order", "pairwise-intersection",
        "identity", "slot-range",
    }, seen


def test_streaming_scan_matches_the_oracle_on_corpus_documents():
    read = 0
    for path in sorted(CORPUS.rglob("*")):
        if path.suffix not in (".json", ".stdout"):
            continue
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
            n, cliques = doc["n"], doc["cliques"]
            cliques = [[vertex_from_json(v) for v in q] for q in cliques]
        except (ValueError, KeyError, TypeError):
            continue  # no clique list of vertices
        want = reference_validate(cliques, n)
        assert validate_keys(streamed(cliques), n) == want, path.name
        read += 1
    assert read >= 20


def test_shared_pairs_must_be_the_pairs_of_the_cliques():
    g = mixed_graph(7, random.Random(5))
    doc = graph_to_json(g)
    assert len(doc["shared_pairs"]) > 2
    shuffled = copy.deepcopy(doc)
    random.Random(1).shuffle(shuffled["shared_pairs"])
    assert graph_from_json(shuffled) == g
    # null is no "shared_pairs"
    assert graph_from_json({**copy.deepcopy(doc), "shared_pairs": None}) == g
    first, *rest = doc["shared_pairs"]
    other = next(list(p) for p in combinations(range(1, 8), 2)
                 if list(p) not in doc["shared_pairs"])
    for pairs, odd, listed, given in [
        (rest, first, 0, 1),
        ([first, first, *rest], first, 2, 1),
        ([other, *doc["shared_pairs"]], other, 1, 0),
    ]:
        with pytest.raises(FormatError) as e:
            graph_from_json({**copy.deepcopy(doc), "shared_pairs": pairs})
        assert str(e.value) == (
            'invalid graph: "shared_pairs" does not match the cliques at '
            f"{odd}: listed {listed}, in the cliques {given}"
        )
    with pytest.raises(FormatError, match="must be \\[i, j\\] integer pairs"):
        graph_from_json({**copy.deepcopy(doc), "shared_pairs": [[1]]})
    # a general vertex in three cliques is no pair
    three = [[["general", 7], ["unshared", c, 1], ["unshared", c, 2]]
             for c in (1, 2, 3)]
    with pytest.raises(FormatError, match="at \\[2, 3\\]: listed 1, in the "
                       "cliques 0"):
        graph_from_json({"n": 3, "shared_pairs": [[2, 3]], "cliques": three})


@pytest.fixture
def vertex_constructions(monkeypatch):
    """Counts each vertex object built while the test runs, by type."""
    made = Counter()
    for cls in (SharedVertex, UnsharedVertex, GeneralVertex):
        def counted(self, *args, _init=cls.__init__, _name=cls.__name__):
            made[_name] += 1
            _init(self, *args)
        monkeypatch.setattr(cls, "__init__", counted)
    return made


def test_to_efl_and_decompose_build_no_vertex_object(
    tmp_path, vertex_constructions
):
    efl, back = tmp_path / "efl.json", tmp_path / "back.json"
    packing = str(CORPUS / "inputs" / "k30_mixed.json")
    assert main(["to-efl", "--in", packing, "--out", str(efl)]) == 0
    assert main(["decompose", "--in", str(efl), "--out", str(back)]) == 0
    assert vertex_constructions == {}
    assert back.read_text() == (
        CORPUS / "decompose_k30_mixed.stdout"
    ).read_text()
    # the count is live: reading the vertices builds them
    graph_from_json(json.loads(efl.read_text())).cliques
    assert vertex_constructions["GeneralVertex"] > 0
    assert vertex_constructions["SharedVertex"] > 0


def _decomposition_corruptions(n, rng):
    """(host, cliques) of a seeded triangle packing of K_n, changed in one
    or two random ways."""
    cliques = [list(c) for c in triangle_packing(n, rng)]
    edges = set(combinations(range(1, n + 1), 2))
    for _ in range(rng.choice([1, 1, 2])):
        if not cliques:
            break
        kind = rng.randrange(8)
        c = rng.choice(cliques)
        if kind == 0:
            c.append(rng.choice(c))  # a repeated vertex
        elif kind == 1:
            del c[rng.randrange(len(c))]  # undersized, or edges uncovered
        elif kind == 2:
            c[rng.randrange(len(c))] = rng.choice([0, -1, n + 1, n + 5])
        elif kind == 3:
            cliques.remove(c)  # its edges uncovered
        elif kind == 4:
            cliques.append(list(c))  # its edges covered twice
        elif kind == 5 and edges:
            edges.discard(rng.choice(sorted(edges)))  # a non-edge
        elif kind == 6:
            size = rng.randint(2, min(n, 3))
            cliques.append(rng.sample(range(1, n + 1), size))
        else:
            rng.shuffle(c)
    return HostGraph(n, frozenset(edges)), cliques


def test_validate_decomposition_matches_tuple_edges():
    seen = Counter()
    for n in range(2, 14):
        rng = random.Random(n)
        for _ in range(40):
            host, cliques = _decomposition_corruptions(n, rng)
            want = reference_validate_decomposition(host, cliques)
            assert validate_decomposition(host, cliques) == want
            assert validate_decomposition(
                host, (iter(c) for c in cliques)
            ) == want
            seen[want.rule if isinstance(want, Rejection) else "valid"] += 1
    assert set(seen) == {
        "valid", "clique-vertices", "clique-size", "vertex-range",
        "not-a-clique", "edge-covered-twice", "edge-uncovered",
    }, seen


def test_validate_decomposition_keeps_non_int_vertices_as_tuples():
    # 2.0 and True equal the ints 2 and 1, as in host.edges; 1.5 is no vertex
    for host, cliques in [
        (complete_host(3), [(1, 2.0), (1, 3), (2, 3)]),
        (complete_host(3), [(True, 2), (1, 3), (2, 3)]),
        (complete_host(3), [(1, 1.5), (1, 2), (1, 3), (2, 3)]),
        (HostGraph(3, frozenset({(1, 2.0), (2, 3)})), [(1, 2), (2, 3)]),
    ]:
        assert validate_decomposition(host, cliques) == \
            reference_validate_decomposition(host, cliques)
