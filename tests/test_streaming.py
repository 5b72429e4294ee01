"""Streamed output and the folding coloring reader.

Every writer yields its document in chunks that ``cli._emit`` writes as
they come, and ``verify`` reads a vertex coloring with
``serialize.fold_assignment`` as ``json.load``'s object hook, so each
well-formed entry is folded the moment it is decoded.  tracemalloc bounds
what either holds at once on G_200's full coloring, and the folded
reader is checked against the dict-at-a-time reader of ``helpers`` on
seeded malformed documents: the same coloring or the same FormatError.
"""

import json
import random
import tracemalloc

import pytest

from eflcolor import cli
from eflcolor.coloring import color_shared, extend_to_full
from eflcolor.core import build_maximal
from eflcolor.serialize import (
    FormatError,
    coloring_text,
    decomposition_coloring_from_json,
    fold_assignment,
    vertex_coloring_from_json,
)
from helpers import reference_vertex_coloring_from_json


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
