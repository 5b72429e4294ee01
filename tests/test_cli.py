import json
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

from eflcolor import cli, coloring, solver
from eflcolor.chunked import read_graph, read_vertex_coloring
from eflcolor.cli import main
from eflcolor.core import build_maximal
from eflcolor.coloring import FullColoring, color_shared
from eflcolor.serialize import (
    coloring_to_json,
    decomposition_to_json,
    dumps,
    graph_to_json,
)
from eflcolor.decomposition import (
    complete_host,
    decomposition_to_efl,
    efl_to_decomposition,
    validate_decomposition,
)
from helpers import FANO_TRIANGLES, complete_with_triangle

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).resolve().parent.parent / "src"


def write(tmp_path, name, data) -> str:
    path = tmp_path / name
    path.write_text(dumps(data) if not isinstance(data, str) else data)
    return str(path)


def read_json(path: str):
    return json.loads(Path(path).read_text())


class TestGen:
    def test_maximal_g10(self, tmp_path, capsys):
        out = str(tmp_path / "g10.json")
        assert main(["gen", "--n", "10", "--pairs", "all", "--out", out]) == 0
        data = read_json(out)
        assert data["n"] == 10
        assert len(data["shared_pairs"]) == 45

    def test_degenerate_order_exits_2(self, capsys):
        assert main(["gen", "--n", "1", "--pairs", "all"]) == 2
        assert ">= 2" in capsys.readouterr().err

    def test_pairs_file(self, tmp_path, capsys):
        pairs = write(tmp_path, "pairs.json", [[1, 2]])
        assert main(["gen", "--n", "4", "--pairs", pairs]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data == {"n": 4, "shared_pairs": [[1, 2]]}

    def test_bad_pairs_file_exits_2(self, tmp_path, capsys):
        pairs = write(tmp_path, "pairs.json", [[1, 9]])
        assert main(["gen", "--n", "4", "--pairs", pairs]) == 2


class TestColor:
    def test_g10_matches_golden_fixture(self, tmp_path, capsys):
        graph = write(tmp_path, "g.json", graph_to_json(build_maximal(10)))
        assert main(["color", "--in", graph]) == 0
        got = json.loads(capsys.readouterr().out)
        golden = read_json(FIXTURES / "g10_shared_coloring.json")
        assert got["palette"] == golden["palette"]
        got_map = {tuple(e["vertex"]): e["color"] for e in got["assignments"]}
        for entry in golden["assignments"]:
            assert got_map[tuple(entry["vertex"])] == entry["color"]

    def test_odd_order_palette(self, tmp_path, capsys):
        graph = write(tmp_path, "g.json", graph_to_json(build_maximal(9)))
        assert main(["color", "--in", graph]) == 0
        assert json.loads(capsys.readouterr().out)["palette"] == 9

    def test_extend_uses_n_colors(self, tmp_path, capsys):
        graph = write(tmp_path, "g.json", graph_to_json(build_maximal(4)))
        assert main(["color", "--in", graph, "--extend"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["palette"] == 4
        assert len(data["assignments"]) == 10

    def test_hub_graph_exits_3(self, tmp_path, capsys):
        data = {
            "n": 3,
            "host_edges": "complete",
            "cliques": [[1, 2, 3]],
        }
        dfile = write(tmp_path, "d.json", data)
        gfile = str(tmp_path / "hub.json")
        assert main(["to-efl", "--in", dfile, "--out", gfile]) == 0
        assert main(["color", "--in", gfile]) == 3
        assert "`chromatic --in FILE --out W`" in capsys.readouterr().err
        # which writes a coloring that verify accepts
        witness = str(tmp_path / "w.json")
        assert main(["chromatic", "--in", gfile, "--out", witness]) == 0
        assert main(["verify", "--graph", gfile, "--coloring", witness]) == 0
        assert capsys.readouterr().out == "3\nproper\n"


class TestVerify:
    def test_golden_coloring_is_proper(self, tmp_path):
        graph = write(tmp_path, "g.json", graph_to_json(build_maximal(10)))
        rc = main([
            "verify", "--graph", graph,
            "--coloring", str(FIXTURES / "g10_shared_coloring.json"),
        ])
        assert rc == 0

    def test_monochromatic_coloring_exits_1(self, tmp_path, capsys):
        g = build_maximal(3)
        graph = write(tmp_path, "g.json", graph_to_json(g))
        bad = {
            "palette": 3,
            "assignments": [
                {"vertex": ["shared", 1, 2], "color": 1},
                {"vertex": ["shared", 1, 3], "color": 1},
                {"vertex": ["shared", 2, 3], "color": 1},
            ],
        }
        coloring = write(tmp_path, "c.json", bad)
        assert main(["verify", "--graph", graph, "--coloring", coloring]) == 1
        out = capsys.readouterr().out
        assert "improper" in out

    def test_truncated_json_exits_2(self, tmp_path, capsys):
        graph = write(tmp_path, "g.json", graph_to_json(build_maximal(3)))
        broken = tmp_path / "c.json"
        broken.write_text('{"palette": 3, "assignments": [')
        assert main(["verify", "--graph", graph, "--coloring", str(broken)]) == 2

    def test_missing_file_exits_2(self, tmp_path):
        graph = write(tmp_path, "g.json", graph_to_json(build_maximal(3)))
        assert main(["verify", "--graph", graph, "--coloring", "/nope.json"]) == 2

    def test_decomposition_coloring(self, tmp_path):
        d = efl_to_decomposition(build_maximal(3))
        dfile = write(tmp_path, "d.json", decomposition_to_json(d))
        good = write(tmp_path, "good.json", {
            "palette": 3,
            "assignments": [
                {"clique": 1, "color": 1},
                {"clique": 2, "color": 2},
                {"clique": 3, "color": 3},
            ],
        })
        bad = write(tmp_path, "bad.json", {
            "palette": 3,
            "assignments": [
                {"clique": 1, "color": 1},
                {"clique": 2, "color": 1},
                {"clique": 3, "color": 2},
            ],
        })
        assert main(["verify", "--graph", dfile, "--coloring", good]) == 0
        assert main(["verify", "--graph", dfile, "--coloring", bad]) == 1

    def test_kind_mismatch_exits_2(self, tmp_path):
        graph = write(tmp_path, "g.json", graph_to_json(build_maximal(3)))
        clique_coloring = write(tmp_path, "c.json", {
            "palette": 3,
            "assignments": [{"clique": 1, "color": 1}],
        })
        assert main([
            "verify", "--graph", graph, "--coloring", clique_coloring
        ]) == 2

    def test_colors_outside_the_palette_exit_2(self, tmp_path, capsys):
        graph = write(tmp_path, "g.json", graph_to_json(build_maximal(4)))
        pairs = [(1, 2), (1, 3), (1, 4), (2, 3)]
        coloring = write(tmp_path, "c.json", {
            "palette": 1,
            "assignments": [
                {"vertex": ["shared", i, j], "color": 100 * k}
                for k, (i, j) in enumerate(pairs, start=1)
            ],
        })
        assert main(["verify", "--graph", graph, "--coloring", coloring]) == 2
        assert capsys.readouterr() == (
            "", "error: vertex SharedVertex(i=1, j=2) has color 100 "
            "outside 1..1\n",
        )

    def test_edgeless_decomposition_takes_an_empty_coloring(
        self, tmp_path, capsys
    ):
        d = write(tmp_path, "d.json",
                  {"n": 3, "host_edges": [], "cliques": []})
        empty = write(tmp_path, "c.json", {"palette": 0, "assignments": []})
        assert main(["verify", "--graph", d, "--coloring", empty]) == 0
        assert capsys.readouterr().out == "proper\n"
        # an EFL graph reads the empty list as a vertex coloring, as before
        graph = write(tmp_path, "g.json", graph_to_json(build_maximal(3)))
        assert main(["verify", "--graph", graph, "--coloring", empty]) == 0
        assert capsys.readouterr().out == "proper\n"

    @pytest.mark.parametrize("assignments", [5, {"clique": 1}])
    def test_assignments_that_are_not_a_list_exit_2(
        self, tmp_path, capsys, assignments
    ):
        # an input error for either kind, never an internal error
        coloring = write(tmp_path, "c.json",
                         {"palette": 1, "assignments": assignments})
        graph = write(tmp_path, "g.json", graph_to_json(build_maximal(3)))
        d = write(tmp_path, "d.json",
                  decomposition_to_json(efl_to_decomposition(build_maximal(3))))
        assert main(["verify", "--graph", graph, "--coloring", coloring]) == 2
        assert capsys.readouterr().err == (
            'error: coloring JSON needs an "assignments" list\n'
        )
        assert main(["verify", "--graph", d, "--coloring", coloring]) == 2
        assert "needs a clique-keyed coloring" in capsys.readouterr().err

    def test_color_pipes_into_verify(self, tmp_path):
        import random
        from itertools import combinations

        from eflcolor.core import build_from_pairs

        rng = random.Random(97)
        graphs = [build_maximal(8), build_maximal(9)]
        for _ in range(8):
            n = rng.randint(2, 40)
            universe = list(combinations(range(1, n + 1), 2))
            pairs = rng.sample(universe, rng.randint(0, len(universe)))
            graphs.append(build_from_pairs(n, pairs))
        for idx, g in enumerate(graphs):
            graph = write(tmp_path, f"g{idx}.json", graph_to_json(g))
            coloring = str(tmp_path / f"c{idx}.json")
            assert main(["color", "--in", graph, "--out", coloring]) == 0
            assert main(["verify", "--graph", graph, "--coloring", coloring]) == 0
            full = str(tmp_path / f"full{idx}.json")
            assert main(["color", "--in", graph, "--extend", "--out", full]) == 0
            assert main(["verify", "--graph", graph, "--coloring", full]) == 0


class TestChromatic:
    def test_g4(self, tmp_path, capsys):
        graph = write(tmp_path, "g.json", graph_to_json(build_maximal(4)))
        witness = str(tmp_path / "w.json")
        assert main(["chromatic", "--in", graph, "--out", witness]) == 0
        assert capsys.readouterr().out.strip() == "4"
        data = read_json(witness)
        assert data["palette"] == 4
        assert main(["verify", "--graph", graph, "--coloring", witness]) == 0

    def test_budget_exits_4(self, tmp_path, capsys):
        # the Fano EFL graph is not two-clique, so it is searched
        fano = validate_decomposition(complete_host(7), FANO_TRIANGLES)
        g = decomposition_to_efl(fano)
        graph = write(tmp_path, "g.json", graph_to_json(g))
        assert main([
            "chromatic", "--in", graph, "--node-limit", "2"
        ]) == 4

    def test_search_deeper_than_recursion_limit(self, tmp_path, capsys):
        # K_46's edges with one triangle: the search on its 1,033 cliques
        # holds one frame per colored clique, deeper than the recursion
        # limit that a recursive engine would raise RecursionError at
        g = complete_with_triangle(46)
        assert len(efl_to_decomposition(g).cliques) == 1033
        graph = write(tmp_path, "g.json", graph_to_json(g))
        assert main(["chromatic", "--in", graph]) == 0
        out = capsys.readouterr()
        assert out.out == "46\n"
        assert "nodes explored: 1633" in out.err


class TestDecomposeAndBack:
    def test_round_trip_through_files(self, tmp_path):
        g = build_maximal(6)
        graph = write(tmp_path, "g.json", graph_to_json(g))
        dfile = str(tmp_path / "d.json")
        back = str(tmp_path / "back.json")
        assert main(["decompose", "--in", graph, "--out", dfile]) == 0
        data = read_json(dfile)
        assert data["host_edges"] == "complete"
        assert all(len(c) == 2 for c in data["cliques"])
        assert main(["to-efl", "--in", dfile, "--out", back]) == 0
        assert read_json(back) == read_json(graph)

    def test_vertex_in_n_cliques_fails_validation(self, tmp_path, capsys):
        # host vertex 1 lies in all 3 cliques: that needs 3 edges at it,
        # more than K_3 has, so an edge is covered twice
        d = write(tmp_path, "d.json", {
            "n": 3, "host_edges": "complete",
            "cliques": [[1, 2], [1, 3], [1, 2, 3]],
        })
        assert main(["to-efl", "--in", d]) == 2
        assert capsys.readouterr().err == (
            "error: invalid decomposition: edge (1, 2) belongs to two "
            "cliques\n"
        )


class TestSweep:
    def test_n3_r3_report(self, tmp_path, capsys):
        assert main(["sweep", "--n", "3", "--r", "3"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["n"] == 3 and data["r"] == 3
        assert data["instances"] == 2
        assert data["colorable"] == 2
        assert data["not_colorable"] == []

    def test_budget_exits_4(self, capsys):
        # first fit, or the closed form for K_6's edges, colors 219 of the
        # instances of (6, 3) before any search; the other 52, each with
        # a triangle, are searched
        assert main([
            "sweep", "--n", "6", "--r", "3", "--node-limit", "1"
        ]) == 4
        data = json.loads(capsys.readouterr().out)
        assert data["budget_exhausted"]


class TestInternalError:
    """A result that fails eflcolor's own check, or any other unexpected
    exception, exits 5 with one stderr line, never 1 or a traceback."""

    @pytest.fixture
    def graph(self, tmp_path):
        return write(tmp_path, "g.json", graph_to_json(build_maximal(5)))

    def expect_internal(self, argv, capsys, kind):
        assert main(argv) == 5
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith(f"internal error: {kind}: ")
        assert out.err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv", [["color"], ["color", "--extend"], ["chromatic"]]
    )
    def test_broken_pair_color(self, graph, monkeypatch, capsys, argv):
        # color and chromatic both read the closed form through pair_colors
        monkeypatch.setattr(coloring, "pair_color", lambda n, i, j: 1)
        self.expect_internal(
            [argv[0], "--in", graph, *argv[1:]], capsys, "AssertionError"
        )

    @pytest.mark.parametrize(
        "module,name,argv",
        [(cli, "extend_to_full", ["color", "--extend"]),
         (solver, "_fill", ["chromatic"])],
        ids=["color", "chromatic"],
    )
    def test_monochromatic_extension(
        self, graph, monkeypatch, capsys, module, name, argv
    ):
        def monochromatic(g, *_):
            return FullColoring(g.n, {v: 1 for v in g.vertex_set})

        monkeypatch.setattr(module, name, monochromatic)
        self.expect_internal(
            [argv[0], "--in", graph, *argv[1:]], capsys, "AssertionError"
        )

    def test_unexpected_exception(self, graph, monkeypatch, capsys):
        def broken(g):
            raise KeyError("lost clique")

        monkeypatch.setattr(cli, "efl_to_decomposition", broken)
        self.expect_internal(
            ["decompose", "--in", graph], capsys, "KeyError"
        )


class TestOutput:
    """Output is streamed to --out or stdout; an --out that cannot be
    opened or written is an input error, exit 2, like an unreadable --in."""

    def test_missing_directory_exits_2(self, tmp_path, capsys):
        out = str(tmp_path / "no" / "such" / "x.json")
        assert main(["gen", "--n", "3", "--pairs", "all", "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: ")
        assert err.count("\n") == 1

    def test_directory_exits_2(self, tmp_path, capsys):
        argv = ["sweep", "--n", "4", "--r", "3", "--out", str(tmp_path)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(
            f"error: cannot write {tmp_path}: "
        )

    @pytest.mark.skipif(
        not Path("/dev/full").exists(), reason="needs a full device"
    )
    def test_full_device_mid_write_exits_2(self, capsys):
        # opening succeeds; the writes fail with ENOSPC
        argv = ["gen", "--n", "40", "--pairs", "all", "--out", "/dev/full"]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(
            "error: cannot write /dev/full: [Errno 28]"
        )

    @pytest.mark.parametrize("command", ["gen", "decompose", "color"])
    def test_stdout_matches_the_out_file(self, tmp_path, capsys, command):
        graph = write(tmp_path, "g.json", graph_to_json(build_maximal(9)))
        argv = {
            "gen": ["gen", "--n", "9", "--pairs", "all"],
            "decompose": ["decompose", "--in", graph],
            "color": ["color", "--in", graph, "--extend"],
        }[command]
        out = tmp_path / "out.json"
        assert main(argv) == 0
        printed = capsys.readouterr().out
        assert main([*argv, "--out", str(out)]) == 0
        assert out.read_text() == printed

    def test_failed_recheck_opens_no_file(
        self, tmp_path, monkeypatch, capsys
    ):
        graph = write(tmp_path, "g.json", graph_to_json(build_maximal(5)))
        monkeypatch.setattr(coloring, "pair_color", lambda n, i, j: 1)
        out = tmp_path / "c.json"
        assert main(["color", "--in", graph, "--out", str(out)]) == 5
        assert not out.exists()


class TestExportDot:
    def test_host_view_from_graph(self, tmp_path, capsys):
        graph = write(tmp_path, "g.json", graph_to_json(build_maximal(3)))
        assert main(["export-dot", "--in", graph]) == 0
        out = capsys.readouterr().out
        assert out.startswith("graph host {")
        assert "1 -- 2;" in out

    def test_intersection_view_from_decomposition(self, tmp_path, capsys):
        d = efl_to_decomposition(build_maximal(3))
        dfile = write(tmp_path, "d.json", decomposition_to_json(d))
        assert main([
            "export-dot", "--in", dfile, "--view", "intersection"
        ]) == 0
        out = capsys.readouterr().out
        assert out.startswith("graph intersection {")
        assert 'label="D1: 1,2"' in out


class TestRoundTrips:
    def test_cli_artifacts_reparse(self, tmp_path, capsys):
        g = build_maximal(7)
        graph = write(tmp_path, "g.json", graph_to_json(g))
        coloring = str(tmp_path / "c.json")
        main(["color", "--in", graph, "--out", coloring])
        reparsed = read_json(coloring)
        assert reparsed == coloring_to_json(color_shared(g))


BAD_GRAPH = {"n": 3, "cliques": [5, 6, 7]}
BAD_DECOMPOSITIONS = [
    {"n": 3, "host_edges": "complete", "cliques": [5]},
    {"n": 3, "host_edges": "complete", "cliques": [[1, None]]},
]


def _malformed_argv(tmp_path, command, data):
    infile = write(tmp_path, "in.json", data)
    if command == "verify":
        coloring = write(tmp_path, "c.json", {"palette": 3, "assignments": []})
        return ["verify", "--graph", infile, "--coloring", coloring]
    return [command, "--in", infile]


class TestMalformedCliqueEntries:
    """A clique entry that is not a list of vertices is an input error
    (exit 2), never a crash read as "improper" (exit 1)."""

    @pytest.mark.parametrize(
        "command", ["color", "decompose", "verify", "chromatic", "export-dot"]
    )
    def test_graph_exits_2(self, tmp_path, capsys, command):
        assert main(_malformed_argv(tmp_path, command, BAD_GRAPH)) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: ")

    @pytest.mark.parametrize("data", BAD_DECOMPOSITIONS)
    @pytest.mark.parametrize("command", ["to-efl", "export-dot", "verify"])
    def test_decomposition_exits_2(self, tmp_path, capsys, command, data):
        assert main(_malformed_argv(tmp_path, command, data)) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: ")


class TestClosedStdout:
    """A reader that stops early ends the output quietly: exit 141, as a
    shell reports a process ended by SIGPIPE, and nothing on stderr, not
    even from the interpreter's flush at exit."""

    @pytest.mark.parametrize("command", ["gen", "color"])
    def test_exits_141_quietly(self, tmp_path, command):
        # either output is far larger than a pipe's buffer
        if command == "gen":
            argv = ["gen", "--n", "300", "--pairs", "all"]
        else:
            graph = write(tmp_path, "g.json", graph_to_json(build_maximal(200)))
            argv = ["color", "--extend", "--in", graph]
        proc = subprocess.Popen(
            [sys.executable, "-m", "eflcolor", *argv],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        try:
            head = proc.stdout.read(10)
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
        assert head == (b'{\n  "n": 3' if command == "gen" else b'{\n  "palet')
        assert proc.returncode == 141
        assert err == b""


# nested deeper than json's decoder recurses
NESTED = "[" * 100_000 + "]" * 100_000


class TestNestedJson:
    """JSON nested too deeply to decode is an input error in the reader's
    usual words, on the whole-document path and on the chunked one, which
    meets it in the value of "n", in a chunk of pairs after the document's
    head passed, or in one clique of "cliques"."""

    @pytest.mark.parametrize("document", [
        f'{{"n": 3, "shared_pairs": {NESTED}}}',
        f'{{"n": 3, "shared_pairs": [{NESTED}, [1, 2]]}}',
        f'{{"n": {NESTED}, "shared_pairs": [[1, 2]]}}',
        f'{{"n": 3, "cliques": [[["shared", 1, 2]], {NESTED}]}}',
    ], ids=["whole", "chunked", "n", "clique"])
    def test_graph_exits_2(self, tmp_path, capsys, document):
        graph = write(tmp_path, "g.json", document)
        with open(graph, "rb") as fh, pytest.raises(ValueError):
            read_graph(fh)
        assert main(["color", "--in", graph]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith(
            f"error: {graph} is not valid JSON: maximum recursion depth "
        )
        assert out.err.count("\n") == 1

    @pytest.mark.parametrize("entries", [
        NESTED,
        '[{"vertex": ["shared", 1, 2], "color": %s}, '
        '{"vertex": ["shared", 1, 3], "color": 1}]' % NESTED,
    ], ids=["whole", "chunked"])
    def test_coloring_exits_2(self, tmp_path, capsys, entries):
        graph = write(tmp_path, "g.json", {"n": 3, "shared_pairs": [[1, 2]]})
        coloring = write(
            tmp_path, "c.json", f'{{"palette": 3, "assignments": {entries}}}'
        )
        with open(coloring, "rb") as fh, pytest.raises(ValueError):
            read_vertex_coloring(fh, build_maximal(3))
        assert main(["verify", "--graph", graph, "--coloring", coloring]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith(
            f"error: {coloring} is not valid JSON: maximum recursion depth "
        )
        assert out.err.count("\n") == 1
