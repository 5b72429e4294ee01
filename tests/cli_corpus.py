"""The CLI byte corpus: commands whose stdout, stderr and exit code are pinned.

Each case is a name and an argv for ``eflcolor.cli.main``.  An argument
starting with "@" names a file in the corpus directory: either a
hand-written input under ``inputs/`` or ``<case>.stdout``, the pinned
stdout of an earlier case, so a chain such as gen -> color -> verify
replays every step from the pinned bytes of the step before.  The
argument ``OUT`` ("%out") names the file a case writes with ``--out``;
its bytes are pinned as ``<case>.out`` and a later case may read them as
"@<case>.out".

``python tests/cli_corpus.py`` captures the corpus into
``tests/fixtures/cli_corpus/``: one ``<case>.stdout`` per case, one
``<case>.out`` per case that writes one, plus ``manifest.json`` with the
argv, exit code and stderr of each.
``python tests/cli_corpus.py NAME ...`` recaptures only the named cases,
so a change that means to alter some outputs alters no other: every
other ``.stdout`` and manifest entry is kept byte for byte, and a name
that is not a case is refused.  Capture only on a commit whose outputs
are trusted; ``test_cli_corpus.py`` replays the manifest and requires
the same bytes.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from eflcolor.cli import main

CORPUS = Path(__file__).parent / "fixtures" / "cli_corpus"
OUT = "%out"


def _gen(n):
    return (f"gen_all_{n}", ["gen", "--n", str(n), "--pairs", "all"])


CASES = [
    *(_gen(n) for n in (2, 3, 4, 7, 10)),
    ("gen_order_1", ["gen", "--n", "1", "--pairs", "all"]),
    ("gen_pairs_6", ["gen", "--n", "6", "--pairs", "@inputs/pairs_n6.json"]),
    ("gen_pairs_duplicate",
     ["gen", "--n", "4", "--pairs", "@inputs/pairs_duplicate.json"]),
    ("gen_pairs_out_of_range",
     ["gen", "--n", "6", "--pairs", "@inputs/pairs_out_of_range.json"]),
    ("color_10", ["color", "--in", "@gen_all_10.stdout"]),
    ("color_10_extend", ["color", "--in", "@gen_all_10.stdout", "--extend"]),
    ("color_7", ["color", "--in", "@gen_all_7.stdout"]),
    ("color_7_extend", ["color", "--in", "@gen_all_7.stdout", "--extend"]),
    ("color_pairs_6_extend",
     ["color", "--in", "@gen_pairs_6.stdout", "--extend"]),
    ("color_general_pair_extend",
     ["color", "--in", "@inputs/cliques_general_pair.json", "--extend"]),
    ("color_canonical_cliques",
     ["color", "--in", "@inputs/cliques_canonical.json"]),
    ("color_two_shared",
     ["color", "--in", "@inputs/cliques_two_shared.json"]),
    ("color_bad_identity",
     ["color", "--in", "@inputs/cliques_bad_identity.json"]),
    ("color_bad_slot", ["color", "--in", "@inputs/cliques_bad_slot.json"]),
    ("verify_10",
     ["verify", "--graph", "@gen_all_10.stdout",
      "--coloring", "@color_10.stdout"]),
    ("verify_7_extend",
     ["verify", "--graph", "@gen_all_7.stdout",
      "--coloring", "@color_7_extend.stdout"]),
    ("verify_4_improper",
     ["verify", "--graph", "@gen_all_4.stdout",
      "--coloring", "@inputs/g4_coloring_all_ones.json"]),
    ("decompose_4", ["decompose", "--in", "@gen_all_4.stdout"]),
    ("decompose_7", ["decompose", "--in", "@gen_all_7.stdout"]),
    ("decompose_pairs_6", ["decompose", "--in", "@gen_pairs_6.stdout"]),
    ("decompose_general_pair",
     ["decompose", "--in", "@inputs/cliques_general_pair.json"]),
    # a host that is not complete, with a clique larger than an edge:
    # its host edges are listed from the edge set, not the cliques
    ("decompose_keyed_sparse",
     ["decompose", "--in", "@inputs/cliques_keyed_sparse.json"]),
    ("verify_k4_proper",
     ["verify", "--graph", "@decompose_4.stdout",
      "--coloring", "@inputs/k4_coloring_proper.json"]),
    ("verify_k4_clash",
     ["verify", "--graph", "@decompose_4.stdout",
      "--coloring", "@inputs/k4_coloring_clash.json"]),
    # 2-cliques and two triangles, clashing at several vertices: the
    # reported pair (1, 17) is the lexicographic first, neither the pair
    # with the least second clique, (2, 6), nor the first at the least
    # vertex, (2, 16)
    ("verify_mixed_clashes",
     ["verify", "--graph", "@inputs/k7_two_triangles.json",
      "--coloring", "@inputs/k7_two_triangles_coloring_clashes.json"]),
    ("verify_k4_palette_5",
     ["verify", "--graph", "@decompose_4.stdout",
      "--coloring", "@inputs/k4_coloring_palette5.json"]),
    ("to_efl_7", ["to-efl", "--in", "@decompose_7.stdout"]),
    ("to_efl_pairs_6", ["to-efl", "--in", "@decompose_pairs_6.stdout"]),
    ("to_efl_k5_mixed", ["to-efl", "--in", "@inputs/k5_mixed.json"]),
    ("to_efl_path", ["to-efl", "--in", "@inputs/path_host.json"]),
    ("to_efl_fano", ["to-efl", "--in", "@inputs/fano.json"]),
    ("decompose_fano", ["decompose", "--in", "@to_efl_fano.stdout"]),
    ("color_fano", ["color", "--in", "@to_efl_fano.stdout"]),
    ("decompose_k5_mixed", ["decompose", "--in", "@to_efl_k5_mixed.stdout"]),
    ("export_dot_host_7", ["export-dot", "--in", "@gen_all_7.stdout"]),
    ("export_dot_intersection_7",
     ["export-dot", "--in", "@gen_all_7.stdout", "--view", "intersection"]),
    ("export_dot_host_fano",
     ["export-dot", "--in", "@inputs/fano.json", "--view", "host"]),
    ("export_dot_intersection_fano",
     ["export-dot", "--in", "@inputs/fano.json", "--view", "intersection"]),
    ("export_dot_intersection_path",
     ["export-dot", "--in", "@inputs/path_host.json",
      "--view", "intersection"]),
    ("chromatic_4", ["chromatic", "--in", "@gen_all_4.stdout"]),
    ("chromatic_fano", ["chromatic", "--in", "@to_efl_fano.stdout"]),
    ("chromatic_fano_out",
     ["chromatic", "--in", "@to_efl_fano.stdout", "--out", OUT]),
    ("sweep_5_3", ["sweep", "--n", "5", "--r", "3"]),
    ("sweep_6_3_min_palettes",
     ["sweep", "--n", "6", "--r", "3", "--min-palettes"]),
    ("sweep_6_4", ["sweep", "--n", "6", "--r", "4"]),
    ("sweep_7_3", ["sweep", "--n", "7", "--r", "3"]),
    # certified leaves build their intersection masks for the probes
    ("sweep_6_4_min_palettes",
     ["sweep", "--n", "6", "--r", "4", "--min-palettes"]),
    # a downward probe that runs out of budget settles no minimum: exit 4
    ("sweep_6_3_min_palettes_budget",
     ["sweep", "--n", "6", "--r", "3", "--min-palettes",
      "--node-limit", "13"]),
    # indices that are strings, floats or booleans are input errors
    ("color_coerced_pairs", ["color", "--in", "@inputs/pairs_coerced.json"]),
    ("color_string_vertex",
     ["color", "--in", "@inputs/cliques_string_vertex.json"]),
    ("gen_pairs_bool",
     ["gen", "--n", "3", "--pairs", "@inputs/pairs_bool.json"]),
    ("to_efl_string_clique",
     ["to-efl", "--in", "@inputs/decomposition_string_clique.json"]),
    ("to_efl_float_edge",
     ["to-efl", "--in", "@inputs/decomposition_float_edge.json"]),
    ("verify_bool_color",
     ["verify", "--graph", "@gen_all_3.stdout",
      "--coloring", "@inputs/g3_coloring_bool.json"]),
    # orders above the limit are input errors, refused before building
    ("gen_order_above_limit", ["gen", "--n", "2049", "--pairs", "all"]),
    ("color_order_above_limit",
     ["color", "--in", "@inputs/graph_order_above_limit.json"]),
    ("chromatic_cliques_order_above_limit",
     ["chromatic", "--in", "@inputs/cliques_order_above_limit.json"]),
    ("to_efl_order_above_limit",
     ["to-efl", "--in", "@inputs/decomposition_order_above_limit.json"]),
    ("export_dot_sparse_order_above_limit",
     ["export-dot", "--in",
      "@inputs/decomposition_sparse_order_above_limit.json"]),
    # the sweep checks its order before forking any worker
    ("sweep_order_2", ["sweep", "--n", "2", "--r", "3"]),
    # ... and refuses an order above MAX_SWEEP_ORDER before enumerating
    ("sweep_order_above_limit", ["sweep", "--n", "1000", "--r", "3"]),
    # a vertex or clique assigned twice is an input error, not overwritten
    ("verify_repeated_vertex",
     ["verify", "--graph", "@gen_all_3.stdout",
      "--coloring", "@inputs/g3_coloring_repeated_vertex.json"]),
    ("verify_k4_repeated_clique",
     ["verify", "--graph", "@decompose_4.stdout",
      "--coloring", "@inputs/k4_coloring_repeated_clique.json"]),
    # verify reports, in this order: an unreadable graph, an unreadable
    # coloring, an invalid graph, a graph and coloring of different kinds,
    # then the first bad coloring entry in document order
    ("verify_missing_graph_and_coloring",
     ["verify", "--graph", "no/such/graph.json",
      "--coloring", "no/such/coloring.json"]),
    ("verify_invalid_graph_missing_coloring",
     ["verify", "--graph", "@inputs/cliques_bad_identity.json",
      "--coloring", "no/such/coloring.json"]),
    ("verify_invalid_graph_clique_keyed",
     ["verify", "--graph", "@inputs/cliques_bad_identity.json",
      "--coloring", "@inputs/k4_coloring_proper.json"]),
    ("verify_efl_clique_keyed",
     ["verify", "--graph", "@gen_all_4.stdout",
      "--coloring", "@inputs/k4_coloring_proper.json"]),
    ("verify_k4_vertex_keyed",
     ["verify", "--graph", "@decompose_4.stdout",
      "--coloring", "@inputs/g4_coloring_all_ones.json"]),
    ("verify_malformed_after_valid",
     ["verify", "--graph", "@gen_all_3.stdout",
      "--coloring", "@inputs/g3_coloring_malformed_after_valid.json"]),
    ("verify_nested_entry",
     ["verify", "--graph", "@gen_all_3.stdout",
      "--coloring", "@inputs/g3_coloring_nested_entry.json"]),
    ("verify_entry_shaped_coloring",
     ["verify", "--graph", "@gen_all_3.stdout",
      "--coloring", "@inputs/coloring_entry_shaped.json"]),
    # an --out that cannot be written is an input error, like an --in
    ("gen_out_unwritable",
     ["gen", "--n", "3", "--pairs", "all", "--out", "/no/such/dir/x.json"]),
    # a vertex color outside the palette is an input error, as a clique
    # color is; an edgeless decomposition takes the empty coloring
    ("verify_colors_outside_palette",
     ["verify", "--graph", "@gen_all_4.stdout",
      "--coloring", "@inputs/g4_coloring_outside_palette.json"]),
    ("verify_edgeless_decomposition",
     ["verify", "--graph", "@inputs/decomposition_edgeless.json",
      "--coloring", "@inputs/coloring_empty.json"]),
    ("verify_assignments_not_a_list",
     ["verify", "--graph", "@gen_all_4.stdout",
      "--coloring", "@inputs/coloring_assignments_int.json"]),
    # G_7's extended coloring changed in one way each: two colors swapped
    # inside clique 1, an unshared entry repeated, an unknown vertex
    # added, a shared vertex dropped, a color outside the palette
    ("verify_7_swapped",
     ["verify", "--graph", "@gen_all_7.stdout",
      "--coloring", "@inputs/g7_coloring_swapped.json"]),
    ("verify_7_repeated_unshared",
     ["verify", "--graph", "@gen_all_7.stdout",
      "--coloring", "@inputs/g7_coloring_repeated_unshared.json"]),
    ("verify_7_unknown_vertex",
     ["verify", "--graph", "@gen_all_7.stdout",
      "--coloring", "@inputs/g7_coloring_unknown_vertex.json"]),
    ("verify_7_dropped_vertex",
     ["verify", "--graph", "@gen_all_7.stdout",
      "--coloring", "@inputs/g7_coloring_dropped_vertex.json"]),
    ("verify_7_color_outside_palette",
     ["verify", "--graph", "@gen_all_7.stdout",
      "--coloring", "@inputs/g7_coloring_color_8.json"]),
    # a palette above the order is no n-coloring, as on the decomposition
    # side (verify_k4_palette_5)
    ("verify_4_palette_10",
     ["verify", "--graph", "@gen_all_4.stdout",
      "--coloring", "@inputs/g4_coloring_palette_10.json"]),
    # explicit clique lists that break each validate rule, in its order
    ("decompose_order_1",
     ["decompose", "--in", "@inputs/cliques_order_1.json"]),
    ("decompose_clique_count",
     ["decompose", "--in", "@inputs/cliques_wrong_count.json"]),
    # a vertex listed twice counts once, so its clique is short
    ("decompose_clique_order",
     ["decompose", "--in", "@inputs/cliques_repeated_vertex.json"]),
    ("decompose_pairwise_intersection",
     ["decompose", "--in", "@inputs/cliques_two_shared.json"]),
    ("decompose_identity",
     ["decompose", "--in", "@inputs/cliques_bad_identity.json"]),
    # two misnamed vertices in clique 1: the least by vertex_key is named
    ("decompose_identity_least",
     ["decompose", "--in", "@inputs/cliques_misnamed_twice.json"]),
    ("decompose_slot_range",
     ["decompose", "--in", "@inputs/cliques_bad_slot.json"]),
    # vertex encodings that are refused, the first in document order,
    # before any clique rule is checked
    ("decompose_unknown_tag",
     ["decompose", "--in", "@inputs/cliques_unknown_tag.json"]),
    ("decompose_bool_field",
     ["decompose", "--in", "@inputs/cliques_bool_field.json"]),
    ("decompose_shared_descending",
     ["decompose", "--in", "@inputs/cliques_shared_descending.json"]),
    ("decompose_unshared_slot_0",
     ["decompose", "--in", "@inputs/cliques_unshared_slot_0.json"]),
    ("decompose_shared_arity",
     ["decompose", "--in", "@inputs/cliques_shared_arity.json"]),
    ("decompose_general_arity",
     ["decompose", "--in", "@inputs/cliques_general_arity.json"]),
    ("decompose_nested_field",
     ["decompose", "--in", "@inputs/cliques_nested_field.json"]),
    ("decompose_first_offender",
     ["decompose", "--in", "@inputs/cliques_first_offender.json"]),
    ("decompose_vertex_not_a_list",
     ["decompose", "--in", "@inputs/cliques_vertex_not_a_list.json"]),
    ("decompose_empty_vertex",
     ["decompose", "--in", "@inputs/cliques_empty_vertex.json"]),
    ("decompose_tag_not_a_string",
     ["decompose", "--in", "@inputs/cliques_tag_not_a_string.json"]),
    ("decompose_clique_not_a_list",
     ["decompose", "--in", "@inputs/cliques_clique_not_a_list.json"]),
    # "shared_pairs" beside "cliques" must be the pairs the cliques give
    ("decompose_contradicting_pairs",
     ["decompose", "--in", "@inputs/cliques_contradicting_pairs.json"]),
    # a triangle packing of K_30 there and back
    ("to_efl_k30_mixed", ["to-efl", "--in", "@inputs/k30_mixed.json"]),
    ("decompose_k30_mixed",
     ["decompose", "--in", "@to_efl_k30_mixed.stdout"]),
    # documents laid out otherwise than the CLI writes them: compact, keys
    # in the other order, an extra key, and a file cut off mid-entry
    ("verify_4_compact",
     ["verify", "--graph", "@inputs/g4_compact.json",
      "--coloring", "@inputs/g4_coloring_compact.json"]),
    ("verify_4_assignments_first",
     ["verify", "--graph", "@gen_all_4.stdout",
      "--coloring", "@inputs/g4_coloring_assignments_first.json"]),
    ("color_4_extra_key",
     ["color", "--in", "@inputs/g4_extra_key.json", "--extend"]),
    ("verify_4_truncated",
     ["verify", "--graph", "@gen_all_4.stdout",
      "--coloring", "@inputs/g4_coloring_truncated.json"]),
    # explicit-clique documents laid out the same ways, on a two-clique
    # graph of order 5 with a general label in two cliques
    *((f"{cmd}_cliques_{name}", [cmd, "--in", f"@inputs/cliques_{name}.json"])
      for name in ("compact", "first", "only", "extra_key", "truncated")
      for cmd in ("decompose", "color")),
    # an unshared slot in a clique other than its own: the identity rule
    # names every clique holding it, its own among them
    ("decompose_stray_slot",
     ["decompose", "--in", "@inputs/cliques_stray_slot.json"]),
    # a short clique 1 among four cliques of order 3: the count is reported
    ("decompose_count_and_short",
     ["decompose", "--in", "@inputs/cliques_count_and_short.json"]),
    # colorings of the Fano graph, whose general vertices each lie in
    # three cliques: the chromatic witness, then changed in one way each
    ("verify_fano_witness",
     ["verify", "--graph", "@to_efl_fano.stdout",
      "--coloring", "@inputs/fano_coloring_witness.json"]),
    ("verify_fano_clash",
     ["verify", "--graph", "@to_efl_fano.stdout",
      "--coloring", "@inputs/fano_coloring_clash.json"]),
    ("verify_fano_unknown_vertex",
     ["verify", "--graph", "@to_efl_fano.stdout",
      "--coloring", "@inputs/fano_coloring_unknown_vertex.json"]),
    ("verify_fano_shared_names_slot",
     ["verify", "--graph", "@to_efl_fano.stdout",
      "--coloring", "@inputs/fano_coloring_shared_names_slot.json"]),
    ("verify_fano_color_outside_palette",
     ["verify", "--graph", "@to_efl_fano.stdout",
      "--coloring", "@inputs/fano_coloring_color_8.json"]),
    # a two-clique graph held as keys, with a general vertex in two cliques
    ("verify_general_pair_extend",
     ["verify", "--graph", "@inputs/cliques_general_pair.json",
      "--coloring", "@color_general_pair_extend.stdout"]),
    # which of two defects is reported: a bad vertex in a later clique
    # comes before an order above the limit, a short clique 1 in a
    # document with "cliques" first or in the canonical layout
    ("decompose_order_above_limit_bad_vertex",
     ["decompose", "--in",
      "@inputs/cliques_order_above_limit_bad_vertex.json"]),
    ("decompose_first_short_bad_shared",
     ["decompose", "--in", "@inputs/cliques_first_short_bad_shared.json"]),
    ("decompose_short_bad_general",
     ["decompose", "--in", "@inputs/cliques_short_bad_general.json"]),
    # a host that is neither complete nor one edge per clique: a triangle
    # and an edge at order 5, there and back
    ("to_efl_triangle_and_edge",
     ["to-efl", "--in", "@inputs/decomposition_triangle_and_edge.json"]),
    ("decompose_triangle_and_edge",
     ["decompose", "--in", "@to_efl_triangle_and_edge.stdout"]),
    # decomposition documents refused for their host or their cliques
    ("to_efl_host_edges_int",
     ["to-efl", "--in", "@inputs/decomposition_host_edges_int.json"]),
    ("to_efl_host_loop",
     ["to-efl", "--in", "@inputs/decomposition_host_loop.json"]),
    ("to_efl_host_edge_out_of_range",
     ["to-efl", "--in", "@inputs/decomposition_host_edge_out_of_range.json"]),
    ("to_efl_no_cliques",
     ["to-efl", "--in", "@inputs/decomposition_no_cliques.json"]),
    ("verify_invalid_decomposition_missing_coloring",
     ["verify", "--graph", "@inputs/decomposition_host_loop.json",
      "--coloring", "no/such/coloring.json"]),
    # K_3's decomposition and a coloring that also names clique 7
    ("decompose_3", ["decompose", "--in", "@gen_all_3.stdout"]),
    ("verify_k3_unknown_clique",
     ["verify", "--graph", "@decompose_3.stdout",
      "--coloring", "@inputs/k3_coloring_unknown_clique.json"]),
    # a graph that the chunked reader refuses, drawn by export-dot
    ("export_dot_cliques_first",
     ["export-dot", "--in", "@inputs/cliques_first.json"]),
    # the graph of order 3 with a general label in cliques 1 and 2: its
    # shared coloring, chromatic witness and both drawings
    ("color_general_pair",
     ["color", "--in", "@inputs/cliques_general_pair.json"]),
    ("chromatic_general_pair",
     ["chromatic", "--in", "@inputs/cliques_general_pair.json",
      "--out", OUT]),
    ("export_dot_host_general_pair",
     ["export-dot", "--in", "@inputs/cliques_general_pair.json",
      "--view", "host"]),
    ("export_dot_intersection_general_pair",
     ["export-dot", "--in", "@inputs/cliques_general_pair.json",
      "--view", "intersection"]),
    # "shared_pairs" that is not a list: a --pairs object, and a graph
    # whose cliques are valid beside a number
    ("gen_pairs_object",
     ["gen", "--n", "3", "--pairs", "@inputs/pairs_object.json"]),
    ("decompose_pairs_not_a_list",
     ["decompose", "--in", "@inputs/cliques_pairs_not_a_list.json"]),
]


def resolve(argv):
    """argv with every "@name" replaced by the path of that corpus file."""
    return [str(CORPUS / a[1:]) if a.startswith("@") else a for a in argv]


def run(argv):
    """(exit code, stdout, stderr, the text written to ``OUT`` or None) of
    one ``cli.main`` call, with a corpus file's path in stderr written
    back as its "@name", so the pinned messages do not depend on where
    the corpus lies."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        written = Path(tmp) / "out"
        argv = [str(written) if a == OUT else a for a in resolve(argv)]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        text = (written.read_text(encoding="utf-8") if written.exists()
                else None)
    return (code, out.getvalue(), err.getvalue().replace(f"{CORPUS}/", "@"),
            text)


def capture(names=None):
    """Capture every case, or only those named, keeping the manifest
    entries of the others; returns the captured entries."""
    if names is None:
        names, kept = [name for name, _ in CASES], {}
    else:
        unknown = sorted(set(names) - {name for name, _ in CASES})
        if unknown:
            raise SystemExit(f"no such case: {', '.join(unknown)}")
        manifest = json.loads(
            (CORPUS / "manifest.json").read_text(encoding="utf-8")
        )
        kept = {case["name"]: case for case in manifest}
        missing = [name for name, _ in CASES
                   if name not in names and name not in kept]
        if missing:
            raise SystemExit(
                f"cases never captured: {', '.join(missing)}; name them too"
            )
    entries = []
    for name, argv in CASES:
        if name not in names:
            entries.append(kept[name])
            continue
        code, out, err, written = run(argv)
        (CORPUS / f"{name}.stdout").write_text(out, encoding="utf-8")
        if written is not None:
            (CORPUS / f"{name}.out").write_text(written, encoding="utf-8")
        entries.append(
            {"name": name, "argv": argv, "exit": code, "stderr": err}
        )
    (CORPUS / "manifest.json").write_text(
        json.dumps(entries, indent=1) + "\n", encoding="utf-8"
    )
    return [case for case in entries if case["name"] in names]


if __name__ == "__main__":
    for case in capture(sys.argv[1:] or None):
        print(f"{case['exit']}  {case['name']}", file=sys.stderr)
