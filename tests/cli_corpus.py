"""The CLI byte corpus: commands whose stdout, stderr and exit code are pinned.

Each case is a name and an argv for ``eflcolor.cli.main``.  An argument
starting with "@" names a file in the corpus directory: either a
hand-written input under ``inputs/`` or ``<case>.stdout``, the pinned
stdout of an earlier case, so a chain such as gen -> color -> verify
replays every step from the pinned bytes of the step before.

``python tests/cli_corpus.py`` captures the corpus into
``tests/fixtures/cli_corpus/``: one ``<case>.stdout`` per case plus
``manifest.json`` with the argv, exit code and stderr of each.  Capture
only on a commit whose outputs are trusted; ``test_cli_corpus.py``
replays the manifest and requires the same bytes.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

from eflcolor.cli import main

CORPUS = Path(__file__).parent / "fixtures" / "cli_corpus"


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
    ("verify_k4_proper",
     ["verify", "--graph", "@decompose_4.stdout",
      "--coloring", "@inputs/k4_coloring_proper.json"]),
    ("verify_k4_clash",
     ["verify", "--graph", "@decompose_4.stdout",
      "--coloring", "@inputs/k4_coloring_clash.json"]),
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
    ("sweep_5_3", ["sweep", "--n", "5", "--r", "3"]),
    ("sweep_6_3_min_palettes",
     ["sweep", "--n", "6", "--r", "3", "--min-palettes"]),
    ("sweep_6_4", ["sweep", "--n", "6", "--r", "4"]),
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
]


def resolve(argv):
    """argv with every "@name" replaced by the path of that corpus file."""
    return [str(CORPUS / a[1:]) if a.startswith("@") else a for a in argv]


def run(argv):
    """(exit code, stdout, stderr) of one ``cli.main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(resolve(argv))
    return code, out.getvalue(), err.getvalue()


def capture():
    manifest = []
    for name, argv in CASES:
        code, out, err = run(argv)
        (CORPUS / f"{name}.stdout").write_text(out, encoding="utf-8")
        manifest.append(
            {"name": name, "argv": argv, "exit": code, "stderr": err}
        )
    (CORPUS / "manifest.json").write_text(
        json.dumps(manifest, indent=1) + "\n", encoding="utf-8"
    )
    return manifest


if __name__ == "__main__":
    for case in capture():
        print(f"{case['exit']}  {case['name']}", file=sys.stderr)
