"""Command-line interface.

Subcommands: gen, color, verify, chromatic, decompose, to-efl, sweep,
export-dot.  Exit codes are stable: 0 success, 1 negative verification,
2 input error (an order above core.MAX_ORDER = 2048 among them, refused
before anything is built), 3 unsupported structure, 4 node budget
exhausted, 5 internal error (a result that failed its own check, or any
other unexpected exception), reported as one "internal error: <Type>:
<message>" line on stderr, and 130 on Ctrl-C (SIGINT), reported as one
"interrupted" line on stderr once every sweep worker is reaped.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import serialize
from .coloring import FullColoring, SharedColoring, check_proper, color_shared, extend_to_full
from .core import build_from_pairs, build_maximal
from .decomposition import (
    CliqueCapacityError,
    check_decomposition_coloring,
    decomposition_to_efl,
    efl_to_decomposition,
)
from .serialize import FormatError
from .solver import (
    BudgetExhausted,
    SearchConfig,
    chromatic_number,
    sweep_two_r_decompositions,
)

EXIT_OK = 0
EXIT_IMPROPER = 1
EXIT_INPUT = 2
EXIT_UNSUPPORTED = 3
EXIT_BUDGET = 4
EXIT_INTERNAL = 5
EXIT_INTERRUPTED = 130


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise FormatError(f"cannot read {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise FormatError(f"{path} is not valid JSON: {e}") from None


def _emit(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _progress(nodes: int):
    print(f"... {nodes} nodes", file=sys.stderr, flush=True)


def _config(args) -> SearchConfig:
    return SearchConfig(
        node_limit=args.node_limit, progress=_progress
    )


def _cmd_gen(args) -> int:
    # out-of-range orders and pairs raise ValueError: exit 2 from main
    if args.pairs == "all":
        g = build_maximal(args.n)
    else:
        pairs = serialize.pairs_from_json(_read_json(args.pairs), "--pairs")
        g = build_from_pairs(args.n, pairs)
    _emit(serialize.dumps(serialize.graph_to_json(g)), args.out)
    return EXIT_OK


def _cmd_color(args) -> int:
    g = serialize.graph_from_json(_read_json(args.infile))
    if not g.is_two_clique:
        print(
            "error: a shared vertex lies in three or more defining cliques; "
            "use `decompose` and `sweep` instead",
            file=sys.stderr,
        )
        return EXIT_UNSUPPORTED
    coloring = color_shared(g)
    if args.extend:
        try:
            coloring = extend_to_full(g, coloring)
        except ValueError as e:  # it rejects the shared coloring
            raise AssertionError(
                f"closed form produced an improper coloring: {e}"
            ) from None
    chk = check_proper(g, coloring)
    if not chk:
        raise AssertionError(
            f"coloring failed re-verification: {chk.reason}"
        )
    _emit(serialize.coloring_text(coloring), args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    gdata = _read_json(args.graph)
    cdata = _read_json(args.coloring)
    entries = cdata.get("assignments") if isinstance(cdata, dict) else None
    clique_keyed = bool(entries) and all(
        isinstance(e, dict) and "clique" in e for e in entries
    )
    if isinstance(gdata, dict) and "host_edges" in gdata:
        d = serialize.decomposition_from_json(gdata)
        if not clique_keyed:
            raise FormatError(
                "a decomposition needs a clique-keyed coloring "
                '(assignments with "clique" entries)'
            )
        coloring = serialize.decomposition_coloring_from_json(cdata)
        try:
            chk = check_decomposition_coloring(d, coloring)
        except ValueError as e:
            raise FormatError(str(e)) from None
    else:
        g = serialize.graph_from_json(gdata)
        if clique_keyed:
            raise FormatError(
                "an EFL graph needs a vertex-keyed coloring "
                '(assignments with "vertex" entries)'
            )
        palette, colors = serialize.vertex_coloring_from_json(cdata)
        if colors.keys() == set(g.vertex_set):
            coloring = FullColoring(palette, colors)
        else:
            coloring = SharedColoring(palette, colors)
        try:
            chk = check_proper(g, coloring)
        except ValueError as e:
            raise FormatError(str(e)) from None
    if chk:
        print("proper")
        return EXIT_OK
    print(f"improper: {chk.reason}")
    return EXIT_IMPROPER


def _cmd_chromatic(args) -> int:
    g = serialize.graph_from_json(_read_json(args.infile))
    result = chromatic_number(g, _config(args))
    print(result.value)
    print(f"nodes explored: {result.nodes}", file=sys.stderr)
    if args.out:
        _emit(serialize.coloring_text(result.witness), args.out)
    return EXIT_OK


def _cmd_decompose(args) -> int:
    g = serialize.graph_from_json(_read_json(args.infile))
    d = efl_to_decomposition(g)
    _emit(serialize.decomposition_text(d), args.out)
    return EXIT_OK


def _cmd_to_efl(args) -> int:
    d = serialize.decomposition_from_json(_read_json(args.infile))
    try:
        g = decomposition_to_efl(d)
    except CliqueCapacityError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    _emit(serialize.dumps(serialize.graph_to_json(g)), args.out)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    report = sweep_two_r_decompositions(
        args.n, args.r, _config(args), minimum_palettes=args.min_palettes
    )
    _emit(serialize.dumps(report.to_json()), args.out)
    if report.budget_exhausted:
        return EXIT_BUDGET
    if report.not_colorable:
        return EXIT_IMPROPER
    return EXIT_OK


def _cmd_export_dot(args) -> int:
    data = _read_json(args.infile)
    if isinstance(data, dict) and "host_edges" in data:
        d = serialize.decomposition_from_json(data)
    else:
        d = efl_to_decomposition(serialize.graph_from_json(data))
    if args.view == "host":
        text = serialize.host_dot(d.host)
    else:
        text = serialize.intersection_dot(d)
    _emit(text, args.out)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eflcolor",
        description=(
            "Construct EFL graphs, color them with the closed-form scheme, "
            "translate to clique decompositions, and run exact searches."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an EFL graph as JSON")
    p.add_argument("--n", type=int, required=True, help="order of the graph")
    p.add_argument(
        "--pairs", required=True,
        help='"all" for the maximal instance, or a JSON file of [i, j] pairs',
    )
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser(
        "color", help="closed-form coloring of a two-clique EFL graph"
    )
    p.add_argument("--in", dest="infile", required=True, help="graph JSON")
    p.add_argument(
        "--extend", action="store_true",
        help="extend the shared coloring to all vertices",
    )
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=_cmd_color)

    p = sub.add_parser("verify", help="check a coloring against a graph")
    p.add_argument(
        "--graph", required=True, help="EFL graph or decomposition JSON"
    )
    p.add_argument("--coloring", required=True, help="coloring JSON")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "chromatic", help="exact chromatic number of a small EFL graph"
    )
    p.add_argument("--in", dest="infile", required=True, help="graph JSON")
    p.add_argument(
        "--node-limit", type=int, default=10**8, help="search node budget"
    )
    p.add_argument("--out", help="write the witness coloring JSON here")
    p.set_defaults(func=_cmd_chromatic)

    p = sub.add_parser(
        "decompose", help="translate an EFL graph to a clique decomposition"
    )
    p.add_argument("--in", dest="infile", required=True, help="graph JSON")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser(
        "to-efl", help="translate a clique decomposition to an EFL graph"
    )
    p.add_argument(
        "--in", dest="infile", required=True, help="decomposition JSON"
    )
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=_cmd_to_efl)

    p = sub.add_parser(
        "sweep",
        help="enumerate decompositions of K_n with clique sizes {2, r} "
        "and test n-colorability",
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument(
        "--node-limit", type=int, default=10**8,
        help="search node budget per instance",
    )
    p.add_argument(
        "--min-palettes", action="store_true",
        help="also probe each instance for its minimum palette",
    )
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser(
        "export-dot", help="render the host or intersection graph as DOT"
    )
    p.add_argument(
        "--in", dest="infile", required=True,
        help="EFL graph or decomposition JSON",
    )
    p.add_argument(
        "--view", choices=("host", "intersection"), default="host"
    )
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=_cmd_export_dot)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FormatError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except BudgetExhausted as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as e:
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    raise SystemExit(main())
