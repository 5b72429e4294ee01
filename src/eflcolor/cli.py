"""Command-line interface.

Subcommands: gen, color, verify, chromatic, decompose, to-efl, sweep,
export-dot.  Exit codes are stable: 0 success, 1 negative verification,
2 input error (an order above core.MAX_ORDER = 2048, or a sweep order
above solver.MAX_SWEEP_ORDER = 12, among them, refused before anything
is built or forked, JSON nested too deeply to decode, and an --in file
that cannot be read or an --out file that cannot be written), 3
unsupported structure, 4 node budget exhausted, 5 internal error (a
result that failed its own check, or any other unexpected exception),
reported as one "internal error: <Type>: <message>" line on stderr, 130
on Ctrl-C (SIGINT), reported as one "interrupted" line on stderr once
every sweep worker is reaped, and 141 (128 + SIGPIPE), with nothing on
stderr, when stdout is closed before the output ends.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import serialize
from .check import (
    CliqueDecomposition, check_decomposition_coloring, check_n_coloring,
    check_proper,
)
from .chunked import read_graph, read_vertex_coloring
from .coloring import color_shared, extend_to_full
from .core import build_from_pairs, build_maximal
from .decomposition import decomposition_to_efl, efl_to_decomposition
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
EXIT_CLOSED_STDOUT = 141


def _read_json(path: str, object_hook=None):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_hook=object_hook)
    except OSError as e:
        raise FormatError(f"cannot read {path}: {e}") from None
    except (json.JSONDecodeError, RecursionError) as e:
        raise FormatError(f"{path} is not valid JSON: {e}") from None


def _read_chunked(path: str, reader, *args):
    """``reader(file, *args)`` on the file at path opened for binary
    reading, or None when the file cannot be opened or the reader refuses
    its document: the whole-document path then reads it, or reports its
    error, as it always has.  Only a regular file is tried, since a pipe
    cannot be read twice."""
    if not os.path.isfile(path):
        return None
    try:
        with open(path, "rb") as fh:
            return reader(fh, *args)
    except (OSError, ValueError):
        return None


def _model(data):
    """The decomposition of a "host_edges" document, else its EFL graph."""
    if isinstance(data, dict) and "host_edges" in data:
        return serialize.decomposition_from_json(data)
    return serialize.graph_from_json(data)


def _read_graph(path: str):
    """The EFL graph of the graph document at path."""
    g = _read_chunked(path, read_graph)
    return g if g is not None else serialize.graph_from_json(_read_json(path))


def _emit(chunks, out: str | None):
    """Write a writer's chunks to the --out file, or to stdout."""
    if out is None:
        sys.stdout.writelines(chunks)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    except OSError as e:
        raise FormatError(f"cannot write {out}: {e}") from None


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
    _emit(serialize.graph_text(g), args.out)
    return EXIT_OK


def _cmd_color(args) -> int:
    g = _read_graph(args.infile)
    if not g.is_two_clique:
        print(
            "error: a shared vertex lies in three or more defining cliques; "
            "use `chromatic --in FILE --out W` for a checked coloring",
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
    check_proper(g, coloring).require("coloring failed re-verification")
    _emit(serialize.coloring_text(coloring), args.out)
    return EXIT_OK


def _clique_keyed(cdata) -> bool:
    """Whether every assignment of a coloring document names a clique,
    vacuously so for an empty assignments list."""
    entries = cdata.get("assignments") if isinstance(cdata, dict) else None
    return isinstance(entries, list) and all(
        isinstance(e, dict) and "clique" in e for e in entries
    )


def _cmd_verify(args) -> int:
    # The graph document is converted and dropped before the coloring is
    # read; a conversion error waits until the coloring file has been
    # read, so an unreadable coloring is still reported first.
    graph = _read_chunked(args.graph, read_graph)
    error = coloring = None
    if graph is None:
        gdata = _read_json(args.graph)
        try:
            graph = _model(gdata)
        except Exception as e:  # re-raised below
            error = e
        del gdata
    is_decomposition = isinstance(graph, CliqueDecomposition)
    if error is None and not is_decomposition:
        coloring = _read_chunked(
            args.coloring, read_vertex_coloring, graph
        )
    if coloring is None:
        cdata = _read_json(args.coloring, serialize.fold_assignment)
        if error is not None:
            raise error
        clique_keyed = _clique_keyed(cdata)
        if is_decomposition and not clique_keyed:
            raise FormatError(
                "a decomposition needs a clique-keyed coloring "
                '(assignments with "clique" entries)'
            )
        if not is_decomposition and clique_keyed and cdata["assignments"]:
            raise FormatError(
                "an EFL graph needs a vertex-keyed coloring "
                '(assignments with "vertex" entries)'
            )
        coloring = (
            serialize.decomposition_coloring_from_json(cdata)
            if is_decomposition
            else serialize.vertex_coloring_on(graph, cdata)
        )
        del cdata
    # both checkers raise ValueError for a coloring that does not fit its
    # palette or the graph: exit 2 from main
    chk = (check_decomposition_coloring if is_decomposition
           else check_n_coloring)(graph, coloring)
    if chk:
        print("proper")
        return EXIT_OK
    print(f"improper: {chk.reason}")
    return EXIT_IMPROPER


def _cmd_chromatic(args) -> int:
    g = _read_graph(args.infile)
    result = chromatic_number(g, _config(args))
    print(result.value)
    print(f"nodes explored: {result.nodes}", file=sys.stderr)
    if args.out:
        _emit(serialize.coloring_text(result.witness), args.out)
    return EXIT_OK


def _cmd_decompose(args) -> int:
    g = _read_graph(args.infile)
    d = efl_to_decomposition(g)
    _emit(serialize.decomposition_text(d), args.out)
    return EXIT_OK


def _cmd_to_efl(args) -> int:
    d = serialize.decomposition_from_json(_read_json(args.infile))
    g = decomposition_to_efl(d)
    del d  # not held while g is written
    _emit(serialize.graph_text(g), args.out)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    report = sweep_two_r_decompositions(
        args.n, args.r, _config(args), minimum_palettes=args.min_palettes
    )
    _emit(serialize.sweep_text(report), args.out)
    if report.budget_exhausted:
        return EXIT_BUDGET
    if report.not_colorable:
        return EXIT_IMPROPER
    return EXIT_OK


def _cmd_export_dot(args) -> int:
    d = _read_chunked(args.infile, read_graph)
    if d is None:
        d = _model(_read_json(args.infile))
    if not isinstance(d, CliqueDecomposition):
        d = efl_to_decomposition(d)
    if args.view == "host":
        chunks = serialize.host_dot(d.host)
    else:
        chunks = serialize.intersection_dot(d)
    _emit(chunks, args.out)
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
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:
        # the reader has all it wanted; what is left in stdout's buffer
        # goes to the null device when the interpreter flushes it at exit
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_CLOSED_STDOUT
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
