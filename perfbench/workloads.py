"""One workload in one fresh interpreter: build its inputs, then run its
operations back to back through eflcolor's public entry points.

run.py starts this file once per spawn, with PYTHONPATH pointing at the
checkout's src/:

    python3 perfbench/workloads.py --workload NAME --workdir DIR --seed N \
        --scale full|tiny --mode setup|measure|trace

Every mode first writes the inputs under DIR/in.  `setup` stops there;
`measure` then runs one pass over the operations, and `trace` one pass
with the spans of spans.py installed.  One pass per process, because a
user runs each CLI command in a fresh process, and a second pass in the
same heap runs measurably slower.  The result goes to DIR/result.json.
Operations that crash are recorded, not raised: judging them is run.py's
job.
"""

import argparse
import contextlib
import hashlib
import io
import json
import random
import resource
import shutil
import time
from itertools import combinations
from pathlib import Path

from eflcolor import cli, decomposition, solver

import spans

REFERENCE = json.loads(
    (Path(__file__).resolve().parent / "reference.json").read_text()
)


def all_pairs(n):
    return list(combinations(range(1, n + 1), 2))


def write_json(path, data):
    path.write_text(json.dumps(data, indent=2) + "\n")
    return str(path)


def cli_op(name, argv):
    """One CLI command, in-process, with its stdout and stderr captured."""

    def op():
        rec = {"op": name}
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                rec["exit"] = cli.main(argv)
        except SystemExit as e:
            rec["exit"] = e.code
        except Exception as e:  # a crash is a failed operation
            rec["error"] = f"{type(e).__name__}: {e}"
        rec["stdout"] = out.getvalue()[:1000]
        return rec

    return op


def verdict_op(name, d, palette):
    """One palette-limited search through the API (the CLI has no command
    for it)."""

    def op():
        rec = {"op": name}
        try:
            outcome = solver.color_decomposition(d, palette)
            rec["status"] = outcome.status.value
        except Exception as e:  # a crash is a failed operation
            rec["error"] = f"{type(e).__name__}: {e}"
        return rec

    return op


def closed_form(inp, out, seed, size):
    """gen -> color --extend -> verify -> decompose, on the maximal G_n and
    on a seeded random half of the pairs at a smaller n."""
    n_half = size["half_n"]
    pairs = all_pairs(n_half)
    half = random.Random(seed).sample(pairs, len(pairs) // 2)
    pairs_file = write_json(inp / "pairs.json", [list(p) for p in half])
    ops = []
    for tag, n, spec in (
        ("max", size["max_n"], "all"),
        ("half", n_half, pairs_file),
    ):
        graph, coloring, decomp = (
            str(out / f"{tag}_{kind}.json")
            for kind in ("graph", "coloring", "decomposition")
        )
        ops += [
            cli_op(f"gen_{tag}",
                   ["gen", "--n", str(n), "--pairs", spec, "--out", graph]),
            cli_op(f"color_{tag}",
                   ["color", "--in", graph, "--extend", "--out", coloring]),
            cli_op(f"verify_{tag}",
                   ["verify", "--graph", graph, "--coloring", coloring]),
            cli_op(f"decompose_{tag}",
                   ["decompose", "--in", graph, "--out", decomp]),
        ]
    return ops


def triangle_packing(n, rng):
    """Edge-disjoint triangles of K_n: the edges in seeded random order, each
    still-free edge taking a random third vertex when both of its other
    edges are free too."""
    everyone = ((1 << n) - 1) << 1
    free = [0] + [everyone & ~(1 << v) for v in range(1, n + 1)]
    edges = all_pairs(n)
    rng.shuffle(edges)
    triangles = []
    for u, v in edges:
        w = rng.randrange(1, n + 1)
        if (free[u] >> v) & (free[u] >> w) & (free[v] >> w) & 1:
            for a, b in ((u, v), (u, w), (v, w)):
                free[a] &= ~(1 << b)
                free[b] &= ~(1 << a)
            triangles.append(tuple(sorted((u, v, w))))
    rest = [(u, v) for u, v in all_pairs(n) if (free[u] >> v) & 1]
    return triangles, rest


def translate(inp, out, seed, size):
    """to-efl -> decompose on a seeded triangle packing of K_n completed with
    2-cliques, written the way the CLI writes decompositions so that the
    round trip can be compared byte for byte."""
    n = size["n"]
    triangles, rest = triangle_packing(n, random.Random(seed))
    cliques = sorted(rest) + sorted(triangles)
    decomp = write_json(
        inp / "decomposition.json",
        {"n": n, "host_edges": "complete",
         "cliques": [list(c) for c in cliques]},
    )
    efl, back = str(out / "efl.json"), str(out / "roundtrip.json")
    return [
        cli_op("to_efl", ["to-efl", "--in", decomp, "--out", efl]),
        cli_op("decompose", ["decompose", "--in", efl, "--out", back]),
    ]


def exact_search(inp, out, seed, size):
    """chi(G_n), K_k at palette k - 1, and chi(G_46) under a node budget."""
    n, k, probe = size["chromatic_n"], size["k_n"], size["probe_n"]
    g = write_json(inp / "g.json", {"n": n, "shared_pairs": all_pairs(n)})
    gp = write_json(
        inp / "probe.json", {"n": probe, "shared_pairs": all_pairs(probe)}
    )
    kn = decomposition.validate_decomposition(
        decomposition.complete_host(k), all_pairs(k)
    )
    return [
        cli_op("chromatic",
               ["chromatic", "--in", g, "--out", str(out / "witness.json")]),
        verdict_op("k_palette", kn, k - 1),
        cli_op("chromatic_probe",
               ["chromatic", "--in", gp,
                "--node-limit", str(size["probe_node_limit"]),
                "--out", str(out / "probe_witness.json")]),
    ]


def sweep(inp, out, seed, size):
    """The exhaustive (2, r) sweep of K_n as one CLI command."""
    return [
        cli_op("sweep",
               ["sweep", "--n", str(size["n"]), "--r", str(size["r"]),
                "--out", str(out / "sweep.json")]),
    ]


WORKLOADS = {
    f.__name__: f for f in (closed_form, translate, exact_search, sweep)
}


def run_pass(ops, out):
    t0 = time.perf_counter()
    records = [op() for op in ops]
    wall = time.perf_counter() - t0
    # taken before hashing the outputs, which the program never reads whole
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
    }
    return {"wall_s": wall, "peak_rss_mb": peak_kib / 1024, "ops": records,
            "digests": digests}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", choices=("full", "tiny"), required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"),
                    required=True)
    args = ap.parse_args()
    work = Path(args.workdir)
    inp, out = work / "in", work / "out"
    shutil.rmtree(out, ignore_errors=True)  # outputs of this pass only
    for d in (inp, out):
        d.mkdir(parents=True, exist_ok=True)
    size = REFERENCE["sizes"][args.scale][args.workload]
    ops = WORKLOADS[args.workload](inp, out, args.seed, size)
    result = {"ready": time.monotonic()}
    if args.mode == "trace":
        tracer = spans.Tracer()
        tracer.install()
    if args.mode != "setup":
        result["pass"] = run_pass(ops, out)
    if args.mode == "trace":
        result["layers"] = tracer.summary()
    (work / "result.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main()
