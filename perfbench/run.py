"""eflcolor benchmark: four closed-loop workloads, checked for correctness.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S \
        --trace 0|1 [--scale full|tiny]

Run from the root of a checkout; the program is imported from src/.  Each
workload runs in fresh interpreters started one after another, each
making one closed-loop pass: one caller running the operations back to
back, as the CLI is used (see workloads.py).  With --trace 0 the last
stdout line holds the end-to-end metrics, each a median over the run's
spawns: wall_s (time of a pass), setup_s (interpreter start to inputs
written) and peak_rss_mb.  With --trace 1 it holds the per-layer metrics
of a traced pass, taken with spans.py, and the tracing overhead against
an untraced pass.  The lines before it record the run's conditions and a
summary.  Every output is checked by checks.py; a wrong answer exits 1,
a failed operation only counts in `failed`.  reference.json holds the
sizes, the expected counts, why each workload is here and what each
layer metric should move.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = json.loads((HERE / "reference.json").read_text())
SETUP_SPAWNS = 7
DEADLINE_S = 175  # a workload's whole run, in fresh interpreters


class BenchError(Exception):
    """The benchmark itself could not run."""


def spawn(workload, mode, work, seed, scale, deadline):
    """Run workloads.py once in a fresh interpreter; its result, with the
    set-up time measured from the spawn."""
    # a fixed hash seed keeps string-keyed dict and set orders, and so the
    # work done, the same in every spawn
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    cmd = [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", workload, "--workdir", str(work), "--seed", str(seed),
        "--scale", scale, "--mode", mode,
    ]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT,
                              stdout=subprocess.DEVNULL,
                              timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} ({mode}) ran past {DEADLINE_S} s") \
            from None
    if proc.returncode:
        raise BenchError(f"{workload} ({mode}) exited {proc.returncode}")
    result = json.loads((work / "result.json").read_text())
    result["setup_s"] = result["ready"] - start
    return result


def tail(values):
    """(percentile, value): the highest percentile with at least ten
    samples beyond it, or None with fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    return 100 * (n - 10) / n, sorted(values)[n - 11]


def per_layer(layers, walls, names):
    self_s, calls, counts = layers["self_s"], layers["calls"], layers["counts"]
    nodes = counts.get("search_nodes", 0)
    search_s = (self_s["solver.chromatic_number"]
                + self_s["solver.color_decomposition"])
    untraced, traced = walls
    derived = {
        "cli.self_s": sum(v for k, v in self_s.items()
                          if k.startswith("cli.")),
        "serialize.bytes_out": counts.get("bytes_out", 0),
        "solver.search_nodes": nodes,
        "solver.max_nodes": layers["max_nodes"],
        "solver.nodes_per_s": nodes / search_s if nodes else 0.0,
        "solver.useful_placement_ratio":
            counts.get("vertices_colored", 0) / nodes if nodes else 0.0,
        "solver.budget_exhausted": counts.get("budget_exhausted", 0),
        "trace.overhead_s": traced - untraced,
    }

    def value(name):
        if name in derived:
            return derived[name]
        table, span = ((calls, name[:-len("_calls")])
                       if name.endswith("_calls") else (self_s, name[:-2]))
        # spans of every wrapped function are reported, zero when not
        # reached; a subcommand's span only once it ran
        if span not in table and not span.startswith("cli."):
            raise BenchError(f"no span gives the metric {name}")
        return table.get(span, 0 if table is calls else 0.0)

    return {name: value(name) for name in names}


def git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def measure(name, args, work, deadline):
    """The spawns of one run: SETUP_SPAWNS - 1 that only set up, then one
    pass per spawn for as long as another pass of average length still
    ends within --seconds (at least one).  Every spawn gives a set-up
    sample.  With --trace 1, one untraced and one traced pass."""

    def go(mode):
        return spawn(name, mode, work, args.seed, args.scale, deadline)

    if args.trace:
        untraced, traced = go("measure"), go("trace")
        return [untraced["pass"], traced["pass"]], [], traced["layers"]
    setups = [go("setup")["setup_s"] for _ in range(SETUP_SPAWNS - 1)]
    passes = []
    start = time.monotonic()
    while not passes or (time.monotonic() - start) * (len(passes) + 1) \
            <= args.seconds * len(passes):
        result = go("measure")
        passes.append(result["pass"])
        setups.append(result["setup_s"])
    return passes, setups, None


def run_workload(name, args, spec):
    size = REFERENCE["sizes"][args.scale][name]
    work = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        passes, setups, layers = measure(
            name, args, work, time.monotonic() + DEADLINE_S
        )
        try:
            attempted, failed = checks.evaluate(name, work, passes, size)
            correct = True
        except checks.WrongAnswer as e:
            print(f"wrong answer on {name}: {e}", file=sys.stderr)
            attempted = failed = sum(len(p["ops"]) for p in passes)
            correct = False
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    walls = [p["wall_s"] for p in passes]
    if args.trace:
        metrics = per_layer(layers, walls,
                            [m["name"] for m in spec["per_layer"]])
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"]
                                             for p in passes),
        }
    workload = REFERENCE["workloads"][name]
    conditions = {
        "workload": name, "why": workload["why"],
        "uses_seed": workload["uses_seed"], "seed": args.seed,
        "seconds": args.seconds, "scale": args.scale,
        "trace": bool(args.trace), "nproc": os.cpu_count(),
        "cpu": cpu_model(), "python": platform.python_version(),
        "commit": git_commit(), "pass_walls_s": walls,
        "setup_samples_s": setups,
    }
    print("# conditions " + json.dumps(conditions))
    if args.trace:
        print(f"# {name}: untraced pass {walls[0]:.4f} s, traced pass "
              f"{walls[1]:.4f} s, tracing overhead "
              f"{walls[1] - walls[0]:.4f} s")
    else:
        high = tail(walls)
        high = (f"p{high[0]:.0f} {high[1]:.4f} s" if high
                else "no tail percentile below 11 samples")
        print(f"# {name}: wall_s median {metrics['wall_s']:.4f} s over "
              f"{len(walls)} passes ({high}); setup_s median "
              f"{metrics['setup_s']:.4f} s over {len(setups)} spawns; "
              f"peak_rss_mb {metrics['peak_rss_mb']:.1f} MiB")
    print(f"# {name}: error_rate {failed}/{attempted} = "
          f"{failed / attempted:.4f} (failed / attempted operations)")
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }), flush=True)
    return correct


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[*REFERENCE["workloads"], "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny sizes are for the benchmark's self-test")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "eflcolor" / "__init__.py").is_file():
        print(f"error: no eflcolor sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = list(REFERENCE["workloads"]) if args.workload == "all" \
        else [args.workload]
    try:
        for name in names:
            if not run_workload(name, args, spec):
                return 1  # a wrong answer stops the benchmark
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
