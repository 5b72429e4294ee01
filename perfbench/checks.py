"""Output checks that do not use eflcolor's own checkers.

`evaluate` reads the operation records of a run's passes and the files
its last pass wrote, and returns (attempted, failed) operations.  An
operation fails when it raises, exits with an unexpected code or runs
out of node budget; that only counts against the error rate.  An
operation that reports success with a wrong, missing or unreadable
output raises WrongAnswer, which stops the benchmark.
"""

import json
from collections import Counter
from itertools import combinations


class WrongAnswer(Exception):
    """The program reported success with an incorrect output."""


def expect(condition, message):
    if not condition:
        raise WrongAnswer(message)


def pair_color(n, i, j):
    """The paper's closed-form color of the vertex shared by Q_i and Q_j:
    i + j mod n for odd n; i + j mod n - 1 for even n, except 2i in the
    column j = n.  Residues are written 1..t."""
    if n % 2:
        t, x = n, i + j
    else:
        t, x = n - 1, (i + j if j < n else 2 * i)
    return (x - 1) % t + 1


def check_vertex_coloring(n, pairs, data, palette, closed_form, what):
    """A full coloring of the two-clique EFL graph of order n whose shared
    vertices are `pairs`, checked clique by clique."""
    expect(data.get("palette") == palette,
           f"{what}: palette {data.get('palette')}, expected {palette}")
    pairs = set(pairs)
    degree = Counter(c for p in pairs for c in p)
    cliques = {c: [] for c in range(1, n + 1)}
    seen = set()
    for entry in data["assignments"]:
        vertex, color = entry["vertex"], entry["color"]
        key = tuple(vertex)
        expect(key not in seen, f"{what}: {vertex} colored twice")
        seen.add(key)
        expect(1 <= color <= palette,
               f"{what}: {vertex} has color {color} outside 1..{palette}")
        if vertex[0] == "shared":
            i, j = vertex[1], vertex[2]
            expect((i, j) in pairs, f"{what}: {vertex} is not a vertex")
            if closed_form:
                expect(color == pair_color(n, i, j),
                       f"{what}: {vertex} has color {color}, closed form "
                       f"gives {pair_color(n, i, j)}")
            cliques[i].append(color)
            cliques[j].append(color)
        else:
            expect(vertex[0] == "unshared", f"{what}: unknown vertex {vertex}")
            c, slot = vertex[1], vertex[2]
            expect(1 <= c <= n and 1 <= slot <= n - degree[c],
                   f"{what}: {vertex} is not a vertex")
            cliques[c].append(color)
    for c, colors in cliques.items():
        expect(len(colors) == n,
               f"{what}: clique {c} has {len(colors)} colored vertices, "
               f"not {n}")
        expect(len(set(colors)) == n, f"{what}: clique {c} repeats a color")


def ops_by_name(passes):
    """Each operation's records across passes, checking that every pass
    wrote the same output bytes."""
    for p in passes[1:]:
        expect(p["digests"] == passes[0]["digests"],
               "passes over the same inputs wrote different outputs")
    by_name = {}
    for p in passes:
        for rec in p["ops"]:
            by_name.setdefault(rec["op"], []).append(rec)
    return by_name


def failed(rec):
    """A crash, an unexpected exit code or an exhausted node budget."""
    return ("error" in rec or rec.get("exit", 0) != 0
            or rec.get("status") == "budget_exhausted")


def succeeded(records):
    """True when every pass's run of this operation succeeded."""
    return not any(map(failed, records))


def count(by_name):
    records = [r for recs in by_name.values() for r in recs]
    return len(records), sum(map(failed, records))


def load(path):
    return json.loads(path.read_text())


def closed_form(work, passes, size):
    by_name = ops_by_name(passes)
    out = work / "out"
    n_max = size["max_n"]
    half = [tuple(p) for p in load(work / "in" / "pairs.json")]
    for tag, n, pairs in (
        ("max", n_max, list(combinations(range(1, n_max + 1), 2))),
        ("half", size["half_n"], half),
    ):
        expected = sorted(list(p) for p in pairs)
        complete = len(pairs) == n * (n - 1) // 2
        if succeeded(by_name[f"gen_{tag}"]):
            expect(load(out / f"{tag}_graph.json")
                   == {"n": n, "shared_pairs": expected},
                   f"gen {tag}: graph differs from the requested pairs")
        if succeeded(by_name[f"color_{tag}"]):
            check_vertex_coloring(n, pairs, load(out / f"{tag}_coloring.json"),
                                  n, True, f"color {tag}")
        for rec in by_name[f"verify_{tag}"]:
            expect(rec.get("exit") != 1,
                   f"verify {tag} rejected the coloring: {rec['stdout']!r}")
            if succeeded([rec]):
                expect(rec["stdout"] == "proper\n",
                       f"verify {tag} printed {rec['stdout']!r}")
        if succeeded(by_name[f"decompose_{tag}"]):
            expect(load(out / f"{tag}_decomposition.json") == {
                "n": n,
                "host_edges": "complete" if complete else expected,
                "cliques": expected,
            }, f"decompose {tag}: wrong decomposition")
    return count(by_name)


def translate(work, passes, size):
    by_name = ops_by_name(passes)
    if succeeded(by_name["to_efl"]) and succeeded(by_name["decompose"]):
        expect((work / "out" / "roundtrip.json").read_bytes()
               == (work / "in" / "decomposition.json").read_bytes(),
               "to-efl -> decompose did not give back the input bytes")
    return count(by_name)


def check_chromatic(records, n, witness, what):
    """chi(G_n) is n: the defining clique forces n and the closed form
    meets it."""
    if succeeded(records):
        for rec in records:
            expect(rec["stdout"] == f"{n}\n",
                   f"{what}: printed {rec['stdout']!r}, chi is {n}")
        check_vertex_coloring(n, combinations(range(1, n + 1), 2),
                              load(witness), n, False, f"{what} witness")


def exact_search(work, passes, size):
    by_name = ops_by_name(passes)
    out = work / "out"
    check_chromatic(by_name["chromatic"], size["chromatic_n"],
                    out / "witness.json", "chromatic")
    check_chromatic(by_name["chromatic_probe"], size["probe_n"],
                    out / "probe_witness.json", "chromatic probe")
    # K_k for odd k has chromatic index k: no proper (k-1)-edge-coloring
    for rec in by_name["k_palette"]:
        expect(rec.get("status") != "colorable",
               f"K_{size['k_n']} reported colorable at palette "
               f"{size['k_n'] - 1}")
    return count(by_name)


def sweep(work, passes, size):
    """Every instance of the sweep is one operation."""
    by_name = ops_by_name(passes)
    instances = size["instances"]
    attempted = lost = 0
    for rec in by_name["sweep"]:
        attempted += instances
        expect(rec.get("exit") != 1, "sweep found an instance not n-colorable")
        if "error" in rec or rec.get("exit") not in (0, 4):  # no report
            lost += instances
            continue
        report = load(work / "out" / "sweep.json")
        expect(report["instances"] == instances,
               f"sweep saw {report['instances']} instances, not {instances}")
        expect(not report["not_colorable"],
               "sweep found an instance not n-colorable")
        expect(report["colorable"] + len(report["budget_exhausted"])
               == instances, "sweep totals do not add up")
        lost += len(report["budget_exhausted"])
    return attempted, lost


CHECKS = {f.__name__: f for f in (closed_form, translate, exact_search, sweep)}


def evaluate(workload, work, passes, size):
    try:
        return CHECKS[workload](work, passes, size)
    except (OSError, ValueError, LookupError, TypeError) as e:
        raise WrongAnswer(f"unreadable output: {type(e).__name__}: {e}") \
            from None
