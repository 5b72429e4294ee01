"""Independent brute-force oracles shared across the test modules.

Everything here recomputes answers from first principles (pairwise scans,
exhaustive enumeration, graph rebuilds, the recursive search engine and
enumerator, the serial sweep, the round-robin edge coloring) so the
library's own fast paths are never trusted to check themselves.
"""

from itertools import combinations, product

from eflcolor.core import (
    EflGraph,
    Rejection,
    SharedVertex,
    UnsharedVertex,
    build_from_pairs,
    vertex_key,
)
from eflcolor.decomposition import CliqueDecomposition, complete_host
from eflcolor.serialize import vertex_to_json
from eflcolor.solver import (
    BudgetExhausted,
    Status,
    SweepInstance,
    SweepReport,
    color_decomposition,
)


def brute_force_proper(g: EflGraph, colors: dict) -> bool:
    """Pairwise adjacency scan; ignores vertices outside the coloring."""
    verts = [v for v in g.vertex_set if v in colors]
    for u, w in combinations(verts, 2):
        together = any(u in q and w in q for q in g.cliques)
        if together and colors[u] == colors[w]:
            return False
    return True


def brute_force_chromatic(g: EflGraph, max_k: int = 8) -> int:
    """Try every assignment outright; only usable for a handful of vertices."""
    verts = sorted(g.vertex_set, key=repr)
    for k in range(1, max_k + 1):
        for assignment in product(range(1, k + 1), repeat=len(verts)):
            colors = dict(zip(verts, assignment))
            if brute_force_proper(g, colors):
                return k
    raise AssertionError(f"no coloring with up to {max_k} colors")


def edge_disjoint_r_families(n: int, r: int) -> list:
    """All families of pairwise edge-disjoint r-subsets of {1..n}, as sorted
    tuples of sorted tuples (the empty family included)."""
    subsets = list(combinations(range(1, n + 1), r))
    edge_sets = [frozenset(combinations(s, 2)) for s in subsets]
    families = []
    for size in range(len(subsets) + 1):
        for picks in combinations(range(len(subsets)), size):
            union = set()
            ok = True
            for p in picks:
                if union & edge_sets[p]:
                    ok = False
                    break
                union |= edge_sets[p]
            if ok:
                families.append(tuple(subsets[p] for p in picks))
    return families


def family_to_clique_list(n: int, family) -> list:
    """Complete an edge-disjoint r-clique family to a decomposition of K_n
    by filling the remaining edges with 2-cliques."""
    used = set()
    for c in family:
        used.update(combinations(c, 2))
    cliques = list(family)
    cliques.extend(
        e for e in combinations(range(1, n + 1), 2) if e not in used
    )
    return cliques


def reference_validate(cliques, n):
    """An independent copy of validate: the same rules, scan order and
    messages, with the pairwise-intersection rule decided by intersecting
    every two cliques in lexicographic index order and the identity rule
    by scanning each clique in vertex_key order, one branch per identity
    kind.  The accepted graph is built directly, never through validate.
    """
    if n < 2:
        return Rejection("order", f"n must be >= 2, got {n}")
    if n > 2048:
        return Rejection("order", f"n must be <= 2048, got {n}")
    qs = [frozenset(q) for q in cliques]
    if len(qs) != n:
        return Rejection(
            "clique-count", f"expected {n} cliques, got {len(qs)}", (len(qs),)
        )
    for idx, q in enumerate(qs, start=1):
        if len(q) != n:
            return Rejection(
                "clique-order",
                f"clique {idx} has {len(q)} vertices, expected {n}",
                (idx,),
            )
    for a, b in combinations(range(1, n + 1), 2):
        common = qs[a - 1] & qs[b - 1]
        if len(common) > 1:
            return Rejection(
                "pairwise-intersection",
                f"cliques {a} and {b} share {len(common)} vertices",
                (a, b),
            )
    membership = {
        v: tuple(idx for idx, q in enumerate(qs, start=1) if v in q)
        for q in qs for v in q
    }
    for idx, q in enumerate(qs, start=1):
        for v in sorted(q, key=vertex_key):
            if isinstance(v, SharedVertex) and membership[v] != (v.i, v.j):
                return Rejection(
                    "identity",
                    f"vertex {v!r} lies in cliques {membership[v]}, "
                    f"not ({v.i}, {v.j})",
                    (idx,),
                )
            if isinstance(v, UnsharedVertex) and membership[v] != (v.clique,):
                return Rejection(
                    "identity",
                    f"vertex {v!r} lies in cliques {membership[v]}, "
                    f"not ({v.clique},)",
                    (idx,),
                )
    for idx, q in enumerate(qs, start=1):
        slots = [v.slot for v in q if isinstance(v, UnsharedVertex)]
        free = n - (len(q) - len(slots))
        bad = sorted(s for s in slots if s > free)
        if bad:
            return Rejection(
                "slot-range",
                f"clique {idx} has unshared slot {bad[0]} but only "
                f"{free} unshared places",
                (idx, bad[0]),
            )
    shared = frozenset(v for v, ix in membership.items() if len(ix) >= 2)
    return EflGraph(n, tuple(qs), shared)


def reference_graph_to_json(g: EflGraph) -> dict:
    """graph_to_json deciding canonicity by rebuilding g from its shared
    pairs and comparing: the explicit cliques are emitted unless the
    rebuild equals g."""
    pairs = sorted(
        g.membership[v] for v in g.shared if len(g.membership[v]) == 2
    )
    out = {"n": g.n, "shared_pairs": [list(p) for p in pairs]}
    canonical = False
    if len(pairs) == len(g.shared):
        try:
            canonical = build_from_pairs(g.n, pairs) == g
        except ValueError:
            canonical = False
    if not canonical:
        out["cliques"] = [
            [vertex_to_json(v) for v in sorted(q, key=vertex_key)]
            for q in g.cliques
        ]
    return out


# lines of the unique triple system on 7 points, 1-based
FANO_TRIANGLES = (
    (1, 2, 3),
    (1, 4, 5),
    (1, 6, 7),
    (2, 4, 6),
    (2, 5, 7),
    (3, 4, 7),
    (3, 5, 6),
)


def reference_search(neighbors, palette, preset, node_limit, progress=None,
                     interval=10**6):
    """Fail-first backtracking coloring over an indexed adjacency list.

    The recursive engine that eflcolor.solver._search replaced, kept as
    the oracle its branching order is compared against: the same nodes,
    verdicts and colors on every instance.  Recursion limits it to fewer
    than about a thousand vertices.

    Returns (found, colors, nodes): found True with a complete 1-based
    color list, False after exhausting the space.  preset pairs are
    applied first and count as nodes; an infeasible preset (a clique
    larger than the palette) exhausts the space immediately because
    presets are symmetry-canonical.  Raises BudgetExhausted past
    node_limit.
    """
    m = len(neighbors)
    color = [0] * m
    blocked = [[0] * (palette + 1) for _ in range(m)]
    avail = [palette] * m
    state = {"uncolored": m, "nodes": 0}

    def place(v, c):
        color[v] = c
        state["uncolored"] -= 1
        for u in neighbors[v]:
            if not color[u]:
                b = blocked[u]
                b[c] += 1
                if b[c] == 1:
                    avail[u] -= 1

    def unplace(v, c):
        color[v] = 0
        state["uncolored"] += 1
        for u in neighbors[v]:
            if not color[u]:
                b = blocked[u]
                b[c] -= 1
                if b[c] == 0:
                    avail[u] += 1

    def tick():
        state["nodes"] += 1
        if state["nodes"] > node_limit:
            raise BudgetExhausted(state["nodes"])
        if progress is not None and state["nodes"] % interval == 0:
            progress(state["nodes"])

    for v, c in preset:
        if c > palette or blocked[v][c]:
            return False, None, state["nodes"]
        tick()
        place(v, c)

    def extend():
        if state["uncolored"] == 0:
            return True
        best, best_avail = -1, palette + 1
        for v in range(m):
            if not color[v] and avail[v] < best_avail:
                best, best_avail = v, avail[v]
                if best_avail == 0:
                    break
        bl = blocked[best]
        for c in range(1, palette + 1):
            if not bl[c]:
                tick()
                place(best, c)
                if extend():
                    return True
                unplace(best, c)
        return False

    found = extend()
    return found, (color[:] if found else None), state["nodes"]


def reference_enumerate_two_r(n, r):
    """Yield every labeled decomposition of K_n into 2-cliques and r-cliques.

    The recursive enumerator that eflcolor.solver's bitmask enumerator
    replaced, kept as the oracle its instance order is compared against.

    Backtracks on the lexicographically smallest uncovered edge, trying
    the r-cliques through it in lexicographic order before settling for a
    2-clique, so every decomposition appears exactly once (the clique
    covering the smallest undecided edge is forced at each step).  The
    first instance yielded is therefore the greedy lexicographic r-clique
    packing.  Labeled level only: no isomorph rejection.  r may equal n
    (the whole of K_n is then one admissible clique).
    """
    if not 3 <= r <= n:
        raise ValueError(f"need 3 <= r <= n, got r={r}, n={n}")
    host = complete_host(n)
    edges = sorted(host.edges)
    covered = set()
    twos = []  # the edges settled as 2-cliques
    chosen = []  # the r-cliques

    def rec():
        e = next((f for f in edges if f not in covered), None)
        if e is None:
            # both lists grow in lexicographic order, so this is the
            # canonical (size, lexicographic) order
            cliques = tuple(twos) + tuple(chosen)
            yield SweepInstance(n, r, CliqueDecomposition(host, cliques))
            return
        i, j = e
        others = [v for v in range(1, n + 1) if v != i and v != j]
        for extra in combinations(others, r - 2):
            cand = tuple(sorted((i, j) + extra))
            cand_edges = list(combinations(cand, 2))
            if any(f in covered for f in cand_edges):
                continue
            covered.update(cand_edges)
            chosen.append(cand)
            yield from rec()
            chosen.pop()
            covered.difference_update(cand_edges)
        covered.add(e)
        twos.append(e)
        yield from rec()
        twos.pop()
        covered.discard(e)

    yield from rec()


def reference_sweep(n, r, cfg, minimum_palettes=False):
    """The sweep as one serial loop over reference_enumerate_two_r: the
    report that eflcolor.solver's sharded sweep must reproduce."""
    total = colorable = max_nodes = 0
    not_col, budget, minimums = [], [], []
    for inst in reference_enumerate_two_r(n, r):
        d = inst.decomposition
        cliques = [list(c) for c in d.cliques]
        out = color_decomposition(d, n, cfg)
        total += 1
        max_nodes = max(max_nodes, out.nodes)
        if out.status is Status.NOT_COLORABLE:
            not_col.append(cliques)
        elif out.status is Status.BUDGET_EXHAUSTED:
            budget.append(cliques)
        else:
            colorable += 1
            if minimum_palettes:
                p = n
                probe = Status.NOT_COLORABLE
                while p > 0:
                    probe = color_decomposition(d, p - 1, cfg).status
                    if probe is not Status.COLORABLE:
                        break
                    p -= 1
                if probe is Status.BUDGET_EXHAUSTED:
                    budget.append(cliques)
                else:
                    minimums.append({"cliques": cliques, "min_palette": p})
    return SweepReport(
        n, r, total, colorable, sorted(not_col), sorted(budget), max_nodes,
        sorted(minimums, key=lambda e: e["cliques"])
        if minimum_palettes else None,
    )


def round_robin_edge_coloring(n: int) -> dict:
    """Proper edge coloring of K_n by the classical circle method.

    An independent route to the closed-form bound: transported to shared
    vertices it must agree with eflcolor.coloring.pair_color on palette
    and color classes.

    Vertex n stays fixed; vertices 1..n-1 rotate.  Round r (color r) pairs
    r with the fixed vertex and matches r-k with r+k around the circle.
    Uses n - 1 colors for even n; odd n is scheduled with a dummy partner
    whose pairings are dropped, giving n colors with one vertex idle per
    round.  Returns a map from sorted vertex pairs to colors.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if n % 2:
        full = round_robin_edge_coloring(n + 1)
        return {e: c for e, c in full.items() if e[1] <= n}
    m = n - 1
    colors = {}
    for r in range(1, m + 1):
        colors[(r, n)] = r
        for k in range(1, (n - 2) // 2 + 1):
            a = (r - k - 1) % m + 1
            b = (r + k - 1) % m + 1
            colors[(a, b) if a < b else (b, a)] = r
    return colors
