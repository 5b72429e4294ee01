"""Independent brute-force oracles shared across the test modules.

Everything here recomputes answers from first principles (pairwise scans,
exhaustive enumeration, graph rebuilds, the recursive search engine and
enumerator, a chromatic number searched over every vertex of an EFL
graph, the first-fit clique coloring, the first clash found on
intersection masks, the serial sweep with its closed form and its
downward probes, the round-robin edge coloring, the dict-at-a-time
coloring reader, the per-vertex closed form and properness check, the
sweep report as a dict for the JSON encoder) so the library's own fast
paths are never trusted to check themselves.  The explicit-clique graph
reader and the decomposition validator are copied here as they were on
vertex objects and edge tuples, with seeded triangle and 4-clique
packings of K_n to run them on.
"""

from itertools import combinations, product

from eflcolor.coloring import (
    FullColoring,
    ProperCheck,
    SharedColoring,
    pair_color,
)
from eflcolor.core import (
    EflGraph,
    GeneralVertex,
    Rejection,
    SharedVertex,
    UnsharedVertex,
    build_from_pairs,
    vertex_key,
)
from eflcolor.decomposition import (
    CliqueDecomposition,
    complete_host,
    decomposition_to_efl,
    validate_decomposition,
)
from eflcolor.serialize import FormatError, vertex_from_json, vertex_to_json
from eflcolor.solver import (
    BudgetExhausted,
    Status,
    SweepReport,
    color_decomposition,
)


def adjacency(g: EflGraph, u, v) -> bool:
    """True iff u and v are distinct and lie in a common defining clique."""
    for w in (u, v):
        if w not in g.vertex_set:
            raise ValueError(f"unknown vertex {w!r}")
    if u == v:
        return False
    return not set(g.cliques_of(u)).isdisjoint(g.cliques_of(v))


def brute_force_proper(g: EflGraph, colors: dict) -> bool:
    """Pairwise adjacency scan; ignores vertices outside the coloring."""
    verts = [v for v in g.vertex_set if v in colors]
    for u, w in combinations(verts, 2):
        together = any(u in q and w in q for q in g.cliques)
        if together and colors[u] == colors[w]:
            return False
    return True


def reference_color_shared(g: EflGraph) -> SharedColoring:
    """color_shared as a dict over the shared vertex objects: the
    per-vertex closed form that the pair-array path replaced."""
    n = g.n
    if not g.is_two_clique:
        raise ValueError(
            "graph has a shared vertex in three or more defining cliques; "
            "translate to a clique decomposition and search instead"
        )
    cmap = {v: pair_color(n, *g.cliques_of(v)) for v in g.shared}
    return SharedColoring(n if n % 2 else n - 1, cmap)


def reference_extend_to_full(g: EflGraph, shared) -> FullColoring:
    """extend_to_full over dicts and clique frozensets, with its error
    messages: free colors go to each clique's unshared vertices in
    vertex_key order."""
    n = g.n
    cmap = dict(shared.colors)
    missing = g.shared - cmap.keys()
    if missing:
        v = min(missing, key=vertex_key)
        raise ValueError(f"shared coloring misses shared vertex {v!r}")
    extra = cmap.keys() - g.shared
    if extra:
        v = min(extra, key=vertex_key)
        raise ValueError(f"shared coloring colors non-shared vertex {v!r}")
    full = dict(cmap)
    for idx, q in enumerate(g.cliques, start=1):
        used = set()
        # the members in vertex_key order, so the first repeat or
        # out-of-palette color named is that of the least vertex
        for v in sorted(q, key=vertex_key):
            c = cmap.get(v)
            if c is None:
                continue
            if not 1 <= c <= n:
                raise ValueError(
                    f"clique {idx}: color {c} outside the palette 1..{n}"
                )
            if c in used:
                raise ValueError(
                    f"clique {idx}: shared coloring repeats color {c}"
                )
            used.add(c)
        free = [c for c in range(1, n + 1) if c not in used]
        rest = sorted((v for v in q if v not in cmap), key=vertex_key)
        for v, c in zip(rest, free):
            full[v] = c
    return FullColoring(n, full)


def reference_check_proper(g: EflGraph, coloring) -> ProperCheck:
    """check_proper over dicts and clique frozensets: the same domain
    errors, palette error and first monochromatic pair by vertex_key."""
    cmap = dict(coloring.colors)
    vertex_set = set().union(*g.cliques)
    if isinstance(coloring, FullColoring):
        if cmap.keys() != vertex_set:
            missing = vertex_set - cmap.keys()
            if missing:
                v = min(missing, key=vertex_key)
                raise ValueError(f"full coloring misses vertex {v!r}")
            v = min(cmap.keys() - vertex_set, key=vertex_key)
            raise ValueError(f"full coloring names unknown vertex {v!r}")
    elif not cmap.keys() <= g.shared:
        v = min(cmap.keys() - g.shared, key=vertex_key)
        raise ValueError(f"shared coloring names non-shared vertex {v!r}")
    p = coloring.palette_size
    bad = [v for v, c in cmap.items() if not 1 <= c <= p]
    if bad:
        v = min(bad, key=vertex_key)
        raise ValueError(f"vertex {v!r} has color {cmap[v]} outside 1..{p}")
    worst = None
    for q in g.cliques:
        by_color = {}
        for v in q:
            if v in cmap:
                by_color.setdefault(cmap[v], []).append(v)
        for vs in by_color.values():
            if len(vs) > 1:
                vs.sort(key=vertex_key)
                key = (vertex_key(vs[0]), vertex_key(vs[1]))
                if worst is None or key < worst[0]:
                    worst = (key, vs[0], vs[1])
    if worst is not None:
        _, u, w = worst
        return ProperCheck(
            False, (u, w),
            f"{u!r} and {w!r} are adjacent and share color {cmap[u]}",
        )
    return ProperCheck(True)


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
    kind.  The accepted graph is built from this scan's own membership,
    never through validate.
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
    pairs = sorted(ix for v, ix in membership.items()
                   if isinstance(v, SharedVertex))
    labeled = sorted((v.label, ix) for v, ix in membership.items()
                     if isinstance(v, GeneralVertex))
    return EflGraph(n, tuple(pairs), tuple(t for t, _ in labeled),
                    tuple(ix for _, ix in labeled))


def reference_graph_from_json(data) -> EflGraph:
    """graph_from_json of a document with "cliques", on vertex objects:
    every vertex read by vertex_from_json, in document order, before the
    cliques are checked by reference_validate; "shared_pairs" is not
    read."""
    n, cliques = data["n"], data["cliques"]
    if not isinstance(cliques, list) or not all(
        isinstance(q, list) for q in cliques
    ):
        raise FormatError('"cliques" must be a list of vertex lists')
    g = reference_validate(
        [frozenset(vertex_from_json(v) for v in q) for q in cliques], n
    )
    if isinstance(g, Rejection):
        raise FormatError(f"invalid graph: {g.message}")
    return g


def reference_validate_decomposition(host, cliques):
    """validate_decomposition with every edge an (i, j) tuple looked up in
    host.edges and in a set of covered edge tuples: the same rules, scan
    order and messages."""
    canon = []
    for c in cliques:
        c = tuple(c)
        if len(set(c)) != len(c):
            return Rejection(
                "clique-vertices", f"clique {c} repeats a vertex", (c,)
            )
        canon.append(tuple(sorted(c)))
    canon = sorted(sorted(canon), key=len)
    covered = set()
    for t, c in enumerate(canon, start=1):
        if len(c) < 2:
            return Rejection(
                "clique-size",
                f"clique {t} has {len(c)} vertices; decomposition cliques "
                "must carry at least one edge",
                (t,),
            )
        for v in c:
            if not 1 <= v <= host.vertex_count:
                return Rejection(
                    "vertex-range",
                    f"clique {t} names vertex {v}, outside 1.."
                    f"{host.vertex_count}",
                    (t, v),
                )
        for e in combinations(c, 2):
            if e not in host.edges:
                return Rejection(
                    "not-a-clique",
                    f"clique {t} spans {e}, which is not a host edge",
                    (t, e),
                )
            if e in covered:
                return Rejection(
                    "edge-covered-twice", f"edge {e} belongs to two cliques", e
                )
            covered.add(e)
    for e in sorted(host.edges):
        if e not in covered:
            return Rejection(
                "edge-uncovered", f"edge {e} belongs to no clique", e
            )
    return CliqueDecomposition(host, tuple(canon))


def triangle_packing(n: int, rng) -> list:
    """A decomposition of K_n into seeded edge-disjoint triangles and the
    2-cliques they leave: every triple in shuffled order, kept when its
    three edges are still free."""
    triples = list(combinations(range(1, n + 1), 3))
    rng.shuffle(triples)
    free = set(combinations(range(1, n + 1), 2))
    triangles = []
    for t in triples:
        edges = set(combinations(t, 2))
        if edges <= free:
            free -= edges
            triangles.append(t)
    return sorted(free) + sorted(triangles)


def four_clique_packing(n: int, rng) -> list:
    """A decomposition of K_n into seeded edge-disjoint 4-cliques and the
    2-cliques they leave, as :func:`triangle_packing` builds one of
    triangles."""
    free = set(combinations(range(1, n + 1), 2))
    quads = list(combinations(range(1, n + 1), 4))
    rng.shuffle(quads)
    kept = []
    for q in quads:
        edges = set(combinations(q, 2))
        if edges <= free:
            free -= edges
            kept.append(q)
    return sorted(free) + sorted(kept)


def complete_with_triangle(n: int) -> EflGraph:
    """The EFL graph of K_n's edges with the triangle (1, 2, 3) in place
    of its three edges: one shared vertex in three defining cliques."""
    cliques = [e for e in combinations(range(1, n + 1), 2)
               if not set(e) <= {1, 2, 3}]
    return decomposition_to_efl(
        validate_decomposition(complete_host(n), cliques + [(1, 2, 3)])
    )


def mixed_graph(n: int, rng) -> EflGraph:
    """The EFL graph of a seeded triangle packing of K_n, on vertex
    objects, with a general vertex in one clique (the last slot of a
    random clique, relabeled) and one in two (a random 2-clique's shared
    vertex, relabeled) when the packing leaves a 2-clique.  The labels
    are random, negative ones among them, and miss the triangles' labels,
    which are clique indices, at most C(n, 2)."""
    cliques = decomposition_to_efl(validate_decomposition(
        complete_host(n), triangle_packing(n, rng)
    )).cliques
    c = rng.randrange(n)
    label = rng.choice([rng.randint(-9, 0), rng.randint(n * n + 1, 10**6)])
    names = {max((v for v in cliques[c] if type(v) is UnsharedVertex),
                 key=vertex_key): GeneralVertex(label)}
    pairs = sorted((v for q in cliques for v in q if type(v) is SharedVertex),
                   key=vertex_key)
    if pairs:
        label = rng.choice([-10, n * n, 10**9])
        names[rng.choice(pairs)] = GeneralVertex(label)
    g = reference_validate([{names.get(v, v) for v in q} for q in cliques], n)
    assert isinstance(g, EflGraph), g
    return g


def reference_graph_to_json(g: EflGraph) -> dict:
    """graph_to_json deciding canonicity by rebuilding g from its shared
    pairs and comparing: the explicit cliques are emitted unless the
    rebuild equals g."""
    pairs = sorted(
        g.cliques_of(v) for v in g.shared if len(g.cliques_of(v)) == 2
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


def reference_vertex_coloring_from_json(data) -> tuple:
    """vertex_coloring_from_json over a document parsed with no object hook,
    every entry still a dict: (palette, {vertex: color}), or the FormatError
    for the first bad entry in document order."""
    if not isinstance(data, dict) or type(data.get("palette")) is not int:
        raise FormatError('coloring JSON needs an integer "palette"')
    if not isinstance(data.get("assignments"), list):
        raise FormatError('coloring JSON needs an "assignments" list')
    colors = {}
    for entry in data["assignments"]:
        if not isinstance(entry, dict) or "vertex" not in entry:
            raise FormatError(f"bad assignment entry: {entry!r}")
        if type(entry.get("color")) is not int:
            raise FormatError(f"bad color in entry: {entry!r}")
        v = vertex_from_json(entry["vertex"])
        if v in colors:
            raise FormatError(
                f"vertex {entry['vertex']!r} is assigned twice"
            )
        colors[v] = entry["color"]
    return data["palette"], colors


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


def projective_plane(p: int) -> list:
    """The lines of PG(2, p), p prime, on the points 1..p^2 + p + 1, each
    a sorted tuple, in lexicographic order.  The points are the vectors of
    F_p^3 whose first nonzero coordinate is 1, labeled in lexicographic
    order; each of them also names the line of the points orthogonal to
    it."""
    points = [v for v in product(range(p), repeat=3)
              if any(v) and next(x for x in v if x) == 1]
    return sorted(
        tuple(k for k, v in enumerate(points, start=1)
              if sum(a * b for a, b in zip(u, v)) % p == 0)
        for u in points
    )


def bose_sts(v: int) -> list:
    """Bose's Steiner triple system on v = 3m points, v = 3 mod 6, each
    block a sorted tuple, in lexicographic order.  Point (x, i) of
    Z_m x Z_3 is labeled 1 + x + m*i.  With the idempotent commutative
    quasigroup x o y = (x + y)(m + 1)/2 mod m, the blocks are
    {(x, 0), (x, 1), (x, 2)} for every x, and {(x, i), (y, i),
    (x o y, i + 1)} for every x < y and i (R. C. Bose, "On the
    construction of balanced incomplete block designs", 1939)."""
    assert v % 6 == 3, v
    m = v // 3

    def point(x, i):
        return 1 + x + m * (i % 3)

    blocks = [(point(x, 0), point(x, 1), point(x, 2)) for x in range(m)]
    blocks += [
        tuple(sorted((point(x, i), point(y, i),
                      point((x + y) * (m + 1) // 2 % m, i + 1))))
        for x, y in combinations(range(m), 2) for i in range(3)
    ]
    return sorted(blocks)


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


def reference_chromatic(g: EflGraph, node_limit: int = 10**6) -> tuple:
    """(chi, witness) of g by :func:`reference_search` over every vertex
    of g, with no preset, palettes tried upward from n, which the
    defining clique Q_1 forces: a vertex-level search that shares no code
    with the solver's search on the decomposition's cliques."""
    verts = sorted(g.vertex_set, key=vertex_key)
    index = {v: i for i, v in enumerate(verts)}
    neighbors = [set() for _ in verts]
    for q in g.cliques:
        for u in q:
            neighbors[index[u]].update(index[w] for w in q if w != u)
    neighbors = [sorted(s) for s in neighbors]
    k = g.n
    while True:
        found, colors, _ = reference_search(neighbors, k, [], node_limit)
        if found:
            return k, FullColoring(k, dict(zip(verts, colors)))
        k += 1


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
            yield CliqueDecomposition(host, cliques)
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


def first_fit_colors(cliques, palette):
    """The first-fit coloring of cliques in the order of their least
    edges: each takes the least color in 1..palette that no clique
    colored before it has at one of its vertices.  colors[t] is
    cliques[t]'s color; None when some clique finds no free color."""
    colors = [0] * len(cliques)
    taken = {}  # host vertex -> the colors of the cliques colored at it
    least_edges = [sorted(c)[:2] for c in cliques]
    for t in sorted(range(len(cliques)), key=least_edges.__getitem__):
        near = set().union(*(taken.get(v, ()) for v in cliques[t]))
        free = [c for c in range(1, palette + 1) if c not in near]
        if not free:
            return None
        colors[t] = free[0]
        for v in cliques[t]:
            taken.setdefault(v, set()).add(free[0])
    return colors


def reference_first_clash(masks: list, colors) -> tuple | None:
    """The lexicographically first pair (s, t), s < t, of same-colored
    neighbors, or None when the coloring is proper.

    masks are neighbor bitmasks as from
    :func:`eflcolor.decomposition.clique_masks`, and colors[t - 1] is the
    color of vertex t (both 1-based).
    """
    classes: dict = {}  # color -> bitmask of the vertices holding it
    for t, c in enumerate(colors):
        classes[c] = classes.get(c, 0) | 1 << t
    # the first s with a same-colored neighbor t > s gives the
    # lexicographically first pair
    for s, (mask, c) in enumerate(zip(masks, colors), start=1):
        clash = (mask & classes[c]) >> s
        if clash:
            return s, s + (clash & -clash).bit_length()
    return None


def reference_sweep(n, r, cfg, minimum_palettes=False):
    """The sweep as one serial loop over reference_enumerate_two_r: the
    report that eflcolor.solver's sharded sweep must reproduce.  An
    instance that first_fit_colors colors within palette n is colorable
    at 0 nodes, and so is K_n's edges, which the closed form colors as
    round_robin_edge_coloring does, in its chromatic index of colors; any
    other is searched by color_decomposition.  A coloring whose largest
    color is m proves every palette from m up, so the downward probes for
    the least palette start at m - 1."""
    total = colorable = max_nodes = 0
    not_col, budget, minimums = [], [], []
    for d in reference_enumerate_two_r(n, r):
        cliques = [list(c) for c in d.cliques]
        total += 1
        status = Status.COLORABLE
        colors = first_fit_colors(d.cliques, n)
        if colors is None and all(len(c) == 2 for c in d.cliques):
            colors = list(round_robin_edge_coloring(n).values())
        if colors is None:
            out = color_decomposition(d, n, cfg)
            status = out.status
            max_nodes = max(max_nodes, out.nodes)
            if out.certificate is not None:
                colors = list(out.certificate.colors.values())
        if status is Status.NOT_COLORABLE:
            not_col.append(cliques)
        elif status is Status.BUDGET_EXHAUSTED:
            budget.append(cliques)
        else:
            colorable += 1
            if minimum_palettes:
                p = max(colors)
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


def sweep_report_to_json(report: SweepReport) -> dict:
    """A sweep report as the dict whose dumps() eflcolor.serialize's
    sweep_text must reproduce byte for byte: min_palettes only when set."""
    out = {
        "n": report.n,
        "r": report.r,
        "instances": report.instances,
        "colorable": report.colorable,
        "not_colorable": report.not_colorable,
        "budget_exhausted": report.budget_exhausted,
        "max_nodes": report.max_nodes,
    }
    if report.min_palettes is not None:
        out["min_palettes"] = report.min_palettes
    return out


def round_robin_edge_coloring(n: int) -> dict:
    """Proper edge coloring of K_n by the classical circle method.

    An independent route to the closed-form bound: read as a coloring of
    the 2-cliques (i, j), it must agree with eflcolor.coloring.pair_color
    on palette and color classes.

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
