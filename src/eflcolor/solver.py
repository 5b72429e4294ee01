"""Exact answers at desk scale: a checked certificate or a counting proof
first, backtracking search only when neither settles the question.

Three engines: the chromatic number of a small EFL graph, palette-limited
coloring of a clique decomposition, and exhaustive enumeration of the
decompositions of K_n whose cliques all have size 2 or size r, swept for
n-colorability.  The chromatic number of a two-clique EFL graph is n,
certified by the checked closed-form coloring; a palette whose color
classes cannot cover a decomposition's clique-vertex incidences is
refuted by counting.  Searches are deterministic: fail-first branching
(fewest feasible colors, ties to the lowest index, colors in ascending
order), with symmetry fixing that pre-colors one clique to collapse color
permutations.  The engine is iterative and bit-parallel: an explicit
stack instead of recursion, so there is no recursion-depth limit, and
graphs and color domains held as int bitmasks.  Its branching order, and
so every node count, verdict and witness, is that of the recursive engine
it replaced.  A negative answer is reported only after the search space
is exhausted or the counting bound refutes the palette; running out of
node budget is a distinct outcome, never conflated with a proof.
Sweeps split their instance stream into deterministic shards, one per
usable CPU, swept in forked workers; the merged report is the same
whatever the CPU count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from itertools import chain, combinations
from math import gcd
from time import perf_counter
from typing import Callable, Iterator, Optional

from . import shards as _shards
from .coloring import FullColoring, check_proper, color_shared, extend_to_full
from .core import EflGraph, vertex_key
from .decomposition import (
    CliqueDecomposition,
    DecompositionColoring,
    complete_host,
    first_clash,
    intersection_masks,
)

__all__ = [
    "BudgetExhausted",
    "Status",
    "SearchConfig",
    "SearchOutcome",
    "ChromaticResult",
    "chromatic_number",
    "color_decomposition",
    "SweepInstance",
    "enumerate_two_r_decompositions",
    "SweepReport",
    "sweep_two_r_decompositions",
    "greedy_baseline",
]


class BudgetExhausted(RuntimeError):
    """A search hit its node budget before finishing."""

    def __init__(self, nodes: int):
        super().__init__(f"node budget exhausted after {nodes} nodes")
        self.nodes = nodes


class Status(Enum):
    COLORABLE = "colorable"
    NOT_COLORABLE = "not_colorable"
    BUDGET_EXHAUSTED = "budget_exhausted"


@dataclass(frozen=True)
class SearchConfig:
    """Search knobs.

    node_limit bounds the number of color placements tried.
    progress, when set, is called with the running node count every
    progress_interval placements.
    """

    node_limit: int = 10**8
    progress: Optional[Callable[[int], None]] = field(
        default=None, compare=False
    )
    progress_interval: int = field(default=10**6, compare=False)

    def __post_init__(self):
        if self.node_limit < 1:
            raise ValueError("node_limit must be >= 1")
        if self.progress_interval < 1:
            raise ValueError("progress_interval must be >= 1")


@dataclass(frozen=True)
class SearchOutcome:
    """Result of one palette-limited search.

    A COLORABLE certificate gives intersecting cliques distinct colors
    within the palette, checked before returning whatever the palette
    (check_decomposition_coloring also fails a palette above the host
    order); NOT_COLORABLE means the space was exhausted or the capacity
    bound refuted the palette (0 nodes).
    """

    status: Status
    certificate: Optional[DecompositionColoring]
    nodes: int
    elapsed: float


@dataclass(frozen=True)
class ChromaticResult:
    """Exact chromatic number with a verified witness coloring."""

    value: int
    witness: FullColoring
    nodes: int
    elapsed: float


def _search(nb, palette, preset, node_limit, progress=None,
            interval=10**6):
    """Fail-first backtracking coloring over neighbor bitmasks.

    nb[v] is the bitmask of v's neighbors.  Returns (found, colors,
    nodes): found True with a complete 1-based color list, False after
    exhausting the space.  preset pairs are applied first, count as nodes
    and are never undone; an infeasible preset (a clique larger than the
    palette) exhausts the space immediately because presets are
    symmetry-canonical.  Raises BudgetExhausted past node_limit.

    The search is iterative, so depth is bounded by memory, not by the
    interpreter's recursion limit.  Each placement is one stack frame
    holding the bits it cleared: feasible[c] is the set of vertices that
    may still take color c, and placing c on v clears it from every
    uncolored neighbor in one operation; backtracking sets those bits
    again.  Each vertex's count of blocked colors is bit-sliced across
    the masks in blocked, so the fail-first vertex (most colors blocked,
    ties to the lowest index) is found by one descent over the slices,
    with no per-vertex scan.  Colors are tried in ascending order.
    """
    m = len(nb)
    uncolored = (1 << m) - 1
    feasible = [uncolored] * (palette + 1)
    # one slice per bit of a count up to palette, the highest bit first;
    # carries and borrows walk the slices from the lowest bit (up)
    blocked = [0] * palette.bit_length()
    up = range(len(blocked))[::-1]
    colors = range(1, palette + 1)
    frames = []  # (vertex, its bit, color, bits cleared from feasible)
    floor = len(preset)
    pending = list(reversed(preset))
    nodes = 0
    # the node count at which the budget runs out or progress is due
    due = node_limit + 1
    if progress is not None:
        due = min(due, interval)
    while True:
        if pending:
            v, c = pending.pop()
            bit = 1 << v
            if c > palette or not feasible[c] & bit:
                return False, None, nodes
        elif not uncolored:
            coloring = [0] * m
            for v, _, c, _ in frames:
                coloring[v] = c
            return True, coloring, nodes
        else:
            cand = uncolored
            for b in blocked:
                most = cand & b
                if most:
                    cand = most
            bit = cand & -cand
            v = bit.bit_length() - 1
            for c in colors:
                if feasible[c] & bit:
                    break
            else:
                # backtrack to the deepest vertex with an untried color
                while True:
                    if len(frames) == floor:
                        return False, None, nodes
                    v, bit, c, cleared = frames.pop()
                    uncolored |= bit
                    if cleared:
                        feasible[c] |= cleared
                        for k in up:  # blocked -= 1 on the cleared bits
                            x = blocked[k]
                            blocked[k] = x ^ cleared
                            cleared &= x ^ cleared
                            if not cleared:
                                break
                    for c in colors[c:]:  # the colors above c
                        if feasible[c] & bit:
                            break
                    else:
                        continue
                    break
        nodes += 1
        if nodes == due:
            if nodes > node_limit:
                raise BudgetExhausted(nodes)
            progress(nodes)
            due = min(node_limit + 1, nodes + interval)
        uncolored ^= bit
        cleared = nb[v] & feasible[c] & uncolored
        frames.append((v, bit, c, cleared))
        if cleared:
            feasible[c] ^= cleared
            for k in up:  # blocked += 1 on the cleared bits
                x = blocked[k]
                blocked[k] = x ^ cleared
                cleared &= x
                if not cleared:
                    break


def _greedy_clique(nb):
    """Deterministic clique: seed at the highest-degree vertex (ties to the
    lowest index), grow by the smallest common neighbor."""
    if not nb:
        return []
    degs = [x.bit_count() for x in nb]
    seed = degs.index(max(degs))
    clique = [seed]
    cands = nb[seed]
    while cands:
        low = cands & -cands
        v = low.bit_length() - 1
        clique.append(v)
        cands &= nb[v]
    return sorted(clique)


def _checked_witness(g: EflGraph, witness: FullColoring) -> FullColoring:
    """witness, once check_proper passes it; AssertionError otherwise."""
    chk = check_proper(g, witness)
    if not chk:
        raise AssertionError(
            f"solver produced an improper witness: {chk.reason}"
        )
    return witness


def chromatic_number(
    g: EflGraph, cfg: SearchConfig = SearchConfig()
) -> ChromaticResult:
    """Exact chromatic number of an EFL graph, with a verified witness.

    The defining clique Q_1 forces chi >= n.  When every shared vertex
    lies in exactly two defining cliques, the closed-form coloring
    extended to all vertices uses n colors; once it passes check_proper it
    certifies chi = n with no search (0 nodes).  Any other graph goes to
    the palette search of :func:`_chromatic_search`.  Raises
    AssertionError when a witness fails its check, and BudgetExhausted
    when the search's node budget runs out.
    """
    if not g.is_two_clique:
        return _chromatic_search(g, cfg)
    t0 = perf_counter()
    try:
        witness = extend_to_full(g, color_shared(g))
    except ValueError as e:  # the shared coloring repeats a color
        raise AssertionError(
            f"closed form produced an improper coloring: {e}"
        ) from None
    return ChromaticResult(
        g.n, _checked_witness(g, witness), 0, perf_counter() - t0
    )


def _chromatic_search(g: EflGraph, cfg: SearchConfig) -> ChromaticResult:
    """Chromatic number by search, palettes tried upward from n.

    Q_1 forces chi >= n, so the first success is exact.  Symmetry fixing
    pre-colors Q_1 1..n in vertex order, which is sound because any
    proper coloring permutes onto such an assignment.  Raises
    BudgetExhausted when the cumulative node budget runs out.
    """
    t0 = perf_counter()
    verts = g.vertices
    index = {v: i for i, v in enumerate(verts)}
    nb = [0] * len(verts)
    for q in g.cliques:
        qi = [index[v] for v in q]
        mask = sum(1 << i for i in qi)
        for i in qi:
            nb[i] |= mask ^ (1 << i)
    q1 = sorted(g.cliques[0], key=vertex_key)
    preset = [(index[v], c) for c, v in enumerate(q1, start=1)]
    total_nodes = 0
    k = g.n
    while True:
        try:
            found, colors, nodes = _search(
                nb,
                k,
                preset,
                cfg.node_limit - total_nodes,
                cfg.progress,
                cfg.progress_interval,
            )
        except BudgetExhausted as e:
            raise BudgetExhausted(total_nodes + e.nodes) from None
        total_nodes += nodes
        if found:
            witness = FullColoring(
                k, {verts[i]: c for i, c in enumerate(colors)}
            )
            return ChromaticResult(
                k, _checked_witness(g, witness), total_nodes,
                perf_counter() - t0,
            )
        k += 1


def _refuted_by_capacity(d: CliqueDecomposition, palette: int) -> bool:
    """True when palette colors cannot cover d's clique-vertex incidences.

    A color class is a set of pairwise vertex-disjoint cliques, so it
    covers at most N host vertices, and a multiple of g of them, where g
    is the gcd of the clique sizes: at most N - N % g.  More incidences
    than palette such classes can hold means no coloring exists.
    """
    if not d.cliques:
        return False
    sizes = [len(c) for c in d.cliques]
    n = d.host.vertex_count
    return sum(sizes) > palette * (n - n % gcd(*sizes))


def color_decomposition(
    d: CliqueDecomposition, palette: int, cfg: SearchConfig = SearchConfig()
) -> SearchOutcome:
    """Color d's cliques within the given palette, or prove it impossible.

    A palette that fails the color-class capacity bound is NOT_COLORABLE
    at 0 nodes; any other goes to the search of
    :func:`_decomposition_search`.
    """
    t0 = perf_counter()
    if _refuted_by_capacity(d, max(palette, 0)):
        return SearchOutcome(
            Status.NOT_COLORABLE, None, 0, perf_counter() - t0
        )
    return _decomposition_search(d, palette, cfg)


def _decomposition_search(
    d: CliqueDecomposition, palette: int, cfg: SearchConfig
) -> SearchOutcome:
    """Search for a coloring of d's cliques within the given palette.

    Branches on the intersection graph with fail-first ordering.  Symmetry
    fixing pre-colors a greedily grown clique of the intersection graph
    1, 2, ...; when that clique alone exceeds the palette the
    space is exhausted with no search.  COLORABLE certificates are
    re-checked for properness before returning.
    """
    t0 = perf_counter()
    nb = intersection_masks(d)
    preset = [(v, c) for c, v in enumerate(_greedy_clique(nb), start=1)]
    try:
        found, colors, nodes = _search(
            nb,
            max(palette, 0),
            preset,
            cfg.node_limit,
            cfg.progress,
            cfg.progress_interval,
        )
    except BudgetExhausted as e:
        return SearchOutcome(
            Status.BUDGET_EXHAUSTED, None, e.nodes, perf_counter() - t0
        )
    if not found:
        return SearchOutcome(
            Status.NOT_COLORABLE, None, nodes, perf_counter() - t0
        )
    clash = first_clash(nb, colors)
    if clash:
        s, t = clash
        raise AssertionError(
            f"solver certificate failed verification: cliques {s} and {t} "
            f"share a vertex and color {colors[s - 1]}"
        )
    cert = DecompositionColoring(palette, dict(enumerate(colors, 1)))
    return SearchOutcome(Status.COLORABLE, cert, nodes, perf_counter() - t0)


@dataclass(frozen=True)
class SweepInstance:
    """A decomposition of K_n whose cliques all have size 2 or size r."""

    n: int
    r: int
    decomposition: CliqueDecomposition


def _check_two_r(n: int, r: int):
    if not 3 <= r <= n:
        raise ValueError(f"need 3 <= r <= n, got r={r}, n={n}")


# the depth of a shard's prefixes: deep enough that (8, 3) has thousands
# of them, so dealing them out round robin balances the shards
SHARD_DEPTH = 12


def enumerate_two_r_decompositions(
    n: int, r: int, shard: int = 0, shards: int = 1
) -> Iterator[SweepInstance]:
    """Yield every labeled decomposition of K_n into 2-cliques and r-cliques.

    Backtracks on the lexicographically smallest uncovered edge, trying
    the r-cliques through it in lexicographic order before settling for a
    2-clique, so every decomposition appears exactly once (the clique
    covering the smallest undecided edge is forced at each step).  The
    first instance yielded is therefore the greedy lexicographic r-clique
    packing.  Labeled level only: no isomorph rejection.  r may equal n
    (the whole of K_n is then one admissible clique).

    The enumeration is iterative over edge bitmasks: edges are numbered
    lexicographically, the covered edges are one int, the next edge to
    branch on is the lowest bit of the uncovered ones, and each choice is
    one frame on an explicit stack.

    shard i of k yields the instances below the search prefixes of
    SHARD_DEPTH choices whose index in search order is i modulo k; a leaf
    shallower than that is its own prefix.  The k shards partition the
    stream, and each keeps its order.
    """
    _check_two_r(n, r)
    if not 0 <= shard < shards:
        raise ValueError(f"need 0 <= shard < shards, got {shard}/{shards}")
    host = complete_host(n)
    edges = sorted(host.edges)
    bit = {e: 1 << t for t, e in enumerate(edges)}
    # options[t]: the cliques that may cover edge t, each with its edge
    # mask: the r-cliques through it in lexicographic order, then the
    # edge itself as a 2-clique, which is always free when t is branched on
    options = []
    for i, j in edges:
        others = [v for v in range(1, n + 1) if v != i and v != j]
        opts = []
        for extra in combinations(others, r - 2):
            cand = tuple(sorted((i, j) + extra))
            opts.append((cand, sum(bit[f] for f in combinations(cand, 2))))
        opts.append(((i, j), bit[i, j]))
        options.append(opts)
    full = (1 << len(edges)) - 1
    covered = 0
    twos = []  # the edges settled as 2-cliques
    chosen = []  # the r-cliques
    # (edge, index of its option in force, that option's mask, the list
    # holding the option's clique)
    frames = []
    e = k = 0  # the edge to cover and the first of its options to try
    prefix = 0  # the search-order index of the next prefix
    while True:
        opts = options[e]
        while k < len(opts) and opts[k][1] & covered:
            k += 1
        if k < len(opts):
            clique, mask = opts[k]
            placed = twos if len(clique) == 2 else chosen
            placed.append(clique)
            covered |= mask
            frames.append((e, k, mask, placed))
            free = full ^ covered
            ours = True
            depth = len(frames)
            if depth == SHARD_DEPTH or (not free and depth < SHARD_DEPTH):
                ours = prefix % shards == shard
                prefix += 1
            if ours and free:
                e = (free & -free).bit_length() - 1
                k = 0
                continue
            if ours:
                # both lists grow in lexicographic order, so this is the
                # canonical (size, lexicographic) order
                cliques = tuple(twos) + tuple(chosen)
                yield SweepInstance(n, r, CliqueDecomposition(host, cliques))
        # undo the deepest choice and go on with the option after it
        if not frames:
            return
        e, k, mask, placed = frames.pop()
        covered ^= mask
        placed.pop()
        k += 1


@dataclass
class SweepReport:
    """Aggregate of one colorability sweep, keyed by canonical clique lists.

    budget_exhausted lists every instance whose search ran out of budget:
    at palette n, or, with minimum palettes, on a downward probe.  Such a
    probe settles no minimum, so the instance is counted colorable (the
    palette n search succeeded) but has no min_palettes entry.
    """

    n: int
    r: int
    instances: int
    colorable: int
    not_colorable: list
    budget_exhausted: list
    max_nodes: int
    min_palettes: Optional[list] = None

    def to_json(self) -> dict:
        out = {
            "n": self.n,
            "r": self.r,
            "instances": self.instances,
            "colorable": self.colorable,
            "not_colorable": self.not_colorable,
            "budget_exhausted": self.budget_exhausted,
            "max_nodes": self.max_nodes,
        }
        if self.min_palettes is not None:
            out["min_palettes"] = self.min_palettes
        return out


def _clique_lists(d: CliqueDecomposition) -> list:
    """d's cliques as JSON lists: the key a sweep report lists d by."""
    return [list(c) for c in d.cliques]


def _sweep_shard(n, r, cfg, minimum_palettes, shard, shards) -> tuple:
    """The sweep of one shard of the (2, r) stream, its lists unsorted:
    (instances, colorable, max_nodes, not_colorable, budget_exhausted,
    min_palettes)."""
    total = colorable = max_nodes = 0
    not_col, budget, minimums = [], [], []
    for inst in enumerate_two_r_decompositions(n, r, shard, shards):
        d = inst.decomposition
        out = color_decomposition(d, n, cfg)
        total += 1
        max_nodes = max(max_nodes, out.nodes)
        if out.status is Status.COLORABLE:
            colorable += 1
            if minimum_palettes:
                p = n
                while p > 0:
                    probe = color_decomposition(d, p - 1, cfg).status
                    if probe is not Status.COLORABLE:
                        break
                    p -= 1
                if probe is Status.BUDGET_EXHAUSTED:
                    budget.append(_clique_lists(d))
                else:
                    minimums.append(
                        {"cliques": _clique_lists(d), "min_palette": p}
                    )
        elif out.status is Status.NOT_COLORABLE:
            not_col.append(_clique_lists(d))
        else:
            budget.append(_clique_lists(d))
    return total, colorable, max_nodes, not_col, budget, minimums


def sweep_two_r_decompositions(
    n: int,
    r: int,
    cfg: SearchConfig = SearchConfig(),
    minimum_palettes: bool = False,
) -> SweepReport:
    """Color every decomposition of K_n with clique sizes {2, r} using
    palette n and report the totals.

    An instance that is not n-colorable would contradict the n-coloring
    claim for complete-host decompositions and is listed by its canonical
    clique list; budget exhaustions are listed separately, never dropped.
    With minimum_palettes, each colorable instance is probed downward for
    the least sufficient palette, which is reported only once a probe
    proves the palette below it NOT_COLORABLE; a probe that exhausts the
    budget lists the instance under budget_exhausted instead.

    The stream is swept in one shard per usable CPU, each but the first
    in a forked worker (:func:`eflcolor.shards.run`).  The shards
    partition the stream; their totals are summed and their lists merged
    and sorted, so the report does not depend on the CPU count.
    """
    _check_two_r(n, r)
    parts = _shards.run(
        partial(_sweep_shard, n, r, cfg, minimum_palettes),
        _shards.usable_cpus(),
    )
    totals, colorables, maxes, not_cols, budgets, minimums = zip(*parts)
    return SweepReport(
        n,
        r,
        sum(totals),
        sum(colorables),
        sorted(chain.from_iterable(not_cols)),
        sorted(chain.from_iterable(budgets)),
        max(maxes),
        sorted(
            chain.from_iterable(minimums),
            key=lambda entry: entry["cliques"],
        ) if minimum_palettes else None,
    )


def greedy_baseline(d: CliqueDecomposition) -> DecompositionColoring:
    """Greedy coloring of the intersection graph in descending-degree order.

    Ties break to the lower index; each clique takes the smallest color
    its vertex-sharing predecessors avoid.  Never needs more colors than
    the maximum intersection degree plus one, making it a cheap upper
    bound to compare against exact search.
    """
    nb = intersection_masks(d)
    order = sorted(range(len(nb)), key=lambda v: (-nb[v].bit_count(), v))
    classes = [0]  # classes[c]: bitmask of the cliques colored c
    colors: dict = {}
    for v in order:
        c = 1
        while c < len(classes) and classes[c] & nb[v]:
            c += 1
        if c == len(classes):
            classes.append(0)
        classes[c] |= 1 << v
        colors[v + 1] = c
    return DecompositionColoring(len(classes) - 1, colors)
