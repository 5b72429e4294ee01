"""Exact answers at desk scale: a checked certificate or a counting proof
first, backtracking search only when neither settles the question.

Three engines: the chromatic number of a small EFL graph, palette-limited
coloring of a clique decomposition, and exhaustive enumeration of the
decompositions of K_n whose cliques all have size 2 or size r, swept for
n-colorability.  Every palette question is asked of a list of cliques,
by one function, :func:`_color_cliques`: a graph is colored on the
cliques of its decomposition, palettes n, n + 1, ... in turn.  A palette
whose color classes cannot cover the clique-vertex incidences is refuted
by counting.  A decomposition made only of 2-cliques is colored, at any
palette the closed form fits in, by the paper's coloring: the clique
(i, j) stands for the vertex shared by Q_i and Q_j, and takes its
entry of :func:`eflcolor.coloring.pair_colors`, an edge coloring of K_n.
Any other palette is searched, deterministically: fail-first branching
(fewest feasible colors, ties to the lowest index, colors in ascending
order), with symmetry fixing that pre-colors a greedy clique to collapse
color permutations.  The engine is iterative and bit-parallel: an explicit
stack instead of recursion, so there is no recursion-depth limit, and
graphs and color domains held as int bitmasks.  Its branching order, and
so every node count, verdict and witness, is that of the recursive
engine it replaced.  A negative answer is reported only after the search
space is exhausted or the counting bound refutes the palette; running
out of node budget is a distinct outcome, never conflated with a proof.
Every certificate is checked before it leaves this module, by the caller
that hands it out, with one check: :func:`eflcolor.check.check_cliques`,
in time linear in the cliques' clique-vertex incidences; the counting
bound is :func:`eflcolor.check.over_capacity`.  Sweeps split their
instance stream into deterministic shards, one per usable CPU, swept in
forked workers; the merged report is the same whatever the CPU count.
A sweep leaf whose first-fit coloring, kept by the enumerator, fits in
palette n is certified at 0 nodes; any other goes to
:func:`_color_cliques`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from itertools import chain, combinations
from typing import Callable, Iterator, Optional

from . import shards as _shards
from .check import (
    CliqueDecomposition, DecompositionColoring, FullColoring, check_cliques,
    check_proper, over_capacity,
)
from .coloring import pair_colors, _fill
from .core import EflGraph
from .decomposition import clique_masks, complete_host, efl_cliques

__all__ = [
    "BudgetExhausted",
    "Status",
    "SearchConfig",
    "SearchOutcome",
    "ChromaticResult",
    "chromatic_number",
    "color_decomposition",
    "MAX_SWEEP_ORDER",
    "enumerate_two_r_decompositions",
    "SweepReport",
    "sweep_two_r_decompositions",
]


# what a certificate that fails its check raises, before the reason
_UNVERIFIED = "solver certificate failed verification"


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
    million placements.
    """

    node_limit: int = 10**8
    progress: Optional[Callable[[int], None]] = field(
        default=None, compare=False
    )

    def __post_init__(self):
        if self.node_limit < 1:
            raise ValueError("node_limit must be >= 1")


@dataclass(frozen=True)
class SearchOutcome:
    """Result of one palette-limited search.

    A COLORABLE certificate gives intersecting cliques distinct colors
    within the palette, checked by check_cliques on the cliques before
    returning whatever the palette (check_decomposition_coloring also
    fails a palette above the host order); NOT_COLORABLE means the space
    was exhausted or over_capacity refuted the palette (0 nodes).
    """

    status: Status
    certificate: Optional[DecompositionColoring]
    nodes: int


@dataclass(frozen=True)
class ChromaticResult:
    """Exact chromatic number with a verified witness coloring."""

    value: int
    witness: FullColoring
    nodes: int


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
    if palette > m:
        # a vertex has at most m - 1 neighbors, so branching, which places
        # the lowest feasible color, never places one above m: capping the
        # palette at m, or at the highest preset color, changes no node or
        # color, and keeps feasible small
        palette = min(palette, max([m, *(c for _, c in preset)]))
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


def chromatic_number(
    g: EflGraph, cfg: SearchConfig = SearchConfig()
) -> ChromaticResult:
    """Exact chromatic number of an EFL graph, with a verified witness.

    The defining clique Q_1 forces chi >= n.  Shared vertices are
    adjacent exactly when their cliques meet, and at a palette k >= n a
    clique's unshared vertices fit in the colors its shared vertices
    leave free, so chi is the least k >= n at which the cliques of
    :func:`eflcolor.decomposition.efl_cliques` color, tried upward
    against one cumulative node budget.  A two-clique graph's cliques are all
    2-cliques, colored at k = n by the closed form (0 nodes).  The
    witness gives each shared vertex its clique's color and fills the
    rest as :func:`eflcolor.coloring.extend_to_full` does.  Raises
    AssertionError when the fill or check_proper rejects the witness, and
    BudgetExhausted when the node budget runs out.
    """
    cliques = efl_cliques(g)
    k = g.n
    total = 0
    while True:
        status, colors, nodes = _color_cliques(
            cliques, k, g.n, cfg.node_limit - total, cfg.progress
        )
        total += nodes
        if status is Status.COLORABLE:
            break
        if status is Status.BUDGET_EXHAUSTED:
            raise BudgetExhausted(total)
        k += 1
    labeled = set(g.label_cliques)
    color_of = {ix: c for ix, c in zip(cliques, colors) if ix in labeled}
    # the other cliques are the named pairs, sorted, as they are numbered
    colors = [c for ix, c in zip(cliques, colors) if ix not in labeled]
    colors += [None] * (g.start[-1] - len(colors))
    colors += map(color_of.get, g.label_cliques)
    try:
        witness = _fill(g, colors, k)
    except ValueError as e:  # a clique repeats a color, or holds one above k
        raise AssertionError(
            f"solver produced an improper witness: {e}"
        ) from None
    check_proper(g, witness).require("solver produced an improper witness")
    return ChromaticResult(k, witness, total)


def color_decomposition(
    d: CliqueDecomposition, palette: int, cfg: SearchConfig = SearchConfig()
) -> SearchOutcome:
    """Color d's cliques within the given palette, or prove it impossible.

    :func:`_color_cliques` answers: a palette that fails the color-class
    capacity bound is NOT_COLORABLE at 0 nodes, the closed form colors
    2-cliques at 0 nodes, and any other palette is searched.  A COLORABLE
    certificate passes :func:`eflcolor.check.check_cliques` on d's
    cliques, and keeps the caller's palette.
    """
    status, colors, nodes = _color_cliques(
        d.cliques, max(palette, 0), d.host.vertex_count, cfg.node_limit,
        cfg.progress,
    )
    cert = None
    if status is Status.COLORABLE:
        check_cliques(d.cliques, colors).require(_UNVERIFIED)
        cert = DecompositionColoring(palette, dict(enumerate(colors, 1)))
    return SearchOutcome(status, cert, nodes)


def _greedy_preset(nb) -> list:
    """Symmetry fixing: a greedily grown clique of the intersection graph,
    pre-colored 1, 2, ... as (vertex, color) pairs.  Any coloring permutes
    onto one that agrees with it, and it does not depend on the palette."""
    return [(v, c) for c, v in enumerate(_greedy_clique(nb), start=1)]


def _color_cliques(cliques, palette: int, order: int, node_limit: int,
                   progress) -> tuple:
    """(status, colors, nodes) of coloring cliques, those of a
    decomposition of a host of the given order, within palette >= 0:
    colors[t] is clique t + 1's color when COLORABLE, and None otherwise.
    The colors are not checked here: each caller checks the certificate
    it hands out.

    A palette that :func:`eflcolor.check.over_capacity` refutes is
    NOT_COLORABLE at 0 nodes.  When every clique is a 2-clique and the
    palette holds the closed form's, n - 1 for an even order n and n for
    an odd one, clique (i, j) takes pair_color(order, i, j), through
    pair_colors, at 0 nodes.  Any other palette is searched on the
    cliques' intersection masks, node_limit nodes at most.
    """
    if over_capacity(cliques, palette, order):
        return Status.NOT_COLORABLE, None, 0
    if set(map(len, cliques)) <= {2} and palette >= order - 1 + order % 2:
        return Status.COLORABLE, pair_colors(order, cliques), 0
    nb = clique_masks(cliques)
    try:
        found, colors, nodes = _search(
            nb, palette, _greedy_preset(nb), node_limit, progress
        )
    except BudgetExhausted as e:
        return Status.BUDGET_EXHAUSTED, None, e.nodes
    if not found:
        return Status.NOT_COLORABLE, None, nodes
    return Status.COLORABLE, colors, nodes


# the largest order a sweep accepts.  The enumerator builds its table of
# C(n, 2) * C(n - 2, r - 2) candidate cliques, each with a C(n, 2)-bit
# edge mask, before it yields anything: at n = 12 that is at most 16,632
# cliques (r = 7), 0.1 s and 3 MiB, while n = 16, r = 9 already takes
# 2.6 s and 90 MiB, and sweep --n 1000 --r 3 would exhaust memory
MAX_SWEEP_ORDER = 12


def _check_two_r(n: int, r: int):
    if not 3 <= r <= n:
        raise ValueError(f"need 3 <= r <= n, got r={r}, n={n}")
    if n > MAX_SWEEP_ORDER:
        raise ValueError(
            f"sweep order must be <= {MAX_SWEEP_ORDER}, got n={n}"
        )


# the depth of a shard's prefixes: deep enough that (8, 3) has thousands
# of them, so dealing them out round robin balances the shards
SHARD_DEPTH = 12


def enumerate_two_r_decompositions(
    n: int, r: int
) -> Iterator[CliqueDecomposition]:
    """Yield every labeled decomposition of K_n into 2-cliques and r-cliques.

    Backtracks on the lexicographically smallest uncovered edge, trying
    the r-cliques through it in lexicographic order before settling for a
    2-clique, so every decomposition appears exactly once (the clique
    covering the smallest undecided edge is forced at each step).  The
    first instance yielded is therefore the greedy lexicographic r-clique
    packing.  Labeled level only: no isomorph rejection.  r may equal n
    (the whole of K_n is then one admissible clique).
    """
    _check_two_r(n, r)
    host = complete_host(n)
    for twos, chosen, _ in _two_r_leaves(n, r, 0, 1):
        yield CliqueDecomposition(host, tuple(twos) + tuple(chosen))


def _two_r_leaves(n: int, r: int, shard: int, shards: int) -> Iterator:
    """The leaves of :func:`enumerate_two_r_decompositions`'s search, in
    its order: (twos, chosen, colors) with the 2-cliques and the
    r-cliques, each a list in lexicographic order, so twos + chosen is
    the canonical clique order, and the leaf's first-fit colors in that
    order, or None when some clique found no free color in 1..n.  twos
    and chosen are the enumerator's own lists, valid until the next leaf
    is asked for.

    shard i of k yields the leaves below the search prefixes of
    SHARD_DEPTH choices whose index in search order is i modulo k; a leaf
    shallower than that is its own prefix.  The k shards partition the
    leaves, and each keeps their order.

    The enumeration is iterative over edge bitmasks: edges are numbered
    lexicographically, the covered edges are one int, the next edge to
    branch on is the lowest bit of the uncovered ones, and each choice is
    one frame on an explicit stack.  Each host vertex keeps the bitmask
    of the colors of the placed cliques at it: a placed clique takes the
    least color free at all its vertices, and undoing it frees the color,
    so each color is chosen once per node for every leaf below it:
    first-fit in the order of least edges.
    """
    edges = list(combinations(range(1, n + 1), 2))  # in lexicographic order
    bit = {e: 1 << t for t, e in enumerate(edges)}
    twos = []  # the edges settled as 2-cliques
    chosen = []  # the r-cliques
    # used[v]: the colors at host vertex v, color c as bit c; two_hues
    # and r_hues: the colors of twos and chosen
    used = [0] * (n + 1)
    palette = (1 << n + 1) - 2  # colors 1..n
    two_hues, r_hues = [], []
    stuck = 0  # the placed cliques that found no free color
    # options[t]: the cliques that may cover edge t, each with its edge
    # mask and the lists of placed cliques and of colors it joins:
    # the r-cliques through it in lexicographic order, then the edge
    # itself as a 2-clique, which is always free when t is branched on
    options = []
    for i, j in edges:
        others = [v for v in range(1, n + 1) if v != i and v != j]
        opts = []
        for extra in combinations(others, r - 2):
            cand = tuple(sorted((i, j) + extra))
            opts.append((
                cand, sum(bit[f] for f in combinations(cand, 2)),
                chosen, r_hues,
            ))
        opts.append(((i, j), bit[i, j], twos, two_hues))
        options.append(opts)
    full = (1 << len(edges)) - 1
    covered = 0
    # (edge, index of its option in force, that option's edge mask, the
    # lists it joined and its color's bit, 0 if none)
    frames = []
    e = k = 0  # the edge to cover and the first of its options to try
    prefix = 0  # the search-order index of the next prefix
    while True:
        opts = options[e]
        # edge e is uncovered, so its own 2-clique, the last option, fits
        while opts[k][1] & covered:
            k += 1
        clique, mask, placed, hues = opts[k]
        taken = 0
        for v in clique:
            taken |= used[v]
        hue = palette & ~taken
        hue &= -hue
        for v in clique:
            used[v] |= hue
        stuck += not hue
        placed.append(clique)
        hues.append(hue.bit_length() - 1)
        covered |= mask
        frames.append((e, k, mask, placed, hues, hue))
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
            yield twos, chosen, None if stuck else two_hues + r_hues
        # undo choices, deepest first, until one has an option after it
        while True:
            if not frames:
                return
            e, k, mask, placed, hues, hue = frames.pop()
            covered ^= mask
            for v in placed.pop():
                used[v] ^= hue
            hues.pop()
            stuck -= not hue
            k += 1
            if k < len(options[e]):
                break


@dataclass
class SweepReport:
    """Aggregate of one colorability sweep, keyed by canonical clique lists.

    budget_exhausted lists every instance whose search ran out of budget:
    at palette n, or, with minimum palettes, on a downward probe.  Such a
    probe settles no minimum, so the instance is counted colorable (the
    palette n search succeeded) but has no min_palettes entry.
    max_nodes is the most search nodes of an instance at palette n; one
    certified by its first-fit coloring or by the closed form counts 0.
    """

    n: int
    r: int
    instances: int
    colorable: int
    not_colorable: list
    budget_exhausted: list
    max_nodes: int
    min_palettes: Optional[list] = None


def _sweep_shard(n, r, cfg, minimum_palettes, shard, shards) -> tuple:
    """The sweep of one shard of the (2, r) stream, its lists unsorted:
    (instances, colorable, max_nodes, not_colorable, budget_exhausted,
    min_palettes).

    A leaf with first-fit colors is COLORABLE at 0 nodes; any other is
    colored at palette n by :func:`_color_cliques`.  Every coloring, of
    the leaf or of a downward probe, must pass
    :func:`eflcolor.check.check_cliques` on the leaf's cliques.  A
    coloring whose largest color is m proves every palette >= m, so the
    probes start at palette m - 1.
    """
    total = colorable = max_nodes = 0
    not_col, budget, minimums = [], [], []
    for twos, chosen, colors in _two_r_leaves(n, r, shard, shards):
        total += 1
        cliques = twos + chosen
        status = Status.COLORABLE
        if colors is None:
            status, colors, nodes = _color_cliques(
                cliques, n, n, cfg.node_limit, cfg.progress
            )
            max_nodes = max(max_nodes, nodes)
        if status is Status.COLORABLE:
            check_cliques(cliques, colors).require(_UNVERIFIED)
            colorable += 1
            if not minimum_palettes:
                continue
            p = max(colors)
            while p > 0:
                probe, low, _ = _color_cliques(
                    cliques, p - 1, n, cfg.node_limit, cfg.progress
                )
                if probe is not Status.COLORABLE:
                    break
                check_cliques(cliques, low).require(_UNVERIFIED)
                p -= 1
            if probe is Status.BUDGET_EXHAUSTED:
                status = probe
        listed = [list(c) for c in cliques]
        if status is Status.COLORABLE:
            minimums.append({"cliques": listed, "min_palette": p})
        elif status is Status.NOT_COLORABLE:
            not_col.append(listed)
        else:
            budget.append(listed)
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
