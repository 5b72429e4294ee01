"""Spans around eflcolor's public functions, recorded from outside.

Each listed function is replaced, in every eflcolor module that holds it,
by a wrapper that times the call.  Replacing the module attributes
matters: `from .solver import color_decomposition` binds a second name,
and a caller resolves whichever name its own module holds, so the sweep
reaches `eflcolor.solver.color_decomposition` while the CLI reaches
`eflcolor.cli.chromatic_number`.  Spans are folded into per-name self
time (span time minus the time of the spans it encloses) and call counts
as they close, because a sweep opens about 700,000 of them.  Functions
called once per vertex, such as `serialize.vertex_to_json`, are left
unwrapped: their cost lands in the caller's self time instead of
multiplying the tracing overhead.
"""

import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

from eflcolor import solver

# (module, function) -> span name
SPANS = {
    ("cli", "main"): "cli",
    ("core", "build_maximal"): "core.build",
    ("core", "build_from_pairs"): "core.build",
    ("core", "validate"): "core.validate",
    ("coloring", "color_shared"): "coloring.color_shared",
    ("coloring", "extend_to_full"): "coloring.extend_to_full",
    ("coloring", "check_proper"): "coloring.check_proper",
    ("serialize", "graph_to_json"): "serialize.graph_to_json",
    ("serialize", "graph_from_json"): "serialize.graph_from_json",
    ("serialize", "coloring_to_json"): "serialize.coloring_to_json",
    ("serialize", "decomposition_coloring_to_json"):
        "serialize.coloring_to_json",
    ("serialize", "vertex_coloring_from_json"):
        "serialize.coloring_from_json",
    ("serialize", "decomposition_coloring_from_json"):
        "serialize.coloring_from_json",
    ("serialize", "decomposition_to_json"): "serialize.decomposition_to_json",
    ("serialize", "decomposition_from_json"):
        "serialize.decomposition_from_json",
    ("serialize", "dumps"): "serialize.dumps",
    ("decomposition", "efl_to_decomposition"):
        "decomposition.efl_to_decomposition",
    ("decomposition", "decomposition_to_efl"):
        "decomposition.decomposition_to_efl",
    ("decomposition", "validate_decomposition"):
        "decomposition.validate_decomposition",
    ("decomposition", "check_decomposition_coloring"):
        "decomposition.check_coloring",
    ("solver", "chromatic_number"): "solver.chromatic_number",
    ("solver", "color_decomposition"): "solver.color_decomposition",
    # the enumerator is a generator drained inside the sweep, so the
    # sweep's self time is the enumeration
    ("solver", "sweep_two_r_decompositions"): "solver.sweep_self",
}


class Tracer:
    """Self time and calls per span name, plus the solver's counts."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.max_nodes = 0
        self._open = []  # child time of each open span, innermost last
        for span in set(SPANS.values()) - {"cli"}:
            self.self_s[span] = 0.0
            self.calls[span] = 0

    def _search(self, nodes, colored=0, exhausted=False):
        self.counts["search_nodes"] += nodes
        self.counts["vertices_colored"] += colored
        self.counts["budget_exhausted"] += exhausted
        self.max_nodes = max(self.max_nodes, nodes)

    def _observe(self, span, result, error):
        if span == "solver.chromatic_number":
            if isinstance(error, solver.BudgetExhausted):
                self._search(error.nodes, exhausted=True)
            elif error is None:
                self._search(result.nodes, len(result.witness.colors))
        elif span == "solver.color_decomposition" and error is None:
            cert = result.certificate
            self._search(
                result.nodes,
                len(cert.colors) if cert else 0,
                result.status is solver.Status.BUDGET_EXHAUSTED,
            )
        elif span == "serialize.dumps" and error is None:
            self.counts["bytes_out"] += len(result)

    def wrap(self, span, fn):
        def traced(*args, **kwargs):
            # cli.main(argv) is named after its subcommand
            name = f"cli.{args[0][0].replace('-', '_')}" if span == "cli" \
                else span
            self._open.append(0.0)
            t0 = perf_counter()
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                error = e
                raise
            finally:
                elapsed = perf_counter() - t0
                self.self_s[name] += elapsed - self._open.pop()
                self.calls[name] += 1
                if self._open:
                    self._open[-1] += elapsed
                self._observe(span, result, error)

        return traced

    def install(self):
        """Wrap every listed function at each eflcolor module attribute
        that refers to it."""
        modules = [
            m for name, m in list(sys.modules.items())
            if name == "eflcolor" or name.startswith("eflcolor.")
        ]
        for (module, function), span in SPANS.items():
            original = getattr(
                importlib.import_module(f"eflcolor.{module}"), function
            )
            traced = self.wrap(span, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, traced)

    def summary(self):
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "max_nodes": self.max_nodes,
        }
