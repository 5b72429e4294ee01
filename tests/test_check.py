"""eflcolor.check holds every rule a user must trust, so it must stand
apart from the code it judges: it imports nothing from eflcolor but
core and never names the closed form.  Every eflcolor module imports
when it is the first one imported, so moving code between modules left
no import cycle, and the names the traced benchmark wraps still resolve
from their old modules to check's own functions.  The counting bound is
the only way the solver refutes a palette at 0 nodes, and check_proper's
per-clique screen agrees with the per-vertex oracle on partial
colorings."""

import ast
import importlib
import pkgutil
import random
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

import eflcolor
from eflcolor import check, solver
from eflcolor.check import SharedColoring, check_proper, over_capacity
from eflcolor.core import build_maximal, vertex_key
from eflcolor.decomposition import complete_host
from eflcolor.solver import Status, color_decomposition
from helpers import reference_check_proper, reference_color_shared

SRC = Path(eflcolor.__file__).resolve().parent
CHECK_PY = SRC / "check.py"

# __main__ runs the CLI on import
MODULES = sorted(
    m.name for m in pkgutil.iter_modules(eflcolor.__path__)
    if m.name != "__main__"
)


def eflcolor_imports(path: Path) -> set:
    """The eflcolor modules that the file at path imports, by name."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] != "eflcolor":
                continue
            if node.level == 0:
                module = module.partition(".")[2]
            if module:
                found.add(module)
            else:  # from . import name
                found.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            found.update(
                a.name.partition(".")[2] or a.name for a in node.names
                if a.name.split(".")[0] == "eflcolor"
            )
    return found


def test_check_imports_only_core():
    assert eflcolor_imports(CHECK_PY) == {"core"}


def test_the_import_scan_sees_every_form(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text(
        "from .core import x\nfrom . import solver\n"
        "from eflcolor.coloring import y\nimport eflcolor.cli\n"
        "import json\nfrom collections import Counter\n",
        encoding="utf-8",
    )
    assert eflcolor_imports(source) == {"core", "solver", "coloring", "cli"}


def test_check_never_names_the_closed_form():
    with open(CHECK_PY, "rb") as fh:
        names = {
            t.string for t in tokenize.tokenize(fh.readline)
            if t.type == tokenize.NAME
        }
    assert not names & {"pair_color", "pair_colors"}


# imports eflcolor.<argv[1]> with no package __init__ run before it, so
# the module is the first of eflcolor's to load
FIRST_IMPORT = """
import importlib, sys, types
package = types.ModuleType("eflcolor")
package.__path__ = [sys.argv[2]]
sys.modules["eflcolor"] = package
importlib.import_module("eflcolor." + sys.argv[1])
"""


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_first(name):
    done = subprocess.run(
        [sys.executable, "-c", FIRST_IMPORT, name, str(SRC)],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("module,name", [
    ("coloring", "check_proper"),
    ("decomposition", "validate_decomposition"),
    ("decomposition", "check_decomposition_coloring"),
])
def test_traced_names_resolve_from_their_old_modules(module, name):
    old = importlib.import_module(f"eflcolor.{module}")
    assert getattr(old, name) is getattr(check, name)


def test_capacity_is_the_only_zero_node_refutation(monkeypatch):
    # K_9's edges at palette 8: the bound refutes at the root; without
    # it the search must run, and agrees after 7,612,056 nodes, so a
    # budget shows that it ran
    edges = [(i, j) for i in range(1, 10) for j in range(i + 1, 10)]
    assert over_capacity(edges, 8, 9)
    d = check.validate_decomposition(complete_host(9), edges)
    assert color_decomposition(d, 8).nodes == 0
    monkeypatch.setattr(solver, "over_capacity", lambda *_: False)
    got = color_decomposition(d, 8, solver.SearchConfig(node_limit=1000))
    assert got.status is Status.BUDGET_EXHAUSTED


@pytest.mark.parametrize("n", [6, 7])
def test_partial_shared_colorings_match_the_oracle(n):
    # uncolored shared vertices repeat None in a clique's colors, which
    # the per-clique screen must not count as a clash
    g = build_maximal(n)
    shared = sorted(reference_color_shared(g).colors.items(),
                    key=lambda entry: vertex_key(entry[0]))
    rng = random.Random(n)
    for _ in range(40):
        kept = dict(rng.sample(shared, len(shared) // 2))
        if rng.random() < 0.5:  # may clash, if u and w are adjacent
            u, w = rng.sample(sorted(kept, key=vertex_key), 2)
            kept[u] = kept[w]
        c = SharedColoring(n, kept)
        assert check_proper(g, c) == reference_check_proper(g, c)
