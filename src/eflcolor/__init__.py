"""EFL graphs: construction, closed-form colorings, clique decompositions,
and exact desk-scale colorability search."""

from .core import (
    EflGraph,
    GeneralVertex,
    Rejection,
    SharedVertex,
    UnsharedVertex,
    build_from_pairs,
    build_maximal,
    validate,
    vertex_key,
)
from .check import (
    CliqueDecomposition, DecompositionColoring, FullColoring, ProperCheck,
    SharedColoring, check_decomposition_coloring, check_proper,
    validate_decomposition,
)
from .coloring import color_shared, extend_to_full, pair_color
from .decomposition import (
    CliqueCapacityError,
    HostGraph,
    complete_host,
    decomposition_to_efl,
    efl_to_decomposition,
    intersection_graph,
)
from .solver import (
    BudgetExhausted,
    ChromaticResult,
    SearchConfig,
    SearchOutcome,
    Status,
    SweepReport,
    chromatic_number,
    color_decomposition,
    enumerate_two_r_decompositions,
    sweep_two_r_decompositions,
)

__version__ = "0.1.0"
