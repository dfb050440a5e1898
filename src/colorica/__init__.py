"""Graph-colouring search library: two population solvers over one encoding.

The unit of work is a colouring, an array of n colour indices (1-based
vertices).  `dica` drives an imperialist-style empire search, `ga` a
generational genetic algorithm; both minimize the same penalised cost and
report a RunResult.  `graphs` covers DIMACS I/O and instance generators,
`oracle` gives exact answers on small graphs, `bench` repeats seeded runs
and tallies successes.
"""

from .bench import BenchReport, TrialRecord, emit_report, resolve_chromatic, run_trials
from .coloring import (
    CostParams,
    cost,
    count_conflicts,
    distinct_colours,
    format_colouring,
    is_valid,
)
from .dica import DicaParams, Empire, run_dica
from .engine import RunResult
from .ga import GaParams, run_ga
from .graphs import (
    DimacsFormatError,
    Graph,
    GraphMeta,
    complete_graph,
    family_chromatic,
    max_degree,
    mycielski_graph,
    parse_dimacs,
    queen_graph,
    write_dimacs,
)
from .oracle import OracleLimit, OracleLimitExceeded, chromatic_number_exact, exists_colouring

__version__ = "0.1.0"

__all__ = [
    "BenchReport",
    "CostParams",
    "DicaParams",
    "DimacsFormatError",
    "Empire",
    "GaParams",
    "Graph",
    "GraphMeta",
    "OracleLimit",
    "OracleLimitExceeded",
    "RunResult",
    "TrialRecord",
    "__version__",
    "chromatic_number_exact",
    "complete_graph",
    "cost",
    "count_conflicts",
    "distinct_colours",
    "emit_report",
    "exists_colouring",
    "family_chromatic",
    "format_colouring",
    "is_valid",
    "max_degree",
    "mycielski_graph",
    "parse_dimacs",
    "queen_graph",
    "resolve_chromatic",
    "run_dica",
    "run_ga",
    "run_trials",
    "write_dimacs",
]
