"""Decycling sets and decycling-number bounds for even graphs, computed
through cycle intersection graphs of cycle decompositions."""

from .cigraph import (
    CIGraph,
    ForestCover,
    Link,
    build_ci,
    cycle_rank,
    is_simple,
    max_matching,
    msf,
)
from .decompose import (
    Cycle,
    CycleDecomposition,
    decompose_greedy,
    decomposition_violations,
    enumerate_decompositions,
    neighbors,
)
from .decycling import (
    DEFAULT_ORACLE_LIMIT,
    BoundReport,
    analyze,
    analyze_components,
    bound_edge_count,
    certify,
    decycle_general,
    decycle_tree_ci,
    exact_decycling_number,
    merge_reports,
    verify_decycling,
)
from .errors import (
    DecycleError,
    DisconnectedError,
    DomainError,
    InvalidDecompositionError,
    InvariantError,
    NotEvenError,
    OracleLimitError,
    ParseError,
)
from .families import FamilySpec, build_family
from .multigraph import (
    DecyclingSet,
    Multigraph,
    is_acyclic,
    is_connected,
    is_even,
    parse_edge_list,
    to_edge_list,
)
from .optimize import OptimizationResult, optimize_decomposition

__version__ = "0.1.0"
