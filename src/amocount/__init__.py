"""Exact counting of Markov-equivalent DAGs under directed background knowledge."""

__version__ = "0.1.0"

from .counting import (
    PermutationCapError,
    SessionResult,
    SessionStats,
    count_session,
    count_uccg,
)
from .generators import (
    GenConfig,
    GenerationError,
    gen_amo_claims,
    gen_background,
    grow_background,
    random_chordal,
)
from .graphs import (
    RootedCliqueTree,
    UndirectedGraph,
    clique_tree,
    is_chordal,
    lbfs_order,
    maximal_cliques,
)
from .mec import (
    BackgroundKnowledge,
    InvalidInstanceError,
    MecInstance,
    PartiallyDirectedGraph,
    chordal_components,
    max_clique_knowledge,
    validate,
)
from .oracle import (
    DEFAULT_ORACLE_CAP,
    OracleCapError,
    amos_represented_by,
    enumerate_amos,
    union_graph,
    v_structures,
)

__all__ = [
    "__version__",
    "BackgroundKnowledge",
    "DEFAULT_ORACLE_CAP",
    "GenConfig",
    "GenerationError",
    "InvalidInstanceError",
    "MecInstance",
    "OracleCapError",
    "PartiallyDirectedGraph",
    "PermutationCapError",
    "RootedCliqueTree",
    "SessionResult",
    "SessionStats",
    "UndirectedGraph",
    "amos_represented_by",
    "chordal_components",
    "clique_tree",
    "count_session",
    "count_uccg",
    "enumerate_amos",
    "gen_amo_claims",
    "gen_background",
    "grow_background",
    "is_chordal",
    "lbfs_order",
    "max_clique_knowledge",
    "maximal_cliques",
    "random_chordal",
    "union_graph",
    "v_structures",
    "validate",
]
