"""Clique structure of Johnson graphs J_n(m, m-1).

Vertices are m-subsets of {1..n}, adjacent when they share m-1 elements.
The package provides exact subset combinatorics, the implicit graph, the
closed-form enumeration and classification of maximal cliques, clique and
clique-partition numbers, and a brute-force oracle that independently
verifies every closed-form claim.

The names imported below are the public API.
"""

from .combinat import (
    MAX_GROUND_SET,
    Label,
    binomial,
    colex_key,
    format_label,
    iter_subsets_colex,
    make_label,
    parse_label,
    rank,
    unrank,
    validate_label,
)
from .errors import RangeError, RegimeError, ValidationError
from .graph import (
    Edge,
    JohnsonParams,
    are_adjacent,
    edge_count,
    edges,
    export,
    neighbors,
    vertex_count,
)
from .cliques import (
    Classification,
    ClassificationKind,
    Clique,
    CliqueClass,
    CliquePartition,
    MaximalClique,
    classify,
    clique_number,
    clique_partition,
    clique_partition_number,
    enumerate_max_cliques,
    enumerate_min_cliques,
    extend_to_maximal,
    intersection_of,
    is_clique,
    union_of,
)
from .oracle import (
    DenseGraph,
    FailedPair,
    SkippedPair,
    VerificationReport,
    materialize,
    maximal_cliques,
    verify,
    verify_range,
)

__version__ = "0.1.0"
