"""
Maxmin trees: permutation weights, q-Eulerian polynomials, and the
two-kind partition triangle.

The library builds the max-weight maxmin tree and the minimum
decomposition tree of a permutation, computes the permutation weight by
five mutually checking routes, enumerates the symmetric group into exact
bivariate (descents, weight) polynomials, extracts their stabilized
coefficient series, and verifies the correspondence between
near-maximal-weight permutations and the two-kind partition counts
T(n, k) (OEIS A256193).
"""

__version__ = "0.1.0"

from .bijection import (
    Stem,
    bijection_report,
    enumerate_stems,
    stable_region,
    stem_count,
    stem_to_partition,
    target_weight,
)
from .eulerian import (
    DEFAULT_MAX_N,
    BivariatePolynomial,
    LimitExceeded,
    eulerian_polynomial,
    format_bivariate,
    maxwt,
    q_eulerian,
    stabilization_values,
    wd_series,
)
from .mindecomp import (
    MinDecompTree,
    build_min_decomp,
    classify,
    move_up,
    verify_injectivity,
    weight_via_leaves,
)
from .partitions import (
    PartitionTriangle,
    crosscheck_triangle,
    enumerate_partitions,
    t_nk,
    t_nk_contributions,
    t_triangle,
)
from .perms import (
    descent_count,
    descent_positions,
    descent_values,
    extend,
    parse_permutation,
    validate_permutation,
)
from .trees import (
    BlockDecomposition,
    MaxminTree,
    build_max_weight_tree,
    decompose_blocks,
    is_maxmin,
    subtree,
    tree_descents,
    weight_recursive,
    weight_via_descent_sums,
)
from .weights import (
    descents_and_weight,
    weight_accelerated,
)

__all__ = [
    "BivariatePolynomial",
    "BlockDecomposition",
    "DEFAULT_MAX_N",
    "LimitExceeded",
    "MaxminTree",
    "MinDecompTree",
    "PartitionTriangle",
    "Stem",
    "bijection_report",
    "build_max_weight_tree",
    "build_min_decomp",
    "classify",
    "crosscheck_triangle",
    "decompose_blocks",
    "descent_count",
    "descent_positions",
    "descent_values",
    "descents_and_weight",
    "enumerate_partitions",
    "enumerate_stems",
    "eulerian_polynomial",
    "extend",
    "format_bivariate",
    "is_maxmin",
    "maxwt",
    "move_up",
    "parse_permutation",
    "q_eulerian",
    "stabilization_values",
    "stable_region",
    "stem_count",
    "stem_to_partition",
    "subtree",
    "t_nk",
    "t_nk_contributions",
    "t_triangle",
    "target_weight",
    "tree_descents",
    "validate_permutation",
    "verify_injectivity",
    "wd_series",
    "weight_accelerated",
    "weight_recursive",
    "weight_via_descent_sums",
    "weight_via_leaves",
]
