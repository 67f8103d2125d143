"""
Maxmin trees: permutation weights, q-Eulerian polynomials, and the
two-kind partition triangle.

The library builds the max-weight maxmin tree and the minimum
decomposition tree of a permutation, computes the permutation weight by
four routes that the tests hold equal to the defining recursion, counts
the symmetric group by (descents, weight) into the q-Eulerian
polynomials, extracts their stabilized coefficient series, and verifies
the correspondence between near-maximal-weight permutations and the
two-kind partition counts T(n, k) (OEIS A256193).

The library returns values, never text: ``build_min_decomp`` returns the
minimum decomposition as its parent tuple, ``q_eulerian`` returns a
read-only mapping (descents, weight) -> count, and every output format
(text, JSON, CSV, DOT) is rendered by the command line, ``maxmintrees.cli``.

The public contract is ``__all__``: the names the command line calls and
the ones README.md documents.  The building blocks behind them (the block
split, the stems, the partition enumeration) stay importable from their
submodules; the definitional routes that only the tests call live in
tests/oracles.py.
"""

__version__ = "0.1.0"

from .bijection import bijection_report, stable_region, stem_report
from .eulerian import (
    LimitExceeded,
    MAX_Q_ORDER,
    eulerian_polynomial,
    maxwt,
    q_eulerian,
    stabilization_values,
    wd_series,
)
from .mindecomp import build_min_decomp, weight_via_leaves
from .partitions import (
    PartitionTriangle,
    crosscheck_triangle,
    t_nk,
    t_nk_contributions,
    t_triangle,
)
from .perms import parse_permutation
from .trees import (
    MaxminTree,
    build_max_weight_tree,
    weight_via_descent_sums,
)
from .weights import descents_and_weight, range_details, weight_accelerated

__all__ = [
    "LimitExceeded",
    "MAX_Q_ORDER",
    "MaxminTree",
    "PartitionTriangle",
    "bijection_report",
    "build_max_weight_tree",
    "build_min_decomp",
    "crosscheck_triangle",
    "descents_and_weight",
    "eulerian_polynomial",
    "maxwt",
    "parse_permutation",
    "q_eulerian",
    "range_details",
    "stabilization_values",
    "stable_region",
    "stem_report",
    "t_nk",
    "t_nk_contributions",
    "t_triangle",
    "wd_series",
    "weight_accelerated",
    "weight_via_descent_sums",
    "weight_via_leaves",
]
