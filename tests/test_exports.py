import ast
import inspect
import pathlib
import re
import types

import maxmintrees
import maxmintrees.cli as cli

PUBLIC = [
    "DEFAULT_MAX_N",
    "LimitExceeded",
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
    "weight_recursive",
    "weight_via_descent_sums",
    "weight_via_leaves",
]

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_star_import_binds_exactly_the_public_names():
    namespace: dict = {}
    exec("from maxmintrees import *", namespace)
    public = {
        name
        for name, value in vars(maxmintrees).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(maxmintrees.__all__) == sorted(public)
    assert set(namespace) - {"__builtins__"} == public


def test_exports_are_the_public_contract():
    assert sorted(maxmintrees.__all__) == PUBLIC


def test_every_export_is_reached_by_the_cli_or_the_readme():
    cli_imports = {
        alias.name
        for node in ast.walk(ast.parse(inspect.getsource(cli)))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    readme = README.read_text(encoding="utf-8")
    unreached = [
        name
        for name in maxmintrees.__all__
        if name not in cli_imports and not re.search(rf"\b{name}\b", readme)
    ]
    assert unreached == []
