import ast
import inspect
import pathlib
import re
import types

import maxmintrees
import maxmintrees.cli as cli

PUBLIC = [
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
    "weight_recursive",
    "weight_via_descent_sums",
    "weight_via_leaves",
]

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


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


def test_no_assert_in_the_package():
    # python -O strips asserts, so a check in src/ must raise a real error
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "src" / "maxmintrees").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_cli_imports_only_public_names():
    # the command line is a client of the library's public surface;
    # dunders such as __version__ are public
    private = [
        alias.name
        for node in ast.walk(ast.parse(inspect.getsource(cli)))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").startswith("maxmintrees"))
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]
    assert private == []
