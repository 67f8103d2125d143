import doctest
import importlib
import pkgutil

import maxmintrees


def test_every_docstring_example_passes():
    names = ["maxmintrees"] + [
        f"maxmintrees.{m.name}" for m in pkgutil.iter_modules(maxmintrees.__path__)
    ]
    attempted = 0
    for name in names:
        result = doctest.testmod(importlib.import_module(name))
        assert result.failed == 0, name
        attempted += result.attempted
    assert attempted >= 28
