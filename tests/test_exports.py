import types

import maxmintrees


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
