import types

import busemetric


def test_all_names_the_public_surface():
    # `from busemetric import *` exports exactly the names the package binds
    public = {name for name, value in vars(busemetric).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(busemetric.__all__) == sorted(public)
    namespace = {}
    exec("from busemetric import *", namespace)
    assert set(namespace) - {"__builtins__"} == public
