import types

import tourneylab


def test_all_lists_each_public_name_once():
    # a public name dropped or renamed without __all__ following fails here
    names = tourneylab.__all__
    assert len(names) == len(set(names))
    public = {name for name, value in vars(tourneylab).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(names) - {"__version__"} == public
    assert "__version__" in names
