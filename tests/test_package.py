import ast
import dataclasses
import pathlib
import sys
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


def test_sources_parse_at_the_declared_python_floor():
    # pyproject.toml declares requires-python >= 3.10: no module may use
    # syntax a 3.10 parser rejects
    sources = sorted(pathlib.Path(tourneylab.__file__).parent.glob("*.py"))
    assert len(sources) >= 9
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def test_value_types_are_frozen_dataclasses():
    # a public class that accepts attribute assignment can go stale against
    # what it was built from; Tournament guards its matrix by hand instead
    classes = [value for name in tourneylab.__all__
               if isinstance(value := getattr(tourneylab, name), type)
               and not issubclass(value, Exception)]
    assert len(classes) >= 15
    for cls in classes:
        if cls is tourneylab.Tournament:
            continue
        assert dataclasses.is_dataclass(cls), cls
        assert cls.__dataclass_params__.frozen, cls


def test_imports_are_the_package_the_standard_library_or_numpy():
    # numpy is the only declared dependency; an import of anything else,
    # even inside a function, would fail on a clean install or slow set-up
    sources = sorted(pathlib.Path(tourneylab.__file__).parent.glob("*.py"))
    found = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                found |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    assert "numpy" in found
    assert found - {"tourneylab", "numpy"} <= sys.stdlib_module_names, found
