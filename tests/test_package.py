import ast
import dataclasses
import inspect
import pathlib
import sys
import types

import pytest

import tourneylab
from tourneylab.errors import BadParams


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


# The arguments, other than the tournament and its vertex sets, of every
# public function that takes a Tournament and a VertexSubset or Partition.
UNIVERSE_CALLS = {
    "induced": {},
    "hamiltonian_on_subset": {},
    "evaluate_goodness": {"eps": 0.1},
    "removal_sets": {"eps": 0.001},
    "clean_to_good_partition": {"eps": 0.001},
    "refine_partition": {"k": 1, "t": 1},
    "k_connectors": {"k": 1},
    "max_BA_matching": {},
    "bad_events": {},
    "hamiltonicity_from_no_bad_events": {},
}


def _vertex_set(kind: str, name: str, n: int):
    """A Partition or VertexSubset over n vertices: the halves for A0 and
    B0, so that they make a balanced cut, and the whole set otherwise."""
    if kind == "Partition":
        return tourneylab.Partition.from_members(n, range(n // 2), range(n // 2, n), [])
    return tourneylab.VertexSubset(n, {"A0": range(n // 2), "B0": range(n // 2, n)}
                                   .get(name, range(n)))


def test_every_vertex_set_over_another_universe_is_rejected():
    # hamiltonian_on_subset and removal_sets read such a set unchecked: an
    # IndexError over a larger universe, a quiet answer over a smaller one
    T = tourneylab.random_tournament(8, 3)
    found = set()
    for name in tourneylab.__all__:
        fn = getattr(tourneylab, name)
        if not isinstance(fn, types.FunctionType):
            continue
        params = inspect.signature(fn).parameters
        kinds = {p: a.annotation for p, a in params.items()
                 if a.annotation in ("VertexSubset", "Partition")}
        if "Tournament" not in [a.annotation for a in params.values()] or not kinds:
            continue
        found.add(name)
        assert name in UNIVERSE_CALLS, f"{name} takes a vertex set: add it to UNIVERSE_CALLS"
        good = {p: _vertex_set(kind, p, T.n) for p, kind in kinds.items()}
        fn(T, **good, **UNIVERSE_CALLS[name])  # over V(T), the call goes through
        for wrong in kinds:
            for m in (T.n - 2, T.n + 2):
                args = {**good, wrong: _vertex_set(kinds[wrong], wrong, m)}
                with pytest.raises(BadParams):
                    fn(T, **args, **UNIVERSE_CALLS[name])
    assert found == set(UNIVERSE_CALLS)


def test_only_core_and_generators_build_trusted_tournaments():
    # a trusted Tournament skips the invariant checks; elsewhere a kernel
    # matrix is built from the array it needs, not from a throwaway Tournament
    package = pathlib.Path(tourneylab.__file__).parent
    users = {path.name for path in package.glob("*.py")
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.keyword) and node.arg == "_trusted"}
    assert users == {"core.py", "generators.py"}


def test_each_size_cap_is_checked_by_one_rule():
    # an order past a cap raises TooLarge through errors.check_order; the
    # one other TooLarge names a TRN1 count too wide to convert. The
    # bitset helpers live in core, so no module imports _bits.
    package = pathlib.Path(tourneylab.__file__).parent
    built, imported = [], set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                built += [(path.stem, node.name, ast.unparse(call.args[0]))
                          for call in ast.walk(node) if isinstance(call, ast.Call)
                          and isinstance(call.func, ast.Name) and call.func.id == "TooLarge"]
            elif isinstance(node, ast.ImportFrom):
                imported |= {node.module or ""} | {alias.name for alias in node.names}
    assert built == [("core", "parse_trn1", "f'a {len(digits)}-digit number'"),
                     ("errors", "check_order", "n")]
    assert "_bits" not in imported and not (package / "_bits.py").exists()


def test_no_dataclass_stores_a_derived_value():
    # a field(init=False) is set from the other fields at construction, a
    # second copy of them paid for by every instance; VertexSubset's mask
    # was one, built at O(|S| n) cost whether or not it was read
    package = pathlib.Path(tourneylab.__file__).parent
    derived = [(path.stem, node.lineno) for path in sorted(package.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.Call)
               and ast.unparse(node.func) in ("field", "dataclasses.field")
               and any(k.arg == "init" for k in node.keywords)]
    assert derived == []


def test_bad_events_read_the_induced_tournament():
    # a reachability search over T's bitsets rebuilt all n of them per sample
    source = (pathlib.Path(tourneylab.__file__).parent / "structure.py").read_text(encoding="utf-8")
    imported = {alias.name for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "reach_on_mask" not in imported and "scc" in imported


def test_tournament_holds_no_bitset_and_no_subset_mask_search_remains():
    # Tournament's out_masks and in_masks properties rebuilt all n bitsets on
    # every read; each search now calls rows_to_masks itself. The subset-mask
    # strong test had one caller left, with the full mask.
    package = pathlib.Path(tourneylab.__file__).parent
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    tournament, = [node for node in ast.walk(trees["core"])
                   if isinstance(node, ast.ClassDef) and node.name == "Tournament"]
    assert [ast.unparse(d) for node in tournament.body if isinstance(node, ast.FunctionDef)
            for d in node.decorator_list if "property" in ast.unparse(d)] == []
    read = [(stem, node.lineno) for stem, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in ("out_masks", "in_masks")]
    assert read == []
    defined = [stem for stem, tree in trees.items() for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name == "strong_on_mask"]
    assert defined == []
