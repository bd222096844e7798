"""The package's public names and the names the benchmark binds.

perfbench reaches kummercover through module attributes and through the
``module.name`` table its tracer patches.  These tests resolve every such
name, so a deletion that would break the benchmark fails here too."""

import ast
import importlib
import importlib.util
from pathlib import Path

import kummercover
from kummercover import exactlin

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_all_names_resolve():
    assert len(set(kummercover.__all__)) == len(kummercover.__all__)
    for name in kummercover.__all__:
        assert hasattr(kummercover, name), name


def test_traced_names_exist():
    # tracing.py imports nothing from kummercover, so it loads by path alone
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert set(tracing.TRACED) <= set(tracing.MODULES)
    for module in tracing.MODULES:
        mod = importlib.import_module(f"kummercover.{module}")
        for name in tracing.TRACED.get(module, ()):
            assert callable(getattr(mod, name, None)), f"{module}.{name}"


def _bound_names(tree: ast.Module) -> dict:
    """Local name -> kummercover module or object, for every import of a
    kummercover name in the tree."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "kummercover":
                    if alias.asname:
                        bound[alias.asname] = importlib.import_module(alias.name)
                    else:
                        bound["kummercover"] = kummercover
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("kummercover"):
            mod = importlib.import_module(node.module)
            for alias in node.names:
                name = alias.name
                obj = getattr(mod, name, None)
                if obj is None:   # a submodule imported from the package
                    obj = importlib.import_module(f"{node.module}.{name}")
                bound[alias.asname or name] = obj
    return bound


def test_perfbench_attributes_exist():
    checked = 0
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        bound = _bound_names(tree)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in bound):
                obj = bound[node.value.id]
                assert hasattr(obj, node.attr), f"{path.name}: {node.value.id}.{node.attr}"
                checked += 1
    # workloads.py alone calls a dozen of them
    assert checked >= 12


def test_structured_smith_accepts_cover_order_positionally():
    # perfbench calls structured_smith(d, n); n is not read
    assert exactlin.structured_smith([10, 15, 20], 5) == exactlin.structured_smith([10, 15, 20])
