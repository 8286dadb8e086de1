"""Every public function of the numerical layers, the evaluation harness
and the config module has a caller outside the tests, and every field of
their dataclasses a reader: a helper or a field only the tests use
belongs in ``tests/``.  The numerical layers and the harness write no
files."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = ("sysmodel", "relax", "dsearch", "appdecomp", "evalharness",
           "config")
#: the package and the benchmark: everything but the tests
USER_DIRS = ("src", "perfbench")


def _module_tree(module):
    return ast.parse((ROOT / "src" / "fleetmaint" / f"{module}.py")
                     .read_text())


def _public_functions(module):
    tree = _module_tree(module)
    return [node.name for node in tree.body
            if isinstance(node, ast.FunctionDef)
            and not node.name.startswith("_")]


def _dataclass_fields(module):
    """(class, field) of every dataclass of ``module``."""
    for node in _module_tree(module).body:
        if isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list):
            for item in node.body:
                if isinstance(item, ast.AnnAssign):
                    yield node.name, item.target.id


def _non_test_trees():
    """The parsed files of the non-test code."""
    for top in USER_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            if not path.name.startswith("test_"):
                yield ast.parse(path.read_text())


def _referenced_names():
    """Every name read, every attribute taken and every name imported in
    the non-test code; a ``def`` is none of these."""
    names = set()
    for tree in _non_test_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def test_public_functions_have_non_test_callers():
    used = _referenced_names()
    unused = [f"{module}.{name}" for module in MODULES
              for name in _public_functions(module) if name not in used]
    assert unused == [], (
        f"public functions with no caller outside tests/: {unused}")


def test_dataclass_fields_are_read_outside_tests():
    # a field the package only writes is state no caller uses
    read = {node.attr for tree in _non_test_trees()
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    unread = [f"{module}.{cls}.{name}" for module in MODULES
              for cls, name in _dataclass_fields(module) if name not in read]
    assert unread == [], (
        f"dataclass fields never read outside tests/: {unread}")


def test_numerical_layers_write_no_files():
    # results leave these modules as values; cli lays them out on disk.
    # config is left out: its own file format is its job (save_config)
    writers = {"open", "write_text", "write_bytes"}
    calls = [f"{module}:{node.lineno}" for module in MODULES
             if module != "config"
             for node in ast.walk(_module_tree(module))
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None))
             in writers]
    assert calls == [], f"file writes in the numerical layers: {calls}"
