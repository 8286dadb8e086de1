"""Every public function of the numerical layers, the evaluation harness
and the config module has a caller outside the tests: a helper only the
tests use belongs in ``tests/``."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = ("sysmodel", "relax", "dsearch", "appdecomp", "evalharness",
           "config")
#: the package, the scripts and the benchmark: everything but the tests
USER_DIRS = ("src", "scripts", "perfbench")


def _public_functions(module):
    tree = ast.parse((ROOT / "src" / "fleetmaint" / f"{module}.py")
                     .read_text())
    return [node.name for node in tree.body
            if isinstance(node, ast.FunctionDef)
            and not node.name.startswith("_")]


def _referenced_names():
    """Every name read, every attribute taken and every name imported in
    the non-test code; a ``def`` is none of these."""
    names = set()
    for top in USER_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.name.startswith("test_"):
                continue
            for node in ast.walk(ast.parse(path.read_text())):
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
