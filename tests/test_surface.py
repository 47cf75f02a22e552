"""Every function and class the package defines, and every method and
property of its classes, is reached: referenced, by name or attribute, from a
package module other than `__init__` (which only re-exports) or from the
acceptance checks.  The interpreter itself calls dunder methods and
`__init__`'s PEP 562 hooks, which no code names."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "entcrit"
READERS = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
READERS.append(ROOT / "tests" / "test_acceptance.py")
# read only by the benchmark's state and local-model ops (ROADMAP items 11
# and 15); named here rather than read from the benchmark, so that dropping
# an op there cannot fail this check
BENCH_ONLY = {"parse_state_file", "serialize_state", "sample_outcome_arrays", "empirical_table"}
MODULE_HOOKS = {("entcrit.__init__", "__getattr__"), ("entcrit.__init__", "__dir__")}


def _functions_and_classes(body):
    return [n for n in body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


def _defined():
    """Module-level functions and classes as (module, name), and the methods
    and properties of those classes, dunders aside, as (module.class, name)."""
    for path in sorted(SRC.glob("*.py")):
        module = f"entcrit.{path.stem}"
        for node in _functions_and_classes(ast.parse(path.read_text(), str(path)).body):
            yield module, node.name
            if isinstance(node, ast.ClassDef):
                for member in _functions_and_classes(node.body):
                    if not (member.name.startswith("__") and member.name.endswith("__")):
                        yield f"{module}.{node.name}", member.name


def _referenced():
    names = set()
    for path in READERS:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_definition_is_reached():
    defined = list(_defined())
    assert BENCH_ONLY <= {name for _, name in defined}
    assert MODULE_HOOKS <= set(defined)
    reached = _referenced() | BENCH_ONLY
    assert [f"{module}.{name}" for module, name in defined
            if name not in reached and (module, name) not in MODULE_HOOKS] == []
