"""Every small float in the package is a named tolerance, every named
tolerance is read by the package and listed once, with its value and module,
in the README table."""

import ast
import re
from pathlib import Path

from entcrit.info import DECISION_TOLERANCE
from entcrit.pauli import FRAME_TOL
from entcrit.states import MAX_QUBITS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "entcrit"
README = ROOT / "README.md"
NAME = re.compile(r"[A-Z][A-Z0-9_]*_(TOL|TOLERANCE)")
ROW = re.compile(r"\| `(\w+)` \| ([^|]+?) \| `(entcrit\.\w+)` \|")


def _modules():
    for path in sorted(SRC.glob("*.py")):
        yield f"entcrit.{path.stem}", ast.parse(path.read_text(), str(path))


def _tolerances(tree):
    """Module-level NAME = <float literal> assignments, by name."""
    found = {}
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and NAME.fullmatch(node.targets[0].id)
            and isinstance(node.value, ast.Constant)
        ):
            found[node.targets[0].id] = node.value
    return found


def _readme_table():
    section = README.read_text().split("\n## Tolerances\n", 1)[1].split("\n## ", 1)[0]
    return [m.groups() for m in map(ROW.match, section.splitlines()) if m]


def test_small_literals_are_named_tolerances():
    stray = []
    for module, tree in _modules():
        named = {id(c) for c in _tolerances(tree).values()}
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Constant)
                and type(node.value) is float
                and 0.0 < abs(node.value) < 1e-6
                and id(node) not in named
            ):
                stray.append(f"{module}:{node.lineno} {node.value!r}")
    assert not stray


def test_readme_lists_every_tolerance_once():
    rows = _readme_table()
    names = [name for name, _, _ in rows]
    assert len(names) == len(set(names))
    listed = {name: (float(value), module) for name, value, module in rows}
    defined = {
        name: (c.value, module)
        for module, tree in _modules()
        for name, c in _tolerances(tree).items()
    }
    assert listed == defined


def test_every_tolerance_is_read():
    # a Name load anywhere in the package, so a constant whose last reader
    # goes fails here, as an unreached function fails test_surface
    loaded = {
        node.id
        for _, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    defined = {name for _, tree in _modules() for name in _tolerances(tree)}
    assert sorted(defined - loaded) == []


def _readers(tree, name):
    """Qualified names of the functions that read `name`."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
            elif isinstance(child, ast.Name) and child.id == name:
                if isinstance(child.ctx, ast.Load):
                    found.add(".".join(scope))
            elif isinstance(child, ast.Attribute) and child.attr == name:
                found.add(".".join(scope))
            else:
                visit(child, scope)

    visit(tree, [])
    return found


def test_one_decision_constant():
    # entanglement and Bell violation decide against 1 + DECISION_TOLERANCE,
    # each in one place; the local model is refused through `bell.violates`
    readers = {
        f"{module}.{fn}"
        for module, tree in _modules()
        for fn in _readers(tree, "DECISION_TOLERANCE")
    }
    assert readers == {"entcrit.bell.violates", "entcrit.info.entangled"}
    for module, tree in _modules():
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        names |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
        assert not names & {"VIOLATION_TOLERANCE", "MASS_TOL"}, module


def test_settings_tolerance_below_decision_margin():
    # a table at settings of length 1 + d grows as (1 + d)^N, so settings
    # that pass FRAME_TOL keep a product state's ratio within 1 + tau
    assert (1.0 + FRAME_TOL) ** MAX_QUBITS <= 1.0 + DECISION_TOLERANCE
