"""tests/oracles.py holds no reference that nothing calls, so replaced paths do not pile up there."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ORACLES = ROOT / "tests" / "oracles.py"


def _names_read(path: Path) -> set[str]:
    """Every name a module reads, bare or as an attribute (oracles.x); imports alone do not count."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_oracle_has_a_caller():
    """Each function of oracles.py is used from tests/, scripts/ or perfbench/ outside oracles.py,
    or, for a private helper (a leading underscore), from oracles.py itself."""
    defined = [node.name for node in ast.parse(ORACLES.read_text()).body if isinstance(node, ast.FunctionDef)]
    outside = set().union(*(_names_read(path) for folder in ("tests", "scripts", "perfbench")
                            for path in (ROOT / folder).rglob("*.py") if path != ORACLES))
    inside = _names_read(ORACLES)
    dead = [name for name in defined if name not in outside and not (name.startswith("_") and name in inside)]
    assert not dead, f"functions of tests/oracles.py that nothing calls: {dead}"
