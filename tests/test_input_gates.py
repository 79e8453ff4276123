"""The integer rule lives in two gates of fields.py, and no other module writes its own check.

The rule: a bool is not an integer, an array of another dtype than an
integer one is refused rather than cast, and an array's entries lie in
[0, bound).  as_integer checks a scalar and integer_array an array; every
entry point calls them with the error type it raises.  No module checks
anything with an assert statement, which python -O strips.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import hhw_pir
from hhw_pir.errors import BadArguments, CoordinateOutOfRange
from hhw_pir.fields import as_integer, integer_array

SOURCES = sorted(Path(hhw_pir.__file__).parent.glob("*.py"))


class _IntegerChecks(ast.NodeVisitor):
    """(module, function, check) of every hand-written integer check in a module.

    A check is a test of an array's dtype.kind, operator.index or
    __index__ in any form, or isinstance(value, bool).
    """

    def __init__(self, module: str):
        self.module, self.function, self.found = module, None, []

    def visit_FunctionDef(self, node):
        outer, self.function = self.function, node.name
        self.generic_visit(node)
        self.function = outer

    def _found(self, check: str):
        self.found.append((self.module, self.function, check))

    def visit_Attribute(self, node):
        if node.attr == "kind" and isinstance(node.value, ast.Attribute) and node.value.attr == "dtype":
            self._found("dtype.kind")
        elif node.attr == "index" and isinstance(node.value, ast.Name) and node.value.id == "operator":
            self._found("operator.index")
        elif node.attr == "__index__":
            self._found("__index__")
        self.generic_visit(node)

    def visit_Constant(self, node):
        if node.value == "__index__":
            self._found("__index__")

    def visit_ImportFrom(self, node):
        if node.module == "operator":
            self._found("from operator import")

    def visit_Call(self, node):
        if isinstance(node.func, ast.Name) and node.func.id == "isinstance" and len(node.args) == 2:
            if isinstance(node.args[1], ast.Name) and node.args[1].id == "bool":
                self._found("isinstance bool")
        self.generic_visit(node)


def test_integer_checks_live_only_in_the_two_gates():
    """Each check appears once in src/hhw_pir, inside its gate: a new entry point calls a gate instead."""
    found = []
    for path in SOURCES:
        visitor = _IntegerChecks(path.name)
        visitor.visit(ast.parse(path.read_text(), filename=str(path)))
        found += visitor.found
    assert sorted(found) == [
        ("fields.py", "as_integer", "isinstance bool"),
        ("fields.py", "as_integer", "operator.index"),
        ("fields.py", "integer_array", "dtype.kind"),
    ]


def test_no_module_holds_an_assert_statement():
    """Every invariant check raises a typed error, so python -O, which drops assert statements, skips none."""
    found = [(path.name, node.lineno) for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path))) if isinstance(node, ast.Assert)]
    assert found == []


@pytest.mark.parametrize("value", [3, np.int64(3), np.uint8(3), np.uint64(3)])
def test_as_integer_takes_integers_as_python_ints(value):
    assert type(as_integer(value, BadArguments, "x")) is int and as_integer(value, BadArguments, "x") == 3


@pytest.mark.parametrize("value", [True, np.bool_(False), 3.0, 2.5, "3", None, [3], np.array([3])])
def test_as_integer_refuses_what_int_would_truncate_or_parse(value):
    with pytest.raises(BadArguments, match="x must be an integer"):
        as_integer(value, BadArguments, "x")


def test_integer_array_checks_the_dtype_and_the_range():
    for arr in ([0, 1, 2], np.arange(3, dtype=np.uint8), np.arange(3, dtype=np.uint64)):
        out = integer_array(arr, 3, CoordinateOutOfRange, "x")
        assert out.dtype == np.int64 and out.tolist() == [0, 1, 2]
    assert integer_array(np.zeros(0), 3, CoordinateOutOfRange, "x").dtype == np.int64  # nothing to truncate
    assert integer_array([-1, 5], None, CoordinateOutOfRange, "x").tolist() == [-1, 5]  # the dtype only
    for arr in (np.zeros(2), np.zeros(2, dtype=bool), np.zeros(2, dtype=object), ["0", "1"]):
        with pytest.raises(CoordinateOutOfRange, match="x must be an integer array"):
            integer_array(arr, None, CoordinateOutOfRange, "x")
    for arr in ([-1, 0], [0, 3], np.array([2**63], dtype=np.uint64)):
        with pytest.raises(CoordinateOutOfRange, match=r"outside \[0, 3\)"):
            integer_array(arr, 3, CoordinateOutOfRange, "x")
