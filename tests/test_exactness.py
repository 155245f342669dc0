"""Static guard for exactness: no floating point anywhere in the package
source.

Each module of ``subcart`` is parsed, and the guard fails on any float or
complex literal, any ``float(...)`` or ``complex(...)`` call, any
``cmath`` import, and any ``math`` function other than the exact integer
ones (``lcm``, ``gcd``, ``isqrt`` and the like), whether reached as
``math.name`` or imported by name.

True division of two ints is a float (``a / b`` is a Fraction only when
an operand is one), and syntax cannot tell the two apart, so no module,
whose values may always be plain ints (polynomial coefficients, grid
parameters, integer forms and matrix entries), may use ``/`` at all: a
Fraction is built as ``Fraction(a, d)``.  For the same reason the guard
fails on ``operator.truediv`` and ``operator.itruediv``, whether reached
as an attribute or imported by name, and on a ``**`` or a two-argument
``pow`` whose exponent is a negative numeric literal (``2 ** -1`` is a
float).  What syntax cannot show is not checked: a power of a Fraction
to a Fraction exponent is told apart only by the types of its operands
at run time.
"""

import ast
from pathlib import Path

import pytest

import subcart

SOURCES = sorted(Path(subcart.__file__).parent.glob("*.py"))
EXACT_MATH = {"comb", "factorial", "gcd", "isqrt", "lcm", "perm", "prod"}
TRUE_DIVISION = {"truediv", "itruediv"}


def _negative_literal(node) -> bool:
    return (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, ast.USub)
        and isinstance(node.operand, ast.Constant)
        and type(node.operand.value) in (int, float)
        and node.operand.value > 0
    )


def inexact(source: str) -> list[str]:
    """``line: what`` for each inexact construct of a module's source."""
    tree = ast.parse(source)
    aliases = {"math": set(), "operator": set()}  # module: the names it is bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in aliases:
                    aliases[alias.name].add(alias.asname or alias.name)
    found = []

    class Visitor(ast.NodeVisitor):
        def visit_Constant(self, node):
            if isinstance(node.value, (float, complex)):
                found.append(f"{node.lineno}: literal {node.value!r}")

        def visit_BinOp(self, node):
            self.division(node)

        def visit_AugAssign(self, node):
            self.division(node)

        def division(self, node):
            if isinstance(node.op, ast.Div):
                found.append(f"{node.lineno}: true division")
            if isinstance(node.op, ast.Pow) and _negative_literal(
                node.right if isinstance(node, ast.BinOp) else node.value
            ):
                found.append(f"{node.lineno}: negative power")
            self.generic_visit(node)

        def visit_Call(self, node):
            if isinstance(node.func, ast.Name) and node.func.id in ("float", "complex"):
                found.append(f"{node.lineno}: {node.func.id}(...)")
            if (
                isinstance(node.func, ast.Name)
                and node.func.id == "pow"
                and len(node.args) == 2
                and _negative_literal(node.args[1])
            ):
                found.append(f"{node.lineno}: negative power")
            self.generic_visit(node)

        def visit_Attribute(self, node):
            if isinstance(node.value, ast.Name):
                if node.value.id in aliases["math"] and node.attr not in EXACT_MATH:
                    found.append(f"{node.lineno}: math.{node.attr}")
                if node.value.id in aliases["operator"] and node.attr in TRUE_DIVISION:
                    found.append(f"{node.lineno}: operator.{node.attr}")
            self.generic_visit(node)

        def visit_Import(self, node):
            for alias in node.names:
                if alias.name == "cmath":
                    found.append(f"{node.lineno}: import cmath")

        def visit_ImportFrom(self, node):
            if node.module == "cmath":
                found.append(f"{node.lineno}: from cmath import")
            if node.module == "math":
                for alias in node.names:
                    if alias.name not in EXACT_MATH:
                        found.append(f"{node.lineno}: from math import {alias.name}")
            if node.module == "operator":
                for alias in node.names:
                    if alias.name in TRUE_DIVISION:
                        found.append(f"{node.lineno}: from operator import {alias.name}")

    Visitor().visit(tree)
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_no_floating_point_or_true_division(path):
    assert inexact(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "source",
    [
        "def sup_distance(a, b):\n    return max(a) * 1.0\n",
        "def f(x):\n    return float(x)\n",
        "import math\n\ndef f(x):\n    return math.exp(x)\n",
        "import math as m\n\ndef f(x):\n    return m.sqrt(x)\n",
        "from math import log\n",
        "import cmath\n",
        "def bump(b, point):\n    return 1.0\n",
        "def f(a, d):\n    return a / d\n",
        "def f(a, d):\n    a /= d\n    return a\n",
        "from operator import truediv\n",
        "from operator import itruediv as div\n",
        "import operator\n\nhalf = operator.truediv(1, 2)\n",
        "import operator as op\n\nhalf = op.itruediv(1, 2)\n",
        "half = 2 ** -1\n",
        "half = 2 ** (-1)\n",
        "def f(a):\n    a **= -1\n    return a\n",
        "half = pow(2, -1)\n",
    ],
)
def test_the_guard_flags_each_inexact_form(source):
    assert inexact(source)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_the_guard_refuses_true_division_where_values_may_be_ints(path):
    # a ``/`` added to any module is refused, and a ``//`` passes
    source = path.read_text(encoding="utf-8")
    line = source.count("\n") + 2
    assert inexact(f"{source}def f(a, d):\n    return a / d\n") == [f"{line}: true division"]
    assert inexact(f"{source}def f(a, d):\n    return a // d\n") == []


def test_the_guard_flags_frames_and_passes_exact_math():
    # nothing is quarantined: the float smooth step that ``frames`` once
    # had is flagged as any other inexact source
    smooth_step = "import math\n\ndef _smooth_step(t):\n    return math.exp(-1.0 / t)\n"
    assert inexact(smooth_step) == [
        "4: math.exp", "4: true division", "4: literal 1.0"
    ]
    assert inexact("import math\n\nscale = math.lcm(2, 3)\n") == []
    # an int to a non-negative power, a modular inverse and ``floordiv``
    # are exact
    exact = "import operator\n\na = 2 ** 3\nb = pow(3, -1, 7)\nc = operator.floordiv(7, 2)\n"
    assert inexact(exact) == []
