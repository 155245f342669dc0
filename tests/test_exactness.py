"""Static guard for exactness: no floating point anywhere in the package
source.

Each module of ``subcart`` is parsed, and the guard fails on any float or
complex literal, any ``float(...)`` or ``complex(...)`` call, any
``cmath`` import, and any ``math`` function other than the exact integer
ones (``lcm``, ``gcd``, ``isqrt`` and the like), whether reached as
``math.name`` or imported by name.

True division of two ints is a float (``a / b`` is a Fraction only when
an operand is one), and syntax cannot tell the two apart, so the modules
whose values may be plain ints (polynomial coefficients, grid parameters
and integer forms), ``DIVISION_FREE``, may use no ``/`` at all.  What
syntax cannot show is not checked elsewhere: a ``/`` in another module,
and a power of a Fraction to a Fraction exponent, are told apart only by
the types of their operands at run time.
"""

import ast
from pathlib import Path

import pytest

import subcart

SOURCES = sorted(Path(subcart.__file__).parent.glob("*.py"))
EXACT_MATH = {"comb", "factorial", "gcd", "isqrt", "lcm", "perm", "prod"}
DIVISION_FREE = {"poly", "space", "tangent", "stratify", "frames"}


def inexact(source: str, module: str) -> list[str]:
    """``line: what`` for each inexact construct of a module's source."""
    tree = ast.parse(source)
    aliases = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "math"
    }
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
            if module in DIVISION_FREE and isinstance(node.op, ast.Div):
                found.append(f"{node.lineno}: true division")
            self.generic_visit(node)

        def visit_Call(self, node):
            if isinstance(node.func, ast.Name) and node.func.id in ("float", "complex"):
                found.append(f"{node.lineno}: {node.func.id}(...)")
            self.generic_visit(node)

        def visit_Attribute(self, node):
            if (
                isinstance(node.value, ast.Name)
                and node.value.id in aliases
                and node.attr not in EXACT_MATH
            ):
                found.append(f"{node.lineno}: math.{node.attr}")
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

    Visitor().visit(tree)
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_no_floating_point_outside_the_bump(path):
    assert inexact(path.read_text(encoding="utf-8"), path.stem) == []


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
    ],
)
def test_the_guard_flags_each_inexact_form(source):
    assert inexact(source, "stratify")


@pytest.mark.parametrize("module", sorted(DIVISION_FREE))
def test_the_guard_refuses_true_division_where_values_may_be_ints(module):
    source = "def f(a, d):\n    return a / d\n"
    assert inexact(source, module) == ["2: true division"]
    assert inexact(source, "linalg") == []
    assert inexact("def f(a, d):\n    return a // d\n", module) == []


def test_the_guard_flags_frames_and_passes_exact_math():
    # nothing is quarantined: a float smooth step is flagged in ``frames``
    # as anywhere else
    smooth_step = "import math\n\ndef _smooth_step(t):\n    return math.exp(-1.0 / t)\n"
    assert inexact(smooth_step, "frames") == [
        "4: math.exp", "4: true division", "4: literal 1.0"
    ]
    assert inexact("import math\n\nscale = math.lcm(2, 3)\n", "stratify") == []
