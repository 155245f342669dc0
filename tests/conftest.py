import json
import sys

import pytest

from subcart import linalg, load_space, space
from subcart.fixtures import fixture_path


@pytest.fixture(scope="session")
def cone():
    return load_space(fixture_path("cone"))


@pytest.fixture(scope="session")
def sphere():
    return load_space(fixture_path("sphere"))


@pytest.fixture(scope="session")
def cross():
    return load_space(fixture_path("coordinate_cross"))


@pytest.fixture(scope="session")
def umbrella():
    return load_space(fixture_path("whitney_umbrella"))


@pytest.fixture(scope="session")
def half_line():
    return load_space(fixture_path("half_line"))


@pytest.fixture(scope="session")
def single_point():
    return load_space(fixture_path("single_point"))


def _counted(monkeypatch, module, name):
    """The argument tuples of every call of ``module.name``, counted
    through every binding of it in the package."""
    original = getattr(module, name)
    calls = []

    def counting(*args):
        calls.append(args)
        return original(*args)

    for bound in list(sys.modules.values()):
        if bound.__name__.startswith("subcart") and vars(bound).get(name) is original:
            monkeypatch.setattr(bound, name, counting)
    return calls


@pytest.fixture
def member_calls(monkeypatch):
    """The argument tuples of every membership test: each call of
    ``is_member_cleared``, which ``is_member`` and ``tangent.analyse`` make
    on a point's integer form."""
    return _counted(monkeypatch, space, "is_member_cleared")


@pytest.fixture
def bareiss_calls(monkeypatch):
    """The argument tuples of every ``linalg.bareiss`` call."""
    return _counted(monkeypatch, linalg, "bareiss")


@pytest.fixture(scope="session")
def circles_path(tmp_path_factory):
    """Six unit circles x(2i-1)^2 + x(2i)^2 = 1 in R^12, each sampled
    stereographically at t in {1/2, 1}, so each coordinate pair is
    (3/5, 4/5) or (0, 1): 64 records of rank 6, whose pivots differ
    between points that mix the two kinds of pair."""
    lifts = [f"(x{k}^2 + 1)" for k in range(1, 7)]

    def others(i):
        return "*".join(lifts[:i] + lifts[i + 1 :])

    data = {
        "name": "circles",
        "ambient_dim": 12,
        "equations": [f"x{2 * i - 1}^2 + x{2 * i}^2 - 1" for i in range(1, 7)],
        "samplers": [
            {
                "param_dim": 6,
                "numerators": [
                    f"{numerator}*{others(i)}"
                    for i in range(6)
                    for numerator in (f"(1 - x{i + 1}^2)", f"2*x{i + 1}")
                ],
                "denominator": "*".join(lifts),
                "box": [["1/2", "1"]] * 6,
                "resolution": 2,
            }
        ],
    }
    path = tmp_path_factory.mktemp("circles") / "circles.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


@pytest.fixture(scope="session")
def circles(circles_path):
    return load_space(circles_path)


@pytest.fixture
def solve_calls(monkeypatch):
    """The argument tuples of every ``linalg.solve_with_pivots`` call."""
    return _counted(monkeypatch, linalg, "solve_with_pivots")
