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
    """The argument tuples of every ``is_member`` call."""
    return _counted(monkeypatch, space, "is_member")


@pytest.fixture
def bareiss_calls(monkeypatch):
    """The argument tuples of every ``linalg.bareiss`` call."""
    return _counted(monkeypatch, linalg, "bareiss")
