import sys

import pytest

from subcart import load_space, space
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


@pytest.fixture
def member_calls(monkeypatch):
    """The argument tuples of every ``is_member`` call, counted through
    every binding of it in the package."""
    original = space.is_member
    calls = []

    def counting(*args):
        calls.append(args)
        return original(*args)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("subcart") and vars(module).get("is_member") is original:
            monkeypatch.setattr(module, "is_member", counting)
    return calls
