import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from nkshed import engine  # noqa: E402
from nkshed import fixtures as fx  # noqa: E402


@pytest.fixture
def milp_master(monkeypatch):
    """Send every solve down the MILP master path."""
    monkeypatch.setattr(engine, "ENUMERATION_BUDGET", 0)


@pytest.fixture
def master_paths(monkeypatch):
    """Iterate to run a test body on each master path: enumerated, then MILP."""
    def each():
        yield "enumerated"
        monkeypatch.setattr(engine, "ENUMERATION_BUDGET", 0)
        yield "milp"

    return each()


@pytest.fixture
def two_bus():
    return fx.two_bus()


@pytest.fixture
def triangle():
    return fx.triangle()


@pytest.fixture
def braess4():
    return fx.braess4()


@pytest.fixture
def star5():
    return fx.star5()


@pytest.fixture
def ring6():
    return fx.ring6()


@pytest.fixture
def mesh8():
    return fx.mesh8()


def pglib_dir():
    """Directory holding user-supplied PGLib-OPF API cases, if any."""
    env = os.environ.get("NKSHED_PGLIB_DIR")
    if env:
        return env
    repo_data = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "data")
    return repo_data


def pglib_path(filename: str):
    path = os.path.join(pglib_dir(), filename)
    return path if os.path.exists(path) else None
