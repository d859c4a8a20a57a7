"""Penalty rates of the MILP master's cuts: one rate for every line."""

import pytest

from nkshed import fixtures as fx
from nkshed.backend import Model
from nkshed.engine import valid_bounds
from nkshed.netmodel import total_load


def test_valid_bounds_two_bus_fallback(two_bus):
    assert valid_bounds(two_bus) == pytest.approx(1.0)  # total load


def test_valid_bounds_solve_no_lp(monkeypatch, mesh8):
    def no_lp(*args, **kwargs):
        raise AssertionError("valid_bounds solved an LP")

    monkeypatch.setattr(Model, "solve_lp", no_lp)
    assert valid_bounds(mesh8) == total_load(mesh8)


@pytest.mark.parametrize("name", ["triangle", "braess4", "ring6"])
def test_heuristic_dominated_by_valid_on_loaded_fixtures(name):
    # The unit rate is the smaller whenever total load >= 1.
    net = fx.FIXTURES[name]()
    assert total_load(net) >= 1.0
    assert 1.0 <= valid_bounds(net)
