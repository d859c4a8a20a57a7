"""Penalty rates: heuristic rates, valid-mode rates, flow-dead lines."""

import numpy as np
import pytest

from nkshed import bounds, engine
from nkshed import fixtures as fx
from nkshed.backend import Model
from nkshed.bounds import DualBounds, heuristic_bounds, valid_bounds
from nkshed.engine import SolveConfig, solve_interdiction
from nkshed.netmodel import AttackerModel, Bus, Line, Network, total_load


def test_heuristic_all_ones(mesh8):
    hb = heuristic_bounds(mesh8)
    assert hb.mode == "heuristic"
    for lid in mesh8.line_ids():
        assert hb.rate[mesh8.line_pos[lid]] == 1.0


def test_heuristic_empty_line_set():
    net = Network.build([Bus(1, 1.0, 1.0)], [])
    hb = heuristic_bounds(net)
    assert hb.rate.shape == (0,)


def test_bounds_reject_negative_rate():
    with pytest.raises(ValueError, match=">= 0"):
        DualBounds(rate=np.array([1.0, -1.0]), mode="valid")


def test_valid_bounds_two_bus_fallback(two_bus):
    vb = valid_bounds(two_bus)
    assert vb.rate[two_bus.line_pos[1]] == pytest.approx(1.0)  # total load
    assert vb.mode == "valid"


def test_valid_bounds_solve_no_lp(monkeypatch, mesh8):
    def no_lp(*args, **kwargs):
        raise AssertionError("valid_bounds solved an LP")

    monkeypatch.setattr(Model, "solve_lp", no_lp)
    monkeypatch.setattr(Model, "solve_objective", no_lp)
    vb = valid_bounds(mesh8)
    np.testing.assert_array_equal(vb.rate, np.full(len(mesh8.lines), total_load(mesh8)))


def _stub_net():
    """Bus 3 dangles with no demand and no generation: its line is flow-dead."""
    buses = [Bus(1, 0.0, 1.0), Bus(2, 1.0, 0.0), Bus(3, 0.0, 0.0)]
    lines = [Line(1, 1, 2, 0.1, 1.0), Line(2, 2, 3, 0.1, 1.0)]
    return Network.build(buses, lines)


def _tail_net():
    """A loaded triangle with a two-line tail to buses that neither demand
    nor generate: lines 4 and 5 are flow-dead."""
    buses = [Bus(1, 0.0, 2.0), Bus(2, 1.0, 0.0), Bus(3, 0.8, 0.0), Bus(4, 0.0, 0.0),
             Bus(5, 0.0, 0.0)]
    lines = [Line(1, 1, 2, 0.1, 0.9), Line(2, 2, 3, 0.2, 0.5),
             Line(3, 1, 3, 0.1, 0.7), Line(4, 3, 4, 0.1, 1.0),
             Line(5, 4, 5, 0.1, 1.0)]
    return Network.build(buses, lines)


@pytest.mark.parametrize("build,dead,with_cuts", [(_stub_net, [2], False),
                                                  (_tail_net, [4, 5], True)],
                         ids=["stub", "tail"])
def test_flow_dead_line_rate_never_reaches_a_cut(milp_master, monkeypatch, build, dead,
                                                 with_cuts):
    """A flow-dead line has zero flow at every priced point, so pricing it at
    the total load or at zero gives the same cuts and the same run. The stub
    converges on its first attack; the tail network adds cuts at every k."""
    def runs():
        net = build()
        for k in range(1, min(3, len(net.lines)) + 1):
            _, _, state = solve_interdiction(net, AttackerModel.traditional(k),
                                             SolveConfig(bounds_mode="valid", epsilon=1e-9))
            yield state

    loaded = list(runs())

    def dead_at_zero(net):
        rate = bounds.valid_bounds(net).rate.copy()
        rate[[net.line_pos[lid] for lid in dead]] = 0.0
        return DualBounds(rate=rate, mode="valid")

    monkeypatch.setattr(engine, "valid_bounds", dead_at_zero)
    zeroed = list(runs())
    assert len(loaded) == len(zeroed) == min(3, len(build().lines))
    assert all(bool(state.cuts) == with_cuts for state in loaded)
    for a, b in zip(loaded, zeroed):
        assert a.bounds.rate.min() > 0.0 and (b.bounds.rate == 0.0).sum() == len(dead)
        assert a.history == b.history
        assert len(a.cuts) == len(b.cuts)
        for (eta_a, price_a), (eta_b, price_b) in zip(a.cuts, b.cuts):
            assert eta_a == eta_b
            assert price_a.tobytes() == price_b.tobytes()


@pytest.mark.parametrize("name", ["triangle", "braess4", "ring6"])
def test_heuristic_dominated_by_valid_on_loaded_fixtures(name):
    # Holds entrywise whenever total load >= 1.
    net = fx.FIXTURES[name]()
    assert total_load(net) >= 1.0
    vb = valid_bounds(net)
    hb = heuristic_bounds(net)
    for lid in net.line_ids():
        assert hb.rate[net.line_pos[lid]] <= vb.rate[net.line_pos[lid]]
