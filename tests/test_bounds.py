"""Dual upper bounds: heuristic rates, certified rates, pruning soundness."""

import itertools

import pytest

from nkshed import fixtures as fx
from nkshed.attackers import encode_feasible_set
from nkshed.bounds import DualBounds, heuristic_bounds, valid_bounds
from nkshed.inner import AttackPlan, solve_inner
from nkshed.netmodel import AttackerModel, Bus, Line, Network, total_load
from reference_lp import reference_flow_extreme


def test_heuristic_all_ones(mesh8):
    hb = heuristic_bounds(mesh8)
    assert hb.mode == "heuristic"
    for lid in mesh8.line_ids():
        assert hb.line(lid) == (1.0, 1.0)


def test_heuristic_empty_line_set():
    net = Network.build([Bus(1, 1.0, 1.0)], [])
    hb = heuristic_bounds(net)
    assert hb.pi1 == {} and hb.pi2 == {}


def test_bounds_reject_negative_rate():
    with pytest.raises(ValueError, match=">= 0"):
        DualBounds(pi1={1: -1.0}, pi2={1: 1.0}, mode="valid")


def test_valid_bounds_two_bus_fallback(two_bus):
    # The single line can reach its full rating, so it is priced at total load.
    enc = encode_feasible_set(two_bus, AttackerModel.traditional(1))
    vb = valid_bounds(two_bus, enc)
    rev, fwd = vb.flow_range[1]
    assert fwd == pytest.approx(two_bus.lines[0].thermal, abs=1e-6)
    assert vb.pi1[1] == pytest.approx(1.0)  # total load
    assert vb.pi2[1] == pytest.approx(1.0)
    assert vb.mode == "valid"


def test_valid_bounds_triangle_matches_reference_relaxation(triangle):
    enc = encode_feasible_set(triangle, AttackerModel.traditional(1))
    vb = valid_bounds(triangle, enc)
    for lid in triangle.line_ids():
        ref_fwd = reference_flow_extreme(triangle, 1, lid, +1.0)
        ref_rev = reference_flow_extreme(triangle, 1, lid, -1.0)
        rev, fwd = vb.flow_range[lid]
        assert fwd == pytest.approx(ref_fwd, abs=1e-6)
        assert rev == pytest.approx(ref_rev, abs=1e-6)
        # every triangle line can carry flow, so all rates fall back to total load
        assert vb.pi1[lid] == pytest.approx(total_load(triangle))
        assert vb.pi2[lid] == pytest.approx(total_load(triangle))


def _stub_net():
    """Bus 3 dangles with no demand and no generation: its line is flow-dead."""
    buses = [Bus(1, 0.0, 1.0), Bus(2, 1.0, 0.0), Bus(3, 0.0, 0.0)]
    lines = [Line.of(1, 1, 2, 0.1, 1.0), Line.of(2, 2, 3, 0.1, 1.0)]
    return Network.build(buses, lines)


def test_valid_bounds_prune_dead_stub_line():
    net = _stub_net()
    enc = encode_feasible_set(net, AttackerModel.traditional(1))
    vb = valid_bounds(net, enc)
    rev, fwd = vb.flow_range[2]
    assert fwd <= 1e-6 and rev <= 1e-6
    assert vb.pi1[2] == 0.0 and vb.pi2[2] == 0.0
    assert vb.pi1[1] == pytest.approx(1.0) and vb.pi2[1] == pytest.approx(1.0)


def test_pruning_soundness_exhaustive():
    """Zero rates may only go to lines whose loss and congestion are worthless.

    For every attack in which the pruned line survives, it must never sit at
    its rating with a positive dual; and interdicting it on top of any other
    attack must not increase the shed (a returned dual on the degenerate
    pinned-flow pair can be nonzero, but the marginal value must be nil).
    """
    net = _stub_net()
    enc = encode_feasible_set(net, AttackerModel.traditional(1))
    vb = valid_bounds(net, enc)
    pruned = [lid for lid in net.line_ids() if vb.pi1[lid] == 0.0 or vb.pi2[lid] == 0.0]
    assert pruned == [2]
    others = [lid for lid in net.line_ids() if lid not in pruned]
    for lid in pruned:
        for k in (0, 1):
            for rest in itertools.combinations(others, k):
                sol = solve_inner(net, AttackPlan.of(rest))
                t = net.lines[net.line_pos[lid]].thermal
                pi1, pi2 = sol.duals_pi[lid]
                if abs(sol.flow[lid] + t) <= 1e-9:
                    assert pi1 <= 1e-6
                if abs(sol.flow[lid] - t) <= 1e-9:
                    assert pi2 <= 1e-6
                with_line = solve_inner(net, AttackPlan.of(set(rest) | {lid}))
                assert with_line.eta <= sol.eta + 1e-6


@pytest.mark.parametrize("name", ["triangle", "braess4", "ring6"])
def test_heuristic_dominated_by_valid_on_loaded_fixtures(name):
    # Holds entrywise whenever total load >= 1 and no line is flow-dead.
    net = fx.FIXTURES[name]()
    assert total_load(net) >= 1.0
    enc = encode_feasible_set(net, AttackerModel.traditional(min(2, len(net.lines))))
    vb = valid_bounds(net, enc)
    hb = heuristic_bounds(net)
    for lid in net.line_ids():
        rev, fwd = vb.flow_range[lid]
        assert max(rev, fwd) > 1e-6, "fixture unexpectedly has a dead line"
        assert hb.pi1[lid] <= vb.pi1[lid]
        assert hb.pi2[lid] <= vb.pi2[lid]


def test_valid_bounds_respect_spatial_encoding(mesh8):
    d = fx.SPATIAL_D["mesh8"]
    from nkshed.attackers import compute_phi
    footprint = compute_phi(mesh8, d)
    enc = encode_feasible_set(mesh8, AttackerModel.spatial(2, d), footprint)
    vb = valid_bounds(mesh8, enc)
    assert set(vb.pi1) == set(mesh8.line_ids())
    assert all(v in (0.0, total_load(mesh8)) for v in vb.pi1.values())
