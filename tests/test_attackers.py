"""Footprints, feasible-set encodings, and the feasibility predicates."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nkshed import attackers
from nkshed import fixtures as fx
from nkshed.attackers import (NoFeasibleAttackError, SpatiallyInfeasibleError, compute_phi,
                              encode_feasible_set, haversine_km, is_feasible_attack,
                              spatial_centers)
from nkshed.backend import INFEASIBLE, Model
from nkshed.netmodel import AttackerModel, Bus, Line, Network
from nkshed.oracle import solve_exhaustive
from nkshed.runner import certify

DEG_KM = 6371.0 * math.pi / 180.0  # one degree of latitude


def test_haversine_basics():
    assert haversine_km((0.0, 0.0), (0.0, 0.0)) == 0.0
    assert haversine_km((0.0, 0.0), (0.0, 1.0)) == pytest.approx(111.19492664455875, abs=1e-9)
    assert haversine_km((0.0, 0.0), (1.0, 0.0)) == pytest.approx(DEG_KM, abs=1e-9)


@given(st.floats(-89, 89), st.floats(-179, 179), st.floats(-89, 89), st.floats(-179, 179))
@settings(max_examples=200, deadline=None)
def test_haversine_symmetry_and_nonnegativity(lat1, lon1, lat2, lon2):
    d_ab = haversine_km((lat1, lon1), (lat2, lon2))
    d_ba = haversine_km((lat2, lon2), (lat1, lon1))
    assert d_ab == pytest.approx(d_ba, abs=1e-9)
    assert d_ab >= 0.0


def _collinear_net():
    buses = [Bus(1, 0.0, 1.0, lat=0.0, lon=0.0, has_geo=True),
             Bus(2, 0.5, 0.0, lat=0.0, lon=0.5, has_geo=True),
             Bus(3, 0.5, 0.0, lat=0.0, lon=1.0, has_geo=True)]
    lines = [Line(1, 1, 3, 0.1, 1.0)]
    return Network.build(buses, lines)


def test_compute_phi_collinear_example():
    net = _collinear_net()
    # Midpoint of line (1,3) sits exactly on bus 2; buses 1 and 3 are ~55.6 km out.
    assert compute_phi(net, 120.0).phi[1] == frozenset({1, 2, 3})
    assert compute_phi(net, 100.0).phi[1] == frozenset({2})


def test_compute_phi_colocated_and_empty():
    buses = [Bus(1, 0.0, 1.0, lat=40.0, lon=-111.0, has_geo=True),
             Bus(2, 1.0, 0.0, lat=40.0, lon=-111.0, has_geo=True)]
    net = Network.build(buses, [Line(1, 1, 2, 0.1, 1.0)])
    assert compute_phi(net, 1.0).phi[1] == frozenset({1, 2})

    spread = fx.mesh8()
    tiny = compute_phi(spread, 1e-6)
    assert all(len(v) == 0 for v in tiny.phi.values())


def test_compute_phi_requires_geolocation(two_bus):
    from dataclasses import replace
    buses = tuple(replace(b, has_geo=False) for b in two_bus.buses)
    with pytest.raises(ValueError, match="without geolocation"):
        compute_phi(two_bus.with_buses(buses), 50.0)


@pytest.mark.parametrize("name", sorted(fx.FIXTURES))
def test_footprint_monotone_in_d(name):
    net = fx.FIXTURES[name]()
    small = compute_phi(net, 60.0)
    large = compute_phi(net, 140.0)
    for lid in net.line_ids():
        assert small.phi[lid] <= large.phi[lid]


def test_footprint_is_built_once_per_network_and_d(monkeypatch):
    builds, build = [], attackers._footprint
    monkeypatch.setattr(attackers, "_footprint",
                        lambda net, D_km: builds.append(D_km) or build(net, D_km))
    net, d = fx.mesh8(), fx.SPATIAL_D["mesh8"]
    model = AttackerModel.spatial(2, d)
    assert certify(net, model)["agree"] is True
    assert builds == [d]
    assert compute_phi(net, d) is compute_phi(net, d)
    ids = net.line_ids()
    feasible = [subset for size in range(len(ids) + 1)
                for subset in itertools.combinations(ids, size)
                if is_feasible_attack(net, model, subset)]
    assert builds == [d] and feasible
    # What the oracle returned with compute_phi(mesh8, 80.0) passed in.
    assert d == 80.0
    res = solve_exhaustive(net, model)
    assert res.best_attack.sorted_lines() == (5, 6) and res.best_attack.center_bus == 5
    assert repr(res.best_eta) == "1.1447971781305117" and res.evaluated == 48
    assert builds == [d]
    # Another D, or another network, is another footprint.
    compute_phi(net, 2 * d)
    compute_phi(fx.mesh8(), d)
    assert builds == [d, 2 * d, d]


def _pinned_model(net: Network, model: AttackerModel, subset, lead: int = 0):
    """The encoding in a model that already holds ``lead`` columns, with x fixed
    to ``subset``; returns the model and the encoding's columns.

    The leading columns are fixed at 0.5, which no binary can take, so
    encoding rows or pins that miss the column offset make the model
    infeasible.
    """
    mdl = Model("encoding-feasibility")
    mdl.add_vars(lead, lb=0.5, ub=0.5)
    cols = encode_feasible_set(mdl, net, model)
    chosen = set(subset)
    for e, lid in enumerate(net.line_ids()):
        mdl.add_eq([int(cols["x"][e])], [1.0], 1.0 if lid in chosen else 0.0)
    return mdl, cols


def _feasible(mdl: Model) -> bool:
    sol = mdl.solve_milp(require_optimal=False)
    if sol.status == INFEASIBLE:
        return False
    assert sol.optimal
    return True


def _fixed_attack_feasible(net: Network, model: AttackerModel, subset, lead: int = 0) -> bool:
    """Does the encoding admit a completion with exactly this x vector?"""
    return _feasible(_pinned_model(net, model, subset, lead)[0])


@pytest.mark.parametrize("name", ["triangle", "braess4", "star5"])
@pytest.mark.parametrize("variant", ["traditional", "spatial", "topological"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_encoding_agrees_with_predicate_exhaustively(name, variant, k):
    net = fx.FIXTURES[name]()
    model = (AttackerModel.spatial(k, fx.SPATIAL_D[name]) if variant == "spatial"
             else AttackerModel(variant, k))
    ids = list(net.line_ids())
    for size in range(len(ids) + 1):
        for subset in itertools.combinations(ids, size):
            expected = is_feasible_attack(net, model, subset)
            for lead in (0, 1):
                got = _fixed_attack_feasible(net, model, subset, lead)
                assert got == expected, (subset, lead)


def test_traditional_encoding_shape(triangle):
    mdl = Model()
    cols = encode_feasible_set(mdl, triangle, AttackerModel.traditional(2))
    assert mdl.num_vars == 3
    assert mdl.num_rows == 1
    (start, index, value), lo, hi = mdl._block(eq_first=True)
    assert lo[0] == hi[0] == 2.0 and len(value) == 3 and not index.any()
    assert np.flatnonzero(np.diff(start)).tolist() == cols["x"].tolist()


def test_spatial_pinned_center_excludes_uncovered_lines(mesh8):
    d = fx.SPATIAL_D["mesh8"]
    footprint = compute_phi(mesh8, d)
    center = 1
    covered = [lid for lid in mesh8.line_ids() if center in footprint.phi[lid]]
    uncovered = [lid for lid in mesh8.line_ids() if center not in footprint.phi[lid]]
    assert covered and uncovered, "fixture should split under this D"
    model = AttackerModel.spatial(1, d, center_bus=center)
    for lead in (0, 1):
        assert _fixed_attack_feasible(mesh8, model, [covered[0]], lead)
        assert not _fixed_attack_feasible(mesh8, model, [uncovered[0]], lead)
    assert is_feasible_attack(mesh8, model, [covered[0]])
    assert not is_feasible_attack(mesh8, model, [uncovered[0]])


def test_spatially_infeasible_encoding(mesh8):
    with pytest.raises(SpatiallyInfeasibleError):
        encode_feasible_set(Model(), mesh8, AttackerModel.spatial(2, 1e-6))


def test_topological_k_exceeding_lines(two_bus):
    with pytest.raises(NoFeasibleAttackError, match="exceeds"):
        encode_feasible_set(Model(), two_bus, AttackerModel.topological(2))


def _five_bus_tree():
    buses = [Bus(i, 0.2 if i > 1 else 0.0, 1.0 if i == 1 else 0.0,
                 lat=40.0 + 0.1 * i, lon=-111.0, has_geo=True) for i in range(1, 6)]
    lines = [Line(1, 1, 2, 0.1, 1.0), Line(2, 1, 3, 0.1, 1.0),
             Line(3, 3, 5, 0.1, 1.0), Line(4, 2, 4, 0.1, 1.0),
             Line(5, 4, 5, 0.1, 1.0)]
    return Network.build(buses, lines)


def test_topological_flow_certificate_for_connected_triple():
    """A connected 3-line attack admits virtual flows: k+1 units leave the
    super node and one unit reaches each of the four touched buses; rooting
    the super edge at an untouched bus is infeasible."""
    net = _five_bus_tree()
    model = AttackerModel.topological(3)
    attack = [1, 2, 3]  # lines (1,2), (1,3), (3,5): touched buses {1, 2, 3, 5}
    assert is_feasible_attack(net, model, attack)
    for root, feasible in [(1, True), (2, True), (3, True), (5, True), (4, False)]:
        mdl, cols = _pinned_model(net, model, attack)
        mdl.add_eq([int(cols["kappa_edge"][net.bus_pos[root]])], [1.0], 1.0)
        assert _feasible(mdl) == feasible, root
    # Extract the flow values for one feasible rooting and add them up.
    mdl, cols = _pinned_model(net, model, attack)
    mdl.add_eq([int(cols["kappa_edge"][net.bus_pos[3]])], [1.0], 1.0)
    sol = mdl.solve_milp()
    kflow = sol.x[cols["kappa_flow"]]
    assert kflow.sum() == pytest.approx(4.0, abs=1e-6)
    y = sol.x[cols["y"]]
    assert y.sum() == pytest.approx(4.0, abs=1e-6)


def test_predicate_examples(two_bus, mesh8):
    assert is_feasible_attack(two_bus, AttackerModel.topological(1), [1])
    # two vertex-disjoint lines are not a connected pair
    assert not is_feasible_attack(mesh8, AttackerModel.topological(2), [1, 5])
    assert is_feasible_attack(mesh8, AttackerModel.topological(2), [1, 2])
    with pytest.raises(ValueError, match="unknown line"):
        is_feasible_attack(two_bus, AttackerModel.traditional(1), [42])


@pytest.mark.parametrize("name", ["triangle", "ring6", "mesh8"])
def test_topological_nests_in_traditional(name):
    net = fx.FIXTURES[name]()
    ids = list(net.line_ids())
    for k in (1, 2, 3):
        topo = AttackerModel.topological(k)
        trad = AttackerModel.traditional(k)
        for subset in itertools.combinations(ids, k):
            if is_feasible_attack(net, topo, subset):
                assert is_feasible_attack(net, trad, subset)


def test_spatial_centers_intersection(mesh8):
    d = fx.SPATIAL_D["mesh8"]
    footprint = compute_phi(mesh8, d)
    ids = list(mesh8.line_ids())
    for pair in itertools.combinations(ids, 2):
        centers = spatial_centers(mesh8, AttackerModel.spatial(2, d), pair)
        assert centers == footprint.phi[pair[0]] & footprint.phi[pair[1]]
