"""Acceptance suite: the eight exit criteria, one test (and one line) each.

Criteria 5 and 6 replay published benchmark figures and need the PGLib-OPF
API case files supplied locally (see data/README.md); they skip when the
files are absent. Everything else runs on the synthetic fixture zoo.
"""

import itertools
import random

import pytest

from conftest import pglib_path
from nkshed import fixtures as fx
from nkshed.attackers import (SpatiallyInfeasibleError, compute_phi, encode_feasible_set,
                              is_feasible_attack)
from nkshed.bounds import valid_bounds
from nkshed.engine import (CONVERGED, EXHAUSTED, NoFeasibleAttackError, SolveConfig,
                           solve_interdiction)
from nkshed.inner import AttackPlan, cut_rhs, solve_inner, solve_penalized_inner
from nkshed.netmodel import AttackerModel, parse_case, parse_geo
from nkshed.oracle import solve_exhaustive

EPS = 0.01
FIXTURE_NAMES = ["two_bus", "triangle", "braess4", "star5", "ring6", "mesh8"]
INFEASIBLE_ERRORS = (NoFeasibleAttackError, SpatiallyInfeasibleError, ValueError)


def _model_for(variant, k, name):
    if variant == "spatial":
        return AttackerModel.spatial(k, fx.SPATIAL_D[name])
    return AttackerModel(variant, k)


def _tolerant_equal(achieved, reference):
    return abs(achieved - reference) <= EPS * max(achieved, 1e-6) + 1e-9


def test_criterion_1_oracle_equivalence():
    """Engine matches brute force on every fixture x model x k cell."""
    cells = checked = 0
    for name in FIXTURE_NAMES:
        net = fx.FIXTURES[name]()
        for variant in ("traditional", "spatial", "topological"):
            footprint = (compute_phi(net, fx.SPATIAL_D[name])
                         if variant == "spatial" else None)
            for k in (1, 2, 3):
                cells += 1
                model = _model_for(variant, k, name)
                try:
                    plan, eta, state = solve_interdiction(
                        net, model, SolveConfig(epsilon=EPS), footprint=footprint)
                    engine_infeasible = False
                except INFEASIBLE_ERRORS:
                    engine_infeasible = True
                try:
                    oracle = solve_exhaustive(net, model, footprint)
                    oracle_infeasible = False
                except INFEASIBLE_ERRORS:
                    oracle_infeasible = True
                assert engine_infeasible == oracle_infeasible, (name, variant, k)
                if engine_infeasible:
                    continue
                checked += 1
                assert _tolerant_equal(eta, oracle.best_eta), (name, variant, k, eta,
                                                               oracle.best_eta)
                assert is_feasible_attack(net, model, footprint, plan.lines), \
                    (name, variant, k)
    assert checked >= 5 * 3 * 3 - 10  # nearly every cell is feasible
    print(f"\n[criterion 1] PASS oracle equivalence on {checked}/{cells} feasible cells")


def _random_attacks(rng, net, count, k_max=3):
    ids = list(net.line_ids())
    out = []
    for _ in range(count):
        k = rng.randint(1, min(k_max, len(ids)))
        out.append(tuple(sorted(rng.sample(ids, k))))
    return out


def test_criterion_2_penalized_equivalence():
    """Penalized inner value equals the exact inner value under valid rates."""
    rng = random.Random(2024)
    pairs = 0
    worst = 0.0
    while pairs < 50:
        name = rng.choice(FIXTURE_NAMES)
        net = fx.FIXTURES[name]()
        attack = _random_attacks(rng, net, 1)[0]
        enc = encode_feasible_set(net, AttackerModel.traditional(len(attack)))
        vb = valid_bounds(net, enc)
        eta = solve_inner(net, AttackPlan.of(attack)).eta
        eta_r = solve_penalized_inner(net, AttackPlan.of(attack), vb)
        worst = max(worst, abs(eta - eta_r))
        assert abs(eta - eta_r) <= 1e-6, (name, attack, eta, eta_r)
        pairs += 1
    print(f"\n[criterion 2] PASS penalized == exact on {pairs} pairs (worst gap {worst:.2e})")


def test_criterion_3_interdicted_coupling_duals_vanish():
    """Interdicted-line coupling duals are numerically zero on every sampled attack."""
    rng = random.Random(5150)
    for _ in range(50):
        name = rng.choice(FIXTURE_NAMES)
        net = fx.FIXTURES[name]()
        attack = _random_attacks(rng, net, 1)[0]
        sol = solve_inner(net, AttackPlan.of(attack))
        assert sol.big_m_ok, (name, attack)
        for lid in attack:
            mu1, mu2 = sol.duals_mu[lid]
            assert abs(mu1) <= 1e-8 and abs(mu2) <= 1e-8, (name, attack, lid)
    print("\n[criterion 3] PASS zero coupling duals on 50 sampled attacks")


def test_criterion_4_cut_validity():
    """No cut undercuts the true shed of any feasible attack (valid rates)."""
    rng = random.Random(77)
    total = 0
    for name in FIXTURE_NAMES:
        net = fx.FIXTURES[name]()
        ids = list(net.line_ids())
        k = min(2, len(ids))
        model = AttackerModel.traditional(k)
        vb = valid_bounds(net, encode_feasible_set(net, model))
        pool = [frozenset(c) for c in itertools.combinations(ids, k)]
        cache = {}

        def solved(a, _net=net, _cache=cache):
            if a not in _cache:
                _cache[a] = solve_inner(_net, AttackPlan.of(a))
            return _cache[a]

        for _ in range(100):
            x_hat, x = rng.choice(pool), rng.choice(pool)
            rhs = cut_rhs(solved(x_hat), vb, AttackPlan.of(x))
            assert solved(x).eta <= rhs + 1e-6, (name, sorted(x_hat), sorted(x))
            total += 1
    print(f"\n[criterion 4] PASS cut validity on {total} ordered pairs")


RTS_CASE = pglib_path("pglib_opf_case24_ieee_rts__api.m")
RTS_GEO = pglib_path("case24_ieee_rts_geo.csv")
WECC_CASE = pglib_path("pglib_opf_case240_pserc__api.m")

RTS_TRADITIONAL = {2: 4.0, 3: 7.37, 4: 11.05, 5: 14.21, 6: 15.96}


@pytest.mark.skipif(RTS_CASE is None, reason="PGLib RTS96 API case not supplied")
def test_criterion_5_rts96_reproduction():
    """Published single-area RTS96 shed values, 1% relative."""
    net = parse_case(open(RTS_CASE).read())
    for k, expected in RTS_TRADITIONAL.items():
        _, eta, _ = solve_interdiction(net, AttackerModel.traditional(k),
                                       SolveConfig(epsilon=EPS))
        assert eta == pytest.approx(expected, rel=0.01), ("traditional", k)
    _, eta_top, _ = solve_interdiction(net, AttackerModel.topological(5),
                                       SolveConfig(epsilon=EPS))
    assert eta_top == pytest.approx(11.05, rel=0.01)
    line = "[criterion 5] PASS RTS96 traditional k=2..6 and topological k=5"
    if RTS_GEO is not None:
        geo_net = parse_geo(open(RTS_GEO).read(), net)
        _, eta_sp, _ = solve_interdiction(geo_net, AttackerModel.spatial(6, 10.0),
                                          SolveConfig(epsilon=EPS))
        matches = abs(eta_sp - 11.0) <= 0.01 * 11.0
        # Sensitive to the bus-to-line distance convention; reportable only.
        line += f"; spatial D=10 k=6 -> {eta_sp:.2f} ({'matches' if matches else 'differs'})"
    print("\n" + line)


@pytest.mark.skipif(WECC_CASE is None, reason="PGLib WECC 240 API case not supplied")
def test_criterion_6_wecc240_spot_checks():
    """Published WECC 240 spot values, 1% relative."""
    net = parse_case(open(WECC_CASE).read())
    _, eta2, _ = solve_interdiction(net, AttackerModel.traditional(2),
                                    SolveConfig(epsilon=EPS))
    assert eta2 == pytest.approx(219.19, rel=0.01)
    _, eta6, _ = solve_interdiction(net, AttackerModel.topological(6),
                                    SolveConfig(epsilon=EPS))
    assert eta6 == pytest.approx(332.03, rel=0.01)
    print("\n[criterion 6] PASS WECC 240 spot checks")


def test_criterion_7_structural_invariants():
    """Bound monotonicity, finite termination, footprint nesting, model order."""
    # Bound discipline along every recorded history.
    for name in ("braess4", "ring6", "mesh8"):
        net = fx.FIXTURES[name]()
        _, _, state = solve_interdiction(net, AttackerModel.traditional(2),
                                         SolveConfig(epsilon=1e-9, bounds_mode="valid"))
        ups = [h["eta_up"] for h in state.history]
        assert all(b <= a + 1e-9 for a, b in zip(ups, ups[1:]))
        incumbents = list(itertools.accumulate((h["eta_hat"] for h in state.history), max))
        assert all(b >= a - 1e-12 for a, b in zip(incumbents, incumbents[1:]))
        assert state.eta_up >= state.eta_star - 1e-9

    # Finite termination: exhaustion cannot outrun the feasible set.
    net = fx.triangle()
    model = AttackerModel.traditional(1)
    _, _, state = solve_interdiction(net, model,
                                     SolveConfig(epsilon=1e-12, bounds_mode="valid"))
    assert state.iterations <= solve_exhaustive(net, model).evaluated
    assert state.status in (CONVERGED, EXHAUSTED)

    # Footprint nesting and induced monotonicity of the spatial optimum in D.
    mesh = fx.mesh8()
    grid = [60.0, 90.0, 150.0, 400.0]
    footprints = [compute_phi(mesh, d) for d in grid]
    for small, large in zip(footprints, footprints[1:]):
        for lid in mesh.line_ids():
            assert small.phi[lid] <= large.phi[lid]
    etas = []
    for d, fp in zip(grid, footprints):
        _, eta, _ = solve_interdiction(mesh, AttackerModel.spatial(2, d),
                                       SolveConfig(epsilon=1e-6), footprint=fp)
        etas.append(eta)
    assert all(b >= a - 1e-6 for a, b in zip(etas, etas[1:]))

    # A connectivity-constrained attacker never beats the unconstrained one.
    for name in FIXTURE_NAMES:
        net = fx.FIXTURES[name]()
        for k in (1, 2):
            if k > len(net.lines):
                continue
            try:
                _, eta_top, _ = solve_interdiction(net, AttackerModel.topological(k))
            except INFEASIBLE_ERRORS:
                continue
            _, eta_trad, _ = solve_interdiction(net, AttackerModel.traditional(k))
            assert eta_top <= eta_trad + EPS * max(eta_trad, 1e-6) + 1e-9
    print("\n[criterion 7] PASS structural invariants")


def test_criterion_8_heuristic_vs_valid_bounds():
    """Unit rates find the same optimum at no extra iterations."""
    agree = 0
    for name in FIXTURE_NAMES:
        net = fx.FIXTURES[name]()
        for variant in ("traditional", "spatial", "topological"):
            footprint = (compute_phi(net, fx.SPATIAL_D[name])
                         if variant == "spatial" else None)
            for k in (1, 2, 3):
                model = _model_for(variant, k, name)
                try:
                    _, eta_h, st_h = solve_interdiction(
                        net, model, SolveConfig(epsilon=EPS, bounds_mode="heuristic"),
                        footprint=footprint)
                except INFEASIBLE_ERRORS:
                    continue
                _, eta_v, st_v = solve_interdiction(
                    net, model, SolveConfig(epsilon=EPS, bounds_mode="valid"),
                    footprint=footprint)
                assert _tolerant_equal(eta_h, eta_v), (name, variant, k, eta_h, eta_v)
                assert st_h.iterations <= st_v.iterations, (name, variant, k)
                agree += 1
    print(f"\n[criterion 8] PASS heuristic == valid shed with <= iterations "
          f"on {agree} cells")
