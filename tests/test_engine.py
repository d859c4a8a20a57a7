"""Constraint-generation engine: convergence, bounds discipline, edge paths."""

import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from nkshed import backend
from nkshed import fixtures as fx
from nkshed.attackers import compute_phi
from nkshed.engine import (CONVERGED, EXHAUSTED, ITERATION_LIMIT, MasterState,
                           NoFeasibleAttackError, SolveConfig, gap, solve_interdiction)
from nkshed.inner import solve_inner
from nkshed.netmodel import AttackerModel, Bus, Line, Network
from nkshed.oracle import solve_exhaustive


def test_two_bus_single_attack_converges_fast(two_bus):
    plan, eta, state = solve_interdiction(two_bus, AttackerModel.traditional(1))
    assert eta == pytest.approx(1.0, abs=1e-6)
    assert sorted(plan.lines) == [1]
    assert state.iterations <= 2
    assert state.status == CONVERGED
    assert state.eta_star_recheck == pytest.approx(eta, abs=1e-9)


@pytest.mark.parametrize("bounds_mode", ["heuristic", "valid"])
@pytest.mark.parametrize("name,variant,k", [
    ("triangle", "traditional", 2),
    ("braess4", "traditional", 2),
    ("ring6", "topological", 2),
    ("mesh8", "spatial", 2),
])
def test_engine_matches_oracle(name, variant, k, bounds_mode):
    net = fx.FIXTURES[name]()
    model = (AttackerModel.spatial(k, fx.SPATIAL_D[name]) if variant == "spatial"
             else AttackerModel(variant, k))
    footprint = compute_phi(net, fx.SPATIAL_D[name]) if variant == "spatial" else None
    config = SolveConfig(bounds_mode=bounds_mode)
    plan, eta, state = solve_interdiction(net, model, config, footprint=footprint)
    oracle = solve_exhaustive(net, model, footprint)
    assert eta == pytest.approx(oracle.best_eta, rel=0.011, abs=1e-6)
    assert state.status in (CONVERGED, EXHAUSTED)


def test_bound_monotonicity_along_history(mesh8):
    _, _, state = solve_interdiction(mesh8, AttackerModel.traditional(2),
                                     SolveConfig(bounds_mode="valid", epsilon=1e-6))
    ups = [h["eta_up"] for h in state.history]
    assert all(b <= a + 1e-9 for a, b in zip(ups, ups[1:]))
    best = -math.inf
    for h in state.history:
        best = max(best, h["eta_hat"])
    assert best == pytest.approx(state.eta_star)
    assert state.eta_up >= state.eta_star - 1e-9


def test_exhaustion_returns_exact_optimum(triangle):
    # An impossible tolerance forces the loop to retire the whole feasible set.
    config = SolveConfig(epsilon=1e-12, bounds_mode="valid")
    plan, eta, state = solve_interdiction(triangle, AttackerModel.traditional(1), config)
    oracle = solve_exhaustive(triangle, AttackerModel.traditional(1))
    assert state.status in (EXHAUSTED, CONVERGED)
    if state.status == EXHAUSTED:
        assert state.eta_up == pytest.approx(state.eta_star)
        assert gap(state, config) == pytest.approx(0.0, abs=1e-12)
    assert eta == pytest.approx(oracle.best_eta, abs=1e-6)
    assert state.iterations <= 3  # |X| = 3: finite termination bound


@pytest.mark.parametrize("name,k", [("triangle", 1), ("star5", 2), ("ring6", 1)])
def test_finite_termination_within_feasible_set_size(name, k):
    net = fx.FIXTURES[name]()
    model = AttackerModel.traditional(k)
    config = SolveConfig(epsilon=1e-12, bounds_mode="valid")
    _, _, state = solve_interdiction(net, model, config)
    size = solve_exhaustive(net, model).evaluated
    assert state.iterations <= size


def test_iteration_limit_reports_incumbent(mesh8):
    config = SolveConfig(max_iters=1, bounds_mode="valid", epsilon=1e-9)
    plan, eta, state = solve_interdiction(mesh8, AttackerModel.traditional(2), config)
    assert state.status == ITERATION_LIMIT
    assert state.iterations == 1
    assert eta == pytest.approx(solve_inner(mesh8, plan).eta, abs=1e-9)
    assert state.eta_up >= eta - 1e-9


def test_upper_bound_soundness_with_valid_bounds(braess4):
    model = AttackerModel.traditional(2)
    oracle = solve_exhaustive(braess4, model)
    _, _, state = solve_interdiction(braess4, model, SolveConfig(bounds_mode="valid"))
    for h in state.history:
        assert h["eta_up"] >= oracle.best_eta - 1e-6


def test_spatial_sub_k_optimum_and_exact_point_exclusion(two_bus):
    # Only one line exists, so a k = 2 spatial budget peaks at a 1-line attack;
    # the exclusion cut for it must not outlaw supersets that do not exist or
    # the empty plan that was likely visited first.
    model = AttackerModel.spatial(2, 200.0)
    plan, eta, state = solve_interdiction(two_bus, model)
    assert eta == pytest.approx(1.0, abs=1e-6)
    assert sorted(plan.lines) == [1]
    assert plan.center_bus in {1, 2}
    assert state.status in (CONVERGED, EXHAUSTED)


def test_spatial_superset_reachable_after_subset_visit(ring6):
    # Drive the loop to exhaustion on a spatial instance whose optimum has
    # fewer candidates than the budget allows; the best plan must match the
    # oracle even though subsets of it are visited and excluded along the way.
    d = fx.SPATIAL_D["ring6"]
    model = AttackerModel.spatial(3, d)
    footprint = compute_phi(ring6, d)
    config = SolveConfig(epsilon=1e-12, bounds_mode="valid", max_iters=500)
    plan, eta, state = solve_interdiction(ring6, model, config, footprint=footprint)
    oracle = solve_exhaustive(ring6, model, footprint)
    assert eta == pytest.approx(oracle.best_eta, abs=1e-6)


def test_no_feasible_attack_topological_disconnected_pair():
    buses = [Bus(1, 0.0, 1.0), Bus(2, 0.5), Bus(3, 0.0, 1.0), Bus(4, 0.5)]
    lines = [Line.of(1, 1, 2, 0.1, 1.0), Line.of(2, 3, 4, 0.1, 1.0)]
    net = Network.build(buses, lines)
    with pytest.raises(NoFeasibleAttackError, match="no feasible attack"):
        solve_interdiction(net, AttackerModel.topological(2))


def test_gap_examples():
    config = SolveConfig()
    state = MasterState(eta_star=4.0, eta_up=4.04, iterations=5)
    assert gap(state, config) == pytest.approx(0.01)
    zero = MasterState(eta_star=0.0, eta_up=0.0, iterations=1)
    assert gap(zero, config) == pytest.approx(0.0)
    fresh = MasterState()
    with pytest.raises(RuntimeError, match="undefined"):
        gap(fresh, config)


def test_topological_never_exceeds_traditional():
    for name in ("triangle", "ring6", "mesh8"):
        net = fx.FIXTURES[name]()
        for k in (1, 2):
            _, eta_top, _ = solve_interdiction(net, AttackerModel.topological(k))
            _, eta_trad, _ = solve_interdiction(net, AttackerModel.traditional(k))
            assert eta_top <= eta_trad + max(0.011 * eta_trad, 1e-6)


def test_deterministic_history(mesh8):
    runs = [solve_interdiction(mesh8, AttackerModel.traditional(2), SolveConfig())
            for _ in range(2)]
    assert runs[0][2].history == runs[1][2].history
    assert runs[0][0].lines == runs[1][0].lines


def test_config_validation():
    with pytest.raises(ValueError):
        SolveConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        SolveConfig(max_iters=0)
    with pytest.raises(ValueError):
        SolveConfig(bounds_mode="magic")


def _tiny_milp() -> backend.Solution:
    mdl = backend.Model("tiny")
    x = mdl.add_vars(2, ub=1.0, obj=-1.0, integer=True)
    mdl.add_le(x, [1.0, 1.0], 1.0)
    return mdl.solve_milp()


def _noisy_milp(monkeypatch):
    # HiGHS's MIP solver writes some diagnostics straight to file descriptor 1.
    real_milp = backend.milp

    def noisy_milp(*args, **kwargs):
        os.write(1, b"solver noise on fd 1\n")
        return real_milp(*args, **kwargs)

    monkeypatch.setattr(backend, "milp", noisy_milp)


def test_milp_solver_output_goes_to_stderr(monkeypatch, capfd):
    _noisy_milp(monkeypatch)
    sol = _tiny_milp()
    out, err = capfd.readouterr()
    assert out == ""
    assert "solver noise on fd 1" in err
    assert sol.objective == pytest.approx(-1.0)
    assert sol.dual_bound <= sol.objective + 1e-9


def test_concurrent_milp_solves_restore_stdout(monkeypatch, capfd):
    # Threads share one fd-1 redirection; a lost update to its user count
    # would leave fd 1 pointing at stderr after every solve has returned.
    _noisy_milp(monkeypatch)
    workers, solves = (os.cpu_count() or 1) + 2, 10
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_tiny_milp) for _ in range(workers * solves)]
            for f in futures:
                assert f.result(timeout=60).objective == pytest.approx(-1.0)
    finally:
        sys.setswitchinterval(interval)
    os.write(1, b"after\n")
    out, err = capfd.readouterr()
    assert out == "after\n"
    assert err.count("solver noise on fd 1") == workers * solves
