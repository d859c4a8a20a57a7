"""Constraint-generation engine: convergence, bounds discipline, edge paths."""

import math
import os
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from nkshed import backend, engine
from nkshed import fixtures as fx
from nkshed.attackers import SpatiallyInfeasibleError
from nkshed.engine import (CONVERGED, EXHAUSTED, ITERATION_LIMIT, MasterState,
                           NoFeasibleAttackError, SolveConfig, gap, solve_interdiction)
from nkshed.inner import AttackPlan, response_shed, solve_inner
from nkshed.netmodel import (AttackerModel, Bus, Line, Network, parse_case, serialize_case,
                             total_load)
from nkshed.oracle import attack_plan, feasible_attacks, solve_exhaustive, subset_count

from bench_lattice import lattice


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
    config = SolveConfig(bounds_mode=bounds_mode)
    plan, eta, state = solve_interdiction(net, model, config)
    oracle = solve_exhaustive(net, model)
    assert eta == pytest.approx(oracle.best_eta, rel=0.011, abs=1e-6)
    assert state.status in (CONVERGED, EXHAUSTED)


@pytest.mark.parametrize("bounds_mode", ["heuristic", "valid"])
@pytest.mark.parametrize("name,variant,k", [
    ("triangle", "traditional", 2),
    ("braess4", "traditional", 2),
    ("ring6", "topological", 2),
    ("mesh8", "spatial", 2),
])
def test_milp_master_matches_oracle(milp_master, name, variant, k, bounds_mode):
    net = fx.FIXTURES[name]()
    model = (AttackerModel.spatial(k, fx.SPATIAL_D[name]) if variant == "spatial"
             else AttackerModel(variant, k))
    plan, eta, state = solve_interdiction(net, model, SolveConfig(bounds_mode=bounds_mode))
    oracle = solve_exhaustive(net, model)
    assert eta == pytest.approx(oracle.best_eta, rel=0.011, abs=1e-6)
    assert state.status in (CONVERGED, EXHAUSTED)
    assert not state.bound_certified
    assert all(h["live"] is None and h["rows"] is None for h in state.history)


@pytest.mark.parametrize("bounds_mode", ["heuristic", "valid"])
def test_milp_master_cuts_price_each_priced_flow(milp_master, mesh8, bounds_mode):
    # Ids fall as positions rise, so pricing by id instead of position shows.
    net = Network(list(mesh8.buses), [replace(l, id=100 - l.id)
                                      for l in reversed(mesh8.lines)])
    model = AttackerModel.traditional(2)
    _, eta, state = solve_interdiction(net, model, SolveConfig(bounds_mode=bounds_mode,
                                                               epsilon=1e-6))
    assert eta == pytest.approx(solve_exhaustive(net, model).best_eta, abs=1e-6)
    assert len(state.cuts) >= 2
    rate = 1.0 if bounds_mode == "heuristic" else total_load(net)
    for (eta_hat, price), h in zip(state.cuts, state.history):
        sol = solve_inner(net, AttackPlan(h["attack"]))
        assert eta_hat == h["eta_hat"] == sol.eta
        assert price.tobytes() == (rate * np.abs(sol.flow)).tobytes()


@pytest.mark.parametrize("name", sorted(fx.FIXTURES) + ["lattice4x4"])
def test_basemva_rescale_gives_same_mw_shed(name):
    # The same MW data on another baseMVA is the same network scaled in p.u.:
    # demands, capacities and ratings by 1 / base, reactances not at all.
    net = lattice(4, 4) if name == "lattice4x4" else fx.FIXTURES[name]()
    text = serialize_case(net)
    assert "mpc.baseMVA = 1;" in text
    for variant in ("traditional", "topological"):
        for k in range(1, min(2, len(net.lines)) + 1):
            model = AttackerModel(variant, k)
            mw = []
            for base in (1.0, 10.0, 0.1):
                scaled = parse_case(text.replace("mpc.baseMVA = 1;", f"mpc.baseMVA = {base!r};"))
                _, eta, state = solve_interdiction(scaled, model)
                assert state.bound_certified, (variant, k, base)
                mw.append(eta * base)
            for other in mw[1:]:
                assert other == pytest.approx(mw[0], rel=1e-9, abs=1e-12), (variant, k, mw)


RANDOM_CELLS = ([(seed, k) for seed in range(60) for k in (1, 2)]
                + [(227, 2), (252, 2), (56, 1), (263, 2)])


@pytest.mark.parametrize("seed,k", RANDOM_CELLS)
def test_enumerated_master_matches_oracle_on_random_meshes(seed, k):
    # (227, 2), (252, 2) and (56, 1) fooled the penalty-rate cuts; the MILP
    # master crashed on (263, 2) in valid mode.
    net = fx.random_mesh(seed)
    model = AttackerModel.traditional(k)
    config = SolveConfig()
    plan, eta, state = solve_interdiction(net, model, config)
    oracle = solve_exhaustive(net, model)
    assert state.bound_certified
    assert state.status == CONVERGED
    assert oracle.best_eta - eta <= config.epsilon * max(eta, config.abs_floor) + 1e-9
    assert state.eta_up >= oracle.best_eta - 1e-9
    assert state.history[-1]["live"] == 0
    assert eta == pytest.approx(solve_inner(net, plan).eta, abs=1e-9)


def test_certified_bound_implies_oracle_agreement_on_fixture_zoo():
    certified = 0
    for name, make in fx.FIXTURES.items():
        net = make()
        for variant in ("traditional", "spatial", "topological"):
            for k in (1, 2, 3):
                model = (AttackerModel.spatial(k, fx.SPATIAL_D[name]) if variant == "spatial"
                         else AttackerModel(variant, k))
                try:
                    _, eta, state = solve_interdiction(net, model)
                except (NoFeasibleAttackError, SpatiallyInfeasibleError):
                    continue
                if not state.bound_certified:
                    continue
                certified += 1
                oracle = solve_exhaustive(net, model)
                assert oracle.best_eta - eta <= 0.01 * max(eta, 1e-6) + 1e-9, (name, variant, k)
                assert state.eta_up >= oracle.best_eta - 1e-9, (name, variant, k)
    assert certified >= 40


def test_enumerated_master_needs_no_penalty_rates(monkeypatch, braess4):
    def no_rates(*args, **kwargs):
        raise AssertionError("the enumerated master computed penalty rates")

    monkeypatch.setattr(engine, "valid_bounds", no_rates)
    runs = [solve_interdiction(braess4, AttackerModel.traditional(2), SolveConfig(bounds_mode=m))
            for m in ("heuristic", "valid")]
    assert runs[0][2].history == runs[1][2].history
    assert runs[0][2].bound_certified and runs[0][2].cuts == []
    assert all(h["live"] is not None for h in runs[0][2].history)


@pytest.mark.parametrize("rows,cols,variant", [(5, 5, "traditional"), (4, 4, "topological")])
def test_history_counts_the_attacks_each_dispatch_bounds(rows, cols, variant):
    # An iteration bounds the unpriced attacks above its stopping level: at
    # most those the iteration before left live, less the one it priced, and
    # at least those it leaves live.
    net, model = lattice(rows, cols), AttackerModel(variant, 2)
    state = solve_interdiction(net, model)[2]
    before = len(list(feasible_attacks(net, model)))
    for h in state.history:
        assert type(h["rows"]) is int and h["live"] <= h["rows"] <= before - 1, h
        before = h["live"]
    assert state.history[0]["rows"] > 0


def test_enumerated_master_ties_go_to_enumeration_order(star5):
    # All six leaf pairs strand 1.2 p.u. and every bound starts at that value.
    _, eta, state = solve_interdiction(star5, AttackerModel.traditional(2))
    assert eta == pytest.approx(1.2, abs=1e-9)
    assert state.history[0]["attack"] == [1, 2]
    assert state.iterations == 1 and state.bound_certified


def test_recheck_refuses_a_wrongly_priced_incumbent(monkeypatch, mesh8):
    # Every priced eta 1e-3 too high: the loop still converges on its own
    # numbers, but the recheck solves the incumbent's LP another way.
    def high(net, plan):
        inner = solve_inner(net, plan)
        return replace(inner, eta=inner.eta + 1e-3)

    monkeypatch.setattr(engine, "solve_inner", high)
    plan, eta, state = solve_interdiction(mesh8, AttackerModel.traditional(2))
    assert state.status == CONVERGED and not state.bound_certified
    assert eta - state.eta_star_recheck == pytest.approx(1e-3, abs=1e-9)
    assert state.eta_star_recheck == pytest.approx(solve_inner(mesh8, plan).eta, abs=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_last_bit_noise_in_the_bounds_leaves_the_proposals_alone(monkeypatch, mesh8, seed):
    # Each response's shed times 1 + 1e-12 * noise: bounds that differ by
    # far less than the tie tolerance tie, so the proposals stay in order.
    rng = np.random.default_rng(seed)

    def noisy(*args, **kwargs):
        shed = response_shed(*args, **kwargs)
        return shed * (1.0 + 1e-12 * rng.uniform(-1.0, 1.0, len(shed)))

    for net, model in [(lattice(5, 5), AttackerModel.traditional(2)),
                       (lattice(4, 4), AttackerModel.topological(2)),
                       (mesh8, AttackerModel.traditional(2))]:
        proposals = lambda: [h["attack"] for h in solve_interdiction(net, model)[2].history]
        ref = proposals()
        with monkeypatch.context() as patch:
            patch.setattr(engine, "response_shed", noisy)
            assert proposals() == ref, (len(net.buses), model)


def test_master_path_follows_both_budgets(monkeypatch, mesh8):
    # The network budget routes every budget but the topological one from
    # k = 2 on, which stays enumerated, and certified, past the network cap.
    size = len(mesh8.buses) * len(mesh8.lines)
    for k in (1, 2):
        for model in (AttackerModel.traditional(k), AttackerModel.topological(k),
                      AttackerModel.spatial(k, fx.SPATIAL_D["mesh8"])):
            subsets = subset_count(len(mesh8.lines), model)
            skips_cap = model.variant == "topological" and k == 2
            for budget, cap, enumerated in [(subsets, size, True), (subsets - 1, size, False),
                                             (subsets, size - 1, skips_cap)]:
                monkeypatch.setattr(engine, "ENUMERATION_BUDGET", budget)
                monkeypatch.setattr(engine, "NETWORK_BUDGET", cap)
                _, _, state = solve_interdiction(mesh8, model)
                assert (state.history[0]["live"] is not None) == enumerated == state.bound_certified


def _failing(times):
    """A ``Model.solve_milp`` whose first ``times`` calls fail; records presolve flags."""
    real, calls = backend.Model.solve_milp, []

    def solve_milp(self, presolve=True):
        calls.append(presolve)
        if len(calls) <= times:
            return backend.Solution("failed", np.nan, np.zeros(self.num_vars))
        return real(self, presolve=presolve)

    return solve_milp, calls


def test_milp_master_retries_a_failed_solve_without_presolve(milp_master, monkeypatch, mesh8):
    model = AttackerModel.traditional(2)
    solve_milp, calls = _failing(1)
    monkeypatch.setattr(backend.Model, "solve_milp", solve_milp)
    _, eta, state = solve_interdiction(mesh8, model)
    assert calls[:3] == [True, False, True]
    assert state.status in (CONVERGED, EXHAUSTED)
    assert eta == pytest.approx(solve_exhaustive(mesh8, model).best_eta, rel=0.011)


def test_milp_master_failing_twice_raises(milp_master, monkeypatch, triangle):
    solve_milp, calls = _failing(2)
    monkeypatch.setattr(backend.Model, "solve_milp", solve_milp)
    with pytest.raises(RuntimeError, match="master solve failed at iteration 1: failed"):
        solve_interdiction(triangle, AttackerModel.traditional(1))
    assert calls == [True, False]


def test_milp_master_failure_names_the_budgets_and_the_enumerated_path(
        milp_master, monkeypatch, triangle):
    # The error says why the run left the enumerated master and how to get
    # back to it: 3 candidate subsets against an enumeration budget of 0,
    # then also 9 buses times lines against a network budget of 8.
    monkeypatch.setattr(backend.Model, "solve_milp", _failing(4)[0])
    model = AttackerModel.traditional(1)
    with pytest.raises(RuntimeError) as err:
        solve_interdiction(triangle, model)
    assert str(err.value) == (
        "master solve failed at iteration 1: failed. The MILP master ran because 3 candidate "
        "subsets exceed engine.ENUMERATION_BUDGET = 0; raising that budget to cover the counts "
        "runs the enumerated master, whose bound is a proof when it converges")
    monkeypatch.setattr(engine, "NETWORK_BUDGET", 8)
    with pytest.raises(RuntimeError) as err:
        solve_interdiction(triangle, model)
    assert str(err.value) == (
        "master solve failed at iteration 1: failed. The MILP master ran because 3 candidate "
        "subsets exceed engine.ENUMERATION_BUDGET = 0 and 9 buses times lines exceed "
        "engine.NETWORK_BUDGET = 8; raising both budgets to cover the counts runs the "
        "enumerated master, whose bound is a proof when it converges")
    monkeypatch.setattr(engine, "ENUMERATION_BUDGET", 3)
    monkeypatch.setattr(engine, "NETWORK_BUDGET", 9)
    _, _, state = solve_interdiction(triangle, model)
    assert state.bound_certified


def test_milp_master_re_proposing_a_retired_attack_raises(milp_master, monkeypatch, triangle):
    # A master that proposes line position 0 again, its exclusion cut
    # ignored, with a dual bound that keeps the loop going, is caught on
    # the second proposal instead of being priced again.
    def solve_milp(self, presolve=True):
        x = np.zeros(self.num_vars)
        x[1] = 1.0
        return backend.Solution("optimal", -1.0, x, dual_bound=-100.0)

    monkeypatch.setattr(backend.Model, "solve_milp", solve_milp)
    with pytest.raises(RuntimeError, match="re-proposed attack"):
        solve_interdiction(triangle, AttackerModel.traditional(1))


def test_bound_monotonicity_along_history(master_paths, mesh8):
    for path in master_paths:
        _, _, state = solve_interdiction(mesh8, AttackerModel.traditional(2),
                                         SolveConfig(bounds_mode="valid", epsilon=1e-6))
        ups = [h["eta_up"] for h in state.history]
        assert all(b <= a + 1e-9 for a, b in zip(ups, ups[1:])), path
        best = -math.inf
        for h in state.history:
            best = max(best, h["eta_hat"])
        assert best == pytest.approx(state.eta_star), path
        assert state.eta_up >= state.eta_star - 1e-9, path
        assert (state.history[0]["live"] is not None) == (path == "enumerated")


def test_exhaustion_returns_exact_optimum(master_paths, triangle):
    # An impossible tolerance forces the loop to retire the whole feasible set.
    config = SolveConfig(epsilon=1e-12, bounds_mode="valid")
    oracle = solve_exhaustive(triangle, AttackerModel.traditional(1))
    for path in master_paths:
        plan, eta, state = solve_interdiction(triangle, AttackerModel.traditional(1), config)
        assert state.status in (EXHAUSTED, CONVERGED), path
        if state.status == EXHAUSTED:
            assert state.eta_up == pytest.approx(state.eta_star)
            assert gap(state, config) == pytest.approx(0.0, abs=1e-12)
        assert eta == pytest.approx(oracle.best_eta, abs=1e-6), path
        assert state.iterations <= 3, path  # |X| = 3: finite termination bound


@pytest.mark.parametrize("name,k", [("triangle", 1), ("star5", 2), ("ring6", 1)])
def test_finite_termination_within_feasible_set_size(master_paths, name, k):
    net = fx.FIXTURES[name]()
    model = AttackerModel.traditional(k)
    config = SolveConfig(epsilon=1e-12, bounds_mode="valid")
    size = solve_exhaustive(net, model).evaluated
    for path in master_paths:
        _, _, state = solve_interdiction(net, model, config)
        assert state.iterations <= size, path


def test_iteration_limit_reports_incumbent(master_paths, mesh8):
    config = SolveConfig(max_iters=1, bounds_mode="valid", epsilon=1e-9)
    for path in master_paths:
        plan, eta, state = solve_interdiction(mesh8, AttackerModel.traditional(2), config)
        assert state.status == ITERATION_LIMIT, path
        assert state.iterations == 1, path
        assert eta == pytest.approx(solve_inner(mesh8, plan).eta, abs=1e-9), path
        assert state.eta_up >= eta - 1e-9, path
        assert not state.bound_certified, path


def test_upper_bound_soundness_with_valid_bounds(master_paths, braess4):
    model = AttackerModel.traditional(2)
    oracle = solve_exhaustive(braess4, model)
    for path in master_paths:
        _, _, state = solve_interdiction(braess4, model, SolveConfig(bounds_mode="valid"))
        for h in state.history:
            assert h["eta_up"] >= oracle.best_eta - 1e-6, path


def test_spatial_sub_k_optimum_and_exact_point_exclusion(master_paths, two_bus):
    # Only one line exists, so a k = 2 spatial budget peaks at a 1-line attack;
    # the exclusion cut for it must not outlaw supersets that do not exist or
    # the empty plan that was likely visited first.
    model = AttackerModel.spatial(2, 200.0)
    for path in master_paths:
        plan, eta, state = solve_interdiction(two_bus, model)
        assert eta == pytest.approx(1.0, abs=1e-6), path
        assert sorted(plan.lines) == [1], path
        assert plan.center_bus in {1, 2}, path
        assert state.status in (CONVERGED, EXHAUSTED), path


@pytest.mark.parametrize("name", sorted(fx.FIXTURES))
def test_milp_master_names_centres_like_attack_plan(milp_master, name):
    # Both master paths and the oracle centre a spatial plan alike: on the
    # pinned bus, or else on the smallest bus that can centre all its lines.
    net = fx.FIXTURES[name]()
    solved = 0
    for k in (1, 2, 3):
        for scale in (1, 2, 4):
            model = AttackerModel.spatial(k, scale * fx.SPATIAL_D[name])
            try:
                plan, _, _ = solve_interdiction(net, model)
            except (NoFeasibleAttackError, SpatiallyInfeasibleError):
                continue
            solved += 1
            assert plan.center_bus == attack_plan(net, model, plan.lines).center_bus, (k, scale)
    assert solved


def test_spatial_superset_reachable_after_subset_visit(master_paths, ring6):
    # Drive the loop to exhaustion on a spatial instance whose optimum has
    # fewer candidates than the budget allows; the best plan must match the
    # oracle even though subsets of it are visited and excluded along the way.
    d = fx.SPATIAL_D["ring6"]
    model = AttackerModel.spatial(3, d)
    config = SolveConfig(epsilon=1e-12, bounds_mode="valid", max_iters=500)
    oracle = solve_exhaustive(ring6, model)
    for path in master_paths:
        plan, eta, state = solve_interdiction(ring6, model, config)
        assert eta == pytest.approx(oracle.best_eta, abs=1e-6), path


def test_no_feasible_attack_topological_disconnected_pair(master_paths):
    buses = [Bus(1, 0.0, 1.0), Bus(2, 0.5), Bus(3, 0.0, 1.0), Bus(4, 0.5)]
    lines = [Line(1, 1, 2, 0.1, 1.0), Line(2, 3, 4, 0.1, 1.0)]
    net = Network(buses, lines)
    model = AttackerModel.topological(2)
    with pytest.raises(NoFeasibleAttackError) as brute:
        solve_exhaustive(net, model)
    for path in master_paths:
        with pytest.raises(NoFeasibleAttackError) as err:
            solve_interdiction(net, model)
        assert str(err.value) == str(brute.value) == (
            "no feasible attack for the topological budget (k = 2)"), path


def test_the_milp_master_never_builds_the_power_flow(milp_master):
    # The network's PTDF is dense, buses by lines; only the enumerated
    # master's bound layer and the oracle's zero-shed screen read it.
    for name in ("mesh8", "ring6"):
        net = fx.FIXTURES[name]()
        plan, eta, state = solve_interdiction(net, AttackerModel.traditional(2))
        assert state.iterations > 1 and state.cuts, name
        assert "power_flow" not in vars(net), name


def test_gap_examples():
    config = SolveConfig()
    state = MasterState(eta_star=4.0, eta_up=4.04, iterations=5)
    assert gap(state, config) == pytest.approx(0.01)
    zero = MasterState(eta_star=0.0, eta_up=0.0, iterations=1)
    assert gap(zero, config) == pytest.approx(0.0)
    fresh = MasterState()
    with pytest.raises(RuntimeError, match="undefined"):
        gap(fresh, config)


def test_topological_never_exceeds_traditional(master_paths):
    for path in master_paths:
        for name in ("triangle", "ring6", "mesh8"):
            net = fx.FIXTURES[name]()
            for k in (1, 2):
                _, eta_top, _ = solve_interdiction(net, AttackerModel.topological(k))
                _, eta_trad, _ = solve_interdiction(net, AttackerModel.traditional(k))
                assert eta_top <= eta_trad + max(0.011 * eta_trad, 1e-6), (path, name, k)


def test_deterministic_history(master_paths, mesh8):
    for path in master_paths:
        runs = [solve_interdiction(mesh8, AttackerModel.traditional(2), SolveConfig())
                for _ in range(2)]
        assert runs[0][2].history == runs[1][2].history, path
        assert runs[0][0].lines == runs[1][0].lines, path


def test_history_values_are_plain_floats(master_paths, mesh8):
    # Not numpy scalars: the enumerated master's bounds are a numpy array.
    for path in master_paths:
        _, _, state = solve_interdiction(mesh8, AttackerModel.traditional(2), SolveConfig())
        values = [state.eta_star, state.eta_up]
        values += [h[key] for h in state.history for key in ("eta_hat", "eta_up")]
        assert [type(v) for v in values] == [float] * len(values), path


def test_an_empty_network_is_rejected():
    with pytest.raises(ValueError, match="^empty network$"):
        solve_interdiction(Network([], []), AttackerModel.traditional(1))


def test_config_validation():
    with pytest.raises(ValueError):
        SolveConfig(epsilon=0.0)
    for value in (0.0, -1e-6, math.inf, math.nan):
        with pytest.raises(ValueError, match="epsilon must be finite and > 0"):
            SolveConfig(epsilon=value)
    with pytest.raises(ValueError):
        SolveConfig(max_iters=0)
    with pytest.raises(ValueError):
        SolveConfig(bounds_mode="magic")
    # A bool passed as a number, and a fractional cap that priced
    # ceil(max_iters) attacks.
    with pytest.raises(ValueError, match="epsilon must be finite and > 0"):
        SolveConfig(epsilon=True)
    for value in (2.5, 3.0, True, "3"):
        with pytest.raises(ValueError, match="max_iters must be an integer"):
            SolveConfig(max_iters=value)
    assert SolveConfig(max_iters=np.int64(3)).max_iters == 3


def test_a_failed_inner_solve_names_the_iteration_and_the_attack(monkeypatch):
    # Every cold solve after the seed's fails: the first attack priced.
    solve_lp, cold = backend.Model.solve_lp, []

    def failing(self, require_optimal=True, presolve=True, basis=None):
        if presolve and basis is None:
            cold.append(self.name)
            if len(cold) > 1:
                raise backend.BackendError("stopped short")
        return solve_lp(self, require_optimal, presolve, basis)

    monkeypatch.setattr(backend.Model, "solve_lp", failing)
    with pytest.raises(RuntimeError, match=r"inner solve failed at iteration 1 for attack "
                                           r"\[\d+, \d+\]") as raised:
        solve_interdiction(fx.mesh8(), AttackerModel.traditional(2))
    attack = re.search(r"\[\d+, \d+\]", str(raised.value)).group()
    cause = raised.value.__cause__
    assert isinstance(cause, backend.BackendError)
    assert str(cause) == f"exact-load-shed solve failed for attack {attack}: stopped short"


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
