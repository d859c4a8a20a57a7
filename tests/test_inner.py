"""Inner load-shed LP: examples, duals, penalized equivalence, cut pricing."""

import itertools
import random
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import linprog

from nkshed import fixtures as fx
from nkshed.attackers import encode_feasible_set
from nkshed.bounds import DualBounds, heuristic_bounds, valid_bounds
from nkshed.inner import AttackPlan, cut_rhs, solve_inner, solve_penalized_inner
from nkshed.netmodel import AttackerModel, Network, total_load
from reference_lp import reference_eta

TOL = 1e-6


def residuals(net, sol):
    """Max violation of flow balance / limits at the returned point."""
    worst = 0.0
    for bus in net.buses:
        out_ids, in_ids = net.adjacency[bus.id]
        balance = (sol.gen[bus.id] - (1.0 - sol.shed[bus.id]) * bus.demand
                   - sum(sol.flow[l] for l in out_ids) + sum(sol.flow[l] for l in in_ids))
        worst = max(worst, abs(balance))
    for line in net.lines:
        cap = line.thermal * (0.0 if line.id in sol.attack.lines else 1.0)
        worst = max(worst, abs(sol.flow[line.id]) - cap)
    for bus in net.buses:
        worst = max(worst, -sol.shed[bus.id], sol.shed[bus.id] - 1.0,
                    -sol.gen[bus.id], sol.gen[bus.id] - bus.gen_cap)
    return worst


def test_two_bus_no_attack(two_bus):
    sol = solve_inner(two_bus, AttackPlan.of([]))
    assert sol.eta == pytest.approx(0.0, abs=TOL)
    assert sol.status == "optimal"


def test_two_bus_islanding(two_bus):
    sol = solve_inner(two_bus, AttackPlan.of([1]))
    assert sol.eta == pytest.approx(1.0, abs=TOL)
    assert sol.shed[2] == pytest.approx(1.0, abs=TOL)


def test_triangle_attack_line1_matches_handwritten_lp(triangle):
    # Same instance written out by hand, dense, from the fixture's raw numbers.
    # Line (1,2) is removed: its flow is fixed to 0 and its coupling dropped.
    # Columns: l2 l3 g1 th1 th2 th3 p13 p23.
    c = [1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    a_eq = [
        [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, -1.0, 0.0],    # bus 1: g1 = p13
        [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -1.0],    # bus 2: -(1 - l2) = p23
        [0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0],     # bus 3: -(1 - l3) = -p13 - p23
        [0.0, 0.0, 0.0, 10.0, 0.0, -10.0, 1.0, 0.0],  # p13 + b (th1 - th3) = 0
        [0.0, 0.0, 0.0, 0.0, 10.0, -10.0, 0.0, 1.0],  # p23 + b (th2 - th3) = 0
    ]
    b_eq = [0.0, 1.0, 1.0, 0.0, 0.0]
    bounds = [(0, 1), (0, 1), (0, 2.0), (None, None), (None, None), (None, None),
              (-1.0, 1.0), (-0.5, 0.5)]
    ref = linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs")
    assert ref.status == 0
    sol = solve_inner(triangle, AttackPlan.of([1]))
    assert sol.eta == pytest.approx(ref.fun, abs=TOL)
    assert sol.eta == pytest.approx(1.0, abs=TOL)


@pytest.mark.parametrize("name", sorted(fx.FIXTURES))
def test_matches_reference_lp_on_all_single_and_double_attacks(name):
    net = fx.FIXTURES[name]()
    ids = [l.id for l in net.lines]
    attacks = [[]] + [[i] for i in ids] + [list(p) for p in itertools.combinations(ids, 2)]
    for attack in attacks:
        sol = solve_inner(net, AttackPlan.of(attack))
        assert sol.eta == pytest.approx(reference_eta(net, attack), abs=TOL), attack
        assert residuals(net, sol) <= TOL
        assert 0.0 - TOL <= sol.eta <= total_load(net) + TOL
        eta_sum = sum(net.buses[net.bus_pos[i]].demand * s for i, s in sol.shed.items())
        assert sol.eta == pytest.approx(eta_sum, abs=TOL)


def test_duals_nonnegative_and_interdicted_mu_zero(mesh8):
    rng = random.Random(7)
    ids = [l.id for l in mesh8.lines]
    for _ in range(25):
        attack = rng.sample(ids, rng.randint(1, 3))
        sol = solve_inner(mesh8, AttackPlan.of(attack))
        for pair in list(sol.duals_mu.values()) + list(sol.duals_pi.values()):
            assert pair[0] >= -TOL and pair[1] >= -TOL
        if sol.big_m_ok:
            for lid in attack:
                assert abs(sol.duals_mu[lid][0]) <= 1e-8
                assert abs(sol.duals_mu[lid][1]) <= 1e-8


@pytest.mark.parametrize("name", sorted(fx.FIXTURES))
def test_penalized_equals_exact_with_valid_bounds(name):
    net = fx.FIXTURES[name]()
    ids = [l.id for l in net.lines]
    k_max = min(3, len(ids))
    enc = encode_feasible_set(net, AttackerModel.traditional(k_max))
    vb = valid_bounds(net, enc)
    rng = random.Random(11)
    attacks = [[]] + [rng.sample(ids, rng.randint(1, k_max)) for _ in range(10)]
    for attack in attacks:
        eta = solve_inner(net, AttackPlan.of(attack)).eta
        eta_r = solve_penalized_inner(net, AttackPlan.of(attack), vb)
        assert eta_r == pytest.approx(eta, abs=TOL), attack


@pytest.mark.parametrize("name", sorted(fx.FIXTURES))
def test_reversed_relabelled_lines_give_same_eta(name):
    # The new ids are not positions + 1 and fall as positions rise, and the
    # second rate set differs per line, so an id-for-position mix-up in the
    # LP builders changes an answer.
    net = fx.FIXTURES[name]()
    relabel = {l.id: 10 * l.id + 3 for l in net.lines}
    other = Network.build(list(net.buses),
                          [replace(l, id=relabel[l.id]) for l in reversed(net.lines)])
    ids = [l.id for l in net.lines]
    k = min(2, len(ids))
    pi1 = {lid: 0.1 * (i + 1) for i, lid in enumerate(ids)}
    pi2 = {lid: 0.3 / (i + 1) for i, lid in enumerate(ids)}
    rate_pairs = [
        (valid_bounds(net, encode_feasible_set(net, AttackerModel.traditional(k))),
         valid_bounds(other, encode_feasible_set(other, AttackerModel.traditional(k)))),
        (DualBounds(pi1, pi2, mode="heuristic"),
         DualBounds({relabel[l]: v for l, v in pi1.items()},
                    {relabel[l]: v for l, v in pi2.items()}, mode="heuristic")),
    ]
    rng = random.Random(5)
    for attack in [[]] + [rng.sample(ids, rng.randint(1, k)) for _ in range(6)]:
        plan, moved = AttackPlan.of(attack), AttackPlan.of(relabel[lid] for lid in attack)
        eta = solve_inner(net, plan).eta
        assert solve_inner(other, moved).eta == pytest.approx(eta, abs=TOL), attack
        for rates, rates_other in rate_pairs:
            assert solve_penalized_inner(other, moved, rates_other) == pytest.approx(
                solve_penalized_inner(net, plan, rates), abs=TOL), attack


def test_penalized_two_bus_with_total_load_constants(two_bus):
    enc = encode_feasible_set(two_bus, AttackerModel.traditional(1))
    vb = valid_bounds(two_bus, enc)
    assert solve_penalized_inner(two_bus, AttackPlan.of([1]), vb) == pytest.approx(1.0, abs=TOL)
    # no attack: no penalty terms are active at all
    assert solve_penalized_inner(two_bus, AttackPlan.of([]), vb) == pytest.approx(0.0, abs=TOL)


def test_penalized_rejects_bad_rates(two_bus):
    vb = heuristic_bounds(two_bus)
    object.__setattr__(vb, "pi1", {1: -0.5})
    with pytest.raises(ValueError, match="finite and >= 0"):
        solve_penalized_inner(two_bus, AttackPlan.of([1]), vb)


def test_cut_rhs_examples(triangle):
    hb = heuristic_bounds(triangle)
    base = solve_inner(triangle, AttackPlan.of([]))
    # empty candidate: empty sum
    assert cut_rhs(base, hb, AttackPlan.of([])) == pytest.approx(base.eta)
    # candidate = the attack itself, interdicted flows zero
    attacked = solve_inner(triangle, AttackPlan.of([1]))
    assert cut_rhs(attacked, hb, AttackPlan.of([1])) == pytest.approx(attacked.eta, abs=TOL)
    # intact flows price the candidate: eta(0) + |p_1(0)| = 0 + 1.0
    assert cut_rhs(base, hb, AttackPlan.of([1])) == pytest.approx(1.0, abs=TOL)


@pytest.mark.parametrize("name", ["triangle", "braess4", "ring6"])
def test_cut_validity_exhaustive_pairs_valid_bounds(name):
    net = fx.FIXTURES[name]()
    ids = [l.id for l in net.lines]
    k = 2 if len(ids) >= 2 else 1
    model = AttackerModel.traditional(k)
    vb = valid_bounds(net, encode_feasible_set(net, model))
    attacks = [frozenset(p) for p in itertools.combinations(ids, k)]
    solved = {a: solve_inner(net, AttackPlan.of(a)) for a in attacks}
    for x_hat in attacks:
        for x in attacks:
            rhs = cut_rhs(solved[x_hat], vb, AttackPlan.of(x))
            assert solved[x].eta <= rhs + TOL, (sorted(x_hat), sorted(x))


def test_attack_plan_invariants():
    model = AttackerModel.traditional(2)
    with pytest.raises(ValueError, match="exactly k"):
        AttackPlan.of([1], model=model)
    with pytest.raises(ValueError, match="center_bus"):
        AttackPlan.of([1, 2], center_bus=3, model=model)
    sp = AttackerModel.spatial(2, 50.0)
    with pytest.raises(ValueError, match="center"):
        AttackPlan.of([1], model=sp)
    plan = AttackPlan.of([1], center_bus=4, model=sp)
    assert plan.sorted_lines() == (1,)
    with pytest.raises(ValueError, match="unknown line"):
        solve_inner(fx.two_bus(), AttackPlan.of([99]))
