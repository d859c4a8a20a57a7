"""Inner load-shed LP: examples, duals, one LP per call, cut pricing."""

import gc
import itertools
import random
import threading
import weakref
from dataclasses import astuple, replace

import numpy as np
import pytest
from scipy.optimize import linprog

from nkshed import fixtures as fx
from nkshed.backend import Model
from nkshed.bounds import heuristic_bounds, valid_bounds
from nkshed.inner import AttackPlan, solve_inner
from nkshed.netmodel import AttackerModel, Network, total_load
from reference_lp import default_band, reference_eta

TOL = 1e-6


def residuals(net, sol):
    """Max violation of flow balance / limits at the returned point."""
    worst = 0.0
    # The incidence is -1 at a line's from bus and +1 at its to bus.
    inflow = net.incidence @ np.array([sol.flow[l] for l in net.line_ids()])
    for bus, into in zip(net.buses, inflow):
        balance = sol.gen[bus.id] - (1.0 - sol.shed[bus.id]) * bus.demand + into
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
        for lid in attack:
            assert abs(sol.duals_mu[lid][0]) <= 1e-8
            assert abs(sol.duals_mu[lid][1]) <= 1e-8


@pytest.mark.parametrize("name", sorted(fx.FIXTURES))
def test_one_lp_per_call_and_eta_is_band_free(name, monkeypatch):
    # Once the network's model exists, each call solves exactly one LP, and
    # its eta must equal the shed of an effectively band-free reference LP.
    net = fx.FIXTURES[name]()
    solve_inner(net, AttackPlan.of([]))
    calls = []
    solve_lp = Model.solve_lp
    monkeypatch.setattr(Model, "solve_lp",
                        lambda self, *args, **kwargs: calls.append(self)
                        or solve_lp(self, *args, **kwargs))
    ids = [l.id for l in net.lines]
    for attack in itertools.chain.from_iterable(
            itertools.combinations(ids, k) for k in range(4)):
        calls.clear()
        sol = solve_inner(net, AttackPlan.of(attack))
        assert len(calls) == 1, attack
        ref = reference_eta(net, list(attack), big_m=1e4 * default_band(net))
        assert sol.eta == pytest.approx(ref, abs=1e-9), attack


def _attacks(net, k_max):
    ids = [l.id for l in net.lines]
    return [AttackPlan.of(a) for a in itertools.chain.from_iterable(
        itertools.combinations(ids, k) for k in range(k_max + 1))]


def _bits(sol):
    # repr round-trips every float and tells -0.0 from 0.0. The angles are a
    # property computed when read, so astuple does not see them.
    return repr((astuple(sol), sol.angle))


@pytest.mark.parametrize("name", sorted(fx.FIXTURES))
def test_kept_model_answers_do_not_depend_on_solve_order(name):
    # Each network's load-shed model is kept and re-solved; nothing of one
    # attack's solve may reach the next.
    net, other = fx.FIXTURES[name](), fx.mesh8()
    attacks = _attacks(net, 2)
    forward = [_bits(solve_inner(net, a)) for a in attacks]
    backward = [_bits(solve_inner(net, a)) for a in reversed(attacks)][::-1]
    mixed = []
    for a, b in zip(attacks, itertools.cycle(reversed(_attacks(other, 2)))):
        mixed.append(_bits(solve_inner(net, a)))
        solve_inner(other, b)
    assert forward == backward == mixed


def test_kept_model_does_not_keep_the_network_alive():
    net = fx.mesh8()
    sol = solve_inner(net, AttackPlan.of([1]))
    ref, bus_ids = weakref.ref(net), [bus.id for bus in net.buses]
    # One load-shed model per thread and network: the exact model.
    assert hasattr(net.thread_cache, "exact")
    assert not hasattr(net.thread_cache, "load_shed")
    assert not hasattr(replace(net).thread_cache, "exact")
    other_thread = []
    worker = threading.Thread(
        target=lambda: other_thread.append(hasattr(net.thread_cache, "exact")))
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive() and other_thread == [False]
    del net
    gc.collect()
    assert ref() is None
    # The solution outlives its network, and its angles still compute.
    assert list(sol.angle) == bus_ids and sol.angle[bus_ids[0]] == 0.0


@pytest.mark.parametrize("name", sorted(fx.FIXTURES))
def test_angles_zero_at_first_bus_of_each_island(name):
    net = fx.FIXTURES[name]()
    ids = [l.id for l in net.lines]
    for attack in itertools.chain.from_iterable(
            itertools.combinations(ids, k) for k in range(3)):
        sol = solve_inner(net, AttackPlan.of(attack))
        island = net.islands(np.array([[net.line_pos[lid] for lid in attack]], dtype=int))[0]
        for label in set(island.tolist()):
            first = net.buses[int(np.flatnonzero(island == label)[0])]
            assert sol.angle[first.id] == 0.0, (attack, first.id)
        for line in net.lines:
            if line.id not in attack:
                theta = sol.angle[line.from_bus] - sol.angle[line.to_bus]
                assert abs(sol.flow[line.id] + line.susceptance * theta) <= 1e-9, attack


@pytest.mark.parametrize("name", sorted(fx.FIXTURES))
def test_reversed_relabelled_lines_give_same_eta(name):
    # The new ids are not positions + 1 and fall as positions rise, so an
    # id-for-position mix-up in the LP builders or the rates changes an answer.
    net = fx.FIXTURES[name]()
    relabel = {l.id: 10 * l.id + 3 for l in net.lines}
    other = Network.build(list(net.buses),
                          [replace(l, id=relabel[l.id]) for l in reversed(net.lines)])
    ids = [l.id for l in net.lines]
    k = min(2, len(ids))
    rates = valid_bounds(net, AttackerModel.traditional(k))
    moved_rates = valid_bounds(other, AttackerModel.traditional(k))
    np.testing.assert_array_equal(moved_rates.rate, rates.rate[::-1])
    rng = random.Random(5)
    for attack in [[]] + [rng.sample(ids, rng.randint(1, k)) for _ in range(6)]:
        plan, moved = AttackPlan.of(attack), AttackPlan.of(relabel[lid] for lid in attack)
        eta = solve_inner(net, plan).eta
        assert solve_inner(other, moved).eta == pytest.approx(eta, abs=TOL), attack


def cut_bound(net, sol, rates, candidate):
    """The MILP master's cut from ``sol`` at ``candidate``: the priced shed plus
    each candidate line's rate times its absolute flow in ``sol``."""
    price = rates.price(np.array([sol.flow[lid] for lid in net.line_ids()]))
    return sol.eta + sum(price[net.line_pos[lid]] for lid in candidate)


def test_cut_rhs_examples(triangle):
    hb = heuristic_bounds(triangle)
    base = solve_inner(triangle, AttackPlan.of([]))
    # empty candidate: empty sum
    assert cut_bound(triangle, base, hb, []) == pytest.approx(base.eta)
    # candidate = the attack itself, interdicted flows zero
    attacked = solve_inner(triangle, AttackPlan.of([1]))
    assert cut_bound(triangle, attacked, hb, [1]) == pytest.approx(attacked.eta, abs=TOL)
    # intact flows price the candidate: eta(0) + |p_1(0)| = 0 + 1.0
    assert cut_bound(triangle, base, hb, [1]) == pytest.approx(1.0, abs=TOL)


@pytest.mark.parametrize("name", ["triangle", "braess4", "ring6"])
def test_cut_validity_exhaustive_pairs_valid_bounds(name):
    # The cut holds on these fixtures, though no rate set makes it valid in
    # general (see nkshed.bounds).
    net = fx.FIXTURES[name]()
    ids = [l.id for l in net.lines]
    k = 2 if len(ids) >= 2 else 1
    model = AttackerModel.traditional(k)
    vb = valid_bounds(net, model)
    attacks = [frozenset(p) for p in itertools.combinations(ids, k)]
    solved = {a: solve_inner(net, AttackPlan.of(a)) for a in attacks}
    for x_hat in attacks:
        for x in attacks:
            rhs = cut_bound(net, solved[x_hat], vb, x)
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
