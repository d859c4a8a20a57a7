"""Inner load-shed LP: examples, a DC power flow on every attack, one LP per
call, cut pricing."""

import gc
import itertools
import random
import threading
import weakref
from dataclasses import fields, replace
from functools import partial

import numpy as np
import pytest
from scipy.optimize import linprog

from nkshed import fixtures as fx
from nkshed.backend import Model
from nkshed.engine import valid_bounds
from nkshed.inner import AttackPlan, solve_inner
from nkshed.netmodel import AttackerModel, Network, total_load
from nkshed.oracle import attack_plan
from nkshed.runner import solve_to_report
from reference_lp import default_band, incidence, reference_eta

TOL = 1e-6


def kvl_residual(net, sol, attack):
    """Largest gap, over the lines ``attack`` leaves, between a line's flow and
    b * (its angle difference), for the bus angles that fit those flows best
    by least squares: 0 up to rounding when the flows obey Kirchhoff's
    voltage law, whatever the islands."""
    keep = np.ones(len(net.lines), dtype=bool)
    keep[[net.line_pos[lid] for lid in attack]] = False
    if not keep.any():
        return 0.0
    # A line's flow is b * (angle at its to bus - angle at its from bus), and
    # the incidence is -1 at a line's from bus and +1 at its to bus.
    fit = (incidence(net)[:, keep] * net.susceptance_vector()[keep]).T
    angle = np.linalg.lstsq(fit, sol.flow[keep], rcond=None)[0]
    return float(np.abs(fit @ angle - sol.flow[keep]).max())


def residuals(net, sol, attack):
    """Max violation of flow balance, Kirchhoff's voltage law, ratings and
    bounds at the response ``sol`` to ``attack``."""
    worst = kvl_residual(net, sol, attack)
    # The incidence is -1 at a line's from bus and +1 at its to bus.
    inflow = incidence(net) @ sol.flow
    for b, (bus, into) in enumerate(zip(net.buses, inflow)):
        balance = sol.gen[b] - (1.0 - sol.shed[b]) * bus.demand + into
        worst = max(worst, abs(balance))
    for e, line in enumerate(net.lines):
        cap = line.thermal * (0.0 if line.id in attack else 1.0)
        worst = max(worst, abs(sol.flow[e]) - cap)
    for b, bus in enumerate(net.buses):
        worst = max(worst, -sol.shed[b], sol.shed[b] - 1.0,
                    -sol.gen[b], sol.gen[b] - bus.gen_cap)
    return worst


def test_two_bus_no_attack(two_bus):
    sol = solve_inner(two_bus, AttackPlan([]))
    assert sol.eta == pytest.approx(0.0, abs=TOL)


def test_two_bus_islanding(two_bus):
    sol = solve_inner(two_bus, AttackPlan([1]))
    assert sol.eta == pytest.approx(1.0, abs=TOL)
    assert sol.shed[two_bus.bus_pos[2]] == pytest.approx(1.0, abs=TOL)


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
    sol = solve_inner(triangle, AttackPlan([1]))
    assert sol.eta == pytest.approx(ref.fun, abs=TOL)
    assert sol.eta == pytest.approx(1.0, abs=TOL)


@pytest.mark.parametrize("name", sorted(fx.FIXTURES))
def test_matches_reference_lp_on_all_single_and_double_attacks(name):
    net = fx.FIXTURES[name]()
    ids = [l.id for l in net.lines]
    attacks = [[]] + [[i] for i in ids] + [list(p) for p in itertools.combinations(ids, 2)]
    for attack in attacks:
        sol = solve_inner(net, AttackPlan(attack))
        assert sol.eta == pytest.approx(reference_eta(net, attack), abs=TOL), attack
        assert residuals(net, sol, attack) <= TOL
        assert 0.0 - TOL <= sol.eta <= total_load(net) + TOL
        eta_sum = sum(bus.demand * s for bus, s in zip(net.buses, sol.shed.tolist()))
        assert sol.eta == pytest.approx(eta_sum, abs=TOL)


@pytest.mark.parametrize("name", sorted(fx.FIXTURES))
def test_one_lp_per_call_and_eta_is_band_free(name, monkeypatch):
    # Once the network's model exists, each call solves exactly one LP, and
    # its eta must equal the shed of an effectively band-free reference LP.
    net = fx.FIXTURES[name]()
    solve_inner(net, AttackPlan([]))
    calls = []
    solve_lp = Model.solve_lp
    monkeypatch.setattr(Model, "solve_lp",
                        lambda self, *args, **kwargs: calls.append(self)
                        or solve_lp(self, *args, **kwargs))
    ids = [l.id for l in net.lines]
    for attack in itertools.chain.from_iterable(
            itertools.combinations(ids, k) for k in range(4)):
        calls.clear()
        sol = solve_inner(net, AttackPlan(attack))
        assert len(calls) == 1, attack
        ref = reference_eta(net, list(attack), big_m=1e4 * default_band(net))
        assert sol.eta == pytest.approx(ref, abs=1e-9), attack


def _attacks(net, k_max):
    ids = [l.id for l in net.lines]
    return [AttackPlan(a) for a in itertools.chain.from_iterable(
        itertools.combinations(ids, k) for k in range(k_max + 1))]


def _bits(sol):
    # repr of Python floats round-trips every bit and tells -0.0 from 0.0;
    # numpy's array repr rounds, so each array goes through tolist first.
    return repr((sol.eta, [a.tolist() for a in (sol.shed, sol.gen, sol.flow)]))


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
    sol = solve_inner(net, AttackPlan([1]))
    ref, n, removed = weakref.ref(net), len(net.buses), net.line_pos[1]
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
    # The solution outlives its network.
    assert sol.shed.shape == sol.gen.shape == (n,) and sol.flow[removed] == 0.0


@pytest.mark.parametrize("make", [pytest.param(fx.FIXTURES[name], id=name)
                                  for name in sorted(fx.FIXTURES)]
                         + [pytest.param(partial(fx.random_mesh, seed), id=f"random_mesh-{seed}")
                            for seed in range(20)])
def test_flows_obey_kirchhoffs_voltage_law(make):
    # Every attack of up to two lines, many of which split an island: the
    # surviving lines' flows are b times the angle differences of one set of
    # bus angles.
    net = make()
    ids = [l.id for l in net.lines]
    for attack in itertools.chain.from_iterable(
            itertools.combinations(ids, k) for k in range(3)):
        sol = solve_inner(net, AttackPlan(attack))
        assert kvl_residual(net, sol, attack) <= 1e-9, attack


@pytest.mark.parametrize("name", sorted(fx.FIXTURES))
def test_reversed_relabelled_lines_give_same_eta(name):
    # The new ids are not positions + 1 and fall as positions rise, so an
    # id-for-position mix-up in the LP builder changes an answer.
    net = fx.FIXTURES[name]()
    relabel = {l.id: 10 * l.id + 3 for l in net.lines}
    other = Network(list(net.buses),
                    [replace(l, id=relabel[l.id]) for l in reversed(net.lines)])
    ids = [l.id for l in net.lines]
    k = min(2, len(ids))
    rng = random.Random(5)
    for attack in [[]] + [rng.sample(ids, rng.randint(1, k)) for _ in range(6)]:
        plan, moved = AttackPlan(attack), AttackPlan(relabel[lid] for lid in attack)
        eta = solve_inner(net, plan).eta
        assert solve_inner(other, moved).eta == pytest.approx(eta, abs=TOL), attack


def test_relabelled_ids_keep_positions_and_reports_map_back(mesh8):
    # The arrays are by position, so new ids in the same order leave every
    # bit of them as it was; the report maps positions back to the new ids.
    def relabel(i):
        return 10 * i + 3

    other = Network(
        [replace(b, id=relabel(b.id)) for b in mesh8.buses],
        [replace(l, id=relabel(l.id), from_bus=relabel(l.from_bus), to_bus=relabel(l.to_bus))
         for l in mesh8.lines])
    for attack in _attacks(mesh8, 2):
        moved = AttackPlan(relabel(lid) for lid in attack.lines)
        assert _bits(solve_inner(other, moved)) == _bits(solve_inner(mesh8, attack))
    model = AttackerModel.traditional(2)
    report, moved = solve_to_report(mesh8, model), solve_to_report(other, model)
    assert moved.per_bus_shed == {relabel(bus): shed
                                  for bus, shed in report.per_bus_shed.items()}
    assert any(report.per_bus_shed.values())
    assert moved.interdicted_lines == [relabel(lid) for lid in report.interdicted_lines]


def cut_bound(net, sol, rate, candidate):
    """The MILP master's cut from ``sol`` at ``candidate``: the priced shed plus
    ``rate`` times each candidate line's absolute flow in ``sol``."""
    return sol.eta + sum(rate * abs(sol.flow[net.line_pos[lid]]) for lid in candidate)


def test_cut_rhs_examples(triangle):
    base = solve_inner(triangle, AttackPlan([]))
    # empty candidate: empty sum
    assert cut_bound(triangle, base, 1.0, []) == pytest.approx(base.eta)
    # candidate = the attack itself, interdicted flows zero
    attacked = solve_inner(triangle, AttackPlan([1]))
    assert cut_bound(triangle, attacked, 1.0, [1]) == pytest.approx(attacked.eta, abs=TOL)
    # intact flows price the candidate: eta(0) + |p_1(0)| = 0 + 1.0
    assert cut_bound(triangle, base, 1.0, [1]) == pytest.approx(1.0, abs=TOL)


@pytest.mark.parametrize("name", ["triangle", "braess4", "ring6"])
def test_cut_validity_exhaustive_pairs_valid_bounds(name):
    # The cut holds on these fixtures, though no rate makes it valid in
    # general (see nkshed.engine.valid_bounds).
    net = fx.FIXTURES[name]()
    ids = [l.id for l in net.lines]
    k = 2 if len(ids) >= 2 else 1
    vb = valid_bounds(net)
    attacks = [frozenset(p) for p in itertools.combinations(ids, k)]
    solved = {a: solve_inner(net, AttackPlan(a)) for a in attacks}
    for x_hat in attacks:
        for x in attacks:
            rhs = cut_bound(net, solved[x_hat], vb, x)
            assert solved[x].eta <= rhs + TOL, (sorted(x_hat), sorted(x))


def test_attack_plan_invariants():
    # attack_plan takes exactly the sizes its budget admits; a plan itself
    # is its lines, kept as ints, and its centre.
    net = fx.mesh8()
    for model in (AttackerModel.traditional(2), AttackerModel.topological(2),
                  AttackerModel.spatial(2, 160.0)):
        spatial = model.variant == "spatial"
        assert list(model.sizes) == ([0, 1, 2] if spatial else [2])
        for size in range(model.k + 2):
            lines = range(1, size + 1)
            if size in model.sizes:
                plan = attack_plan(net, model, lines)
                assert plan.sorted_lines() == tuple(lines)
            else:
                with pytest.raises(ValueError, match=f"plan has {size} lines"):
                    attack_plan(net, model, lines)
    assert [f.name for f in fields(AttackPlan)] == ["lines", "center_bus"]
    plan = AttackPlan([np.int64(2), 1, 2], center_bus=4)
    assert plan.lines == frozenset({1, 2}) and {type(l) for l in plan.lines} == {int}
    with pytest.raises(ValueError, match="unknown line"):
        solve_inner(fx.two_bus(), AttackPlan([99]))
