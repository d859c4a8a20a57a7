"""The oracle's exact pricing: ``exact_eta`` against ``solve_inner`` on every
attack of the oracle's budgets, its independence of the pricing history,
and the oracle's tie rule."""

import random
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from nkshed import backend
from nkshed import fixtures as fx
from nkshed import oracle
from nkshed.inner import AttackPlan, _exact_model, exact_eta, solve_inner
from nkshed.netmodel import AttackerModel

from bench_lattice import lattice

LATTICES = {"lattice4x4": (4, 4, 3), "lattice5x5": (5, 5, 2)}
NETWORKS = sorted(fx.FIXTURES) + [f"random_mesh({seed})" for seed in range(60)] + sorted(LATTICES)


def _budgets(name):
    """The network and each budget it is checked under: traditional and
    topological for k <= 3 (k <= 2 on the 5x5 lattice), and on the fixtures
    spatial with and without a pinned centre."""
    if name in fx.FIXTURES:
        net, d, top = fx.FIXTURES[name](), fx.SPATIAL_D[name], 3
        spatial = [AttackerModel.spatial(k, d, center)
                   for k in (1, 2, 3) for center in (None, net.buses[0].id)]
    elif name in LATTICES:
        rows, cols, top = LATTICES[name]
        net, spatial = lattice(rows, cols), []
    else:
        net, spatial, top = fx.random_mesh(int(name[len("random_mesh("):-1])), [], 3
    plain = [AttackerModel(variant, k) for variant in ("traditional", "topological")
             for k in range(1, top + 1) if k <= len(net.lines)]
    return net, plain + spatial


def _attacks(net, budgets) -> list:
    return sorted({subset for model in budgets for subset in oracle.feasible_attacks(net, model)})


@pytest.mark.parametrize("name", NETWORKS)
def test_exact_eta_agrees_with_solve_inner_on_every_attack(name):
    net, budgets = _budgets(name)
    for subset in _attacks(net, budgets):
        plan = AttackPlan.of(subset)
        eta, ref = exact_eta(net, plan), solve_inner(net, plan).eta
        assert abs(eta - ref) <= 1e-9 * max(1.0, ref), (subset, eta, ref)


@pytest.mark.parametrize("name", sorted(fx.FIXTURES) + ["lattice4x4"])
def test_etas_do_not_depend_on_the_pricing_history(name, monkeypatch):
    # Every attack is priced on this thread's kept model in sorted order,
    # reversed, shuffled and with a solve_inner call of another attack on the
    # same model before each, then on a fresh thread with a kept model of its
    # own: the etas must be bitwise equal.
    net, budgets = _budgets(name)
    attacks = _attacks(net, budgets)

    def price(order, interleave=False) -> bytes:
        etas = np.empty(len(attacks))
        for i in order:
            if interleave:
                solve_inner(net, AttackPlan.of(attacks[-1 - i]))
            etas[i] = exact_eta(net, AttackPlan.of(attacks[i]))
        return etas.tobytes()

    forward = list(range(len(attacks)))
    etas = price(forward)
    assert price(forward[::-1]) == etas
    assert price(random.Random(0).sample(forward, len(forward))) == etas
    assert price(forward, interleave=True) == etas
    with ThreadPoolExecutor(1) as pool:
        assert pool.submit(price, forward).result() == etas
    # Every solve starts from the intact network's optimal basis, so the
    # intact network, priced after all those attacks, takes no iteration.
    iterations, linprog = [], backend.linprog

    def counted(lp, basis=None):
        linprog(lp, basis)
        iterations.append(lp.getInfo().simplex_iteration_count)

    monkeypatch.setattr(backend, "linprog", counted)
    exact_eta(net, AttackPlan.of(()))
    assert iterations == [0]


def test_near_equal_etas_tie_to_the_smallest_tuple():
    # Every single line of random_mesh(115) and of random_mesh(119) sheds the
    # same load up to the last bits, and the bitwise largest eta is not line 1's.
    for seed in (115, 119):
        net = fx.random_mesh(seed)
        res = oracle.solve_exhaustive(net, AttackerModel.traditional(1), keep_ranking=True)
        etas = dict(res.ranking)
        worst = max(etas.values())
        assert len(etas) == len(net.lines)
        for lines in etas:
            assert etas[lines] >= worst - oracle._TIE * worst
        assert etas[(1,)] < worst
        assert res.best_attack.sorted_lines() == (1,) == res.ranking[0][0]
        assert res.best_eta == solve_inner(net, res.best_attack).eta


def test_a_start_that_stops_short_is_solved_again_cold():
    # From the intact basis, the dual simplex stops on attack (21,) of the
    # 14x14 lattice with model status "Not Set".
    net, plan = lattice(14, 14), AttackPlan.of([21])
    eta = exact_eta(net, plan)
    assert _exact_model(net)[0].mdl.cold_restarts == 1
    ref = solve_inner(net, plan).eta
    assert abs(eta - ref) <= 1e-9 * max(1.0, ref), (eta, ref)


def test_oracle_prices_every_single_line_of_the_14x14_lattice():
    res = oracle.solve_exhaustive(lattice(14, 14), AttackerModel.traditional(1))
    assert res.best_attack.sorted_lines() == (250,)
    assert res.best_eta == pytest.approx(0.97396059, abs=1e-8)
    assert res.evaluated == 364
