"""The oracle's exact pricing: ``exact_eta`` against ``solve_inner`` on every
attack of the oracle's budgets, and the oracle's tie rule."""

import warnings
from dataclasses import replace

import pytest

from nkshed import fixtures as fx
from nkshed import oracle
from nkshed.attackers import compute_phi
from nkshed.inner import AttackPlan, exact_eta, solve_inner
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
        footprint = compute_phi(net, d)
        spatial = [(AttackerModel.spatial(k, d, center), footprint)
                   for k in (1, 2, 3) for center in (None, net.buses[0].id)]
    elif name in LATTICES:
        rows, cols, top = LATTICES[name]
        net, spatial = lattice(rows, cols), []
    else:
        net, spatial, top = fx.random_mesh(int(name[len("random_mesh("):-1])), [], 3
    plain = [(AttackerModel(variant, k), None) for variant in ("traditional", "topological")
             for k in range(1, top + 1) if k <= len(net.lines)]
    return net, plain + spatial


@pytest.mark.parametrize("name", NETWORKS)
def test_exact_eta_agrees_with_solve_inner_on_every_attack(name):
    net, budgets = _budgets(name)
    attacks = {subset for model, footprint in budgets
               for subset in oracle.feasible_attacks(net, model, footprint)}
    for subset in sorted(attacks):
        plan = AttackPlan.of(subset)
        eta, ref = exact_eta(net, plan), solve_inner(net, plan).eta
        assert abs(eta - ref) <= 1e-9 * max(1.0, ref), (subset, eta, ref)


def test_pricing_has_no_band_to_outgrow(triangle):
    # A 1e-30 band stays far too narrow after ten doublings, so solve_inner
    # warns and overstates the shed; exact pricing does neither. The one
    # warning is the winner's re-solve by solve_inner.
    net = replace(triangle, big_M=1e-30)
    with pytest.warns(RuntimeWarning, match="big-M doublings") as caught:
        res = oracle.solve_exhaustive(net, AttackerModel.traditional(1), keep_ranking=True)
    assert len(caught) == 1
    assert res.ranking == (((1,), 1.0), ((2,), 1.0), ((3,), 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert [exact_eta(net, AttackPlan.of(lines)) for lines, _ in res.ranking] == [1.0, 1.0, 0.0]


def test_near_equal_etas_tie_to_the_smallest_tuple():
    # Every single line of random_mesh(12) sheds the same load up to the last
    # bits, and the bitwise largest eta is not line 1's.
    net = fx.random_mesh(12)
    res = oracle.solve_exhaustive(net, AttackerModel.traditional(1), keep_ranking=True)
    etas = dict(res.ranking)
    worst = max(etas.values())
    for lines in ((1,), (2,), (7,)):
        assert etas[lines] >= worst - oracle._TIE * worst
    assert etas[(1,)] < worst
    assert res.best_attack.sorted_lines() == (1,) == res.ranking[0][0]
    assert res.best_eta == solve_inner(net, res.best_attack).eta
