"""Networks that are already two islands before any attack: the PTDF is
grounded at one root per island, and an outage splits an island only when
it cuts one of the two apart. Every fixture and every ``random_mesh`` is
connected, so these are the only networks that price that path."""

from dataclasses import replace

import numpy as np
import pytest

from nkshed import fixtures as fx
from nkshed import oracle
from nkshed.engine import CONVERGED, SolveConfig, solve_interdiction
from nkshed.inner import AttackPlan, exact_eta, exact_etas, response_shed, solve_inner
from nkshed.netmodel import AttackerModel, Network
from test_response_bound import _dispatch, _check_against_reference

EPS = 0.01
# Ids of the second mesh are shifted past every id of the first.
OFFSET = 100
MODELS = [AttackerModel.traditional(1), AttackerModel.traditional(2),
          AttackerModel.topological(2)]


def two_meshes(seed: int) -> Network:
    """``random_mesh(seed)`` and ``random_mesh(seed + 50)`` side by side,
    joined by no line, the second's bus and line ids offset by ``OFFSET``."""
    first, second = fx.random_mesh(seed), fx.random_mesh(seed + 50)
    buses = [replace(b, id=b.id + OFFSET) for b in second.buses]
    lines = [replace(l, id=l.id + OFFSET, from_bus=l.from_bus + OFFSET,
                     to_bus=l.to_bus + OFFSET) for l in second.lines]
    return Network.build(first.buses + tuple(buses), first.lines + tuple(lines))


@pytest.mark.parametrize("seed", range(10))
def test_two_islands_price_like_one_network(seed):
    net = two_meshes(seed)
    assert net.power_flow.num_islands == 2
    gen, served = _dispatch(net, solve_inner(net, AttackPlan.of(())))
    for model in MODELS:
        res = oracle.solve_exhaustive(net, model)
        plan, eta, state = solve_interdiction(net, model, SolveConfig(epsilon=EPS))
        assert state.status == CONVERGED and state.bound_certified, model
        assert abs(eta - res.best_eta) <= EPS * max(res.best_eta, 1e-6) + 1e-9, model
        plans = [oracle.attack_plan(net, model, s)
                 for s in oracle.feasible_attacks(net, model)]
        cuts = np.array([sorted(net.line_pos[l] for l in p.lines) for p in plans])
        etas = np.array([solve_inner(net, p).eta for p in plans])
        # The intact dispatch, balanced on each island an attack leaves, is
        # a feasible response, so its shed bounds every attack's.
        bound = response_shed(net, gen, served, cuts, net.power_flow.splits(cuts))
        assert (bound >= etas - 1e-9).all(), model
        assert list(map(repr, exact_etas(net, cuts).tolist())) == [
            repr(exact_eta(net, p)) for p in plans], model


@pytest.mark.parametrize("seed", range(10))
def test_two_islands_bound_matches_a_per_row_reference(seed):
    assert _check_against_reference(two_meshes(seed), (1, 2), seed) > 0
