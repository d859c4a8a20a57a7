"""Networks that are already two islands before any attack: the PTDF is
grounded at one root per island, and an outage splits an island only when
it cuts one of the two apart. Every fixture and every ``random_mesh`` is
connected, so these are the only networks that price that path. Two
variants check the feasible-response bound's factors: the two meshes with
their lines interleaved and a bus with no line, three islands with the
lines out of island order, and the two meshes joined by a strong tie and a
very weak one, where cutting the strong tie nearly splits the network."""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from nkshed import fixtures as fx
from nkshed import oracle
from nkshed.engine import CONVERGED, SolveConfig, solve_interdiction
from nkshed.inner import (AttackPlan, _balanced, exact_eta, exact_etas, response_shed,
                          solve_inner)
from nkshed.netmodel import AttackerModel, Bus, Line, Network, _islands
from reference_lp import incidence
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
    return Network(first.buses + tuple(buses), first.lines + tuple(lines))


@pytest.mark.parametrize("seed", range(10))
def test_two_islands_price_like_one_network(seed):
    net = two_meshes(seed)
    assert net.power_flow.num_islands == 2
    gen, served = _dispatch(net, solve_inner(net, AttackPlan(())))
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
        bound = response_shed(net, gen, served, net.power_flow.factor(cuts))
        assert (bound >= etas - 1e-9).all(), model
        assert list(map(repr, exact_etas(net, cuts).tolist())) == [
            repr(exact_eta(net, p)) for p in plans], model


@pytest.mark.parametrize("seed", range(10))
def test_two_islands_bound_matches_a_per_row_reference(seed):
    assert _check_against_reference(two_meshes(seed), (1, 2), seed) > 0


def interleaved(seed: int) -> Network:
    """``two_meshes(seed)`` with the two meshes' lines taken in turn and a
    loaded bus joined by no line: three islands, the lines not in island
    order."""
    net = two_meshes(seed)
    first = [l for l in net.lines if l.id < OFFSET]
    second = [l for l in net.lines if l.id > OFFSET]
    lines = [l for pair in itertools.zip_longest(first, second) for l in pair if l is not None]
    return Network(net.buses + (Bus(3 * OFFSET, demand=0.5),), lines)


@pytest.mark.parametrize("seed", range(10))
def test_bound_per_island_with_lines_out_of_island_order(seed):
    net = interleaved(seed)
    assert net.power_flow.num_islands == 3
    assert _check_against_reference(net, (1, 2), seed) > 0


# The ties' reactances, against 0.05 to 0.3 for a mesh line: cutting the
# strong tie leaves an outage system whose determinant is about
# STRONG / WEAK = 1e-12. A line takes a reactance below 1e9, so the weak
# tie's susceptance stays a coefficient the LP keeps.
STRONG, WEAK = 1e-4, 1e8


def weakly_tied(seed: int, strong: float = STRONG, weak: float = WEAK) -> Network:
    """``two_meshes(seed)`` joined at their first buses by a tie of reactance
    ``strong`` and, in parallel, one of reactance ``weak``: one island,
    which cutting the strong tie leaves whole but nearly split."""
    net = two_meshes(seed)
    ends = (net.buses[0].id, next(b.id for b in net.buses if b.id > OFFSET))
    ties = (Line(3 * OFFSET, *ends, strong, 10.0), Line(3 * OFFSET + 1, *ends, weak, 10.0))
    return Network(net.buses, net.lines + ties)


def _balanced_per_mesh(net: Network, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Two random dispatches, each balanced on each mesh, so that the weak
    tie carries no transfer once the strong tie is cut: the rounding that
    the near-split amplifies then moves no flow."""
    rng = np.random.default_rng(seed)
    mesh = np.array([int(b.id > OFFSET) for b in net.buses])
    return [_balanced(rng.uniform(0.0, net.gen_cap_vector()),
                      rng.uniform(0.0, net.demand_vector()), mesh, 2) for _ in range(2)]


def test_a_tie_the_lp_would_drop_is_rejected():
    # A line's susceptance is a coefficient of the load-shed LP, and HiGHS
    # drops coefficients of at most 1e-9: a tie of reactance 1e9 would carry
    # no flow there, and attack {300, 104} would price at 1.853303, above
    # the 1.795038 that the intact dispatch, rerouted, sheds.
    with pytest.raises(ValueError, match="too large"):
        weakly_tied(3, 0.1, 1e9)
    net = weakly_tied(3, 0.1, 1e8)
    gen, served = _dispatch(net, solve_inner(net, AttackPlan(())))
    cuts = np.array([sorted(net.line_pos[l] for l in (3 * OFFSET, 104))])
    bound = response_shed(net, gen, served, net.power_flow.factor(cuts))[0]
    sol = solve_inner(net, AttackPlan([3 * OFFSET, 104]))
    assert sol.eta <= bound + 1e-9
    assert abs(sol.flow[net.line_pos[3 * OFFSET + 1]]) > 0.1


@pytest.mark.parametrize("seed", range(10))
def test_bound_on_nearly_singular_outages_that_stay_whole(seed):
    net = weakly_tied(seed)
    pf, m, strong = net.power_flow, len(net.lines), net.line_pos[3 * OFFSET]
    assert pf.num_islands == 1
    # The strong tie alone, and with each line whose loss splits nothing
    # more: each torn by the determinant, yet whole, so each is routed
    # alone on its islands, all of them the intact island 0.
    pairs = np.array([[strong, e] for e in range(m) if e != strong])
    found = _islands(pf.fr, pf.to, len(net.buses), pairs)
    whole = pairs[(found == found[:, :1]).all(axis=1)]
    for cuts in (np.array([[strong]]), whole):
        outages = pf.factor(cuts)
        assert (outages.torn >= 0).all() and not outages.islands[outages.torn].any()
    assert len(whole) >= m // 2
    tables = [np.arange(m)[:, None], whole]
    _check_against_reference(net, (), seed, tables=tables,
                             dispatches=_balanced_per_mesh(net, seed))


@pytest.mark.parametrize("seed", range(10))
def test_outages_that_split_keep_the_nearly_split_connection(seed):
    # The strong tie and a line whose loss strands part of a mesh: one new
    # island, and the rest still joined by the weak tie alone. The
    # least-squares operator drops one singular value, not every one below
    # the split test's cut, so the weak tie carries what the rest must
    # move: Kirchhoff's current law holds up to the rounding the near-split
    # amplifies (at most about 5e-5), where dropping the weak tie's
    # direction too misses the whole transfer (up to about 0.6).
    net = weakly_tied(seed)
    pf, m, n = net.power_flow, len(net.lines), len(net.buses)
    strong = net.line_pos[3 * OFFSET]
    outages = pf.factor(np.array([[strong, e] for e in range(m) if e != strong]))
    outages = outages.take(np.flatnonzero(outages.torn >= 0))
    assert len(outages.cuts)
    comp = np.arange(len(outages.cuts))[:, None] * n + outages.islands[outages.torn]
    rng = np.random.default_rng(seed)
    gen, served = _balanced(rng.uniform(0.0, net.gen_cap_vector()),
                            rng.uniform(0.0, net.demand_vector()), comp, comp.size)
    flow = pf.flows((gen - served) @ pf.ptdf_t, outages)
    assert np.abs(flow @ incidence(net).T + gen - served).max() < 1e-2
