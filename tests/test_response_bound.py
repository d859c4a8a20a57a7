"""Feasible-response bound: batched DC power flow and validity against exact sheds."""

import itertools

import numpy as np
import pytest

from nkshed import fixtures as fx
from nkshed.inner import AttackPlan, response_shed, solve_inner
from nkshed.netmodel import AttackerModel
from nkshed.oracle import feasible_attacks

RANDOM_SEEDS = range(50)


def _dispatch(net, sol):
    """Generation and served load of ``sol``, by bus position."""
    return sol.gen, net.demand_vector() * (1.0 - sol.shed)


def _cuts(net, attacks):
    """Line-position arrays of ``attacks`` (id tuples), one per attack size."""
    groups = {}
    for a in attacks:
        groups.setdefault(len(a), []).append(a)
    return {size: (rows, np.array([[net.line_pos[l] for l in a] for a in rows],
                                  dtype=np.intp).reshape(len(rows), size))
            for size, rows in groups.items()}


def _check_every_ordered_pair(net, attacks):
    """bound(x_hat's dispatch, x) >= eta(x), with equality at x = x_hat.

    Returns how many of the attacks split an island of the network.
    """
    sols = {a: solve_inner(net, AttackPlan.of(a)) for a in attacks}
    groups = _cuts(net, attacks)
    for x_hat, sol in sols.items():
        gen, served = _dispatch(net, sol)
        for rows, cuts in groups.values():
            bound = response_shed(net, gen, served, cuts, net.power_flow.splits(cuts))
            eta = np.array([sols[a].eta for a in rows])
            assert (bound >= eta - 1e-9).all(), (sorted(x_hat), rows[np.argmin(bound - eta)])
            if x_hat in rows:
                assert bound[rows.index(x_hat)] == pytest.approx(sol.eta, abs=1e-7)
    pf = net.power_flow
    return sum(int(pf.islands(cuts, np.ones(len(cuts), dtype=bool))[1].sum())
               for _, cuts in groups.values())


def _attacks_up_to_two(net):
    return [a for k in (0, 1, 2) for a in itertools.combinations(net.line_ids(), k)]


@pytest.mark.parametrize("name", sorted(fx.FIXTURES))
def test_bound_valid_on_fixture_zoo(name):
    net = fx.FIXTURES[name]()
    _check_every_ordered_pair(net, _attacks_up_to_two(net))


@pytest.mark.parametrize("seed", RANDOM_SEEDS)
def test_bound_valid_on_random_meshes(seed):
    net = fx.random_mesh(seed)
    _check_every_ordered_pair(net, _attacks_up_to_two(net))


def test_bound_covers_islanding_attacks(star5):
    # Every line of the star is a bridge: each attack strands its leaves.
    assert _check_every_ordered_pair(star5, _attacks_up_to_two(star5)) == 4 + 6
    # Stranding leaf 2 with the hub's dispatch: the leaf's load is shed,
    # the other three keep theirs, and that is the exact shed.
    gen, served = _dispatch(star5, solve_inner(star5, AttackPlan.of([])))
    cuts = np.array([[0]])
    bound = response_shed(star5, gen, served, cuts, star5.power_flow.splits(cuts))
    assert bound[0] == pytest.approx(solve_inner(star5, AttackPlan.of([1])).eta, abs=1e-9)


def test_bound_valid_on_spatial_sub_k_attacks(mesh8):
    d = fx.SPATIAL_D["mesh8"]
    model = AttackerModel.spatial(2, d)
    attacks = list(feasible_attacks(mesh8, model))
    assert {len(a) for a in attacks} == {0, 1, 2}
    _check_every_ordered_pair(mesh8, attacks)


def test_bound_catches_the_reroute_a_flow_cut_misses():
    # On this mesh the unit-rate cut from {4, 6} bounds {1, 4} by 0.8178
    # although its shed is 0.9172: line 1 carries no flow at {4, 6}'s optimum.
    net = fx.random_mesh(78)
    gen, served = _dispatch(net, solve_inner(net, AttackPlan.of([4, 6])))
    cuts = np.array([[net.line_pos[1], net.line_pos[4]]])
    eta = solve_inner(net, AttackPlan.of([1, 4])).eta
    assert eta == pytest.approx(0.9172, abs=1e-4)
    assert response_shed(net, gen, served, cuts, net.power_flow.splits(cuts))[0] >= eta - 1e-9


def _direct_flows(net, inj, cut):
    """Flows of ``inj`` with the lines at positions ``cut`` removed, by a
    least-squares solve of that outage's own Laplacian."""
    keep = np.ones(len(net.lines), dtype=bool)
    keep[list(cut)] = False
    inc = net.incidence[:, keep]
    b = net.susceptance_vector()[keep]
    ang = np.linalg.lstsq((inc * b) @ inc.T, -inj, rcond=None)[0]
    flow = np.zeros(len(net.lines))
    flow[keep] = b * (inc.T @ ang)
    return flow


@pytest.mark.parametrize("name", ["mesh8", "ring6", "braess4", "star5", "triangle"])
def test_outage_factor_flows_match_direct_solves(name):
    # Islanding outages included: each row's injections balance on each of
    # the islands its outage leaves. The triangle's 3-line outage removes
    # every line of its one island.
    net = fx.FIXTURES[name]()
    pf = net.power_flow
    rng = np.random.default_rng(7)
    splits = 0
    for k in (1, 2, 3):
        cuts = np.array(list(itertools.combinations(range(len(net.lines)), k)))
        comp, split = pf.islands(cuts, np.ones(len(cuts), dtype=bool))
        splits += split.sum()
        inj = rng.uniform(-1.0, 1.0, (len(cuts), 2, comp.shape[1]))
        for row, keys in enumerate(comp):
            for key in np.unique(keys):
                on = inj[row][:, keys == key]
                inj[row][:, keys == key] = on - on.mean(axis=1, keepdims=True)
        # Rows by lines, then rows by injections by lines.
        flow = pf.flows(inj[:, 0] @ pf.ptdf_t, cuts, split)
        wide = pf.flows(inj @ pf.ptdf_t, cuts, split)
        for row, cut in enumerate(cuts):
            np.testing.assert_allclose(flow[row], _direct_flows(net, inj[row, 0], cut), atol=1e-10)
            for j in range(inj.shape[1]):
                np.testing.assert_allclose(wide[row, j], _direct_flows(net, inj[row, j], cut),
                                           atol=1e-10)
        assert (flow[np.arange(len(cuts))[:, None], cuts] == 0.0).all()
        assert (wide[np.arange(len(cuts))[:, None], :, cuts] == 0.0).all()
        assert (pf.splits(cuts) == split).all()
    assert splits > 0


def _split_test_cases():
    """Networks on which the determinant test of ``splits`` is checked
    against the island search."""
    from bench_lattice import lattice
    from test_two_islands import two_meshes
    yield from (fx.random_mesh(seed) for seed in range(60))
    yield from (two_meshes(seed) for seed in range(10))
    yield from (lattice(size, size) for size in (4, 5))


def test_splits_agree_with_the_island_search():
    # Every outage of up to 3 lines: 24 757 rows, each flagged by the
    # determinant of its outage system exactly when the search finds it
    # splits an island.
    rows = flagged = 0
    for net in _split_test_cases():
        pf = net.power_flow
        for k in (1, 2, 3):
            cuts = np.array(list(itertools.combinations(range(len(net.lines)), k)),
                            dtype=np.intp).reshape(-1, k)
            split = pf.splits(cuts)
            torn = pf.islands(cuts, np.ones(len(cuts), dtype=bool))[1]
            assert (split == torn).all(), (net.line_ids(), k)
            rows, flagged = rows + len(cuts), flagged + int(split.sum())
    assert rows == 24757 and flagged > 0


def _union_find_roots(net, cut) -> list[int]:
    """Root bus position per bus, joined by every line not in ``cut``."""
    parent = list(range(len(net.buses)))

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i

    fr, to = net.endpoint_positions()
    for e in set(range(len(net.lines))) - set(cut.tolist()):
        parent[root(fr[e])] = root(to[e])
    return [root(i) for i in range(len(parent))]


def _reference_shed(net, gen, served, cut) -> float:
    """``response_shed`` of the attack on the lines at ``cut``, built alone:
    the dispatch balanced on each island that ``_union_find_roots`` finds,
    routed by ``_direct_flows`` and scaled per island into the ratings."""
    demand = net.demand_vector()
    g = np.clip(gen, 0.0, net.gen_cap_vector())
    s = np.clip(served, 0.0, demand)
    roots = np.array(_union_find_roots(net, cut))
    alpha = {}
    for root in set(roots.tolist()):
        on = roots == root
        g_sum, s_sum = g[on].sum(), s[on].sum()
        if g_sum > s_sum:
            g[on] *= s_sum / g_sum
        elif s_sum > g_sum:
            s[on] *= g_sum / s_sum
        alpha[root] = 1.0
    flow = np.abs(_direct_flows(net, g - s, cut))
    rating, fr = net.thermal_vector(), net.endpoint_positions()[0]
    for e in np.flatnonzero(flow > 0):
        alpha[roots[fr[e]]] = min(alpha[roots[fr[e]]], rating[e] / flow[e])
    return demand.sum() - sum(alpha[root] * s[i] for i, root in enumerate(roots.tolist()))


def _check_against_reference(net, sizes, seed=0) -> int:
    """``response_shed`` matches ``_reference_shed`` to 1e-9 on every attack of
    each size in ``sizes``, for the intact optimum, the optimum with the
    first line out and a random dispatch. Returns how many of the attacks
    split an island."""
    rng = np.random.default_rng(seed)
    dispatches = [_dispatch(net, solve_inner(net, AttackPlan.of(lines)))
                  for lines in ((), net.line_ids()[:1])]
    dispatches.append((rng.uniform(0.0, net.gen_cap_vector()),
                       rng.uniform(0.0, net.demand_vector())))
    splits = 0
    for k in sizes:
        cuts = np.array(list(itertools.combinations(range(len(net.lines)), k)),
                        dtype=np.intp).reshape(-1, k)
        if not len(cuts):
            continue
        split = net.power_flow.splits(cuts)
        splits += int(split.sum())
        for gen, served in dispatches:
            ref = [_reference_shed(net, gen, served, cut) for cut in cuts]
            np.testing.assert_allclose(response_shed(net, gen, served, cuts, split), ref,
                                       rtol=0.0, atol=1e-9)
    return splits


@pytest.mark.parametrize("name", sorted(fx.FIXTURES))
def test_bound_matches_a_per_row_reference_on_fixture_zoo(name):
    assert _check_against_reference(fx.FIXTURES[name](), (1, 2, 3)) > 0


@pytest.mark.parametrize("seed", range(20))
def test_bound_matches_a_per_row_reference_on_random_meshes(seed):
    _check_against_reference(fx.random_mesh(seed), (1, 2), seed)


def test_islands_match_per_attack_components(mesh8):
    pf = mesh8.power_flow
    cuts = np.array(list(itertools.combinations(range(len(mesh8.lines)), 3)))
    comp, split = pf.islands(cuts, np.ones(len(cuts), dtype=bool))
    for row, cut in enumerate(cuts):
        alone = _union_find_roots(mesh8, cut)
        assert split[row] == (len(set(alone)) > 1)
        # Same partition of the buses, whatever the labels.
        keys = comp[row].tolist()
        assert len(set(zip(keys, alone))) == len(set(alone)) == len(set(keys))


def test_random_mesh_draw_order():
    # Pinned values of one realization: a change in the draw order moves them.
    net = fx.random_mesh(78)
    assert [(b.demand, b.gen_cap) for b in net.buses] == [
        (0.0, 0.7400573585222093), (0.7843376986480339, 0.0), (0.0, 1.5687094908265282),
        (0.0, 0.8682279192878607), (0.8177511791186862, 0.0)]
    assert [(l.from_bus, l.to_bus) for l in net.lines[:3]] == [(1, 2), (2, 3), (2, 4)]
    assert (net.lines[0].reactance, net.lines[0].thermal) == (0.2944277939056944,
                                                              0.6693006916614515)
    assert len(net.lines) == 6
    assert fx.random_mesh(78) == net
