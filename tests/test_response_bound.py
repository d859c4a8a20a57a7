"""Feasible-response bound: batched DC power flow and validity against exact sheds."""

import itertools

import numpy as np
import pytest

from nkshed import fixtures as fx
from nkshed.inner import AttackPlan, response_shed, solve_inner
from nkshed.netmodel import AttackerModel, _islands
from nkshed.oracle import attack_table, feasible_attacks
from reference_lp import incidence

RANDOM_SEEDS = range(50)


def _dispatch(net, sol):
    """Generation and served load of ``sol``, by bus position."""
    return sol.gen, net.demand_vector() * (1.0 - sol.shed)


def _cuts(net, attacks):
    """The ``PowerFlow.factor`` outages of ``attacks`` (id tuples), one per
    attack size."""
    groups = {}
    for a in attacks:
        groups.setdefault(len(a), []).append(a)
    return {size: (rows, net.power_flow.factor(np.array(
                [[net.line_pos[l] for l in a] for a in rows], dtype=np.intp).reshape(len(rows), size)))
            for size, rows in groups.items()}


def _check_every_ordered_pair(net, attacks):
    """bound(x_hat's dispatch, x) >= eta(x), with equality at x = x_hat.

    Returns how many of the attacks split an island of the network.
    """
    sols = {a: solve_inner(net, AttackPlan(a)) for a in attacks}
    groups = _cuts(net, attacks)
    for x_hat, sol in sols.items():
        gen, served = _dispatch(net, sol)
        for rows, outages in groups.values():
            bound = response_shed(net, gen, served, outages)
            eta = np.array([sols[a].eta for a in rows])
            assert (bound >= eta - 1e-9).all(), (sorted(x_hat), rows[np.argmin(bound - eta)])
            if x_hat in rows:
                assert bound[rows.index(x_hat)] == pytest.approx(sol.eta, abs=1e-7)
    return sum(int((outages.torn >= 0).sum()) for _, outages in groups.values())


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
    gen, served = _dispatch(star5, solve_inner(star5, AttackPlan([])))
    cuts = np.array([[0]])
    bound = response_shed(star5, gen, served, star5.power_flow.factor(cuts))
    assert bound[0] == pytest.approx(solve_inner(star5, AttackPlan([1])).eta, abs=1e-9)


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
    gen, served = _dispatch(net, solve_inner(net, AttackPlan([4, 6])))
    cuts = np.array([[net.line_pos[1], net.line_pos[4]]])
    eta = solve_inner(net, AttackPlan([1, 4])).eta
    assert eta == pytest.approx(0.9172, abs=1e-4)
    assert response_shed(net, gen, served, net.power_flow.factor(cuts))[0] >= eta - 1e-9


def _direct_flows(net, inj, cut):
    """Flows of ``inj`` with the lines at positions ``cut`` removed, by a
    least-squares solve of that outage's own Laplacian."""
    keep = np.ones(len(net.lines), dtype=bool)
    keep[list(cut)] = False
    inc = incidence(net)[:, keep]
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
        outages = pf.factor(cuts)
        comp, split = _components(pf, outages), outages.torn >= 0
        splits += split.sum()
        inj = rng.uniform(-1.0, 1.0, (len(cuts), 2, comp.shape[1]))
        for row, keys in enumerate(comp):
            for key in np.unique(keys):
                on = inj[row][:, keys == key]
                inj[row][:, keys == key] = on - on.mean(axis=1, keepdims=True)
        # Rows by lines, then rows by injections by lines.
        flow = pf.flows(inj[:, 0] @ pf.ptdf_t, outages)
        wide = pf.flows(inj @ pf.ptdf_t, outages)
        for row, cut in enumerate(cuts):
            np.testing.assert_allclose(flow[row], _direct_flows(net, inj[row, 0], cut), atol=1e-10)
            for j in range(inj.shape[1]):
                np.testing.assert_allclose(wide[row, j], _direct_flows(net, inj[row, j], cut),
                                           atol=1e-10)
        assert (flow[np.arange(len(cuts))[:, None], cuts] == 0.0).all()
        assert (wide[np.arange(len(cuts))[:, None], :, cuts] == 0.0).all()
        assert (split == _search_splits(pf, cuts)).all()
    assert splits > 0


def _components(pf, outages):
    """Island label per bus left by each outage: its kept islands if it
    splits one, else the intact network's."""
    comp = np.tile(pf.island, (len(outages.cuts), 1))
    torn = outages.torn >= 0
    comp[torn] = outages.islands[outages.torn[torn]]
    return comp


def _search_splits(pf, cuts):
    """Whether each outage splits an island, by ``_islands`` on every row."""
    found = _islands(pf.fr, pf.to, len(pf.island), cuts)
    return np.array([len(np.unique(row)) for row in found]) > pf.num_islands


def _split_test_cases():
    """Networks on which the determinant test of ``PowerFlow.factor`` is
    checked against the island search."""
    from bench_lattice import lattice
    from test_two_islands import two_meshes
    yield from (fx.random_mesh(seed) for seed in range(60))
    yield from (two_meshes(seed) for seed in range(10))
    yield from (lattice(size, size) for size in (4, 5))


def test_splits_agree_with_the_island_search():
    # Every outage of up to 3 lines: 24 757 rows, each torn by the
    # determinant of its outage system exactly when the search finds it
    # splits an island.
    rows = splits = 0
    for net in _split_test_cases():
        pf = net.power_flow
        for k in (1, 2, 3):
            cuts = np.array(list(itertools.combinations(range(len(net.lines)), k)),
                            dtype=np.intp).reshape(-1, k)
            outages = pf.factor(cuts)
            split = outages.torn >= 0
            assert (split == _search_splits(pf, cuts)).all(), (net.line_ids(), k)
            rows, splits = rows + len(cuts), splits + int(split.sum())
    assert rows == 24757 and splits > 0


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


def _all_cuts(net, sizes):
    """Every outage of each size in ``sizes``, one line-position array per size."""
    for k in sizes:
        cuts = list(itertools.combinations(range(len(net.lines)), k))
        if cuts:
            yield np.array(cuts, dtype=np.intp).reshape(len(cuts), k)


def _dispatches(net, seed):
    """The intact optimum, the optimum with the first line out and a random
    dispatch, as generation and served load."""
    rng = np.random.default_rng(seed)
    dispatches = [_dispatch(net, solve_inner(net, AttackPlan(lines)))
                  for lines in ((), net.line_ids()[:1])]
    dispatches.append((rng.uniform(0.0, net.gen_cap_vector()),
                       rng.uniform(0.0, net.demand_vector())))
    return dispatches


def _check_against_reference(net, sizes, seed=0, tables=None, dispatches=None) -> int:
    """``response_shed`` matches ``_reference_shed`` to 1e-9 on every attack of
    each size in ``sizes``, or on every row of ``tables``, for each of
    ``dispatches`` (``_dispatches`` by default). The bound of a random
    subset of rows, picked, equals those rows of the whole table's bitwise.
    Returns how many of the attacks split an island."""
    rng = np.random.default_rng(seed)
    dispatches = dispatches or _dispatches(net, seed)
    splits = 0
    for cuts in (_all_cuts(net, sizes) if tables is None else tables):
        outages = net.power_flow.factor(cuts)
        splits += int((outages.torn >= 0).sum())
        pick = np.flatnonzero(rng.random(len(cuts)) < 0.3)
        for gen, served in dispatches:
            ref = [_reference_shed(net, gen, served, cut) for cut in cuts]
            bound = response_shed(net, gen, served, outages)
            np.testing.assert_allclose(bound, ref, rtol=0.0, atol=1e-9)
            assert response_shed(net, gen, served, outages, pick).tobytes() == bound[pick].tobytes()
    return splits


@pytest.mark.parametrize("name", sorted(fx.FIXTURES))
def test_bound_matches_a_per_row_reference_on_fixture_zoo(name):
    assert _check_against_reference(fx.FIXTURES[name](), (1, 2, 3)) > 0


@pytest.mark.parametrize("seed", range(20))
def test_bound_matches_a_per_row_reference_on_random_meshes(seed):
    _check_against_reference(fx.random_mesh(seed), (1, 2), seed)


@pytest.mark.parametrize("name", sorted(fx.SPATIAL_D))
def test_bound_matches_a_per_row_reference_on_spatial_tables(name):
    # The spatial budget's attack table: one array per size, the empty
    # attack's of shape (1, 0) among them.
    net = fx.FIXTURES[name]()
    tables = attack_table(net, AttackerModel.spatial(3, fx.SPATIAL_D[name]))
    assert tables[0].shape == (1, 0) and len(tables) > 1
    _check_against_reference(net, (), tables=tables)


def test_islands_match_per_attack_components(mesh8):
    pf = mesh8.power_flow
    cuts = np.array(list(itertools.combinations(range(len(mesh8.lines)), 3)))
    outages = pf.factor(cuts)
    comp, split = _components(pf, outages), outages.torn >= 0
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
