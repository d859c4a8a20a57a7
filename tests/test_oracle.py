"""Brute-force oracle: counts, budgets, tie-breaks, ranking output."""

import itertools

import numpy as np
import pytest

from nkshed import engine, oracle
from nkshed import fixtures as fx
from nkshed.attackers import SpatiallyInfeasibleError
from nkshed.engine import NoFeasibleAttackError, solve_interdiction
from nkshed.netmodel import AttackerModel
from nkshed.oracle import BudgetExceededError, solve_exhaustive, write_ranking_csv

from bench_lattice import lattice


TABLE_NETWORKS = (sorted(fx.FIXTURES) + [f"random_mesh({seed})" for seed in range(60)]
                  + ["lattice(4, 4)", "lattice(5, 5)"])


def _table_budgets(name):
    """The network and every budget of k <= 3 it can pose: traditional and
    topological, and on the fixtures spatial at ``fx.SPATIAL_D``, with no
    pinned centre and pinned to the first bus."""
    if name in fx.FIXTURES:
        net, d = fx.FIXTURES[name](), fx.SPATIAL_D[name]
        spatial = [AttackerModel.spatial(k, d, center)
                   for k in (1, 2, 3) for center in (None, net.buses[0].id)]
    elif name.startswith("lattice"):
        net, spatial = lattice(*map(int, name[len("lattice("):-1].split(", "))), []
    else:
        net, spatial = fx.random_mesh(int(name[len("random_mesh("):-1])), []
    plain = [AttackerModel(variant, k) for variant in ("traditional", "topological")
             for k in (1, 2, 3) if k <= len(net.lines)]
    return net, plain + spatial


@pytest.mark.parametrize("name", TABLE_NETWORKS)
def test_the_attack_table_lists_the_feasible_attacks_in_order(name):
    # The one form of the feasible set that the oracle prices and the
    # engine's enumerated master walks: its rows, mapped back to line ids,
    # are the feasibility predicate's attacks in enumeration order.
    net, models = _table_budgets(name)
    ids = net.line_ids()
    for model in models:
        table = oracle.attack_table(net, model)
        sizes = [rows.shape[1] for rows in table]
        assert sizes == sorted(set(sizes)) and all(len(rows) for rows in table), model
        assert all(rows.dtype == np.int32 for rows in table), model
        listed = [tuple(ids[e] for e in row) for rows in table for row in rows.tolist()]
        assert listed == list(oracle.feasible_attacks(net, model)), model
    assert engine.attack_table is oracle.attack_table


def test_two_bus_single_line(two_bus):
    res = solve_exhaustive(two_bus, AttackerModel.traditional(1))
    assert res.best_eta == pytest.approx(1.0, abs=1e-6)
    assert res.evaluated == 1
    assert sorted(res.best_attack.lines) == [1]


def test_triangle_topological_pairs_all_touch(triangle):
    res = solve_exhaustive(triangle, AttackerModel.topological(2))
    assert res.evaluated == 3


def test_triangle_traditional_cross_check_engine(triangle):
    model = AttackerModel.traditional(2)
    res = solve_exhaustive(triangle, model)
    _, eta, _ = solve_interdiction(triangle, model)
    assert eta == pytest.approx(res.best_eta, rel=0.011, abs=1e-6)


def test_budget_rejected_before_solving(mesh8):
    with pytest.raises(BudgetExceededError, match="220"):
        solve_exhaustive(mesh8, AttackerModel.traditional(3), budget=10)


def test_spatial_enumerates_all_sizes(mesh8):
    d = fx.SPATIAL_D["mesh8"]
    res = solve_exhaustive(mesh8, AttackerModel.spatial(2, d), keep_ranking=True)
    sizes = {len(lines) for lines, _ in res.ranking}
    assert 0 in sizes and 1 in sizes and 2 in sizes
    assert res.best_eta >= max(eta for _, eta in res.ranking) - 1e-12


def test_the_walk_stops_at_the_line_count(monkeypatch, mesh8):
    # A spatial budget above mesh8's 12 lines walks the sizes 0-12 alone,
    # one combinations call each, and lists the attacks of k = 12.
    calls = []

    def counted(ids, size):
        calls.append(size)
        return itertools.combinations(ids, size)

    monkeypatch.setattr(oracle, "combinations", counted)
    attacks = list(oracle.feasible_attacks(mesh8, AttackerModel.spatial(50, 160.0)))
    assert calls == list(range(13))
    assert attacks == list(oracle.feasible_attacks(mesh8, AttackerModel.spatial(12, 160.0)))
    assert oracle.subset_count(12, AttackerModel.spatial(10**12, 160.0)) == 2**12
    table = oracle.attack_table(mesh8, AttackerModel.spatial(10**6, 160.0))
    assert [rows.tolist() for rows in table] == [
        rows.tolist() for rows in oracle.attack_table(mesh8, AttackerModel.spatial(12, 160.0))]


def test_lexicographic_tie_break(star5):
    # Every leg of the star sheds the same load, so the smallest id must win.
    res = solve_exhaustive(star5, AttackerModel.traditional(1), keep_ranking=True)
    etas = {eta for _, eta in res.ranking}
    assert len(etas) == 1
    assert sorted(res.best_attack.lines) == [1]


def test_no_feasible_attack_when_k_exceeds_lines(two_bus):
    with pytest.raises(NoFeasibleAttackError):
        solve_exhaustive(two_bus, AttackerModel.traditional(3))


def test_ranking_csv(tmp_path, star5):
    res = solve_exhaustive(star5, AttackerModel.traditional(2), keep_ranking=True)
    write_ranking_csv(res, tmp_path / "ranking.csv")
    rows = (tmp_path / "ranking.csv").read_text().strip().splitlines()
    assert rows[0] == "rank,lines,eta"
    assert len(rows) == 1 + res.evaluated
    first = rows[1].split(",")
    assert first[0] == "1"
    assert first[1] == ";".join(str(l) for l in sorted(res.best_attack.lines))


def test_ranking_csv_takes_a_path(tmp_path, star5):
    res = solve_exhaustive(star5, AttackerModel.traditional(2), keep_ranking=True)
    write_ranking_csv(res, tmp_path / "path.csv")
    write_ranking_csv(res, str(tmp_path / "str.csv"))
    assert (tmp_path / "path.csv").read_bytes() == (tmp_path / "str.csv").read_bytes()


def test_ranking_requires_flag(tmp_path, star5):
    res = solve_exhaustive(star5, AttackerModel.traditional(1))
    with pytest.raises(ValueError, match="keep_ranking"):
        write_ranking_csv(res, tmp_path / "ranking.csv")
    assert not (tmp_path / "ranking.csv").exists()


def test_spatial_nests_in_unconstrained_small_attacks(mesh8):
    # A disk-limited attacker can never beat the best attack of size <= k,
    # and with a system-covering disk the two coincide.
    d = fx.SPATIAL_D["mesh8"]
    tight = solve_exhaustive(mesh8, AttackerModel.spatial(2, d))
    wide_model = AttackerModel.spatial(2, 10000.0)
    wide = solve_exhaustive(mesh8, wide_model)
    best_any = max(
        solve_exhaustive(mesh8, AttackerModel.traditional(k)).best_eta for k in (1, 2))
    assert tight.best_eta <= wide.best_eta + 1e-9
    assert wide.best_eta == pytest.approx(best_any, abs=1e-9)


def test_deterministic(mesh8):
    a = solve_exhaustive(mesh8, AttackerModel.traditional(2), keep_ranking=True)
    b = solve_exhaustive(mesh8, AttackerModel.traditional(2), keep_ranking=True)
    assert a.best_attack.lines == b.best_attack.lines
    assert a.best_eta == b.best_eta
    assert a.ranking == b.ranking


@pytest.mark.parametrize("model,error", [
    (AttackerModel.spatial(2, 1e-6), SpatiallyInfeasibleError),
    (AttackerModel.spatial(2, 80.0, center_bus=999), ValueError),
], ids=["no-line-coverable", "unknown-pinned-center"])
def test_oracle_and_engine_reject_an_unposable_budget_alike(mesh8, model, error):
    # Both check the budget before they enumerate: a disk that covers no line
    # is spatially infeasible (the empty attack alone is not an answer), and
    # a pinned centre the network lacks is an input error.
    for solve in (solve_interdiction, solve_exhaustive):
        with pytest.raises(Exception) as raised:
            solve(mesh8, model)
        assert type(raised.value) is error, solve.__name__
