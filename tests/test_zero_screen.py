"""The oracle's zero-shed screen: every attack ``exact_etas`` settles without
an LP sheds nothing, a verdict depends on its attack alone, attacks that
split an island go to the LP, the probe table is solved once per network,
a network is freed with its table, and the screen spares most LPs on the
4x4 and 6x6 lattices."""

import gc
import random
import sys
import threading
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nkshed import backend, inner
from nkshed import fixtures as fx
from nkshed import oracle
from nkshed.engine import solve_interdiction
from nkshed.inner import AttackPlan, exact_eta, exact_etas, solve_inner
from nkshed.netmodel import AttackerModel

from bench_lattice import lattice
from test_exact_eta import NETWORKS, _attacks, _budgets

# What exact_etas returns for an attack sent to the LP, once exact_eta is
# replaced by a stand-in that does not solve.
UNSETTLED = -1.0


def _etas(net, plans) -> list[float]:
    """``exact_etas`` of ``plans``, one call per attack size, in plan order;
    each row holds the positions of a plan's sorted line ids."""
    etas = [None] * len(plans)
    for size in {len(plan.lines) for plan in plans}:
        at = [i for i, plan in enumerate(plans) if len(plan.lines) == size]
        cuts = np.array([[net.line_pos[l] for l in plans[i].sorted_lines()] for i in at],
                        dtype=np.intp).reshape(len(at), size)
        for i, eta in zip(at, exact_etas(net, cuts).tolist()):
            etas[i] = eta
    return etas


def _lp_only(net, cuts) -> list[float]:
    """A batch pricer, in the place of ``exact_etas``, that prices every row
    of line positions by its own ``exact_eta`` LP."""
    return [exact_eta(net, AttackPlan(net.lines[e].id for e in row)) for row in cuts]


def _verdicts(net, plans) -> list[float]:
    """``exact_etas`` of ``plans`` with no LP: 0.0 where the screen settles
    an attack, ``UNSETTLED`` where it would send the attack to the LP."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(inner, "_eta_at", lambda net, positions: UNSETTLED)
        return _etas(net, plans)


def _stage_one(net, plans) -> list[float]:
    """``_verdicts`` with the screen's second stage, the probe segments, off."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(inner, "_segment_fits", lambda net, table, base, outages: np.zeros(
            len(outages.cuts), dtype=bool))
        return _verdicts(net, plans)


def _settled(net, subsets) -> np.ndarray:
    """The screen's verdict on each attack, all of one size, in one call."""
    cuts = np.array([sorted(net.line_pos[l] for l in s) for s in subsets], dtype=int)
    return inner._settled(net, cuts.reshape(len(subsets), -1))


@pytest.mark.parametrize("name", NETWORKS)
def test_every_settled_attack_sheds_nothing(name):
    net, budgets = _budgets(name)
    plans = [AttackPlan(subset) for subset in _attacks(net, budgets)]
    verdicts = _verdicts(net, plans)
    assert set(map(repr, verdicts)) <= {"0.0", repr(UNSETTLED)}
    for plan, verdict in zip(plans, verdicts):
        if verdict == 0.0:
            assert repr(exact_eta(net, plan)) == "0.0", plan
            assert solve_inner(net, plan).eta <= 1e-9, plan


@pytest.mark.parametrize("name", NETWORKS)
def test_a_verdict_depends_on_its_attack_alone(name):
    # Alone, then in one chunk sorted, reversed and shuffled, then in the
    # oracle's chunks: the same verdict per attack, and the same screen mask
    # bitwise per attack within each size.
    net, budgets = _budgets(name)
    attacks = _attacks(net, budgets)
    plans = [AttackPlan(subset) for subset in attacks]
    alone = [_verdicts(net, [plan])[0] for plan in plans]
    forward = list(range(len(plans)))
    orders = [forward, forward[::-1], random.Random(0).sample(forward, len(forward))]
    for order in orders:
        verdicts = _verdicts(net, [plans[i] for i in order])
        assert [repr(verdicts[j]) for j in range(len(order))] == [
            repr(alone[i]) for i in order]
    chunked = []
    for lo in range(0, len(plans), oracle._CHUNK):
        chunked += _verdicts(net, plans[lo:lo + oracle._CHUNK])
    assert list(map(repr, chunked)) == list(map(repr, alone))
    for size in {len(s) for s in attacks}:
        same = [s for s in attacks if len(s) == size]
        single = b"".join(_settled(net, [s]).tobytes() for s in same)
        assert _settled(net, same).tobytes() == single
        shuffled = random.Random(1).sample(same, len(same))
        together = dict(zip(shuffled, _settled(net, shuffled).tolist()))
        assert np.array([together[s] for s in same]).tobytes() == single


def test_generation_short_network_screens_nothing_and_keeps_its_answer(monkeypatch, mesh8):
    # Demand above the total generation capacity: even the intact network
    # sheds load, so no dispatch serves all demand and no probe exists.
    scale = 1.01 * sum(b.gen_cap for b in mesh8.buses) / sum(b.demand for b in mesh8.buses)
    net = replace(mesh8, buses=[replace(b, demand=b.demand * scale) for b in mesh8.buses])
    assert exact_eta(net, AttackPlan(())) > 0.0
    assert inner._probe_table(net).base.shape == (0, len(net.lines))
    model = AttackerModel.traditional(2)
    plans = [oracle.attack_plan(net, model, s) for s in oracle.feasible_attacks(net, model)]
    assert _verdicts(net, plans) == [UNSETTLED] * len(plans)
    screened = repr(oracle.solve_exhaustive(net, model, keep_ranking=True))
    monkeypatch.setattr(oracle, "exact_etas", _lp_only)
    assert screened == repr(oracle.solve_exhaustive(net, model, keep_ranking=True))


@pytest.mark.parametrize("name", sorted(fx.FIXTURES) + ["lattice4x4"])
def test_island_splitting_attacks_go_to_the_lp(name):
    net, budgets = _budgets(name)
    attacks = [s for s in _attacks(net, budgets) if s]
    split = {}
    for size in {len(s) for s in attacks}:
        same = [s for s in attacks if len(s) == size]
        cuts = np.array([sorted(net.line_pos[l] for l in s) for s in same])
        splits = net.power_flow.factor(cuts).torn >= 0
        split.update(zip(same, splits))
        # An outage that splits an island is never settled.
        assert not (_settled(net, same) & splits).any()
    torn = [s for s in attacks if split[s]]
    assert torn
    plans = [AttackPlan(s) for s in torn]
    assert _verdicts(net, plans) == [UNSETTLED] * len(plans)
    assert list(map(repr, _etas(net, plans))) == [
        repr(exact_eta(net, plan)) for plan in plans]


@pytest.mark.parametrize("name", sorted(fx.FIXTURES))
def test_spatial_empty_attack(name):
    net, d = fx.FIXTURES[name](), fx.SPATIAL_D[name]
    for center in (None, net.buses[0].id):
        model = AttackerModel.spatial(1, d, center)
        assert next(oracle.feasible_attacks(net, model)) == ()
        plan = oracle.attack_plan(net, model, ())
        eta = exact_eta(net, plan)
        assert repr(_etas(net, [plan])[0]) == repr(eta)
        # A probe settles the empty attack exactly where the intact network
        # serves all demand within its ratings; some fixtures shed load.
        assert _verdicts(net, [plan]) == [0.0 if eta == 0.0 else UNSETTLED]


def _pricing_lps(monkeypatch, net, model, winner):
    """The oracle's pricing LPs on ``net``: the ``exact-load-shed`` solves
    from a basis. Checks the winner, and that the ranking is bitwise the one
    every attack priced by its own LP gives."""
    lock, solves = threading.Lock(), []
    solve_lp = backend.Model.solve_lp

    def counted(self, *args, basis=None, **kwargs):
        if basis is not None:
            with lock:
                solves.append(self.name)
        return solve_lp(self, *args, basis=basis, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(backend.Model, "solve_lp", counted)
        res = oracle.solve_exhaustive(net, model, keep_ranking=True)
    assert res.best_attack.sorted_lines() == winner
    assert res.best_eta == solve_inner(net, res.best_attack).eta
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "exact_etas", _lp_only)
        assert repr(oracle.solve_exhaustive(net, model, keep_ranking=True)) == repr(res)
    return res, solves.count("exact-load-shed")


def test_the_screen_spares_most_lps_on_the_4x4_triples(monkeypatch):
    # 1674 of the 2024 triples shed nothing; the screen settles at least
    # 1524 of them, so at most 500 pricing LPs run.
    res, lps = _pricing_lps(monkeypatch, lattice(4, 4), AttackerModel.traditional(3),
                            (1, 8, 11))
    assert res.evaluated == 2024
    assert 0 < lps <= 500, lps


def test_the_screen_spares_most_lps_on_the_6x6_pairs(monkeypatch):
    res, lps = _pricing_lps(monkeypatch, lattice(6, 6), AttackerModel.traditional(2),
                            (46, 56))
    assert res.evaluated == 1770
    assert 0 < lps <= 340, lps


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_the_probe_table_is_solved_once_per_network(monkeypatch, workers):
    # One intact margin LP and two per line, whatever the thread count; every
    # thread reads the same table, bitwise the one a lone caller builds.
    net, model = lattice(4, 4), AttackerModel.traditional(3)
    lock, solves, reads = threading.Lock(), [], set()
    solve_lp, probe_rows = backend.Model.solve_lp, inner._ProbeTable.rows

    def counted(self, *args, **kwargs):
        with lock:
            solves.append(self.name)
        return solve_lp(self, *args, **kwargs)

    def read(table):
        rows, ok = probe_rows(table)
        with lock:
            reads.add((threading.get_ident(), rows.tobytes(), ok.tobytes(),
                       table.base.tobytes()))
        return rows, ok

    monkeypatch.setattr(oracle, "_workers", lambda: workers)
    monkeypatch.setattr(backend.Model, "solve_lp", counted)
    monkeypatch.setattr(inner._ProbeTable, "rows", read)
    # Threads switch often, so two that both find the table or its rows
    # missing would both solve them without the network's or the table's lock.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        oracle.solve_exhaustive(net, model)
    finally:
        sys.setswitchinterval(interval)
    assert solves.count("max-margin") == 1 + 2 * len(net.lines)
    threads = {r[0] for r in reads}
    assert 1 <= len(threads) <= workers
    assert len({r[1:] for r in reads}) == 1
    alone = inner._probe_table(lattice(4, 4))
    assert {r[1:] for r in reads} == {(*(a.tobytes() for a in probe_rows(alone)),
                                       alone.base.tobytes())}


def test_a_probe_row_whose_start_stops_short_is_solved_again_cold():
    # From the intact margin basis, the dual simplex stops short on one row
    # of the 10x10 lattice, line position 146 held idle. Solved again cold,
    # that row's LP is infeasible, so the row stays unusable, zero flows.
    table = inner._probe_table(lattice(10, 10))
    rows, ok = table.rows()
    assert table._slack.mdl.cold_restarts == 1
    assert ok[146].tolist() == [True, False]
    assert not rows[146, 1].any()


def test_a_segment_point_on_a_rating_settles_its_attack():
    # The segment point of {1, 10, 11} on random_mesh(11) puts a line exactly
    # on its rating; recomputing that line's flow there read it 2.8e-17 over.
    net, plan = fx.random_mesh(11), AttackPlan((1, 10, 11))
    assert _stage_one(net, [plan]) == [UNSETTLED]
    assert _verdicts(net, [plan]) == [0.0]
    assert repr(exact_eta(net, plan)) == "0.0"


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), data=st.data())
def test_every_attack_a_segment_settles_sheds_nothing(seed, data):
    # Random meshes and random 2- and 3-line attacks: an attack the second
    # stage settles sheds nothing, and every verdict is the same alone and
    # inside a chunk.
    net = fx.random_mesh(seed)
    lines = net.line_ids()
    attack = st.sets(st.sampled_from(lines), min_size=2, max_size=min(3, len(lines)))
    plans = [AttackPlan(s) for s in data.draw(st.lists(attack, min_size=1, max_size=24))]
    chunk = _verdicts(net, plans)
    assert list(map(repr, chunk)) == [repr(_verdicts(net, [plan])[0]) for plan in plans]
    for plan, verdict, first in zip(plans, chunk, _stage_one(net, plans)):
        if verdict == 0.0 and first == UNSETTLED:
            assert repr(exact_eta(net, plan)) == "0.0", plan
            assert solve_inner(net, plan).eta <= 1e-9, plan


def test_a_network_is_freed_by_reference_counting():
    # Nothing the oracle or the engine keeps on a network, its probe table
    # and rows among them, refers back to it, so it goes with its last
    # reference, with the cycle collector off.
    net = lattice(4, 4)
    enabled = gc.isenabled()
    gc.disable()
    try:
        oracle.solve_exhaustive(net, AttackerModel.traditional(3))
        assert inner._probe_table(net)._rows is not None
        solve_interdiction(net, AttackerModel.traditional(2))
        ref = weakref.ref(net)
        del net
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
