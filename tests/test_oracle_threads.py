"""The oracle's pricing threads: the answer of the serial loop, whatever the
thread count, and errors and warnings in enumeration order."""

import os
import random
import sys
import threading
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import pytest

from nkshed import fixtures as fx
from nkshed import oracle
from nkshed.attackers import compute_phi
from nkshed.backend import BackendError
from nkshed.engine import NoFeasibleAttackError
from nkshed.inner import exact_eta, exact_etas, solve_inner
from nkshed.netmodel import AttackerModel

from bench_lattice import lattice


def _serial(net, model, footprint):
    """The one-thread loop: every feasible attack in enumeration order priced
    by its own ``exact_eta`` LP, with no zero-shed screen; the ranking is
    runs of etas tied with each run's worst, worst run first, each run by
    sorted line-id tuple; the winner heads it and is re-solved by
    ``solve_inner``."""
    priced = []
    for subset in oracle.feasible_attacks(net, model, footprint):
        plan = oracle.attack_plan(net, model, footprint, subset)
        priced.append((subset, exact_eta(net, plan), plan))
    if not priced:
        return None
    rest, ranking = sorted(priced, key=lambda r: -r[1]), []
    while rest:
        worst = rest[0][1]
        run = [r for r in rest if r[1] >= worst - oracle._TIE * max(1.0, abs(worst))]
        ranking += sorted(run, key=lambda r: r[0])
        rest = rest[len(run):]
    best = ranking[0][2]
    return oracle.OracleResult(best, solve_inner(net, best).eta, len(priced),
                               tuple((lines, eta) for lines, eta, _ in ranking))


NETWORKS = sorted(fx.FIXTURES) + [f"random_mesh({seed})" for seed in range(20)]


def _cases(name):
    """The network and every attacker budget of k <= 3 it is checked under."""
    if name in fx.FIXTURES:
        net, d = fx.FIXTURES[name](), fx.SPATIAL_D[name]
        footprint = compute_phi(net, d)
        spatial = [(AttackerModel.spatial(k, d, center), footprint)
                   for k in (1, 2, 3) for center in (None, net.buses[0].id)]
    else:
        net, spatial = fx.random_mesh(int(name[len("random_mesh("):-1])), []
    return net, [(AttackerModel.traditional(k), None) for k in (1, 2, 3)] + [
        (AttackerModel.topological(k), None) for k in (1, 2, 3)] + spatial


def _force(monkeypatch, workers, chunk=1):
    monkeypatch.setattr(oracle, "_workers", lambda: workers)
    monkeypatch.setattr(oracle, "_CHUNK", chunk)


def _per_plan(price):
    """A batch pricer, in the place of ``exact_etas``, that prices each plan
    of a chunk by ``price``."""
    return lambda net, plans: [price(net, plan) for plan in plans]


def _threads_pricing(monkeypatch):
    """Record the thread of every ``exact_etas`` call the oracle makes."""
    seen = set()

    def traced(net, plans):
        seen.add(threading.get_ident())
        return exact_etas(net, plans)

    monkeypatch.setattr(oracle, "exact_etas", traced)
    return seen


@pytest.mark.parametrize("name", NETWORKS)
def test_oracle_returns_the_serial_loop_answer_bitwise(monkeypatch, name):
    seen = _threads_pricing(monkeypatch)
    main = threading.get_ident()
    net, models = _cases(name)
    for model, footprint in models:
        ref = _serial(net, model, footprint)
        # Two workers and one-attack chunks run the pool even here; one
        # worker prices inline.
        for workers in (2, 1):
            _force(monkeypatch, workers)
            seen.clear()
            if ref is None:
                with pytest.raises(NoFeasibleAttackError):
                    oracle.solve_exhaustive(net, model, footprint, keep_ranking=True)
                continue
            res = oracle.solve_exhaustive(net, model, footprint, keep_ranking=True)
            # repr round-trips every float and tells -0.0 from 0.0.
            assert repr(res) == repr(ref), (model, workers)
            assert res == ref
            assert (seen == {main}) == (workers == 1 or ref.evaluated == 1), (model, workers)


def test_one_worker_per_cpu_of_this_process(monkeypatch):
    # Nothing forced: one worker per CPU in this process's affinity set, so
    # under `taskset -c 0` every attack is priced on the calling thread.
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count())
    assert oracle._workers() == cpus
    seen = _threads_pricing(monkeypatch)
    net = fx.mesh8()
    for k in (2, 3):
        model = AttackerModel.traditional(k)
        ref = _serial(net, model, None)
        seen.clear()
        assert repr(oracle.solve_exhaustive(net, model, keep_ranking=True)) == repr(ref)
        inline = cpus == 1 or ref.evaluated <= oracle._CHUNK
        assert (seen == {threading.get_ident()}) == inline, k


@pytest.mark.parametrize("workers", [1, 2])
def test_first_error_in_enumeration_order_is_raised(monkeypatch, workers):
    _force(monkeypatch, workers)
    net = fx.mesh8()
    model = AttackerModel.traditional(1)
    attacks = list(oracle.feasible_attacks(net, model))
    first, later = attacks[2], attacks[5]

    def failing(net, plan):
        lines = plan.sorted_lines()
        if lines == first:
            # Let the later attack fail first in time.
            time.sleep(0.05)
            raise BackendError(f"load-shed solve failed for attack {list(first)}: first")
        if lines == later:
            raise BackendError(f"load-shed solve failed for attack {list(later)}: later")
        return exact_eta(net, plan)

    monkeypatch.setattr(oracle, "exact_etas", _per_plan(failing))
    with pytest.raises(BackendError) as err:
        oracle.solve_exhaustive(net, model)
    assert str(err.value) == f"load-shed solve failed for attack {list(first)}: first"


@pytest.mark.parametrize("workers", [1, 2])
def test_big_m_warning_in_a_worker_fails_the_call(monkeypatch, triangle, workers):
    # Oracle pricing has no band and does not warn, so a patched pricing
    # function emits solve_inner's big-M warning; the suite turns warnings
    # into errors.
    _force(monkeypatch, workers)
    warned = []

    def warning(net, plan):
        warned.append(threading.get_ident())
        warnings.warn("coupling duals above 1e-08 after 10 big-M doublings", RuntimeWarning)
        return exact_eta(net, plan)

    monkeypatch.setattr(oracle, "exact_etas", _per_plan(warning))
    with pytest.raises(RuntimeWarning, match="big-M doublings"):
        oracle.solve_exhaustive(triangle, AttackerModel.traditional(1))
    warned.clear()
    with pytest.warns(RuntimeWarning, match="big-M doublings") as caught:
        res = oracle.solve_exhaustive(triangle, AttackerModel.traditional(1))
    assert res.evaluated == 3 and len(caught) == len(warned) == 3
    assert (threading.get_ident() in warned) == (workers == 1)


# Near-equal eta levels: the first three tie with one another, the fourth
# is just past the tie and the fifth far below.
LEVELS = (1.0, 1.0 + 4e-10, 1.0 - 4e-10, 1.0 - 3e-9, 0.5)


@pytest.mark.parametrize("workers", [1, 2])
def test_tie_rule_over_near_equal_etas_in_any_enumeration_order(monkeypatch, mesh8, workers):
    # Spatial budgets enumerate smaller attacks first, so sorted tuples do
    # not arrive in order; each attack's eta is a level drawn from its lines.
    _force(monkeypatch, workers)
    level = lambda lines: random.Random(repr(lines)).choice(LEVELS)
    monkeypatch.setattr(oracle, "exact_etas",
                        _per_plan(lambda net, plan: level(plan.sorted_lines())))
    d = fx.SPATIAL_D["mesh8"]
    footprint = compute_phi(mesh8, d)
    for model in (AttackerModel.spatial(3, d), AttackerModel.traditional(3)):
        fp = footprint if model.variant == "spatial" else None
        etas = {lines: level(lines) for lines in oracle.feasible_attacks(mesh8, model, fp)}
        worst = max(etas.values())
        tied = sorted(lines for lines, eta in etas.items()
                      if eta >= worst - oracle._TIE * max(1.0, worst))
        assert len({etas[lines] for lines in tied}) > 1, model
        res = oracle.solve_exhaustive(mesh8, model, fp)
        assert res.best_attack.sorted_lines() == tied[0] and res.evaluated == len(etas)
        ranked = oracle.solve_exhaustive(mesh8, model, fp, keep_ranking=True).ranking
        assert [lines for lines, _ in ranked[:len(tied)]] == tied
        assert sorted(ranked) == sorted(etas.items())


def test_concurrent_oracles_each_with_a_pool(monkeypatch, mesh8):
    # Callers on several threads at once, each opening its own pool of more
    # workers than this host has cores, with thread switches forced often.
    _force(monkeypatch, 4)
    models = [AttackerModel.traditional(k) for k in (1, 2, 3)]
    models += [AttackerModel.topological(k) for k in (1, 2, 3)]
    serial = [repr(_serial(mesh8, m, None)) for m in models]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(3) as pool:
            futures = [pool.submit(oracle.solve_exhaustive, mesh8, m, keep_ranking=True)
                       for m in models]
            threaded = [repr(f.result(timeout=120)) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial


def test_pricing_window_bounds_the_oracle_memory(monkeypatch):
    # The 147 440 three-line attacks of the 7x8 lattice (97 lines), priced at
    # a constant so only the oracle's own bookkeeping counts: a bounded
    # window of chunks in flight and the running near-ties, against holding
    # every plan at once.
    _force(monkeypatch, 2, 64)
    monkeypatch.setattr(oracle, "exact_etas", _per_plan(lambda net, plan: 1.0))
    net, model = lattice(7, 8), AttackerModel.traditional(3)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        plans = [oracle.attack_plan(net, model, None, subset)
                 for subset in oracle.feasible_attacks(net, model)]
        every_plan = tracemalloc.get_traced_memory()[1] - base
        first, count = plans[0], len(plans)
        del plans
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        res = oracle.solve_exhaustive(net, model)
        streamed = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert count == 147_440
    assert 5 * streamed <= every_plan, (streamed, every_plan)
    # Every eta ties, so the first attack in enumeration order wins.
    assert res == oracle.OracleResult(first, solve_inner(net, first).eta, count)
