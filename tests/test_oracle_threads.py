"""The oracle's pricing threads: the answer of the serial loop, whatever the
thread count, and errors and warnings in enumeration order."""

import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest

from nkshed import fixtures as fx
from nkshed import oracle
from nkshed.attackers import compute_phi
from nkshed.backend import BackendError
from nkshed.engine import NoFeasibleAttackError
from nkshed.inner import solve_inner
from nkshed.netmodel import AttackerModel


def _serial(net, model, footprint):
    """The one-thread loop: every feasible attack in enumeration order, the
    worst kept, ties to the smallest sorted line-id tuple."""
    best, best_plan, ranking = None, None, []
    for subset in oracle.feasible_attacks(net, model, footprint):
        plan = oracle.attack_plan(net, model, footprint, subset)
        eta = solve_inner(net, plan).eta
        ranking.append((subset, eta))
        if best is None or eta > best[0] or (eta == best[0] and subset < best[1]):
            best, best_plan = (eta, subset), plan
    if best_plan is None:
        return None
    return oracle.OracleResult(best_plan, best[0], len(ranking),
                               tuple(sorted(ranking, key=lambda r: (-r[1], r[0]))))


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


def _threads_pricing(monkeypatch):
    """Record the thread of every ``solve_inner`` call the oracle makes."""
    seen = set()

    def traced(net, plan):
        seen.add(threading.get_ident())
        return solve_inner(net, plan)

    monkeypatch.setattr(oracle, "solve_inner", traced)
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
        return solve_inner(net, plan)

    monkeypatch.setattr(oracle, "solve_inner", failing)
    with pytest.raises(BackendError) as err:
        oracle.solve_exhaustive(net, model)
    assert str(err.value) == f"load-shed solve failed for attack {list(first)}: first"


@pytest.mark.parametrize("workers", [1, 2])
def test_big_m_warning_in_a_worker_fails_the_call(monkeypatch, triangle, workers):
    # Ten doublings of a 1e-30 band leave it far too narrow for every line,
    # so every attack warns; the suite turns warnings into errors.
    _force(monkeypatch, workers)
    net = replace(triangle, big_M=1e-30)
    with pytest.raises(RuntimeWarning, match="big-M doublings"):
        oracle.solve_exhaustive(net, AttackerModel.traditional(1))
    with pytest.warns(RuntimeWarning, match="big-M doublings") as caught:
        res = oracle.solve_exhaustive(net, AttackerModel.traditional(1))
    assert res.evaluated == 3 and len(caught) >= 3


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
