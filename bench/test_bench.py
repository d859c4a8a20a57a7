"""Self-tests of the benchmark: ``python3 -m pytest -q bench`` from the repository root."""

import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nkshed
from nkshed import fixtures

import harness
import tracing
import workloads
from lattice import lattice_text

BENCH = Path(__file__).resolve().parent

# sha256 of case + geo text at net seed 1 with default labels. The pinned
# oracle references in workloads.py hold only for these exact bytes.
LATTICE_SHA256 = {
    (5, 5): "0fe712be3f1c3f757b76457b9b375359298735aede2e90367316a44f223d99fa",
    (4, 4): "1983836f491c63ca466fd26324a418432d583a63bd255b892dc13d5cc89cba88",
}


@pytest.mark.parametrize("shape", sorted(LATTICE_SHA256))
def test_lattice_bytes_are_pinned(shape):
    case, geo = lattice_text(*shape, net_seed=1)
    assert hashlib.sha256((case + geo).encode()).hexdigest() == LATTICE_SHA256[shape]


def test_lattice_is_byte_identical_for_a_seed():
    assert lattice_text(5, 5, 1, 17) == lattice_text(5, 5, 1, 17)
    assert lattice_text(5, 5, 1, 17) != lattice_text(5, 5, 1, 18)
    assert lattice_text(5, 5, 1)[0] != lattice_text(5, 5, 2)[0]


def _parse(texts):
    case, geo = texts
    return nkshed.parse_geo(geo, nkshed.parse_case(case))


def test_label_seed_keeps_the_instance():
    base = _parse(lattice_text(4, 4, 1))
    for label_seed in (2, 99):
        net = _parse(lattice_text(4, 4, 1, label_seed))
        assert all(b.has_geo for b in net.buses)
        assert net.line_ids() == base.line_ids()
        for view in ("demand_vector", "gen_cap_vector", "susceptance_vector", "thermal_vector"):
            np.testing.assert_array_equal(getattr(net, view)(), getattr(base, view)())
        for mine, theirs in zip(net.endpoint_positions(), base.endpoint_positions()):
            np.testing.assert_array_equal(mine, theirs)


def test_lattice_matches_the_generator_spec():
    net = _parse(lattice_text(5, 5, 1))
    assert (len(net.buses), len(net.lines)) == (25, 40)
    for b in net.buses:
        assert (b.demand == 0 and 2 <= b.gen_cap <= 4) or (b.gen_cap == 0 and 0.2 <= b.demand <= 0.8)
    for line in net.lines:
        assert 0.05 <= line.reactance <= 0.2 and 0.8 <= line.thermal <= 2.0


def _hooked():
    return [getattr(owner, attr) for owner, attr, _, _ in tracing.HOOKS]


def test_tracer_restores_every_hook():
    before = _hooked()
    net = fixtures.braess4()
    with tracing.Tracer() as tracer:
        assert all(now is not then for now, then in zip(_hooked(), before))
        with tracer.solve(tracing.ENGINE):
            nkshed.solve_interdiction(net, nkshed.AttackerModel.traditional(1))
    assert all(now is then for now, then in zip(_hooked(), before))
    assert tracer.missing == []

    with pytest.raises(RuntimeError):
        with tracing.Tracer():
            raise RuntimeError("solve blew up")
    assert all(now is then for now, then in zip(_hooked(), before))


def test_layer_metrics_self_times_partition_the_solve():
    spans = [tracing.Span(tracing.ENGINE, None, 0.0, 10.0),
             tracing.Span("backend.solve_milp", 0, 1.0, 4.0),
             tracing.Span("backend.highs_milp", 1, 1.5, 3.5, {"nodes": 7}),
             tracing.Span("inner", 0, 5.0, 8.0),
             tracing.Span("backend.solve_lp", 3, 5.5, 7.5),
             tracing.Span("backend.highs_lp", 4, 6.0, 7.0)]
    m = tracing.layer_metrics(spans)
    assert m["engine.master_s"] == 3.0 and m["engine.master_count"] == 1
    assert m["engine.self_s"] == 4.0 and m["inner.self_s"] == 1.0
    assert m["backend.milp_assembly_s"] == 1.0 and m["backend.lp_assembly_s"] == 1.0
    assert m["backend.milp_nodes"] == 7 and m["inner.lp_per_call"] == 1.0
    assert sum(m[k] for k in tracing.SELF_TIMES if k in m) == 10.0
    assert sum(m[k] for k in tracing.CALL_TIMES if k in m) == 10.0


def test_stdout_capture_counts_and_restores_fd1(tmp_path):
    before = os.fstat(1)
    with harness.StdoutCapture(tmp_path / "out.log") as capture:
        os.write(1, b"HighsMipSolverData::noise\nmore\n")
        assert capture.new_lines() == 2
        assert capture.new_lines() == 0
    after = os.fstat(1)
    assert (before.st_dev, before.st_ino) == (after.st_dev, after.st_ino)


def _wrong(w, **change):
    good = workloads.Outcome(w.ref_eta, w.ref_lines, "converged", 5, recheck=w.ref_eta)
    return workloads.check(w, dataclasses.replace(good, **change))


def test_check_rejects_wrong_answers():
    cg = workloads.WORKLOADS["cg-trad-5x5-k2"]
    assert _wrong(cg) is None
    assert _wrong(cg, eta=cg.ref_eta * 0.95) is not None
    assert _wrong(cg, status="iteration_limit") is not None
    assert _wrong(cg, recheck=cg.ref_eta * 0.9) is not None
    assert _wrong(cg, lines=(7,)) is not None
    oracle = workloads.WORKLOADS["oracle-4x4-k3"]
    assert _wrong(oracle, status="exhausted") is None
    assert _wrong(oracle, status="exhausted", lines=(1, 8, 12)) is not None


# Each workload's code path on a fixture network small enough to finish in seconds.
SMOKE = {"cg-trad-5x5-k2": fixtures.mesh8, "cg-topo-4x4-k2-valid": fixtures.ring6,
         "oracle-4x4-k3": fixtures.ring6}


@pytest.mark.parametrize("name", sorted(SMOKE))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_workload_code_path(name, trace):
    net = SMOKE[name]()
    w = workloads.WORKLOADS[name]
    ref = nkshed.solve_exhaustive(net, w.attacker())
    w = dataclasses.replace(w, ref_eta=ref.best_eta, ref_lines=ref.best_attack.sorted_lines())
    geo = "bus_id,lat,lon\n" + "".join(f"{b.id},{b.lat!r},{b.lon!r}\n" for b in net.buses)

    record = harness.measure(w, nkshed.serialize_case(net), geo, seconds=0.0, trace=trace, probes=1)
    result = record["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert list(metrics) == list(tracing.PER_LAYER if trace else harness.END_TO_END)
    if not trace:
        assert all(v > 0 for v in metrics.values())
        return
    assert sum(metrics[k] for k in tracing.SELF_TIMES) == pytest.approx(metrics["trace.solve_s"], rel=0.05)
    if w.oracle:
        assert metrics["engine.master_count"] == 0 and metrics["oracle.evaluated"] == ref.evaluated
    else:
        assert metrics["engine.master_count"] == metrics["backend.milp_count"] > 0
    if w.bounds_mode == "valid":
        assert metrics["bounds.lp_count"] == 2 * len(net.lines)


def test_run_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "oracle-4x4-k3",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and done.stdout == ""


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
