"""Reports, sweeps, certification, GeoJSON overlays, and the CLI surface."""

import json
from dataclasses import replace

import pytest

from nkshed import fixtures as fx
from nkshed.attackers import is_feasible_attack
from nkshed.cli import main
from nkshed.engine import SolveConfig
from nkshed.netmodel import AttackerModel, Network, serialize_case
from nkshed.runner import (build_geojson, certify, parse_range, report_json, solve_to_report,
                           sweep, write_sweep_csv)


def test_report_fields_and_gap_discipline(triangle):
    report = solve_to_report(triangle, AttackerModel.traditional(2))
    assert report.schema == 2
    assert report.bound_certified is True
    assert report.model == "traditional" and report.k == 2
    assert report.eta_star == pytest.approx(2.0, abs=1e-6)
    assert report.status == "converged"
    assert report.rel_gap_pct <= 100 * 0.01 + 1e-9
    assert is_feasible_attack(triangle, AttackerModel.traditional(2),
                              report.interdicted_lines)
    assert sum(report.per_bus_shed.values()) == pytest.approx(report.eta_star, abs=1e-6)
    assert report.wall_time_s >= 0.0
    assert report.total_load == pytest.approx(2.0)


def test_report_json_stable_across_runs(mesh8):
    reports = []
    for _ in range(2):
        r = solve_to_report(mesh8, AttackerModel.traditional(2))
        d = json.loads(report_json(r))
        d.pop("wall_time_s")
        reports.append(json.dumps(d, sort_keys=True))
    assert reports[0] == reports[1]


def test_geojson_overlay(mesh8):
    report = solve_to_report(mesh8, AttackerModel.traditional(2))
    geo = build_geojson(mesh8, report)
    assert geo["type"] == "FeatureCollection"
    points = [f for f in geo["features"] if f["geometry"]["type"] == "Point"]
    strings = [f for f in geo["features"] if f["geometry"]["type"] == "LineString"]
    assert len(points) == len(mesh8.buses)
    assert len(strings) == len(mesh8.lines)
    assert sum(p["properties"]["shed_pct"] for p in points) == pytest.approx(100.0, abs=1e-6)
    flagged = {f["properties"]["line_id"] for f in strings if f["properties"]["interdicted"]}
    assert flagged == set(report.interdicted_lines)
    lons = [p["geometry"]["coordinates"][0] for p in points]
    assert all(-180 <= lon <= 180 for lon in lons)


def test_geojson_overlay_skips_a_bus_without_a_location(mesh8):
    # Bus 1 unplaced: no point for it and no line string for its lines.
    report = solve_to_report(mesh8, AttackerModel.traditional(1))
    buses = [replace(b, lat=None, lon=None) if b.id == 1 else b for b in mesh8.buses]
    geo = build_geojson(Network(buses, mesh8.lines), report)
    points = {f["properties"]["bus_id"] for f in geo["features"]
              if f["geometry"]["type"] == "Point"}
    strings = {f["properties"]["line_id"] for f in geo["features"]
               if f["geometry"]["type"] == "LineString"}
    assert points == {b.id for b in mesh8.buses} - {1}
    assert strings == {l.id for l in mesh8.lines if 1 not in (l.from_bus, l.to_bus)}


def test_sweep_grid_and_monotonicity(mesh8):
    rows = sweep(mesh8, "spatial", [2], [60.0, 90.0, 150.0, 400.0],
                 SolveConfig(epsilon=1e-6))
    assert len(rows) == 4
    etas = [r["eta_star"] for r in rows]
    assert all(b >= a - 1e-6 for a, b in zip(etas, etas[1:]))
    assert all(r["status"] in ("converged", "exhausted") for r in rows)


def test_single_point_sweep_equals_run(triangle):
    config = SolveConfig()
    row = sweep(triangle, "traditional", [2], None, config)[0]
    run = solve_to_report(triangle, AttackerModel.traditional(2), config)
    assert row["eta_star"] == pytest.approx(run.eta_star, abs=1e-9)
    assert row["interdicted_lines"] == ";".join(str(l) for l in run.interdicted_lines)


def test_threaded_sweep_matches_serial_sweep(mesh8):
    # Each worker thread keeps its own load-shed model of the network.
    keys = ("status", "eta_star", "interdicted_lines", "iterations")
    serial = sweep(mesh8, "traditional", [1, 2, 3], jobs=1)
    threaded = sweep(mesh8, "traditional", [1, 2, 3], jobs=3)
    assert [[r[k] for k in keys] for r in threaded] == [[r[k] for k in keys] for r in serial]
    assert all(r["error"] == "" for r in serial)


def test_empty_sweep_grid(triangle):
    with pytest.raises(ValueError, match="empty sweep grid"):
        sweep(triangle, "traditional", [], None)


def test_sweep_records_cell_failures(two_bus):
    rows = sweep(two_bus, "traditional", [1, 5], None)
    assert rows[0]["status"] in ("converged", "exhausted")
    assert rows[1]["status"] == "error"
    assert "exceeds" in rows[1]["error"] or "no feasible" in rows[1]["error"]


def test_sweep_csv_writer(tmp_path, triangle):
    rows = sweep(triangle, "traditional", [1, 2], None)
    out = tmp_path / "sweep.csv"
    write_sweep_csv(rows, str(out))
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("schema,model,k,D_km,eta_star")
    assert "bound_certified" in lines[0].split(",")
    assert len(lines) == 3


def test_sweep_csv_writer_takes_a_path(tmp_path, triangle):
    rows = sweep(triangle, "traditional", [1, 2], None)
    write_sweep_csv(rows, tmp_path / "path.csv")
    write_sweep_csv(rows, str(tmp_path / "str.csv"))
    assert (tmp_path / "path.csv").read_text() == (tmp_path / "str.csv").read_text()


def test_certify_agreement_matrix(triangle):
    d = fx.SPATIAL_D["triangle"]
    for variant in ("traditional", "spatial", "topological"):
        for k in (1, 2):
            model = (AttackerModel.spatial(k, d) if variant == "spatial"
                     else AttackerModel(variant, k))
            outcome = certify(triangle, model)
            assert outcome["agree"], outcome


def test_certify_loose_epsilon_never_breaks_feasibility(mesh8):
    outcome = certify(mesh8, AttackerModel.traditional(2), SolveConfig(epsilon=0.5))
    assert outcome["plan_feasible"]
    assert outcome["agree"]
    assert outcome["rel_diff"] <= 0.5 + 1e-9


def test_certify_k_exceeding_lines_agrees_on_infeasibility(two_bus):
    # Two lines out of one: engine and oracle both find no attack.
    for model in (AttackerModel.traditional(2), AttackerModel.topological(2)):
        outcome = certify(two_bus, model)
        assert outcome["agree"] is True, outcome
        assert "exceeds" in outcome["engine_error"]
        assert "no feasible attack" in outcome["oracle_error"]


def test_certify_spatially_infeasible_budget_agrees(mesh8, tmp_path):
    # No bus lies within D/2 of any line's midpoint: both sides refuse the budget.
    outcome = certify(mesh8, AttackerModel.spatial(2, 1e-6))
    assert outcome["agree"] is True, outcome
    assert "spatially infeasible" in outcome["engine_error"]
    assert "spatially infeasible" in outcome["oracle_error"]
    case, geo = _write_inputs(tmp_path, mesh8)
    assert main(["certify", "--case", case, "--geo", geo, "--model", "spatial",
                 "--k", "2", "--D", "1e-6"]) == 0


def test_certify_budget(mesh8):
    from nkshed.oracle import BudgetExceededError
    with pytest.raises(BudgetExceededError):
        certify(mesh8, AttackerModel.traditional(3), budget=10)


# -- command line ------------------------------------------------------------------


def _write_inputs(tmp_path, net):
    case = tmp_path / "case.m"
    geo = tmp_path / "geo.csv"
    fx.write_case(net, case)
    fx.write_geo(net, geo)
    return str(case), str(geo)


def test_cli_run_two_bus(tmp_path, capsys):
    case, geo = _write_inputs(tmp_path, fx.two_bus())
    out_dir = tmp_path / "out"
    code = main(["run", "--case", case, "--geo", geo, "--model", "traditional",
                 "--k", "1", "--out", str(out_dir)])
    assert code == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["eta_star"] == pytest.approx(1.0, abs=1e-6)
    assert report["interdicted_lines"] == [1]
    assert report["schema"] == 2
    assert report["bound_certified"] is True
    overlay = json.loads((out_dir / "overlay.geojson").read_text())
    assert overlay["type"] == "FeatureCollection"
    assert "eta_star=1" in capsys.readouterr().out


def test_cli_run_spatial_requires_d(tmp_path):
    case, geo = _write_inputs(tmp_path, fx.two_bus())
    assert main(["run", "--case", case, "--geo", geo, "--model", "spatial", "--k", "1",
                 "--out", str(tmp_path / "o")]) == 3
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [
    ["run", "--model", "traditional", "--k", "2", "--D", "50"],
    ["run", "--model", "traditional", "--k", "2", "--center", "3"],
    ["run", "--model", "topological", "--k", "2", "--D", "50", "--center", "3"],
    ["certify", "--model", "topological", "--k", "2", "--D", "50"],
    ["sweep", "--model", "traditional", "--k-range", "1:2", "--D-range", "10:20:10"],
    ["sweep", "--model", "spatial", "--k-range", "1:2"],
    ["sweep", "--model", "traditional", "--k-range", "1.5:2.5"],
    ["sweep", "--model", "traditional", "--k-range", "1:2:1:7"],
], ids=["run-D", "run-center", "run-D-center", "certify-D", "sweep-D-range",
        "sweep-spatial-no-D-range", "sweep-fractional-k", "sweep-fourth-range-field"])
def test_cli_rejects_options_the_model_ignores(tmp_path, capsys, argv):
    # Each of these solved the budget without the option before (or with a
    # truncated k range); now it is an input error, and nothing is solved or
    # written.
    case, geo = _write_inputs(tmp_path, fx.triangle())
    out = tmp_path / "out"
    assert main(argv + ["--case", case, "--geo", geo, "--out", str(out)]) == 3
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("variant,d_values,match", [
    ("traditional", [10.0, 20.0], "only apply to the spatial"),
    ("topological", [50.0], "only apply to the spatial"),
    ("spatial", None, "requires D_values"),
    ("spatial", [], "requires D_values"),
])
def test_sweep_rejects_d_values_mismatch_up_front(monkeypatch, triangle, variant, d_values,
                                                   match):
    import nkshed.runner as runner

    def no_solve(*args, **kwargs):
        raise AssertionError("a cell was solved")

    monkeypatch.setattr(runner, "solve_to_report", no_solve)
    with pytest.raises(ValueError, match=match):
        sweep(triangle, variant, [1, 2], d_values)


@pytest.mark.parametrize("k_values", [[1.5], [1, 2.5], (k / 2 for k in (2, 3))],
                         ids=["fractional", "one-fractional", "generator"])
def test_sweep_rejects_a_k_it_would_truncate(monkeypatch, triangle, k_values):
    import nkshed.runner as runner

    def no_solve(*args, **kwargs):
        raise AssertionError("a cell was solved")

    monkeypatch.setattr(runner, "solve_to_report", no_solve)
    with pytest.raises(ValueError, match="integers"):
        sweep(triangle, "traditional", k_values)


@pytest.mark.parametrize("jobs", [0, -3, True, 2.5])
def test_sweep_rejects_a_job_count_that_is_not_an_integer_from_one(monkeypatch, mesh8, jobs):
    import nkshed.runner as runner

    def no_solve(*args, **kwargs):
        raise AssertionError("a cell was solved")

    monkeypatch.setattr(runner, "solve_to_report", no_solve)
    with pytest.raises(ValueError, match="jobs must be an integer >= 1"):
        sweep(mesh8, "traditional", [1, 2], jobs=jobs)


def test_cli_sweep_rejects_a_job_count_below_one(tmp_path, capsys):
    case, geo = _write_inputs(tmp_path, fx.mesh8())
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--case", case, "--geo", geo, "--model", "traditional",
                 "--k-range", "1:2", "--jobs", "-3", "--out", str(out)])
    assert code == 3 and not out.exists()
    assert "jobs must be an integer >= 1, got -3" in capsys.readouterr().err


def test_parse_range_rejects_a_fourth_field():
    assert parse_range("1:7:2") == [1.0, 3.0, 5.0, 7.0]
    with pytest.raises(ValueError, match="three"):
        parse_range("1:2:1:7")


def test_parse_range_reads_a_comma_list_and_rejects_a_non_positive_step():
    assert parse_range(" 2,4,6 ") == [2.0, 4.0, 6.0]
    assert parse_range("2,,4,") == [2.0, 4.0]
    for step in ("0", "-1"):
        with pytest.raises(ValueError, match="step must be > 0"):
            parse_range(f"1:3:{step}")


def test_parse_range_rejects_a_field_that_is_not_finite():
    # A nan step gave [1.0], and an inf upper end never ended the range.
    for spec in ("1:3:nan", "1:inf", "nan:3", "-inf:3", "2,nan", "inf"):
        with pytest.raises(ValueError, match="not a finite number"):
            parse_range(spec)


def test_cli_has_no_distance_option(tmp_path):
    case, geo = _write_inputs(tmp_path, fx.triangle())
    with pytest.raises(SystemExit) as exit_:
        main(["run", "--case", case, "--geo", geo, "--model", "traditional", "--k", "1",
              "--distance", "planar", "--out", str(tmp_path / "o")])
    assert exit_.value.code == 2


def test_cli_run_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.m"
    bad.write_text("function mpc = broken\nmpc.bus = [\n1 3 zzz;\n];\n")
    code = main(["run", "--case", str(bad), "--model", "traditional", "--k", "1"])
    assert code == 3


def test_cli_run_non_finite_id_exit_code(tmp_path, capsys):
    # An inf bus id raised OverflowError, and the run ended with a traceback.
    bad = tmp_path / "bad.m"
    bad.write_text(serialize_case(fx.two_bus()).replace("\t1\t1\t", "\tinf\t1\t", 1))
    code = main(["run", "--case", str(bad), "--model", "traditional", "--k", "1"])
    assert code == 3
    assert "bus field 1 must be finite, got inf" in capsys.readouterr().err


def test_cli_run_spatially_infeasible_exit_code(tmp_path):
    case, geo = _write_inputs(tmp_path, fx.mesh8())
    code = main(["run", "--case", case, "--geo", geo, "--model", "spatial",
                 "--k", "2", "--D", "0.001", "--out", str(tmp_path / "o")])
    assert code == 4


def test_cli_run_k_exceeding_lines_exit_code(tmp_path):
    case, geo = _write_inputs(tmp_path, fx.two_bus())
    code = main(["run", "--case", case, "--geo", geo, "--model", "traditional",
                 "--k", "2", "--out", str(tmp_path / "o")])
    assert code == 4


def test_cli_run_iteration_limit_exit_code(tmp_path):
    case, geo = _write_inputs(tmp_path, fx.mesh8())
    out_dir = tmp_path / "out"
    code = main(["run", "--case", case, "--geo", geo, "--model", "traditional",
                 "--k", "2", "--max-iters", "1", "--bounds", "valid",
                 "--eps", "0.000001", "--out", str(out_dir)])
    assert code == 5
    assert (out_dir / "report.json").exists()


def test_cli_sweep(tmp_path):
    case, geo = _write_inputs(tmp_path, fx.triangle())
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--case", case, "--geo", geo, "--model", "spatial",
                 "--k-range", "1:2", "--D-range", "60:120:60", "--out", str(out)])
    assert code == 0
    assert len(out.read_text().strip().splitlines()) == 1 + 4


def test_cli_certify(tmp_path, capsys):
    case, geo = _write_inputs(tmp_path, fx.triangle())
    out = tmp_path / "cert.json"
    code = main(["certify", "--case", case, "--geo", geo, "--model", "topological",
                 "--k", "2", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["agree"] is True
    assert payload["evaluated"] == 3


def test_cli_certify_budget_exit(tmp_path):
    case, geo = _write_inputs(tmp_path, fx.mesh8())
    code = main(["certify", "--case", case, "--geo", geo, "--model", "traditional",
                 "--k", "3", "--budget", "10"])
    assert code == 6


def test_cli_missing_case_exit(tmp_path):
    code = main(["run", "--case", str(tmp_path / "nope.m"), "--model", "traditional",
                 "--k", "1"])
    assert code == 3


@pytest.mark.parametrize("which", ["case", "geo", "out"])
def test_cli_path_it_cannot_open_exit(tmp_path, capsys, which):
    # A directory given as the case raised IsADirectoryError with a
    # traceback; every path that cannot be read or written is an input error.
    case, geo = _write_inputs(tmp_path, fx.two_bus())
    paths = {"case": case, "geo": geo, "out": str(tmp_path / "out")}
    if which == "out":
        (tmp_path / "out").write_text("")
    else:
        paths[which] = str(tmp_path)
    code = main(["run", "--case", paths["case"], "--geo", paths["geo"], "--model",
                 "traditional", "--k", "1", "--out", paths["out"]])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
