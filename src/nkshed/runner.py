"""Batch entry points: single runs, parameter sweeps, oracle certification.

These functions are the library face of the command line: they take parsed
networks and return plain dictionaries / dataclasses, and the writers turn
those into JSON reports, sweep CSVs, and GeoJSON map overlays. Reports are
schema-versioned and, timing aside, byte-stable for identical inputs.
"""

from __future__ import annotations

import csv
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

from .attackers import SpatiallyInfeasibleError, is_feasible_attack
from .engine import NoFeasibleAttackError, SolveConfig, solve_interdiction
from .netmodel import AttackerModel, Network, total_load
from .oracle import DEFAULT_BUDGET, solve_exhaustive

__all__ = ["RunReport", "solve_to_report", "sweep", "certify", "parse_range",
           "report_json", "build_geojson", "write_sweep_csv"]

SCHEMA_VERSION = 2


@dataclass
class RunReport:
    """Machine-readable outcome of one interdiction solve.

    ``bound_certified`` says whether the gap is a proof (see
    ``MasterState.bound_certified``); it was added in schema 2.
    """

    model: str
    k: int
    eta_star: float
    wall_time_s: float
    iterations: int
    rel_gap_pct: float
    status: str
    interdicted_lines: list[int]
    per_bus_shed: dict[int, float]
    history: list[dict]
    bounds_mode: str
    eps: float
    total_load: float
    bound_certified: bool
    D_km: float | None = None
    center_bus: int | None = None
    schema: int = SCHEMA_VERSION


def solve_to_report(net: Network, model: AttackerModel,
                    config: SolveConfig | None = None) -> RunReport:
    """Run the constraint-generation solver and package the outcome."""
    config = config or SolveConfig()
    start = time.perf_counter()
    plan, eta_star, state = solve_interdiction(net, model, config)
    elapsed = time.perf_counter() - start
    inner = state.incumbent_inner
    shed = {bus: round(frac * net.buses[net.bus_pos[bus]].demand, 12)
            for bus, frac in inner.shed.items()}
    gap_pct = max(0.0, 100.0 * (state.eta_up - state.eta_star)
                  / max(state.eta_star, config.abs_floor))
    return RunReport(
        model=model.variant,
        k=model.k,
        D_km=model.D_km,
        eta_star=eta_star,
        wall_time_s=elapsed,
        iterations=state.iterations,
        rel_gap_pct=gap_pct,
        status=state.status,
        interdicted_lines=sorted(plan.lines),
        center_bus=plan.center_bus,
        per_bus_shed=shed,
        history=state.history,
        bounds_mode=config.bounds_mode,
        eps=config.epsilon,
        total_load=total_load(net),
        bound_certified=state.bound_certified,
    )


def report_json(report: RunReport) -> str:
    return json.dumps(asdict(report), indent=2, sort_keys=True) + "\n"


def parse_range(spec: str) -> list[float]:
    """Range syntax: 'a:b[:step]' inclusive, or a comma list 'a,b,c'."""
    spec = spec.strip()
    if ":" in spec:
        parts = [float(p) for p in spec.split(":")]
        if len(parts) > 3:
            raise ValueError(f"range {spec!r} has more than three ':' fields")
        lo, hi = parts[0], parts[1]
        step = parts[2] if len(parts) > 2 else 1.0
        if step <= 0:
            raise ValueError(f"range step must be > 0 in {spec!r}")
        vals = []
        v = lo
        while v <= hi + 1e-9:
            vals.append(round(v, 9))
            v += step
        return vals
    return [float(p) for p in spec.split(",") if p.strip()]


def sweep(net: Network, variant: str, k_values, D_values=None,
          config: SolveConfig | None = None, jobs: int = 1) -> list[dict]:
    """One report row per (k, D) grid point; failures are recorded in-row.

    The spatial budget needs ``D_values`` and the other budgets take none
    (a single implicit D of None); either mistake, or a k that is not an
    integer, raises ``ValueError`` before any solve. The grid must be
    nonempty.
    """
    config = config or SolveConfig()
    d_list = [] if D_values is None else [float(d) for d in D_values]
    if variant == "spatial" and not d_list:
        raise ValueError("the spatial budget requires D_values")
    if variant != "spatial" and d_list:
        raise ValueError(f"D_values only apply to the spatial budget, not {variant!r}")
    k_values = list(k_values)
    k_list = [int(k) for k in k_values]
    if k_list != k_values:
        raise ValueError(f"k values must be integers, got {k_values}")
    grid = [(k, d) for k in k_list for d in d_list or [None]]
    if not grid:
        raise ValueError("empty sweep grid")

    def run_cell(cell):
        k, d = cell
        try:
            report = solve_to_report(net, AttackerModel(variant, k, d), config)
            row = asdict(report)
            row["interdicted_lines"] = ";".join(str(l) for l in report.interdicted_lines)
            row.pop("per_bus_shed")
            row.pop("history")
            row["error"] = ""
            return row
        except Exception as err:  # per-cell isolation: the sweep continues
            return {"schema": SCHEMA_VERSION, "model": variant, "k": k, "D_km": d,
                    "status": "error", "error": str(err)}

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(run_cell, grid))
    return [run_cell(c) for c in grid]


SWEEP_COLUMNS = ["schema", "model", "k", "D_km", "eta_star", "iterations",
                 "rel_gap_pct", "status", "bound_certified", "wall_time_s",
                 "interdicted_lines", "center_bus", "bounds_mode", "eps", "total_load",
                 "error"]


def write_sweep_csv(rows: list[dict], out) -> None:
    own = isinstance(out, (str, bytes))
    fh = open(out, "w", newline="") if own else out
    try:
        writer = csv.DictWriter(fh, fieldnames=SWEEP_COLUMNS, extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    finally:
        if own:
            fh.close()


def certify(net: Network, model: AttackerModel, config: SolveConfig | None = None,
            budget: int = DEFAULT_BUDGET) -> dict:
    """Run solver and brute-force oracle, and report whether they agree.

    Agreement means the solver's exact shed is within its epsilon (relative,
    floored) of the enumerated optimum and its plan is feasible. A run that
    honestly reports a wide gap (e.g. a loose epsilon) still agrees as long
    as the bound discipline held. A budget with no feasible attack, or a
    spatially infeasible one, agrees when both sides report it.
    """
    config = config or SolveConfig()
    engine_error = oracle_error = None
    plan = state = result = None
    try:
        plan, eta_star, state = solve_interdiction(net, model, config)
    except (NoFeasibleAttackError, SpatiallyInfeasibleError) as err:
        engine_error = str(err)
    try:
        result = solve_exhaustive(net, model, budget=budget)
    except (NoFeasibleAttackError, SpatiallyInfeasibleError) as err:
        oracle_error = str(err)

    if engine_error or oracle_error:
        agree = bool(engine_error) == bool(oracle_error)
        return {"schema": SCHEMA_VERSION, "model": model.variant, "k": model.k,
                "agree": agree, "engine_error": engine_error, "oracle_error": oracle_error}

    tol = config.epsilon * max(eta_star, config.abs_floor) + 1e-9
    feasible = is_feasible_attack(net, model, plan.lines)
    agree = feasible and (result.best_eta - eta_star) <= tol
    return {
        "schema": SCHEMA_VERSION,
        "model": model.variant,
        "k": model.k,
        "D_km": model.D_km,
        "engine_eta": eta_star,
        "oracle_eta": result.best_eta,
        "engine_lines": sorted(plan.lines),
        "oracle_lines": sorted(result.best_attack.lines),
        "engine_status": state.status,
        "evaluated": result.evaluated,
        "plan_feasible": feasible,
        "rel_diff": abs(result.best_eta - eta_star) / max(result.best_eta, config.abs_floor),
        "agree": bool(agree),
    }


def build_geojson(net: Network, report: RunReport) -> dict:
    """Map overlay: one point per geolocated bus, one line string per line.

    Bus points carry their share of the total shed (percent) so a renderer
    can size markers; line strings carry an ``interdicted`` flag.
    """
    shed_total = sum(report.per_bus_shed.values())
    attacked = set(report.interdicted_lines)
    features = []
    for b in net.buses:
        if not b.has_geo:
            continue
        shed_pu = report.per_bus_shed.get(b.id, 0.0)
        pct = 100.0 * shed_pu / shed_total if shed_total > 0 else 0.0
        features.append({
            "type": "Feature",
            "geometry": {"type": "Point", "coordinates": [b.lon, b.lat]},
            "properties": {
                "bus_id": b.id,
                "demand_pu": b.demand,
                "shed_pu": round(shed_pu, 12),
                "shed_pct": round(pct, 9),
                "is_center": b.id == report.center_bus,
            },
        })
    geo = {b.id: (b.lon, b.lat) for b in net.buses if b.has_geo}
    for line in net.lines:
        if line.from_bus in geo and line.to_bus in geo:
            features.append({
                "type": "Feature",
                "geometry": {"type": "LineString",
                             "coordinates": [list(geo[line.from_bus]), list(geo[line.to_bus])]},
                "properties": {
                    "line_id": line.id,
                    "from_bus": line.from_bus,
                    "to_bus": line.to_bus,
                    "interdicted": line.id in attacked,
                },
            })
    return {"type": "FeatureCollection", "features": features}
