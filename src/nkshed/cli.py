"""Command line front end: run, sweep, and certify subcommands."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .attackers import SpatiallyInfeasibleError
from .engine import ITERATION_LIMIT, NoFeasibleAttackError, SolveConfig
from .netmodel import AttackerModel, CaseFormatError, GeoFormatError, parse_case, parse_geo
from .oracle import BudgetExceededError
from .runner import (build_geojson, certify, parse_range, report_json,
                     solve_to_report, sweep, write_sweep_csv)

EXIT_OK = 0
EXIT_INPUT = 3
EXIT_INFEASIBLE = 4
EXIT_NOT_CONVERGED = 5
EXIT_BUDGET = 6
EXIT_DISAGREE = 7


def _add_common(p: argparse.ArgumentParser, with_k: bool = True) -> None:
    p.add_argument("--case", required=True, help="MATPOWER-subset .m case file")
    p.add_argument("--geo", help="bus_id,lat,lon CSV of bus locations")
    p.add_argument("--model", required=True,
                   choices=["traditional", "spatial", "topological"])
    if with_k:
        p.add_argument("--k", type=int, required=True, help="number of lines to remove")
        p.add_argument("--D", type=float, help="spatial disk diameter in km")
    p.add_argument("--eps", type=float, default=0.01, help="relative optimality tolerance")
    p.add_argument("--bounds", choices=["heuristic", "valid"], default="heuristic")
    p.add_argument("--max-iters", type=int, default=10000)
    p.add_argument("--distance", choices=["haversine", "planar"], default="haversine")


def _load_network(args):
    case_path = Path(args.case)
    net = parse_case(case_path.read_text())
    if args.geo:
        net = parse_geo(Path(args.geo).read_text(), net)
    return net


def _build_model(args) -> AttackerModel:
    if args.model == "spatial":
        if args.D is None:
            raise SystemExit("--model spatial requires --D")
        center = getattr(args, "center", None)
        return AttackerModel.spatial(args.k, args.D, center)
    return AttackerModel(args.model, args.k)


def _config(args) -> SolveConfig:
    return SolveConfig(epsilon=args.eps, max_iters=args.max_iters,
                       bounds_mode=args.bounds, distance_mode=args.distance)


def _cmd_run(args) -> int:
    net = _load_network(args)
    model = _build_model(args)
    report = solve_to_report(net, model, _config(args))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(report_json(report))
    if any(b.has_geo for b in net.buses):
        overlay = build_geojson(net, report)
        (out_dir / "overlay.geojson").write_text(json.dumps(overlay, indent=2) + "\n")
    print(f"{model.variant} k={model.k}: eta_star={report.eta_star:.6g} p.u., "
          f"{report.iterations} iterations, gap {report.rel_gap_pct:.2f}%, "
          f"lines {report.interdicted_lines} -> {out_dir / 'report.json'}")
    return EXIT_NOT_CONVERGED if report.status == ITERATION_LIMIT else EXIT_OK


def _cmd_sweep(args) -> int:
    net = _load_network(args)
    k_values = [int(v) for v in parse_range(args.k_range)]
    d_values = parse_range(args.D_range) if args.D_range else None
    if args.model == "spatial" and not d_values:
        raise SystemExit("--model spatial requires --D-range")
    rows = sweep(net, args.model, k_values, d_values, _config(args), jobs=args.jobs)
    write_sweep_csv(rows, args.out)
    failures = sum(1 for r in rows if r.get("status") == "error")
    print(f"swept {len(rows)} cells ({failures} failed) -> {args.out}")
    return EXIT_OK


def _cmd_certify(args) -> int:
    net = _load_network(args)
    model = _build_model(args)
    outcome = certify(net, model, _config(args), budget=args.budget)
    text = json.dumps(outcome, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return EXIT_OK if outcome["agree"] else EXIT_DISAGREE


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nkshed",
        description="Worst-case N-k line outage planning on DC transmission models.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="solve one interdiction instance")
    _add_common(p_run)
    p_run.add_argument("--center", type=int, help="pin the spatial center bus")
    p_run.add_argument("--out", default=".", help="directory for report.json / overlay.geojson")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="grid of solves over k and/or D")
    _add_common(p_sweep, with_k=False)
    p_sweep.add_argument("--k-range", required=True, help="e.g. 2:6 or 2,4,6")
    p_sweep.add_argument("--D-range", help="e.g. 100:1000:100 (spatial only)")
    p_sweep.add_argument("--jobs", type=int, default=1)
    p_sweep.add_argument("--out", required=True, help="CSV output path")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_cert = sub.add_parser("certify", help="cross-check the solver against enumeration")
    _add_common(p_cert)
    p_cert.add_argument("--budget", type=int, default=200_000,
                        help="max subsets the oracle may enumerate")
    p_cert.add_argument("--out", help="write the certification JSON here too")
    p_cert.set_defaults(func=_cmd_certify)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NoFeasibleAttackError, SpatiallyInfeasibleError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except BudgetExceededError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_BUDGET
    except FileNotFoundError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except (CaseFormatError, GeoFormatError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
