"""Worst-case N-k transmission line outages under constrained attacker budgets.

The package solves the bilevel problem "which k lines, removed together,
force the most load shed" on a DC power-flow model, for three attacker
budgets (any k lines; k lines inside a geographic disk; k lines forming a
connected subgraph), using a cutting-plane loop whose master is an
enumeration with feasible-response bounds up to a subset budget and a MILP
past it, whose cuts price every line at one penalty rate, cross-checked
against a brute-force oracle at desk scale.
"""

from .attackers import (SpatiallyInfeasibleError, compute_phi, encode_feasible_set,
                        haversine_km, is_feasible_attack)
from .backend import BackendError
from .engine import (MasterState, NoFeasibleAttackError, SolveConfig, gap,
                     solve_interdiction)
from .inner import AttackPlan, InnerSolution, solve_inner
from .netmodel import (AttackerModel, Bus, CaseFormatError, GeoFormatError, Line,
                       Network, parse_case, parse_geo, serialize_case, total_load)
from .oracle import BudgetExceededError, OracleResult, solve_exhaustive, write_ranking_csv
from .runner import (RunReport, build_geojson, certify, report_json, solve_to_report,
                     sweep, write_sweep_csv)

__version__ = "0.1.0"

__all__ = [
    "AttackPlan", "AttackerModel", "BackendError", "BudgetExceededError", "Bus",
    "CaseFormatError", "GeoFormatError", "InnerSolution", "Line",
    "MasterState", "Network", "NoFeasibleAttackError", "OracleResult", "RunReport",
    "SolveConfig", "SpatiallyInfeasibleError",
    "build_geojson", "certify", "compute_phi", "encode_feasible_set",
    "gap", "haversine_km", "is_feasible_attack", "parse_case",
    "parse_geo", "report_json", "serialize_case", "solve_exhaustive",
    "solve_inner", "solve_interdiction", "solve_to_report",
    "sweep", "total_load", "write_ranking_csv", "write_sweep_csv",
]
