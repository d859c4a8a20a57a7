"""Brute-force ground truth: enumerate every feasible attack and price it.

Only intended for desk-scale instances; the subset count is checked against
an explicit budget before any solving starts. Ties between equally damaging
attacks break toward the lexicographically smallest sorted line-id tuple so
results (and golden files) are stable across runs.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import combinations
from math import comb

from .attackers import SpatialFootprint, is_feasible_attack, spatial_centers
from .engine import NoFeasibleAttackError
from .inner import AttackPlan, solve_inner
from .netmodel import AttackerModel, Network

__all__ = ["OracleResult", "BudgetExceededError", "solve_exhaustive", "write_ranking_csv"]


class BudgetExceededError(RuntimeError):
    """The enumeration would exceed the caller's subset budget."""


@dataclass(frozen=True)
class OracleResult:
    best_attack: AttackPlan
    best_eta: float
    evaluated: int
    ranking: tuple[tuple[tuple[int, ...], float], ...] | None = None


def _subset_count(m: int, model: AttackerModel) -> int:
    if model.variant == "spatial":
        return sum(comb(m, j) for j in range(model.k + 1))
    return comb(m, model.k)


def _candidates(line_ids: tuple[int, ...], model: AttackerModel):
    if model.variant == "spatial":
        for size in range(model.k + 1):
            yield from combinations(line_ids, size)
    else:
        yield from combinations(line_ids, model.k)


def solve_exhaustive(
    net: Network,
    model: AttackerModel,
    footprint: SpatialFootprint | None = None,
    budget: int = 200_000,
    keep_ranking: bool = False,
) -> OracleResult:
    """Evaluate every feasible attack and return the worst one.

    The maximizer with the smallest sorted line-id tuple wins ties. Raises
    :class:`BudgetExceededError` before doing any work if the subset count
    exceeds ``budget``, and :class:`NoFeasibleAttackError` when nothing in
    the enumeration passes the feasibility predicate.
    """
    line_ids = tuple(sorted(net.line_ids()))
    planned = _subset_count(len(line_ids), model)
    if planned > budget:
        raise BudgetExceededError(
            f"{planned} candidate subsets exceed the oracle budget of {budget}")

    best: tuple[float, tuple[int, ...]] | None = None
    best_plan: AttackPlan | None = None
    ranking: list[tuple[tuple[int, ...], float]] = []
    evaluated = 0
    for subset in _candidates(line_ids, model):
        if not is_feasible_attack(net, model, footprint, subset):
            continue
        center = None
        if model.variant == "spatial":
            allowed = spatial_centers(net, footprint, subset)
            center = model.center_bus if model.center_bus is not None else min(allowed)
        plan = AttackPlan(frozenset(subset), center, model)
        eta = solve_inner(net, plan).eta
        evaluated += 1
        key = (eta, tuple(sorted(subset)))
        if keep_ranking:
            ranking.append((key[1], eta))
        if best is None or eta > best[0] or (eta == best[0] and key[1] < best[1]):
            best = key
            best_plan = plan
    if best_plan is None:
        raise NoFeasibleAttackError(
            f"no feasible attack for the {model.variant} budget (k = {model.k})")
    ranked = None
    if keep_ranking:
        ranked = tuple(sorted(ranking, key=lambda r: (-r[1], r[0])))
    return OracleResult(best_plan, best[0], evaluated, ranked)


def write_ranking_csv(result: OracleResult, out) -> None:
    """Dump a ranking as ``rank,lines,eta`` rows; lines are ';'-joined ids."""
    if result.ranking is None:
        raise ValueError("oracle result has no ranking; pass keep_ranking=True")
    own = isinstance(out, (str, bytes))
    fh = open(out, "w", newline="") if own else out
    try:
        writer = csv.writer(fh)
        writer.writerow(["rank", "lines", "eta"])
        for rank, (lines, eta) in enumerate(result.ranking, start=1):
            writer.writerow([rank, ";".join(str(l) for l in lines), repr(eta)])
    finally:
        if own:
            fh.close()
