"""Brute-force ground truth: enumerate every feasible attack and price it.

Only intended for desk-scale instances; the subset count is checked against
an explicit budget before any solving starts. Ties between equally damaging
attacks break toward the lexicographically smallest sorted line-id tuple so
results (and golden files) are stable across runs.

``feasible_attacks`` and ``attack_plan`` are the one enumerator of the
feasible set; the engine's enumerated master walks the same attacks in the
same order.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import combinations
from math import comb

from .attackers import (NoFeasibleAttackError, SpatialFootprint, is_feasible_attack,
                        spatial_centers)
from .inner import AttackPlan, solve_inner
from .netmodel import AttackerModel, Network

__all__ = ["OracleResult", "BudgetExceededError", "DEFAULT_BUDGET", "subset_count",
           "feasible_attacks", "attack_plan", "solve_exhaustive", "write_ranking_csv"]

# Candidate subsets the oracle enumerates unless told otherwise.
DEFAULT_BUDGET = 200_000


class BudgetExceededError(RuntimeError):
    """The enumeration would exceed the caller's subset budget."""


@dataclass(frozen=True)
class OracleResult:
    best_attack: AttackPlan
    best_eta: float
    evaluated: int
    ranking: tuple[tuple[tuple[int, ...], float], ...] | None = None


def subset_count(m: int, model: AttackerModel) -> int:
    """Candidate subsets of m lines the enumeration walks for ``model``."""
    if model.variant == "spatial":
        return sum(comb(m, j) for j in range(model.k + 1))
    return comb(m, model.k)


def _candidates(line_ids: tuple[int, ...], model: AttackerModel):
    if model.variant == "spatial":
        for size in range(model.k + 1):
            yield from combinations(line_ids, size)
    else:
        yield from combinations(line_ids, model.k)


def feasible_attacks(net: Network, model: AttackerModel,
                     footprint: SpatialFootprint | None = None):
    """Yield the sorted line-id tuple of every feasible attack.

    Smaller attacks come first (only the spatial budget mixes sizes), then
    lexicographic order.
    """
    for subset in _candidates(tuple(sorted(net.line_ids())), model):
        if is_feasible_attack(net, model, footprint, subset):
            yield subset


def attack_plan(net: Network, model: AttackerModel, footprint: SpatialFootprint | None,
                subset) -> AttackPlan:
    """The plan of a feasible attack: a spatial one is centred on the pinned
    bus, or else on the smallest bus that can centre all its lines."""
    center = None
    if model.variant == "spatial":
        center = (model.center_bus if model.center_bus is not None
                  else min(spatial_centers(net, footprint, subset)))
    return AttackPlan(frozenset(subset), center, model)


def solve_exhaustive(
    net: Network,
    model: AttackerModel,
    footprint: SpatialFootprint | None = None,
    budget: int = DEFAULT_BUDGET,
    keep_ranking: bool = False,
) -> OracleResult:
    """Evaluate every feasible attack and return the worst one.

    The maximizer with the smallest sorted line-id tuple wins ties. Raises
    :class:`BudgetExceededError` before doing any work if the subset count
    exceeds ``budget``, and :class:`NoFeasibleAttackError` when nothing in
    the enumeration passes the feasibility predicate.
    """
    planned = subset_count(len(net.lines), model)
    if planned > budget:
        raise BudgetExceededError(
            f"{planned} candidate subsets exceed the oracle budget of {budget}")

    best: tuple[float, tuple[int, ...]] | None = None
    best_plan: AttackPlan | None = None
    ranking: list[tuple[tuple[int, ...], float]] = []
    evaluated = 0
    for subset in feasible_attacks(net, model, footprint):
        plan = attack_plan(net, model, footprint, subset)
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
