"""Brute-force ground truth: enumerate every feasible attack and price it.

Only intended for desk-scale instances; the subset count is checked against
an explicit budget before any solving starts. ``feasible_attacks`` defines
the feasible set, and ``attack_table`` lists it as line positions, one
int32 array per attack size: the one form of the set that the oracle prices
and the engine's enumerated master walks, row for row in the same order.
The oracle prices the table in chunks of consecutive rows by ``exact_etas``:
an attack that a zero-shed dispatch of the network's probe table (see
:mod:`nkshed.inner`) serves within every rating, once rerouted around it,
gets eta 0.0 with no LP; every other attack gets ``exact_eta``'s LP, with
removed lines dropped by column bounds, solved from the intact network's
optimal basis. Either way an eta depends on its attack alone, not on the
chunk or the thread. Once every attack is priced, etas within ``_TIE``
(relative, at least absolute) of the worst tie, and ties break toward the
lexicographically smallest sorted line-id tuple, so results (and golden
files) are stable across runs and LP vertices; the engine proposes by the
same rule, ``tie_floor``. The winner is re-solved by ``solve_inner``,
the same LP solved cold for its whole optimum, as the engine prices, for
the reported eta.
"""

from __future__ import annotations

import csv
import os
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import chain, combinations
from math import ceil, comb

import numpy as np

from .attackers import NoFeasibleAttackError, check_budget, is_feasible_attack, spatial_centers
from .inner import AttackPlan, exact_etas, solve_inner
from .netmodel import AttackerModel, Network

__all__ = ["OracleResult", "BudgetExceededError", "DEFAULT_BUDGET", "subset_count",
           "feasible_attacks", "attack_table", "attack_plan", "solve_exhaustive",
           "tie_floor", "write_ranking_csv"]

# Candidate subsets the oracle enumerates unless told otherwise.
DEFAULT_BUDGET = 200_000
# Consecutive table rows one exact_etas call prices, at least. Neighbours in the
# enumeration share most lines, so each thread's kept LP changes few bounds.
_CHUNK = 64
# Etas within _TIE * max(1, |worst|) of the worst tie: a tie, not LP rounding,
# decides between co-optimal attacks.
_TIE = 1e-9


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
    return sum(comb(m, j) for j in model.sizes[:m + 1])


def feasible_attacks(net: Network, model: AttackerModel):
    """Yield the sorted line-id tuple of every feasible attack.

    Smaller attacks come first (only the spatial budget mixes sizes), then
    lexicographic order. Sizes above the line count are not walked.
    """
    line_ids = tuple(sorted(net.line_ids()))
    sizes = model.sizes[:len(line_ids) + 1]
    for subset in chain.from_iterable(combinations(line_ids, j) for j in sizes):
        if is_feasible_attack(net, model, subset):
            yield subset


def attack_table(net: Network, model: AttackerModel) -> list[np.ndarray]:
    """The feasible attacks as line positions, one int32 array per attack size.

    Row by row the arrays, taken in turn, follow ``feasible_attacks``: sizes
    ascend, each array's rows follow their sorted line-id tuples, and a row
    holds the positions of those ids in turn. A size with no feasible
    attack has no array. Raises :class:`NoFeasibleAttackError` when no size
    has one.
    """
    count = Counter()   # rows by size, in the walk's ascending order

    def positions():
        for subset in feasible_attacks(net, model):
            count[len(subset)] += 1
            yield from map(net.line_pos.__getitem__, subset)

    flat = np.fromiter(positions(), np.int32)
    if not count:
        raise NoFeasibleAttackError(
            f"no feasible attack for the {model.variant} budget (k = {model.k})")
    ends = np.cumsum([size * rows for size, rows in count.items()])
    return [flat[end - size * rows:end].reshape(rows, size)
            for (size, rows), end in zip(count.items(), ends)]


def attack_plan(net: Network, model: AttackerModel, subset) -> AttackPlan:
    """The plan of a feasible attack: a spatial one is centred on the pinned
    bus, or else on the smallest bus that can centre all its lines. Raises
    ``ValueError`` for a size ``model`` does not admit."""
    lines = frozenset(map(int, subset))
    if len(lines) not in model.sizes:
        raise ValueError(f"{model.variant} plan has {len(lines)} lines, not in {model.sizes}")
    center = None
    if model.variant == "spatial":
        center = (model.center_bus if model.center_bus is not None
                  else min(spatial_centers(net, model, lines)))
    return AttackPlan(lines, center)


def solve_exhaustive(
    net: Network,
    model: AttackerModel,
    budget: int = DEFAULT_BUDGET,
    keep_ranking: bool = False,
) -> OracleResult:
    """Evaluate every feasible attack and return the worst one.

    Every row of ``attack_table`` is priced by ``exact_etas`` on one thread
    per CPU this process may run on: those a zero-shed dispatch of the
    network's probe table settles at 0.0 with no LP, the others by
    ``exact_eta``'s LP from the intact network's optimal basis on their
    thread's kept model. The result does not depend on the thread count,
    and the first error in enumeration order is raised. Once all are
    priced, the winner is the smallest sorted line-id tuple among the
    attacks within ``_TIE * max(1, |eta|)`` of the worst eta;
    ``best_eta`` is its eta re-solved by ``solve_inner``. ``ranking`` (with
    ``keep_ranking``) lists the exact etas worst first, in runs within that
    tolerance of each run's first eta, each run by line tuple, so it starts
    with the winner. Raises :class:`BudgetExceededError` before doing any
    work if the subset count exceeds ``budget``, what ``check_budget``
    raises for a budget that cannot be posed on ``net``, as the engine
    does, and, through ``attack_table``, :class:`NoFeasibleAttackError`
    when nothing in the enumeration passes the feasibility predicate.
    """
    planned = subset_count(len(net.lines), model)
    if planned > budget:
        raise BudgetExceededError(
            f"{planned} candidate subsets exceed the oracle budget of {budget}")

    check_budget(net, model)
    table = attack_table(net, model)
    etas = _price(net, table)
    ids = np.array(net.line_ids())
    # Rows of one size follow their id tuples, so each size's first tied
    # row is its smallest tuple that ties.
    floor = tie_floor(etas.max())
    parts = np.split(etas, np.cumsum([len(rows) for rows in table])[:-1])
    tied = [tuple(ids[rows[np.argmax(part >= floor)]].tolist())
            for rows, part in zip(table, parts) if part.max() >= floor]
    best = attack_plan(net, model, min(tied))
    ranking = None
    if keep_ranking:
        lines = [tuple(row) for rows in table for row in ids[rows].tolist()]
        ranking = _ranked(list(zip(lines, etas.tolist())))
    return OracleResult(best, solve_inner(net, best).eta, len(etas), ranking)


def tie_floor(worst: float) -> float:
    """The smallest eta that ties with ``worst``, for oracle and engine alike."""
    return worst - _TIE * max(1.0, abs(worst))


def _ranked(ranking: list) -> tuple:
    """``(lines, eta)`` pairs worst first, cut into runs of etas tied with
    each run's first; each run sorted by line tuple."""
    ranking.sort(key=lambda r: (-r[1], r[0]))
    runs, start = [], 0
    for i in range(1, len(ranking) + 1):
        if i == len(ranking) or ranking[i][1] < tie_floor(ranking[start][1]):
            runs.extend(sorted(ranking[start:i]))
            start = i
    return tuple(runs)


def _workers() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _price(net: Network, table: list[np.ndarray]) -> np.ndarray:
    """The eta of every row of ``table``, in order, as one float array.

    Each chunk of ``_CHUNK`` consecutive rows of one size, or of more where
    a size would otherwise take over 16 chunks per worker (``pool.map``
    submits them all at once), is priced by one ``exact_etas`` call, on one
    thread per CPU through ``pool.map``, or on the calling thread with one
    CPU or a single chunk. The first error in row order is raised.
    """
    def price(chunk):
        # exact_etas is looked up at call time, so a hook on it sees every call.
        return exact_etas(net, chunk)

    workers, chunks = _workers(), []
    for rows in table:
        size = max(_CHUNK, ceil(len(rows) / (16 * workers)))
        chunks += [rows[lo:lo + size] for lo in range(0, len(rows), size)]
    if workers < 2 or len(chunks) < 2:
        return np.fromiter(chain.from_iterable(map(price, chunks)), float)
    with ThreadPoolExecutor(workers) as pool:
        return np.fromiter(chain.from_iterable(pool.map(price, chunks)), float)


def write_ranking_csv(result: OracleResult, path) -> None:
    """Write a ranking to the CSV file at ``path`` as ``rank,lines,eta``
    rows; lines are ';'-joined ids."""
    if result.ranking is None:
        raise ValueError("oracle result has no ranking; pass keep_ranking=True")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rank", "lines", "eta"])
        for rank, (lines, eta) in enumerate(result.ranking, start=1):
            writer.writerow([rank, ";".join(str(l) for l in lines), repr(eta)])
