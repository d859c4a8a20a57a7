"""Brute-force ground truth: enumerate every feasible attack and price it.

Only intended for desk-scale instances; the subset count is checked against
an explicit budget before any solving starts. Attacks are priced by
``exact_etas``: an attack that a zero-shed dispatch of the network's probe
table serves within every rating, once rerouted around it, gets eta 0.0
with no LP. The table is built once per network and read by every pricing
thread: two intact probes, solved with the table, and per line two
max-margin dispatches that carry nothing on that line, solved under the
table's lock when an attack of k >= 2 lines first needs them; those
settle such attacks along the segments from an intact probe to their own
lines' dispatches.
Every other attack gets ``exact_eta``, the load-shed LP with removed lines
dropped by column bounds, with no big-M band, solved from the intact
network's optimal basis.
Either way an eta depends on its attack alone, not on the pricing order,
the chunk or the thread. Etas within ``_TIE`` (relative, at least absolute)
of the worst tie, and ties break toward the lexicographically smallest
sorted line-id tuple, so results (and golden files) are stable across runs
and LP vertices. The winner is re-solved by ``solve_inner``, the same LP
solved cold for its whole optimum, as the engine prices, for the
reported eta.

``feasible_attacks`` and ``attack_plan`` are the one enumerator of the
feasible set; the engine's enumerated master walks the same attacks in the
same order.
"""

from __future__ import annotations

import csv
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import chain, combinations, islice
from math import comb

from .attackers import NoFeasibleAttackError, check_budget, is_feasible_attack, spatial_centers
from .inner import AttackPlan, exact_etas, solve_inner
from .netmodel import AttackerModel, Network

__all__ = ["OracleResult", "BudgetExceededError", "DEFAULT_BUDGET", "subset_count",
           "feasible_attacks", "attack_plan", "solve_exhaustive", "write_ranking_csv"]

# Candidate subsets the oracle enumerates unless told otherwise.
DEFAULT_BUDGET = 200_000
# Consecutive attacks one pricing thread takes at a time. Neighbours in the
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
    if model.variant == "spatial":
        return sum(comb(m, j) for j in range(model.k + 1))
    return comb(m, model.k)


def _candidates(line_ids: tuple[int, ...], model: AttackerModel):
    if model.variant == "spatial":
        for size in range(model.k + 1):
            yield from combinations(line_ids, size)
    else:
        yield from combinations(line_ids, model.k)


def feasible_attacks(net: Network, model: AttackerModel):
    """Yield the sorted line-id tuple of every feasible attack.

    Smaller attacks come first (only the spatial budget mixes sizes), then
    lexicographic order.
    """
    for subset in _candidates(tuple(sorted(net.line_ids())), model):
        if is_feasible_attack(net, model, subset):
            yield subset


def attack_plan(net: Network, model: AttackerModel, subset) -> AttackPlan:
    """The plan of a feasible attack: a spatial one is centred on the pinned
    bus, or else on the smallest bus that can centre all its lines."""
    center = None
    if model.variant == "spatial":
        center = (model.center_bus if model.center_bus is not None
                  else min(spatial_centers(net, model, subset)))
    return AttackPlan(frozenset(subset), center, model)


def solve_exhaustive(
    net: Network,
    model: AttackerModel,
    budget: int = DEFAULT_BUDGET,
    keep_ranking: bool = False,
) -> OracleResult:
    """Evaluate every feasible attack and return the worst one.

    Attacks are priced by ``exact_etas`` on one thread per CPU this process
    may run on, while they are enumerated: those a zero-shed dispatch of
    the network's probe table settles at 0.0 with no LP, the others by
    ``exact_eta`` from the intact network's optimal basis on their
    thread's kept model. The result does not depend on the thread count,
    and the first error in enumeration order is raised. The winner is the
    smallest sorted line-id tuple among the attacks within
    ``_TIE * max(1, |eta|)`` of the worst eta;
    ``best_eta`` is its eta re-solved by ``solve_inner``. ``ranking`` (with
    ``keep_ranking``) lists the exact etas worst first, in runs within that
    tolerance of each run's first eta, each run by line tuple, so it starts
    with the winner. Raises :class:`BudgetExceededError` before doing any
    work if the subset count exceeds ``budget``, what ``check_budget``
    raises for a budget that cannot be posed on ``net``, as the engine
    does, and :class:`NoFeasibleAttackError` when nothing in the
    enumeration passes the feasibility predicate.
    """
    planned = subset_count(len(net.lines), model)
    if planned > budget:
        raise BudgetExceededError(
            f"{planned} candidate subsets exceed the oracle budget of {budget}")

    check_budget(net, model)
    plans = (attack_plan(net, model, subset) for subset in feasible_attacks(net, model))
    ranking = [] if keep_ranking else None
    worst, near, evaluated = -float("inf"), [], 0
    for plan, eta in _price(net, plans):
        evaluated += 1
        lines = plan.sorted_lines()
        if ranking is not None:
            ranking.append((lines, eta))
        # near keeps the attacks that can still win: each ties with the worst
        # so far, and no other one has a smaller tuple and an eta as large.
        worst = max(worst, eta)
        floor = _tie_floor(worst)
        near = [c for c in near if c[1] >= floor and not (c[0] > lines and c[1] <= eta)]
        if eta >= floor and not any(l < lines and e >= eta for l, e, _ in near):
            near.append((lines, eta, plan))
    if not evaluated:
        raise NoFeasibleAttackError(
            f"no feasible attack for the {model.variant} budget (k = {model.k})")
    best = min(near, key=lambda c: c[0])[2]
    return OracleResult(best, solve_inner(net, best).eta, evaluated,
                        None if ranking is None else _ranked(ranking))


def _tie_floor(worst: float) -> float:
    """The smallest eta that ties with ``worst``."""
    return worst - _TIE * max(1.0, abs(worst))


def _ranked(ranking: list) -> tuple:
    """``(lines, eta)`` pairs worst first, cut into runs of etas tied with
    each run's first; each run sorted by line tuple."""
    ranking.sort(key=lambda r: (-r[1], r[0]))
    runs, start = [], 0
    for i in range(1, len(ranking) + 1):
        if i == len(ranking) or ranking[i][1] < _tie_floor(ranking[start][1]):
            runs.extend(sorted(ranking[start:i]))
            start = i
    return tuple(runs)


def _workers() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _price(net: Network, plans):
    """Yield each plan of the iterator ``plans`` with its eta, in order.

    Plans go to one thread per CPU in chunks of ``_CHUNK`` consecutive ones,
    each chunk priced by one ``exact_etas`` call on its thread, with at
    most two chunks per thread in flight, so plans are drawn as they are
    priced. With one CPU, or a single chunk, the calling thread prices them
    all. The first error in plan order is raised.
    """
    def price(chunk):
        # exact_etas is looked up at call time, so a hook on it sees every call.
        return exact_etas(net, chunk)

    chunks = iter(lambda: list(islice(plans, _CHUNK)), [])
    head = list(islice(chunks, 2))
    workers = _workers()
    if workers < 2 or len(head) < 2:
        for chunk in chain(head, chunks):
            yield from zip(chunk, price(chunk))
        return
    with ThreadPoolExecutor(workers) as pool:
        flight = deque()
        for chunk in chain(head, chunks):
            if len(flight) == 2 * workers:
                done, future = flight.popleft()
                yield from zip(done, future.result())
            flight.append((chunk, pool.submit(price, chunk)))
        for done, future in flight:
            yield from zip(done, future.result())


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
