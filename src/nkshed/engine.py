"""Constraint-generation solve of the max-min interdiction problem.

The loop alternates between a master that proposes an attack and an exact
inner load-shed solve that prices it. The master takes one of two forms.

**Enumerated master**, used whenever the attacker's candidate-subset count
fits ``ENUMERATION_BUDGET`` (the oracle's default budget, 200 000) and the
network's buses times lines fit ``NETWORK_BUDGET`` (a cap the topological
budget skips from k = 2 on). The feasible attacks are listed once, by the
oracle's ``attack_table``, and each keeps an upper bound on its shed. The
intact network's dispatch seeds every bound (one inner solve, not counted
as an iteration). The master proposes the first
unpriced attack in enumeration order whose bound ties with the largest by
the oracle's rule (``oracle.tie_floor``), so bounds that differ in their
last bits do not reorder the proposals. Each priced dispatch then tightens
the bound of every unpriced attack still above the stopping threshold: the
dispatch, balanced per island, routed by DC power flow on that attack's
surviving lines and scaled into the line ratings, is a feasible defender
response, so its shed bounds that attack's (``inner.response_shed``). The
table is factored once, when it is built (``PowerFlow.factor``): each
attack keeps its k-by-k outage operator, so a tightening routes the
dispatch once and corrects each attack by its operator alone. The largest
unpriced bound is thus a proof, and a run that stops on it reports
``bound_certified``. No penalty rate enters this path.

**MILP master**, past either budget. A MILP over the attack binaries and a
shed-estimate variable proposes the attack with the highest estimate
consistent with the cuts so far; each priced attack adds a cut that caps the
estimate of every attack by its priced shed plus its absolute line flows at
one penalty rate for every line, 1.0 or the total load by
``SolveConfig.bounds_mode``, and an exclusion cut that retires it. No rate
makes those cuts valid (see ``valid_bounds``), so the master's MILP dual
bound is an estimate and this path never reports ``bound_certified``. The
master's attack is named by ``oracle.attack_plan``, as on the enumerated
path. A master that HiGHS fails to solve is retried once with presolve off,
then raises, naming every budget that sent the run here.

Both paths stop once the upper bound and the best priced shed meet within
the requested tolerance. The incumbent's shed is then rechecked by
``exact_eta``: the same LP, solved by the dual simplex from the intact
network's basis as the oracle prices, not cold as ``solve_inner`` priced it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .attackers import NoFeasibleAttackError, check_budget, encode_feasible_set
from .backend import INFEASIBLE, OPTIMAL, Model
from .inner import AttackPlan, InnerSolution, exact_eta, response_shed, solve_inner
from .netmodel import AttackerModel, Network, Outages, total_load
from .oracle import DEFAULT_BUDGET, attack_plan, attack_table, subset_count, tie_floor

__all__ = ["SolveConfig", "MasterState", "NoFeasibleAttackError", "solve_interdiction", "gap",
           "ENUMERATION_BUDGET", "NETWORK_BUDGET"]

CONVERGED = "converged"
EXHAUSTED = "exhausted"
ITERATION_LIMIT = "iteration_limit"

# The master is enumerated while the candidate-subset count fits the first
# budget and buses times lines fit the second. The topological budget skips
# the second from k = 2 on, as its connected line sets keep the attack table
# small (seeded 14x14 lattice, k = 2: 1 012 attacks, 9 s enumerated against
# 312 s on the MILP master). Past the cap, the MILP master won at k = 1 on
# 256 buses and 480 lines. At k = 2 on 196 buses and 364 lines it no longer
# wins: with the cap raised, the enumerated master answers the 66 066
# traditional attacks in 189 s, certified, against 226 s uncertified on the
# MILP master; the 66 431 spatial attacks of that network were not measured
# again. At k = 2 on 256 buses and 480 lines (seeded 16x16 lattice,
# traditional) it still wins: 7 iterations in about 3.5 s, converged but not
# certified, against 4 947 iterations in 275-308 s, certified, for the same
# plan and eta with the cap raised. The cap is what keeps the MILP path at
# k = 1 free of dense buses-by-lines arrays: that path never builds the
# network's PTDF.
ENUMERATION_BUDGET = DEFAULT_BUDGET
NETWORK_BUDGET = 1 << 16

# A recheck within this of eta_star confirms the incumbent's shed.
RECHECK_TOL = 1e-7

# ``SolveConfig.bounds_mode``: the MILP master's cuts price every line at
# 1.0, or at ``valid_bounds``.
HEURISTIC = "heuristic"
VALID = "valid"


@dataclass(frozen=True)
class SolveConfig:
    """Solver knobs. Defaults: 1% relative tolerance, the heuristic penalty rate.

    ``epsilon`` is the relative gap at which the loop stops, a finite
    number > 0 and not a bool; the gap divides by the incumbent shed
    floored at the class constant ``abs_floor``, so it is defined when no
    attack sheds load. ``max_iters``, an integer >= 1 and not a bool, caps
    the attacks priced.
    ``bounds_mode`` picks the one penalty rate of the MILP master's cuts,
    ``"heuristic"`` (1.0) or ``"valid"`` (the total load), the same for
    every line, so it acts only on the MILP master (the module docstring
    says when that runs); the enumerated master needs no rate. Neither
    mode makes the MILP master's bound a proof.
    """

    abs_floor: ClassVar[float] = 1e-6
    epsilon: float = 0.01
    max_iters: int = 10000
    bounds_mode: str = HEURISTIC

    def __post_init__(self):
        if isinstance(self.epsilon, bool) or not 0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be finite and > 0, got {self.epsilon}")
        if (isinstance(self.max_iters, bool) or not isinstance(self.max_iters, numbers.Integral)
                or self.max_iters < 1):
            raise ValueError(f"max_iters must be an integer >= 1, got {self.max_iters!r}")
        if self.bounds_mode not in (HEURISTIC, VALID):
            raise ValueError(f"unknown bounds mode {self.bounds_mode!r}")


@dataclass
class MasterState:
    """Mutable record of one constraint-generation run.

    ``bound_certified`` is true when ``eta_up`` is a proof: the enumerated
    master stopped converged and the final recheck confirmed ``eta_star``
    within 1e-7. ``cuts`` holds the MILP master's cuts: each is the priced
    shed and, by line position, the penalty rate times the priced absolute
    flow. The enumerated master leaves it empty. Each
    ``history`` record holds the iteration, the attack, its exact shed
    ``eta_hat``, ``eta_up``, ``live``: how many unpriced attacks still
    have a bound above the stopping level, and ``rows``: how many attacks
    that iteration's priced dispatch bounded (both None on the MILP path).
    """

    cuts: list[tuple[float, np.ndarray]] = field(default_factory=list)
    incumbent_x: AttackPlan | None = None
    incumbent_inner: InnerSolution | None = None
    eta_star: float = -math.inf
    eta_up: float = math.inf
    iterations: int = 0
    history: list[dict] = field(default_factory=list)
    status: str = ""
    eta_star_recheck: float | None = None
    bound_certified: bool = False


def gap(state: MasterState, config: SolveConfig) -> float:
    """Relative optimality gap, guarded against a zero-shed optimum."""
    if not math.isfinite(state.eta_up) or state.iterations < 1:
        raise RuntimeError("gap undefined before the first master and inner solves")
    return (state.eta_up - state.eta_star) / max(state.eta_star, config.abs_floor)


def _build_master(net: Network, model: AttackerModel, state: MasterState,
                  retired: list[frozenset[int]], load_cap: float) -> tuple[Model, np.ndarray]:
    """The master MILP, with an exclusion cut per ``retired`` attack, and its
    line columns, by line position."""
    mdl = Model("interdiction-master")
    mdl.add_var(lb=0.0, ub=load_cap, obj=-1.0)  # maximize the shed estimate
    x_cols = encode_feasible_set(mdl, net, model)["x"]
    for eta_hat, price in state.cuts:
        on = np.flatnonzero(price)
        mdl.add_le(np.concatenate([[0], x_cols[on]]), np.concatenate([[1.0], -price[on]]),
                   eta_hat)
    for visited in retired:
        hit = [net.line_pos[lid] for lid in sorted(visited)]
        if len(visited) == model.sizes[-1]:
            # No feasible attack holds more lines: the cover cut retires only this one.
            mdl.add_le(x_cols[hit], np.ones(len(hit)), len(visited) - 1)
        else:
            # Exact-point exclusion: retires only this attack, so feasible
            # supersets (possible under the spatial budget) stay reachable.
            others = np.delete(x_cols, hit)
            mdl.add_le(np.concatenate([x_cols[hit], others]),
                       np.repeat([1.0, -1.0], [len(hit), len(others)]), len(visited) - 1)
    return mdl, x_cols


def _tighten(net: Network, inner: InnerSolution, groups: list[Outages], starts: np.ndarray,
             bound: np.ndarray, level: float) -> int:
    """Lower ``bound`` on the attacks above ``level`` to the shed of the
    feasible response built from ``inner``'s dispatch; return how many
    attacks were bounded."""
    gen, served = inner.gen, net.demand_vector() * (1.0 - inner.shed)
    rows = 0
    for outages, start in zip(groups, starts):
        pick = np.flatnonzero(bound[start:start + len(outages.cuts)] > level)
        if len(pick):
            at = start + pick
            bound[at] = np.minimum(bound[at], response_shed(net, gen, served, outages, pick))
            rows += len(pick)
    return rows


def _price(net: Network, plan: AttackPlan, state: MasterState) -> InnerSolution:
    """Solve the inner LP of ``plan``, count the iteration, keep the incumbent."""
    try:
        inner = solve_inner(net, plan)
    except Exception as err:
        raise RuntimeError(
            f"inner solve failed at iteration {state.iterations + 1} "
            f"for attack {sorted(plan.lines)}") from err
    state.iterations += 1
    if inner.eta > state.eta_star:
        state.eta_star = inner.eta
        state.incumbent_x = plan
        state.incumbent_inner = inner
    return inner


def _record(state: MasterState, plan: AttackPlan, inner: InnerSolution, upper: float,
            live: int | None = None, rows: int | None = None) -> None:
    """Lower ``eta_up`` to ``upper`` floored at the incumbent; log the iteration."""
    state.eta_up = min(state.eta_up, max(upper, state.eta_star))
    state.history.append({
        "iteration": state.iterations,
        "attack": list(plan.sorted_lines()),
        "eta_hat": inner.eta,
        "eta_up": state.eta_up,
        "live": live,
        "rows": rows,
    })


def _stop_level(state: MasterState, config: SolveConfig) -> float:
    """The upper bound at or below which the incumbent is epsilon-optimal."""
    return state.eta_star + config.epsilon * max(state.eta_star, config.abs_floor)


def _enumerated_loop(net: Network, model: AttackerModel, config: SolveConfig) -> MasterState:
    groups = [net.power_flow.factor(cuts) for cuts in attack_table(net, model)]
    starts = np.cumsum([0] + [len(outages.cuts) for outages in groups])
    state = MasterState()
    # A priced attack's bound is -inf, so every unpriced attack outranks it.
    bound = np.full(starts[-1], np.inf)
    _tighten(net, solve_inner(net, AttackPlan(frozenset())), groups, starts, bound, -np.inf)

    while state.iterations < config.max_iters:
        i = int(np.argmax(bound >= tie_floor(bound.max())))
        g = int(np.searchsorted(starts, i, side="right")) - 1
        lines = [net.lines[e].id for e in groups[g].cuts[i - starts[g]]]
        plan = attack_plan(net, model, lines)
        inner = _price(net, plan, state)
        bound[i] = -np.inf
        level = _stop_level(state, config)
        rows = _tighten(net, inner, groups, starts, bound, level)
        _record(state, plan, inner, float(bound.max()), int(np.count_nonzero(bound > level)),
                rows)
        if state.eta_up <= level:
            state.status = CONVERGED
            break
    else:
        state.status = ITERATION_LIMIT
    return state


def valid_bounds(net: Network) -> float:
    """The total load, the most shed any attack can cause, as the penalty
    rate of every line.

    Like any rate, it shapes the MILP master's proposals and proves nothing:
    with it, the cut from attack {1, 2} on ``fixtures.random_mesh(1)`` bounds
    attack {1, 3} by 0.3799, against its true shed of 0.5037, because the
    priced operating point violates the restored line's coupling and no rate
    prices that. Over random meshes 0-99 at k = 2, 1706 ordered pairs break
    this way. Proofs come from the enumerated master's feasible-response
    bound (``inner.response_shed``). The unit rate of heuristic mode takes
    the shed a line's removal causes to be at most the flow it carried,
    which holds on pure transportation networks and can undershoot on meshed
    ones (Braess-style reroutes).
    """
    return total_load(net)


def _milp_reasons(net: Network, model: AttackerModel) -> list[str]:
    """Every budget that sends ``model`` on ``net`` to the MILP master; empty if none."""
    subsets, size = subset_count(len(net.lines), model), len(net.buses) * len(net.lines)
    reasons = []
    if subsets > ENUMERATION_BUDGET:
        reasons.append(f"{subsets} candidate subsets exceed "
                       f"engine.ENUMERATION_BUDGET = {ENUMERATION_BUDGET}")
    if size > NETWORK_BUDGET and not (model.variant == "topological" and model.k >= 2):
        reasons.append(f"{size} buses times lines exceed engine.NETWORK_BUDGET = {NETWORK_BUDGET}")
    return reasons


def _milp_loop(net: Network, model: AttackerModel, config: SolveConfig,
               reasons: list[str]) -> MasterState:
    rate = 1.0 if config.bounds_mode == HEURISTIC else valid_bounds(net)
    state = MasterState()
    load_cap = total_load(net)
    retired: list[frozenset[int]] = []

    while state.iterations < config.max_iters:
        mdl, x_cols = _build_master(net, model, state, retired, load_cap)
        master = mdl.solve_milp()
        if master.status not in (OPTIMAL, INFEASIBLE):
            master = mdl.solve_milp(presolve=False)
        if master.status == INFEASIBLE:
            if state.iterations == 0:
                raise NoFeasibleAttackError(
                    f"no feasible attack for the {model.variant} budget (k = {model.k})")
            # The exclusion cuts retired every feasible attack: the incumbent
            # is exactly optimal.
            state.eta_up = state.eta_star
            state.status = EXHAUSTED
            break
        if not master.optimal:
            raise RuntimeError(
                f"master solve failed at iteration {state.iterations + 1}: {master.status}. "
                f"The MILP master ran because {' and '.join(reasons)}; raising "
                f"{'that budget' if len(reasons) == 1 else 'both budgets'} to cover the counts "
                "runs the enumerated master, whose bound is a proof when it converges")
        # HiGHS stops within its MIP gap of the master optimum; its dual bound,
        # not the incumbent objective, is what bounds every remaining attack.
        master_bound = -master.dual_bound

        picked = np.flatnonzero(master.x[x_cols] > 0.5)
        plan = attack_plan(net, model, [net.lines[e].id for e in picked])
        if plan.lines in retired:
            raise RuntimeError(
                f"master re-proposed attack {sorted(plan.lines)} despite its exclusion cut")

        inner = _price(net, plan, state)
        # The master bounds only the attacks its exclusion cuts have not yet
        # retired, so the global upper bound is the larger of that and the
        # incumbent.
        _record(state, plan, inner, master_bound)

        if state.eta_up <= _stop_level(state, config):
            state.status = CONVERGED
            break

        state.cuts.append((inner.eta, rate * np.abs(inner.flow)))
        retired.append(plan.lines)
    else:
        state.status = ITERATION_LIMIT
    return state


def solve_interdiction(
    net: Network,
    model: AttackerModel,
    config: SolveConfig | None = None,
) -> tuple[AttackPlan, float, MasterState]:
    """Find an epsilon-optimal worst-case attack for the given attacker budget.

    Returns ``(plan, eta_star, state)`` where ``eta_star`` is the exact shed
    of the returned plan. The master is enumerated within both budgets (the
    module docstring says when), and a MILP otherwise. Raises
    :class:`NoFeasibleAttackError` when the feasible set is empty (possible
    for tight spatial budgets). When the iteration cap is hit first, the
    incumbent is returned with ``state.status == 'iteration_limit'`` and the
    achieved gap on record.
    """
    if not net.buses:
        raise ValueError("empty network")
    config = config or SolveConfig()
    check_budget(net, model)
    reasons = _milp_reasons(net, model)
    state = (_milp_loop(net, model, config, reasons) if reasons
             else _enumerated_loop(net, model, config))

    state.eta_star_recheck = exact_eta(net, state.incumbent_x)
    state.bound_certified = (not reasons and state.status == CONVERGED
                             and abs(state.eta_star_recheck - state.eta_star) <= RECHECK_TOL)
    return state.incumbent_x, state.eta_star, state
