"""Constraint-generation solve of the max-min interdiction problem.

The loop alternates between a master MILP over the attack binaries plus a
shed-estimate variable, and exact inner load-shed solves. Each iteration the
master proposes the attack with the highest estimate consistent with all
cuts collected so far; the inner LP prices that attack exactly; a new cut
caps the estimate of every attack by the priced flows of this one, and an
exclusion cut retires the proposal. The master's MILP dual bound is a
certified upper bound (given valid penalty rates) and the best inner value a
lower bound, so the loop stops once they meet within the requested tolerance.

Every returned incumbent is re-verified with one final independent inner
solve; with heuristic penalty rates that re-solve is the certified lower
bound that stands even if the rates were optimistic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .attackers import MasterEncoding, SpatialFootprint, compute_phi, encode_feasible_set
from .backend import INFEASIBLE, Model
from .bounds import DualBounds, HEURISTIC, VALID, heuristic_bounds, valid_bounds
from .inner import AttackPlan, InnerSolution, solve_inner
from .netmodel import AttackerModel, Network, total_load

__all__ = ["SolveConfig", "MasterState", "NoFeasibleAttackError", "solve_interdiction", "gap"]

CONVERGED = "converged"
EXHAUSTED = "exhausted"
ITERATION_LIMIT = "iteration_limit"


class NoFeasibleAttackError(RuntimeError):
    """The attacker feasible set is empty."""


@dataclass(frozen=True)
class SolveConfig:
    """Solver knobs. Defaults: 1% relative tolerance, heuristic penalty rates."""

    epsilon: float = 0.01
    abs_floor: float = 1e-6
    max_iters: int = 10000
    bounds_mode: str = HEURISTIC
    distance_mode: str = "haversine"
    big_m: float | None = None

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be > 0")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.bounds_mode not in (HEURISTIC, VALID):
            raise ValueError(f"unknown bounds mode {self.bounds_mode!r}")


@dataclass
class MasterState:
    """Mutable record of one constraint-generation run."""

    cuts: list[tuple[float, dict[int, float]]] = field(default_factory=list)
    nogood: list[frozenset[int]] = field(default_factory=list)
    incumbent_x: AttackPlan | None = None
    incumbent_inner: InnerSolution | None = None
    eta_star: float = -math.inf
    eta_up: float = math.inf
    iterations: int = 0
    history: list[dict] = field(default_factory=list)
    status: str = ""
    bounds: DualBounds | None = None
    eta_star_recheck: float | None = None


def gap(state: MasterState, config: SolveConfig) -> float:
    """Relative optimality gap, guarded against a zero-shed optimum."""
    if not math.isfinite(state.eta_up) or state.iterations < 1:
        raise RuntimeError("gap undefined before the first master and inner solves")
    return (state.eta_up - state.eta_star) / max(state.eta_star, config.abs_floor)


def _build_master(net: Network, encoding: MasterEncoding, state: MasterState,
                  load_cap: float) -> Model:
    mdl = Model("interdiction-master")
    mdl.add_var(lb=0.0, ub=load_cap, obj=-1.0)  # maximize the shed estimate
    off = 1
    mdl.add_vars(encoding.num_vars, lb=encoding.lb, ub=encoding.ub,
                 integer=encoding.integrality)
    mdl.add_rows(*encoding.row_block(), col_offset=off)

    x_cols = encoding.blocks["x"] + off
    col_of = {lid: int(x_cols[i]) for i, lid in enumerate(encoding.line_order)}
    for eta_hat, coefs in state.cuts:
        cols = [0] + [col_of[lid] for lid in sorted(coefs)]
        vals = [1.0] + [-coefs[lid] for lid in sorted(coefs)]
        mdl.add_le(cols, vals, eta_hat)
    k = encoding.model.k
    all_cols = list(int(c) for c in x_cols)
    for visited in state.nogood:
        hit = [col_of[lid] for lid in sorted(visited)]
        if len(visited) == k:
            mdl.add_le(hit, [1.0] * len(hit), k - 1)
        else:
            # Exact-point exclusion: retires only this attack, so feasible
            # supersets (possible under the spatial budget) stay reachable.
            others = [c for c in all_cols if c not in hit]
            mdl.add_le(hit + others, [1.0] * len(hit) + [-1.0] * len(others),
                       len(visited) - 1)
    return mdl


def _extract_plan(net: Network, model: AttackerModel, encoding: MasterEncoding,
                  x_full: np.ndarray, off: int = 1) -> AttackPlan:
    x_cols = encoding.blocks["x"] + off
    lines = frozenset(
        lid for i, lid in enumerate(encoding.line_order) if x_full[x_cols[i]] > 0.5
    )
    center = None
    if model.variant == "spatial":
        c_cols = encoding.blocks["center"] + off
        picked = [encoding.bus_order[i] for i in range(len(c_cols)) if x_full[c_cols[i]] > 0.5]
        center = picked[0] if picked else encoding.bus_order[0]
    return AttackPlan(lines, center, model)


def solve_interdiction(
    net: Network,
    model: AttackerModel,
    config: SolveConfig | None = None,
    footprint: SpatialFootprint | None = None,
    bounds: DualBounds | None = None,
) -> tuple[AttackPlan, float, MasterState]:
    """Find an epsilon-optimal worst-case attack for the given attacker budget.

    Returns ``(plan, eta_star, state)`` where ``eta_star`` is the exact shed
    of the returned plan. Raises :class:`NoFeasibleAttackError` when the
    feasible set is empty (possible for tight spatial budgets). When the
    iteration cap is hit first, the incumbent is returned with
    ``state.status == 'iteration_limit'`` and the achieved gap on record.
    """
    if not net.buses:
        raise ValueError("empty network")
    config = config or SolveConfig()
    if model.variant == "spatial" and footprint is None:
        footprint = compute_phi(net, model.D_km, config.distance_mode)
    encoding = encode_feasible_set(net, model, footprint)
    if bounds is None:
        bounds = heuristic_bounds(net) if config.bounds_mode == HEURISTIC \
            else valid_bounds(net, encoding)

    state = MasterState(bounds=bounds)
    load_cap = total_load(net)
    seen: set[frozenset[int]] = set()

    while state.iterations < config.max_iters:
        master = _build_master(net, encoding, state, load_cap).solve_milp(require_optimal=False)
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
                f"master solve failed at iteration {state.iterations + 1}: {master.status}")
        # HiGHS stops within its MIP gap of the master optimum; its dual bound,
        # not the incumbent objective, is what bounds every remaining attack.
        master_bound = -master.dual_bound

        plan = _extract_plan(net, model, encoding, master.x)
        if plan.lines in seen:
            raise RuntimeError(
                f"master re-proposed attack {sorted(plan.lines)} despite its exclusion cut")
        seen.add(plan.lines)

        try:
            inner = solve_inner(net, plan, big_m=config.big_m)
        except Exception as err:
            raise RuntimeError(
                f"inner solve failed at iteration {state.iterations + 1} "
                f"for attack {sorted(plan.lines)}") from err
        state.iterations += 1
        if inner.eta > state.eta_star:
            state.eta_star = inner.eta
            state.incumbent_x = plan
            state.incumbent_inner = inner
        # The master bounds only the attacks its exclusion cuts have not yet
        # retired, so the global upper bound is the larger of that and the
        # incumbent (and never increases).
        state.eta_up = min(state.eta_up, max(master_bound, state.eta_star))
        state.history.append({
            "iteration": state.iterations,
            "attack": list(plan.sorted_lines()),
            "eta_hat": inner.eta,
            "eta_up": state.eta_up,
        })

        if state.eta_up - state.eta_star <= config.epsilon * max(state.eta_star,
                                                                 config.abs_floor):
            state.status = CONVERGED
            break

        coefs = {lid: c for lid in net.line_ids() if (c := bounds.price(inner, lid)) > 0.0}
        state.cuts.append((inner.eta, coefs))
        state.nogood.append(plan.lines)
    else:
        state.status = ITERATION_LIMIT

    if state.incumbent_x is None:  # pragma: no cover - master infeasible handled above
        raise NoFeasibleAttackError("no attack was evaluated")

    recheck = solve_inner(net, state.incumbent_x, big_m=config.big_m)
    state.eta_star_recheck = recheck.eta
    return state.incumbent_x, state.eta_star, state
