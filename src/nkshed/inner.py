"""Defender response: minimum load shed under DC power flow for a fixed attack.

``solve_inner`` solves the load-shed LP exactly. It relaxes each interdicted
line's flow/angle coupling to a +-M band, certifies M by that band's duals,
and references angles per island. ``solve_penalized_inner`` solves the
penalty reformulation in which the flow/angle coupling and the thermal
pinning of interdicted lines are dropped from the constraints and charged in
the objective instead, at per-line penalty rates taken from a
:class:`~nkshed.bounds.DualBounds`. With rates that dominate the optimal
duals the two values coincide, which is the property the cutting-plane
master relies on.

Both LPs, and the flow-extreme relaxations in :mod:`nkshed.bounds`, are
built by ``add_dc_network``: it adds the network's columns and flow-balance
rows as sparse blocks from the cached incidence matrix and returns the
per-line coupling block. Each caller then adds only its own bounds,
right-hand sides and extra columns.

Sign conventions: every line constraint is kept in ``>=`` canonical form so
all four dual families (two for the flow/angle coupling, two for the thermal
pair) are nonnegative at the optimum.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np
from scipy import sparse

from .backend import BackendError, Model
from .netmodel import AttackerModel, Network

if TYPE_CHECKING:  # pragma: no cover
    from .bounds import DualBounds

__all__ = ["AttackPlan", "InnerSolution", "solve_inner", "solve_penalized_inner", "cut_rhs"]

# The +-M band of an interdicted line's coupling is accepted once both its
# duals are at most this; otherwise M is doubled, at most this many times.
_BAND_DUAL_TOL = 1e-8
_MAX_M_DOUBLINGS = 10


@dataclass(frozen=True)
class AttackPlan:
    """A concrete set of interdicted line ids, optionally tied to an attacker model."""

    lines: frozenset[int]
    center_bus: int | None = None
    model: AttackerModel | None = None

    def __post_init__(self):
        object.__setattr__(self, "lines", frozenset(self.lines))
        m = self.model
        if m is None:
            if self.center_bus is not None:
                raise ValueError("center_bus requires a spatial model")
            return
        if m.variant == "spatial":
            if len(self.lines) > m.k:
                raise ValueError(f"spatial plan has {len(self.lines)} lines > k = {m.k}")
            if self.center_bus is None:
                raise ValueError("spatial plan requires a center bus")
        else:
            if self.center_bus is not None:
                raise ValueError("center_bus requires a spatial model")
            if len(self.lines) != m.k:
                raise ValueError(
                    f"{m.variant} plan must have exactly k = {m.k} lines, got {len(self.lines)}")

    @staticmethod
    def of(lines, center_bus: int | None = None, model: AttackerModel | None = None) -> "AttackPlan":
        return AttackPlan(frozenset(int(l) for l in lines), center_bus, model)

    def sorted_lines(self) -> tuple[int, ...]:
        return tuple(sorted(self.lines))


@dataclass
class InnerSolution:
    """Optimal defender response to one attack."""

    eta: float
    shed: dict[int, float]
    flow: dict[int, float]
    gen: dict[int, float]
    angle: dict[int, float]
    duals_mu: dict[int, tuple[float, float]]
    duals_pi: dict[int, tuple[float, float]]
    status: str
    attack: AttackPlan
    big_m_used: float
    big_m_ok: bool = True

    def flow_pos(self, line_id: int) -> float:
        return max(self.flow[line_id], 0.0)

    def flow_neg(self, line_id: int) -> float:
        return max(-self.flow[line_id], 0.0)


def _check_attack_lines(net: Network, attack: AttackPlan) -> np.ndarray:
    """Return the 0/1 interdiction vector in line-position order."""
    x = np.zeros(len(net.lines))
    for lid in attack.lines:
        if lid not in net.line_pos:
            raise ValueError(f"attack references unknown line id {lid}")
        x[net.line_pos[lid]] = 1.0
    return x


class DCColumns(NamedTuple):
    """Model columns of one DC network, and its per-line coupling block.

    ``coupling`` is ``[b * (e_fr - e_to) on angles | I on flow]`` in model
    columns: row e reads ``flow_e + b_e * (ang_fr - ang_to)``.
    """

    shed: np.ndarray
    gen: np.ndarray
    ang: np.ndarray
    flow: np.ndarray
    coupling: sparse.coo_array


def add_dc_network(mdl: Model, net: Network, shed_cost, flow_cap=np.inf) -> DCColumns:
    """Append the DC network's columns and flow-balance rows to ``mdl``.

    Columns come in the order shed fraction, generation, angle, flow, one
    block each. The balance rows ``[diag(demand) | I | 0 | incidence]`` equal
    the demand at every bus. The coupling block is returned unbounded, for
    the caller to pin, relax or split per line.
    """
    n, m = len(net.buses), len(net.lines)
    demand = net.demand_vector()
    shed = mdl.add_vars(n, lb=0.0, ub=1.0, obj=shed_cost)
    gen = mdl.add_vars(n, lb=0.0, ub=net.gen_cap_vector())
    ang = mdl.add_vars(n, lb=-np.inf, ub=np.inf)
    flow = mdl.add_vars(m, lb=-flow_cap, ub=flow_cap)
    bus, line, inc = np.arange(n), np.arange(m), net.incidence
    balance = sparse.coo_array(
        (np.concatenate([demand, np.ones(n), inc.data]),
         (np.concatenate([bus, bus, inc.row]), np.concatenate([shed, gen, flow[inc.col]]))),
        shape=(n, mdl.num_vars))
    mdl.add_rows(balance, demand, demand)
    coupling = sparse.coo_array(
        (np.concatenate([np.ones(m), -net.susceptance_vector()[inc.col] * inc.data]),
         (np.concatenate([line, inc.col]), np.concatenate([flow, ang[inc.row]]))),
        shape=(m, mdl.num_vars))
    return DCColumns(shed, gen, ang, flow, coupling)


def line_pairs(dc: DCColumns) -> sparse.coo_array:
    """Per line the rows coupling, -coupling, flow and -flow, in model columns."""
    cpl, line = dc.coupling, np.arange(len(dc.flow))
    return sparse.coo_array(
        (np.concatenate([cpl.data, -cpl.data, np.ones(len(line)), -np.ones(len(line))]),
         (np.concatenate([4 * cpl.row, 4 * cpl.row + 1, 4 * line + 2, 4 * line + 3]),
          np.concatenate([cpl.col, cpl.col, dc.flow, dc.flow]))),
        shape=(4 * len(line), cpl.shape[1]))


def solve_inner(net: Network, attack: AttackPlan) -> InnerSolution:
    """Minimum load shed with the attacked lines removed.

    Always feasible (the operator can shed everything), so the result is
    optimal or an exception is raised. The coupling of each interdicted line
    is relaxed to a +-M band, starting at ``net.big_M``. A solve is accepted
    once both band duals of every interdicted line are at most 1e-8: an
    optimum whose band duals vanish is optimal for the LP without the bands,
    so eta is the shed of the removed lines. Otherwise M is doubled and the
    LP re-solved, at most 10 times. ``big_m_used`` is the M of the accepted
    solve and ``big_m_ok`` whether its band duals vanished. Angles are
    reported relative to the first bus of each island of the surviving
    network.
    """
    x = _check_attack_lines(net, attack)
    cut = x > 0.5
    m_val = float(net.big_M)
    cap = net.thermal_vector() * (1.0 - x)

    for attempt in range(_MAX_M_DOUBLINGS + 1):
        mdl = Model("load-shed")
        dc = add_dc_network(mdl, net, net.demand_vector())
        # The >= rows mu1, mu2, pi1, pi2 of each line in turn.
        relax = -m_val * x
        rows = mdl.add_rows(line_pairs(dc), np.column_stack([relax, relax, -cap, -cap]).ravel(),
                            np.inf)
        try:
            sol = mdl.solve_lp()
        except BackendError as err:
            raise BackendError(f"inner solve failed for attack {sorted(attack.lines)}: {err}") from err
        duals = sol.dual[rows.start:rows.stop].reshape(-1, 2, 2)
        ok = bool(np.all(np.abs(duals[cut, 0]) <= _BAND_DUAL_TOL))
        if ok or attempt == _MAX_M_DOUBLINGS:
            if not ok:
                warnings.warn(
                    f"interdicted-line coupling duals above {_BAND_DUAL_TOL} after "
                    f"{_MAX_M_DOUBLINGS} big-M doublings; eta may overstate the shed",
                    RuntimeWarning,
                )
            break
        m_val *= 2.0

    # Angles are fixed up to one constant per island: zero each island's first bus.
    island = net.islands(~cut)
    ang = sol.x[dc.ang]
    ang = ang - ang[np.unique(island, return_index=True)[1]][island]
    bus_ids, line_ids = [bus.id for bus in net.buses], net.line_ids()
    duals = duals.tolist()
    return InnerSolution(
        eta=float(sol.objective),
        shed=dict(zip(bus_ids, sol.x[dc.shed].tolist())),
        flow=dict(zip(line_ids, sol.x[dc.flow].tolist())),
        gen=dict(zip(bus_ids, sol.x[dc.gen].tolist())),
        angle=dict(zip(bus_ids, ang.tolist())),
        duals_mu={lid: tuple(d[0]) for lid, d in zip(line_ids, duals)},
        duals_pi={lid: tuple(d[1]) for lid, d in zip(line_ids, duals)},
        status=sol.status,
        attack=attack,
        big_m_used=m_val,
        big_m_ok=ok,
    )


def solve_penalized_inner(net: Network, attack: AttackPlan, bounds: "DualBounds") -> float:
    """Optimal value of the penalty reformulation of the load-shed LP.

    Surviving lines keep their flow/angle coupling as a hard equality and
    their thermal limit as a hard range. For interdicted lines the coupling
    is relaxed to a +-M band (their coupling penalty rate is zero: those
    rows carry zero duals once M is large enough) and the flow, split into
    nonnegative positive/negative parts, is charged in the objective at the
    line's thermal-dual upper bounds instead of being pinned to zero.
    """
    x = _check_attack_lines(net, attack)
    for lid in attack.lines:
        for rate in bounds.line(lid):
            if not np.isfinite(rate) or rate < 0:
                raise ValueError(f"penalty rate for line {lid} must be finite and >= 0")

    mdl = Model("load-shed-penalized")
    dc = add_dc_network(mdl, net, net.demand_vector(), net.thermal_vector())
    cut = x > 0.5
    inter = np.flatnonzero(cut)
    k = len(inter)
    rates = np.array([bounds.line(net.lines[e].id) for e in inter]).reshape(k, 2)
    # Per interdicted line: s+ priced at pi2, then s- priced at pi1.
    split = mdl.add_vars(2 * k, lb=0.0, obj=rates[:, ::-1].ravel())
    # Surviving lines: coupling == 0. Interdicted lines: flow - s+ + s- == 0.
    cpl = dc.coupling
    keep = ~cut[cpl.row] | (cpl.col == dc.flow[cpl.row])
    per_line = sparse.coo_array(
        (np.concatenate([cpl.data[keep], np.tile([-1.0, 1.0], k)]),
         (np.concatenate([cpl.row[keep], np.repeat(inter, 2)]),
          np.concatenate([cpl.col[keep], split]))),
        shape=(len(net.lines), mdl.num_vars))
    mdl.add_rows(per_line, 0.0, 0.0)
    mdl.add_rows(cpl.tocsr()[inter], -net.big_M, net.big_M)

    sol = mdl.solve_lp()
    return float(sol.objective)


def cut_rhs(sol: InnerSolution, bounds: "DualBounds", candidate: AttackPlan) -> float:
    """Upper bound on the shed of ``candidate`` implied by the solved attack.

    Each candidate line contributes its flow at the solved operating point,
    negative part priced at the line's first thermal-dual bound and positive
    part at the second.
    """
    return float(sum((bounds.price(sol, lid) for lid in candidate.lines), sol.eta))
