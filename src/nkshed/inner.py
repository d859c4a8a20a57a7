"""Defender response: minimum load shed under DC power flow for a fixed attack.

``solve_inner`` solves the load-shed LP exactly. It relaxes each interdicted
line's flow/angle coupling to a +-M band, certifies M by that band's duals,
and references angles per island.

``exact_eta`` solves the same LP with no band: a removed line's coupling
row gets a free slack column, so an attack changes only column bounds, and
each solve starts from the intact network's optimal basis. It gives eta
alone, for the brute-force oracle.

``response_shed`` bounds the exact shed of many attacks at once without an
LP: it turns one dispatch into a feasible defender response to each attack
(see its docstring), the bound the engine's enumerated master keeps.

The load-shed LP and the flow-extreme relaxations in :mod:`nkshed.bounds`
are built by ``add_dc_network``: it adds the network's columns and flow-balance
rows as sparse blocks from the cached incidence matrix and returns the
per-line coupling block. Each caller then adds only its own bounds,
right-hand sides and extra columns.

Sign conventions: every line constraint is kept in ``>=`` canonical form so
all four dual families (two for the flow/angle coupling, two for the thermal
pair) are nonnegative at the optimum.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy import sparse

from .backend import BackendError, Model
from .netmodel import BATCH_ENTRIES, AttackerModel, Network, _islands

__all__ = ["AttackPlan", "InnerSolution", "solve_inner", "exact_eta", "response_shed"]

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
    """Optimal defender response to one attack.

    ``angle`` is computed when first read: the solve's bus angles with the
    first bus of each island of the surviving network at zero. For that the
    solution keeps the raw angles, the removed line positions, the line
    endpoint positions and the bus ids, not the network.
    """

    eta: float
    shed: dict[int, float]
    flow: dict[int, float]
    gen: dict[int, float]
    duals_mu: dict[int, tuple[float, float]]
    duals_pi: dict[int, tuple[float, float]]
    status: str
    attack: AttackPlan
    big_m_used: float
    big_m_ok: bool = True
    _angle_from: tuple = field(default=(), repr=False, compare=False)

    @cached_property
    def angle(self) -> dict[int, float]:
        ang, cut, fr, to, bus_ids = self._angle_from
        # Angles are fixed up to one constant per island: zero each island's first bus.
        island = _islands(fr, to, len(ang), cut[None])[0]
        ang = ang - ang[np.unique(island, return_index=True)[1]][island]
        return dict(zip(bus_ids, ang.tolist()))


def _line_positions(net: Network, attack: AttackPlan) -> np.ndarray:
    """Return the positions of the attacked lines."""
    try:
        return np.array([net.line_pos[lid] for lid in attack.lines], dtype=int)
    except KeyError as err:
        raise ValueError(f"attack references unknown line id {err.args[0]}") from None


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


def add_dc_network(mdl: Model, net: Network, shed_cost) -> DCColumns:
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
    flow = mdl.add_vars(m, lb=-np.inf, ub=np.inf)
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


def _load_shed_model(net: Network) -> tuple[Model, DCColumns, range]:
    """This thread's load-shed model of ``net``, built once with no attack.

    Returns the model, its columns and its 4m line rows: mu1, mu2, pi1, pi2
    of each line in turn, all ``>=`` rows. An attack changes only their
    lower sides. The model lives in ``net.thread_cache``, so it is per
    thread, because one HiGHS model must not be solved by two threads at
    once, and it goes with the network.
    """
    entry = getattr(net.thread_cache, "load_shed", None)
    if entry is None:
        mdl = Model("load-shed")
        dc = add_dc_network(mdl, net, net.demand_vector())
        rows = mdl.add_rows(line_pairs(dc), _line_row_lo(net, np.zeros(len(net.lines)), 0.0),
                            np.inf)
        entry = net.thread_cache.load_shed = (mdl, dc, rows)
    return entry


def _line_row_lo(net: Network, x: np.ndarray, m_val: float) -> np.ndarray:
    """Lower sides of the line rows: the +-M band on interdicted couplings
    and the thermal pair, zero on interdicted lines."""
    relax, cap = -m_val * x, net.thermal_vector() * (1.0 - x)
    return np.column_stack([relax, relax, -cap, -cap]).ravel()


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
    network, computed when first read.

    Each thread keeps one model per network; an attack, or a doubling of M,
    only changes its line rows' bounds, and every solve starts cold.
    """
    x = np.zeros(len(net.lines))
    x[_line_positions(net, attack)] = 1.0
    cut = x > 0.5
    mdl, dc, rows = _load_shed_model(net)
    # The band is mu1 and mu2 of each interdicted line.
    band = rows.start + 4 * np.flatnonzero(cut)[:, None] + np.arange(2)
    m_val = float(net.big_M)
    for attempt in range(_MAX_M_DOUBLINGS + 1):
        mdl.set_row_bounds(rows, _line_row_lo(net, x, m_val), np.inf)
        try:
            sol = mdl.solve_lp()
        except BackendError as err:
            raise BackendError(
                f"{mdl.name} solve failed for attack {sorted(attack.lines)}: {err}") from err
        ok = bool(np.all(np.abs(sol.dual[band]) <= _BAND_DUAL_TOL))
        if ok or attempt == _MAX_M_DOUBLINGS:
            break
        m_val *= 2.0
    if not ok:
        warnings.warn(
            f"interdicted-line coupling duals above {_BAND_DUAL_TOL} after "
            f"{_MAX_M_DOUBLINGS} big-M doublings; eta may overstate the shed",
            RuntimeWarning,
        )

    bus_ids, line_ids = [bus.id for bus in net.buses], net.line_ids()
    duals = sol.dual[rows.start:rows.stop].reshape(-1, 2, 2).tolist()
    return InnerSolution(
        eta=float(sol.objective),
        shed=dict(zip(bus_ids, sol.x[dc.shed].tolist())),
        flow=dict(zip(line_ids, sol.x[dc.flow].tolist())),
        gen=dict(zip(bus_ids, sol.x[dc.gen].tolist())),
        duals_mu={lid: tuple(d[0]) for lid, d in zip(line_ids, duals)},
        duals_pi={lid: tuple(d[1]) for lid, d in zip(line_ids, duals)},
        status=sol.status,
        attack=attack,
        big_m_used=m_val,
        big_m_ok=ok,
        _angle_from=(sol.x[dc.ang], np.flatnonzero(cut), *net.endpoint_positions(), bus_ids),
    )


def _exact_model(net: Network) -> tuple[Model, object, np.ndarray, np.ndarray]:
    """This thread's exact load-shed model of ``net``, built once with no attack.

    The rows are the balance rows and, per line e, ``coupling_e - z_e = 0``
    with a slack column ``z_e``. Returns the model, the optimal basis of the
    intact network, the flow columns then the slack columns, and their
    bounds on the intact network: lower and upper, each flow then slack per
    line, flow within the rating and slack at 0. Kept in
    ``net.thread_cache`` like the load-shed model.
    """
    entry = getattr(net.thread_cache, "exact", None)
    if entry is None:
        mdl = Model("exact-load-shed")
        dc = add_dc_network(mdl, net, net.demand_vector())
        m = len(net.lines)
        z = mdl.add_vars(m, lb=0.0, ub=0.0)
        mdl.add_rows(sparse.hstack([dc.coupling, -sparse.eye_array(m)]), 0.0, 0.0)
        cols, rating = np.concatenate([dc.flow, z]).astype(np.int32), net.thermal_vector()
        intact = np.zeros((2, 2, m))
        intact[:, 0] = -rating, rating
        mdl.set_col_bounds(cols, *intact.reshape(2, -1))
        mdl.solve_lp(presolve=False)
        entry = net.thread_cache.exact = (mdl, mdl.basis(), cols, intact)
    return entry


# Lower and upper bound (rows) of a removed line's flow and slack (columns):
# flow at 0, slack free.
_REMOVED = np.array([[0.0, -np.inf], [0.0, np.inf]])


def exact_eta(net: Network, attack: AttackPlan) -> float:
    """Minimum load shed with the attacked lines removed, with no band.

    A removed line's flow is fixed at 0 and its slack is freed, which drops
    its angle coupling, so nothing depends on ``net.big_M``. An attack
    changes only column bounds of this thread's kept model, so the intact
    network's optimal basis is a valid basis of every attack's LP and one
    shared start: each solve clears HiGHS's solver state and runs the dual
    simplex from that basis, which repairs what the attack leaves primal or
    dual infeasible (a freed slack whose coupling row had a nonzero dual).
    Eta thus depends on the attack alone, not on the attacks priced before
    it or on the thread. Any optimal vertex gives the same eta, so only eta
    is returned.
    """
    mdl, basis, cols, intact = _exact_model(net)
    bounds = intact.copy()
    bounds[..., _line_positions(net, attack)] = _REMOVED[..., None]
    mdl.set_col_bounds(cols, *bounds.reshape(2, -1))
    try:
        return mdl.solve_objective(basis)
    except BackendError as err:
        raise BackendError(
            f"{mdl.name} solve failed for attack {sorted(attack.lines)}: {err}") from err


def response_shed(net: Network, gen: np.ndarray, served: np.ndarray, cuts: np.ndarray,
                  split: np.ndarray | None = None) -> np.ndarray:
    """Shed of a feasible defender response to each attack, built from one dispatch.

    ``gen`` and ``served`` are per-bus generation and served load, such as
    the optimal dispatch of another attack; each row of ``cuts`` holds the
    line positions one attack removes. Per attack, the dispatch is balanced
    on every island of the surviving network (surplus generation or the
    served-load deficit scaled down pro rata), routed by DC power flow, and
    scaled on each island by the largest alpha <= 1 that keeps every line
    within its rating. That response is feasible for the attack's load-shed
    LP, so its shed bounds the attack's eta from above; for the attack that
    gave the dispatch it equals that attack's eta. ``split``, which
    ``net.power_flow.splits(cuts)`` returns, spares a search for the
    islands of attacks that leave every island whole.
    """
    demand = net.demand_vector()
    gen = np.clip(gen, 0.0, net.gen_cap_vector())
    served = np.clip(served, 0.0, demand)
    pf, rating = net.power_flow, net.thermal_vector()
    shed = np.empty(len(cuts))
    gen_flow, served_flow = gen @ pf.ptdf_t, served @ pf.ptdf_t
    step = max(1, BATCH_ENTRIES // ((cuts.shape[1] + 1) * max(len(gen), len(rating))))
    for lo in range(0, len(cuts), step):
        part = cuts[lo:lo + step]
        comp, torn = pf.islands(part, None if split is None else split[lo:lo + step])
        keys, size = comp.ravel(), comp.max() + 1
        g_sum = np.bincount(keys, np.tile(gen, len(part)), size)
        s_sum = np.bincount(keys, np.tile(served, len(part)), size)
        g_scale = np.divide(s_sum, g_sum, out=np.ones(size), where=g_sum > s_sum)
        s_scale = np.divide(g_sum, s_sum, out=np.ones(size), where=s_sum > g_sum)
        g, s = gen * g_scale[comp], served * s_scale[comp]
        # Each row's injection equals gen and served at the scales of its
        # largest island except off that island, so only that rest needs
        # its own pass through the PTDF.
        big = comp[np.arange(len(part)), np.argmax(np.bincount(keys, minlength=size)[comp], 1)]
        a, c = g_scale[big][:, None], s_scale[big][:, None]
        rest = sparse.csr_array(g - s - (a * gen - c * served))
        base = a * gen_flow - c * served_flow + rest @ pf.ptdf_t
        flow = np.abs(pf.flows(base, part, torn))
        alpha = np.ones(size)
        np.minimum.at(alpha, comp[:, pf.fr].ravel(),
                      np.divide(rating, flow, out=np.full(flow.shape, np.inf),
                                where=flow > 0).ravel())
        shed[lo:lo + step] = demand.sum() - (alpha[comp] * s).sum(axis=1)
    return shed
