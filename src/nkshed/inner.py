"""Defender response: minimum load shed under DC power flow for a fixed attack.

Both calls that price one attack solve one LP, on this thread's one kept
model of the network: per line e, a coupling row ``coupling_e - z_e = 0``
with a slack column ``z_e``, fixed at 0 while e is in. A removed line's
flow is fixed at 0 and its slack freed, which drops its coupling, so an
attack changes only column bounds and no band or big-M enters the LP.
``solve_inner`` solves it cold and returns eta with the optimal shed,
generation and flows, all that nkshed reads of a response: the bus angles
stay columns of the LP, and no dual is read back. ``exact_eta``
starts each solve from the intact network's optimal basis and gives eta
alone. ``exact_etas``, the brute-force oracle's pricing call, gives the
etas of many attacks of one size, given as rows of line positions: an
attack that a zero-shed dispatch, rerouted around it by DC power flow,
serves within every rating gets 0.0 with no LP (the yes/no verdict of
``_settled``), and the rest go to ``exact_eta``'s LP. The
dispatches come from the network's ``_ProbeTable``, built once per network
and shared by every thread: two intact probes, and per line two
max-margin dispatches that serve all demand with that line out, solved
when first needed under the table's lock. An attack of two or more lines
that no intact probe settles is tried on the segments from each intact
probe to its own lines' dispatches.

``response_shed`` bounds the exact shed of many attacks at once without an
LP: it turns one dispatch into a feasible defender response to each attack
(see its docstring), the bound the engine's enumerated master keeps. It
and the screen reroute flows by ``PowerFlow.flows``, and both learn which
attacks split an island from ``PowerFlow.splits``: the bound balances
those on their new islands, and the screen leaves them to the LP.

Both kept models, the exact load-shed model and the probe table's
max-margin model, are built by ``_slack_model``: it adds the network's
columns, flow-balance rows and coupling rows as triplet blocks built from
the line endpoints. Each caller then adds only its own bounds and extra
columns and rows.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .backend import BackendError, Model
from .netmodel import BATCH_ENTRIES, AttackerModel, Network

__all__ = ["AttackPlan", "InnerSolution", "solve_inner", "exact_eta", "exact_etas",
           "response_shed"]

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


@dataclass(eq=False)
class InnerSolution:
    """Optimal defender response to one attack, as the LP's own arrays.

    ``shed`` (fraction of demand) and ``gen`` are by bus position, ``flow``
    by line position, as in ``net.buses`` and ``net.lines``; map ids
    through ``net.bus_pos`` and ``net.line_pos``. Arrays do not compare
    with ``==``, so neither do solutions.
    """

    eta: float
    shed: np.ndarray
    flow: np.ndarray
    gen: np.ndarray


def _line_positions(net: Network, attack: AttackPlan) -> np.ndarray:
    """Return the positions of the attacked lines."""
    try:
        return np.array([net.line_pos[lid] for lid in attack.lines], dtype=int)
    except KeyError as err:
        raise ValueError(f"attack references unknown line id {err.args[0]}") from None


class DCColumns(NamedTuple):
    """Model columns of one DC network that its callers read: shed fraction,
    generation and flow, one block each."""

    shed: np.ndarray
    gen: np.ndarray
    flow: np.ndarray


class SlackModel(NamedTuple):
    """A ``_slack_model``: the model, its columns, its flow columns then
    slack columns, and their intact bounds."""

    mdl: Model
    dc: DCColumns
    cols: np.ndarray
    intact: np.ndarray


def _slack_model(name: str, net: Network, shed_cost, rating) -> SlackModel:
    """A model of ``net`` in which a line comes out by column bounds alone.

    The columns are shed fraction, generation, angle, flow and, per line e,
    a slack column ``z_e``, one block each. The rows are the balance rows
    ``[diag(demand) | I | 0 | incidence | 0]``, equal to the demand at every
    bus, then per line e the coupling row
    ``flow_e + b_e * (ang_fr - ang_to) - z_e = 0``. The intact bounds are
    lower and upper, each flow then slack per line: flow within ``rating``,
    slack at 0. ``_bounds_out`` gives the bounds with lines out.
    """
    n, m = len(net.buses), len(net.lines)
    demand = net.demand_vector()
    mdl = Model(name)
    shed = mdl.add_vars(n, lb=0.0, ub=1.0, obj=shed_cost)
    gen = mdl.add_vars(n, lb=0.0, ub=net.gen_cap_vector())
    ang = mdl.add_vars(n, lb=-np.inf, ub=np.inf)
    flow = mdl.add_vars(m, lb=-np.inf, ub=np.inf)
    z = mdl.add_vars(m, lb=0.0, ub=0.0)
    bus, line = np.arange(n), np.arange(m)
    # The incidence's entries: -1 at each line's from bus, then +1 at its to bus.
    ends, sign = np.concatenate(net.endpoint_positions()), np.repeat([-1.0, 1.0], m)
    mdl.add_triplets(n, np.concatenate([bus, bus, ends]), np.concatenate([shed, gen, flow, flow]),
                     np.concatenate([demand, np.ones(n), sign]), demand, demand)
    mdl.add_triplets(
        m, np.tile(line, 4), np.concatenate([flow, ang[ends], z]),
        np.concatenate([np.ones(m), -np.tile(net.susceptance_vector(), 2) * sign, -np.ones(m)]),
        0.0, 0.0)
    cols = np.concatenate([flow, z]).astype(np.int32)
    intact = np.zeros((2, 2, m))
    intact[0, 0], intact[1, 0] = -rating, rating
    mdl.set_col_bounds(cols, *intact.reshape(2, -1))
    return SlackModel(mdl, DCColumns(shed, gen, flow), cols, intact)


# Lower and upper bound (rows) of a line's flow and slack (columns): removed,
# flow at 0 and slack free; idle, flow and slack at 0.
_REMOVED = np.array([[0.0, -np.inf], [0.0, np.inf]])
_IDLE = np.zeros((2, 2))


def _bounds_out(intact: np.ndarray, positions,
                state=_REMOVED) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounds of a ``_slack_model``'s flow and slack columns
    with the lines at ``positions`` removed: a removed line's flow is fixed
    at 0 and its slack freed, which drops its angle coupling. With ``state``
    ``_IDLE`` the lines stay in but carry no flow."""
    bounds = intact.copy()
    bounds[..., positions] = state[..., None]
    return tuple(bounds.reshape(2, -1))


def _exact_model(net: Network) -> tuple[SlackModel, object, np.ndarray | None]:
    """This thread's load-shed model of ``net``, built once with no attack.

    A ``_slack_model`` with flows within their ratings, the one model that
    ``solve_inner`` and ``exact_eta`` solve. Returns it, the optimal basis
    of the intact network and the per-bus generation of the intact optimum
    if it sheds nothing, else None. It lives in ``net.thread_cache``, so it
    is per thread, because one HiGHS model must not be solved by two
    threads at once, and it goes with the network.
    """
    entry = getattr(net.thread_cache, "exact", None)
    if entry is None:
        slack = _slack_model("exact-load-shed", net, net.demand_vector(), net.thermal_vector())
        sol = slack.mdl.solve_lp(presolve=False)
        gen = sol.x[slack.dc.gen] if sol.objective <= 0.0 else None
        entry = net.thread_cache.exact = (slack, slack.mdl.basis(), gen)
    return entry


def solve_inner(net: Network, attack: AttackPlan) -> InnerSolution:
    """Minimum load shed with the attacked lines removed.

    Always feasible (the operator can shed everything), so the result is
    optimal or an exception is raised. The LP is ``exact_eta``'s, on the
    same kept model, solved cold with presolve on, so the optimum depends
    on the attack alone. The arrays are the LP's, in bus and line position
    order (see :class:`InnerSolution`).
    """
    positions = _line_positions(net, attack)
    slack = _exact_model(net)[0]
    mdl, dc = slack.mdl, slack.dc
    mdl.set_col_bounds(slack.cols, *_bounds_out(slack.intact, positions))
    try:
        sol = mdl.solve_lp()
    except BackendError as err:
        raise BackendError(
            f"{mdl.name} solve failed for attack {sorted(attack.lines)}: {err}") from err
    return InnerSolution(
        eta=float(sol.objective),
        shed=sol.x[dc.shed],
        flow=sol.x[dc.flow],
        gen=sol.x[dc.gen],
    )


def exact_eta(net: Network, attack: AttackPlan) -> float:
    """Minimum load shed with the attacked lines removed: eta alone.

    The LP of ``solve_inner``, on the same kept model. An attack changes
    only column bounds, so the intact network's optimal basis is a valid
    basis of every attack's LP and one shared start: each solve clears
    HiGHS's solver state and runs the dual simplex from that basis, which
    repairs what the attack leaves primal or dual infeasible (a freed slack
    whose coupling row had a nonzero dual). Eta thus depends on the attack
    alone, not on the attacks priced, or the ``solve_inner`` calls made,
    before it or on the thread. Any optimal vertex gives the same eta, so
    only eta is returned.
    """
    return _eta_at(net, _line_positions(net, attack))


def _eta_at(net: Network, positions) -> float:
    """``exact_eta`` of the attack on the lines at ``positions``."""
    slack, basis, _ = _exact_model(net)
    mdl = slack.mdl
    mdl.set_col_bounds(slack.cols, *_bounds_out(slack.intact, positions))
    try:
        return mdl.solve_objective(basis)
    except BackendError as err:
        lines = sorted(net.lines[e].id for e in positions)
        raise BackendError(f"{mdl.name} solve failed for attack {lines}: {err}") from err


def exact_etas(net: Network, cuts: np.ndarray) -> np.ndarray:
    """``exact_eta`` of each row of ``cuts``, one attack's line positions
    (all rows of one size), as a float array; no LP where a probe settles.

    Shed is never negative, so a feasible defender response that sheds
    nothing proves eta = 0. ``_settled`` screens each attack, its row
    sorted, against the zero-shed dispatches of the network's probe table:
    when one, rerouted around the attack by DC power flow, keeps every
    surviving line within its rating, the attack gets exactly 0.0. Every
    other attack gets ``exact_eta``'s LP in row order. An eta depends on
    its own row alone, not on the others.
    """
    cuts = np.sort(cuts, axis=1)
    etas = np.zeros(len(cuts))
    for i in np.flatnonzero(~_settled(net, cuts)):
        etas[i] = _eta_at(net, cuts[i])
    return etas


class _ProbeTable:
    """A network's zero-shed probe dispatches, as intact-network flows.

    The max-margin model is a ``_slack_model`` with shed fixed at 0, free
    flows and a margin column t, ``|flow_e| <= t * rating_e``, minimizing t:
    all demand served at the least largest line loading. ``base`` holds the
    base probes, one row each: the exact model's intact optimum when it
    sheds nothing, then the intact margin dispatch when one exists. The
    table keeps the demand and PTDF, not the network, which holds it.
    """

    def __init__(self, net: Network):
        exact_gen = _exact_model(net)[2]
        self._slack = slack = _slack_model("max-margin", net, 0.0, np.inf)
        mdl, dc = slack.mdl, slack.dc
        mdl.set_col_bounds(dc.shed, 0.0, 0.0)
        t = mdl.add_var(obj=1.0)
        m, pair = len(net.lines), np.arange(2 * len(net.lines))
        mdl.add_triplets(2 * m, np.tile(pair, 2),
                         np.concatenate([dc.flow, dc.flow, np.full(2 * m, t)]),
                         np.concatenate([np.ones(m), -np.ones(m), np.tile(net.thermal_vector(), 2)]),
                         0.0, np.inf)
        sol = mdl.solve_lp(require_optimal=False, presolve=False)
        self._basis = mdl.basis() if sol.optimal else None
        self.demand, self.ptdf_t = net.demand_vector(), net.power_flow.ptdf_t
        gens = [g for g in (exact_gen, sol.x[dc.gen] if sol.optimal else None) if g is not None]
        self.base = np.array([(g - self.demand) @ self.ptdf_t for g in gens]).reshape(-1, m)
        self._rows, self._lock = None, threading.Lock()

    def rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Per line e, the flows of two margin dispatches that serve all
        demand with e out (lines by 2 by lines), e removed and e idle, and
        whether each LP is optimal (zero flows where not). Each is one solve
        with e's flow at 0 and its slack freed or at 0, from the intact
        margin basis, so a row depends on the network and e alone. Solved on
        the first call, under the table's lock.
        """
        with self._lock:
            if self._rows is None:
                mdl, dc, cols, intact = self._slack
                m = intact.shape[-1]
                gens, ok = np.tile(self.demand, (m, 2, 1)), np.zeros((m, 2), dtype=bool)
                if self._basis is not None:
                    for e in range(m):
                        for i, state in enumerate((_REMOVED, _IDLE)):
                            mdl.set_col_bounds(cols, *_bounds_out(intact, [e], state))
                            sol = mdl.solve_lp(require_optimal=False, basis=self._basis)
                            if sol.optimal:
                                gens[e, i], ok[e, i] = sol.x[dc.gen], True
                    mdl.set_col_bounds(cols, *intact.reshape(2, -1))
                self._rows = (gens - self.demand) @ self.ptdf_t, ok
            return self._rows


def _probe_table(net: Network) -> _ProbeTable:
    """The network's probe table, built once and read by every thread."""
    return net.shared("zero-shed probes", lambda: _ProbeTable(net))


def _settled(net: Network, cuts: np.ndarray) -> np.ndarray:
    """Per outage, whether a zero-shed probe keeps every surviving line
    within its rating, which proves that the outage sheds nothing.

    An outage that ``PowerFlow.splits`` flags is never settled. Stage 1
    tries each base probe of the probe table, rerouted around each other
    outage by ``PowerFlow.flows``. Stage 2 (``_segment_fits``) takes the
    outages of at least 2 lines that stage 1 leaves: for each base probe b
    and each row r of a removed line in ``_ProbeTable.rows``, a convex
    combination of b and r is a zero-shed dispatch too, balanced on the
    intact islands, with the same combination of their flows. No other
    row is tried.

    ``cuts`` holds one row of k removed line positions per outage. Each
    row's arithmetic reads only that row and the table, so its verdict
    does not depend on the other rows.
    """
    table = _probe_table(net)
    probes, rating, (count, k) = table.base, net.thermal_vector(), cuts.shape
    pf, settled = net.power_flow, np.zeros(count, dtype=bool)
    if not len(probes):
        return settled
    step = max(1, BATCH_ENTRIES // ((k + len(probes) * (2 * k + 1)) * max(1, len(rating))))
    for lo in range(0, count, step):
        whole = lo + np.flatnonzero(~pf.splits(cuts[lo:lo + step]))
        if not len(whole):
            continue
        part = cuts[whole]
        flow = pf.flows(np.broadcast_to(probes, (len(part), *probes.shape)), part,
                        np.zeros(len(part), dtype=bool))
        fits = (np.abs(flow) <= rating).all(axis=-1).any(axis=1)
        left = np.flatnonzero(~fits)
        if k >= 2 and len(left):
            fits[left] = _segment_fits(net, table, flow[left], part[left])
        settled[whole] = fits
    return settled


def _segment_fits(net: Network, table: _ProbeTable, base: np.ndarray,
                  part: np.ndarray) -> np.ndarray:
    """Stage 2 of ``_settled``: per outage, whether one of its segments
    holds a point that keeps every line within its rating; ``base`` holds
    its base probes' flows rerouted around it. On a segment, rerouted, each
    line stays within its rating on one interval of lambda.

    The point is never built: at the smallest lambda the lines allow, a
    line sits exactly on its rating, so recomputing its flow there would
    decide the verdict by last-bit rounding. The largest lower end of the
    lines' lambda-intervals is compared with their smallest upper end
    instead.
    """
    rows, ok = table.rows()
    rating, (count, k), m = net.thermal_vector(), part.shape, rows.shape[0]
    a = base[:, :, None, :]
    d = net.power_flow.flows(rows[part].reshape(count, 2 * k, m), part,
                             np.zeros(count, dtype=bool))[:, None] - a
    # Each line keeps |a + lambda * d| <= rating on one interval of lambda; a
    # point fits if the intervals meet inside [0, 1]. A line with d = 0, a
    # removed one among them, keeps its flow a on the whole segment.
    # Temporaries are reused: this runs per chunk on every pricing thread.
    moves = d != 0.0
    ends = np.divide(-rating - a, d, out=np.full(d.shape, -np.inf), where=moves)
    high = np.divide(rating - a, d, out=np.full(d.shape, np.inf), where=moves)
    low = np.minimum(ends, high)
    np.maximum(ends, high, out=high)
    fits = low.max(axis=-1, initial=0.0) <= high.min(axis=-1, initial=1.0)
    fits &= (moves | (np.abs(a) <= rating)).all(axis=-1)
    fits &= ok[part].reshape(count, 1, 2 * k)
    return fits.reshape(count, -1).any(axis=1)


def response_shed(net: Network, gen: np.ndarray, served: np.ndarray, cuts: np.ndarray,
                  split: np.ndarray) -> np.ndarray:
    """Shed of a feasible defender response to each attack, built from one dispatch.

    ``gen`` and ``served`` are per-bus generation and served load, such as
    the optimal dispatch of another attack; each row of ``cuts`` holds the
    line positions one attack removes. Per attack, the dispatch is balanced
    on every island of the surviving network (surplus generation or the
    served-load deficit scaled down pro rata), routed by DC power flow, and
    scaled on each island by the largest alpha <= 1 that keeps every line
    within its rating. That response is feasible for the attack's load-shed
    LP, so its shed bounds the attack's eta from above; for the attack that
    gave the dispatch it equals that attack's eta. Each chunk's balanced
    injections reach the intact flows by one product with the PTDF, every
    row alike. ``split`` is ``net.power_flow.splits(cuts)``: only the
    islands of the attacks it flags are searched.
    """
    demand = net.demand_vector()
    gen = np.clip(gen, 0.0, net.gen_cap_vector())
    served = np.clip(served, 0.0, demand)
    pf, rating = net.power_flow, net.thermal_vector()
    shed = np.empty(len(cuts))
    step = max(1, BATCH_ENTRIES // ((cuts.shape[1] + 1) * max(len(gen), len(rating))))
    for lo in range(0, len(cuts), step):
        part = cuts[lo:lo + step]
        comp, torn = pf.islands(part, split[lo:lo + step])
        keys, size = comp.ravel(), comp.max() + 1
        g_sum = np.bincount(keys, np.tile(gen, len(part)), size)
        s_sum = np.bincount(keys, np.tile(served, len(part)), size)
        g_scale = np.divide(s_sum, g_sum, out=np.ones(size), where=g_sum > s_sum)
        s_scale = np.divide(g_sum, s_sum, out=np.ones(size), where=s_sum > g_sum)
        g, s = gen * g_scale[comp], served * s_scale[comp]
        flow = np.abs(pf.flows((g - s) @ pf.ptdf_t, part, torn))
        alpha = np.ones(size)
        np.minimum.at(alpha, comp[:, pf.fr].ravel(),
                      np.divide(rating, flow, out=np.full(flow.shape, np.inf),
                                where=flow > 0).ravel())
        shed[lo:lo + step] = demand.sum() - (alpha[comp] * s).sum(axis=1)
    return shed
