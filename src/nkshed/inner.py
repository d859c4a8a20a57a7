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
max-margin dispatches that serve all demand with that line out, built
once per network through ``Network.shared``. An attack of two or more lines
that no intact probe settles is tried on the segments from each intact
probe to its own lines' dispatches.

``response_shed`` bounds the exact shed of many attacks at once without an
LP: it turns one dispatch into a feasible defender response to each attack
(see its docstring), the bound the engine's enumerated master keeps. It
and the screen reroute flows by ``PowerFlow.flows`` on the outage factors
of ``PowerFlow.factor``, kept once per attack table by the engine and
built once per chunk by the screen. The bound balances and routes its
dispatch once per call on the intact islands and corrects each attack by
its k-by-k factor. A torn attack, one with a near-zero determinant as every
split has, is balanced on its own islands, and the screen leaves it to the LP.

Both kept models, the exact load-shed model and the probe table's
max-margin model, are built by ``_slack_model``: it adds the network's
columns, flow-balance rows and coupling rows as triplet blocks built from
the line endpoints. Each caller then adds only its own bounds and extra
columns and rows, and takes lines out by ``SlackModel.take_out`` alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .backend import BackendError, Model, Solution
from .netmodel import BATCH_ENTRIES, Network, Outages

__all__ = ["AttackPlan", "InnerSolution", "solve_inner", "exact_eta", "exact_etas",
           "response_shed"]

@dataclass(frozen=True)
class AttackPlan:
    """A set of interdicted line ids and, for a spatial attack, its centre bus.

    ``lines`` is kept as a frozenset of ints. A plan takes any lines and
    any centre; ``oracle.attack_plan`` makes the plan of a feasible attack
    under an attacker budget.
    """

    lines: frozenset[int]
    center_bus: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "lines", frozenset(map(int, self.lines)))

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


# Lower and upper bound (rows) of a line's flow and slack (columns): removed,
# flow at 0 and slack free; idle, flow and slack at 0.
_REMOVED = np.array([[0.0, -np.inf], [0.0, np.inf]])
_IDLE = np.zeros((2, 2))


class SlackModel(NamedTuple):
    """A ``_slack_model``: the model, its shed fraction, generation and flow
    columns, its flow columns then slack columns, and their intact bounds."""

    mdl: Model
    shed: np.ndarray
    gen: np.ndarray
    flow: np.ndarray
    cols: np.ndarray
    intact: np.ndarray

    def take_out(self, positions, state=_REMOVED) -> None:
        """Set the flow and slack bounds to the intact ones with the lines at
        ``positions`` removed: a removed line's flow is fixed at 0 and its
        slack freed, which drops its angle coupling. With ``state`` ``_IDLE``
        the lines stay in but carry no flow. The one place a kept model's
        flow and slack bounds are set after it is built."""
        bounds = self.intact.copy()
        bounds[..., positions] = state[..., None]
        self.mdl.set_col_bounds(self.cols, *bounds.reshape(2, -1))


def _slack_model(name: str, net: Network, shed_cost, rating) -> SlackModel:
    """A model of ``net`` in which a line comes out by column bounds alone.

    The columns are shed fraction, generation, angle, flow and, per line e,
    a slack column ``z_e``, one block each. The rows are the balance rows
    ``[diag(demand) | I | 0 | incidence | 0]``, equal to the demand at every
    bus, then per line e the coupling row
    ``flow_e + b_e * (ang_fr - ang_to) - z_e = 0``. The intact bounds are
    lower and upper, each flow then slack per line: flow within ``rating``,
    slack at 0. ``SlackModel.take_out`` takes lines out.
    """
    n, m = len(net.buses), len(net.lines)
    demand = net.demand_vector()
    mdl = Model(name)
    shed = mdl.add_vars(n, lb=0.0, ub=1.0, obj=shed_cost)
    gen = mdl.add_vars(n, lb=0.0, ub=net.gen_cap_vector())
    ang = mdl.add_vars(n, lb=-np.inf, ub=np.inf)
    flow = mdl.add_vars(m, lb=-rating, ub=rating)
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
    return SlackModel(mdl, shed, gen, flow, cols, intact)


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
        gen = sol.x[slack.gen] if sol.objective <= 0.0 else None
        entry = net.thread_cache.exact = (slack, slack.mdl.basis(), gen)
    return entry


def _solve_out(net: Network, positions, warm: bool) -> Solution:
    """The kept exact model's ``Solution`` with the lines at ``positions``
    removed, solved cold with presolve on, or from the intact network's
    optimal basis if ``warm``. A failed solve raises
    :class:`BackendError` naming the attack's line ids."""
    slack, basis, _ = _exact_model(net)
    slack.take_out(positions)
    try:
        return slack.mdl.solve_lp(basis=basis if warm else None)
    except BackendError as err:
        lines = sorted(net.lines[e].id for e in positions)
        raise BackendError(f"{slack.mdl.name} solve failed for attack {lines}: {err}") from err


def solve_inner(net: Network, attack: AttackPlan) -> InnerSolution:
    """Minimum load shed with the attacked lines removed.

    Always feasible (the operator can shed everything), so the result is
    optimal or an exception is raised. The LP is ``exact_eta``'s, on the
    same kept model through the same ``_solve_out``, solved cold with
    presolve on, so the optimum depends on the attack alone. The arrays
    are the LP's, in bus and line position order (see
    :class:`InnerSolution`).
    """
    sol = _solve_out(net, _line_positions(net, attack), warm=False)
    slack = _exact_model(net)[0]
    return InnerSolution(eta=float(sol.objective), shed=sol.x[slack.shed],
                         flow=sol.x[slack.flow], gen=sol.x[slack.gen])


def exact_eta(net: Network, attack: AttackPlan) -> float:
    """Minimum load shed with the attacked lines removed: eta alone.

    The LP of ``solve_inner``, on the same kept model. An attack changes
    only column bounds, so the intact network's optimal basis is a valid
    basis of every attack's LP and one shared start: each solve clears
    HiGHS's solver state and runs the dual simplex from that basis, which
    repairs what the attack leaves primal or dual infeasible (a freed slack
    whose coupling row had a nonzero dual). A start that stops short of an
    optimum is solved again cold (``Model.solve_lp``). Eta thus depends on
    the attack alone, not on the attacks priced, or the ``solve_inner``
    calls made, before it or on the thread. Any optimal vertex gives the
    same eta, so only eta is returned.
    """
    return _eta_at(net, _line_positions(net, attack))


def _eta_at(net: Network, positions) -> float:
    """``exact_eta`` of the attack on the lines at ``positions``."""
    return _solve_out(net, positions, warm=True).objective


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
        mdl = slack.mdl
        mdl.set_col_bounds(slack.shed, 0.0, 0.0)
        t = mdl.add_var(obj=1.0)
        m, pair = len(net.lines), np.arange(2 * len(net.lines))
        mdl.add_triplets(2 * m, np.tile(pair, 2),
                         np.concatenate([slack.flow, slack.flow, np.full(2 * m, t)]),
                         np.concatenate([np.ones(m), -np.ones(m), np.tile(net.thermal_vector(), 2)]),
                         0.0, np.inf)
        sol = mdl.solve_lp(require_optimal=False, presolve=False)
        self._basis = mdl.basis() if sol.optimal else None
        self.demand, self.ptdf_t = net.demand_vector(), net.power_flow.ptdf_t
        gens = [g for g in (exact_gen, sol.x[slack.gen] if sol.optimal else None) if g is not None]
        self.base = np.array([(g - self.demand) @ self.ptdf_t for g in gens]).reshape(-1, m)

    def rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Per line e, the flows of two margin dispatches that serve all
        demand with e out (lines by 2 by lines), e removed and e idle, and
        whether each LP is optimal (zero flows where not). Each is one solve
        with e's flow at 0 and its slack freed or at 0, from the intact
        margin basis (again cold if that start stops short), so a row
        depends on the network and e alone. Every call solves them; the
        screen reads them built once per network through ``Network.shared``.
        """
        slack = self._slack
        m = slack.intact.shape[-1]
        gens, ok = np.tile(self.demand, (m, 2, 1)), np.zeros((m, 2), dtype=bool)
        if self._basis is not None:
            for e in range(m):
                for i, state in enumerate((_REMOVED, _IDLE)):
                    slack.take_out([e], state)
                    sol = slack.mdl.solve_lp(require_optimal=False, basis=self._basis)
                    if sol.optimal:
                        gens[e, i], ok[e, i] = sol.x[slack.gen], True
        return (gens - self.demand) @ self.ptdf_t, ok


def _probe_table(net: Network) -> _ProbeTable:
    """The network's probe table, built once and read by every thread."""
    return net.shared("zero-shed probes", lambda: _ProbeTable(net))


def _settled(net: Network, cuts: np.ndarray) -> np.ndarray:
    """Per outage, whether a zero-shed probe keeps every surviving line
    within its rating, which proves that the outage sheds nothing.

    Each chunk of outages is factored once by ``PowerFlow.factor``, and a
    torn outage is never settled. Stage 1 tries each base probe of the
    probe table, rerouted around each other outage by ``PowerFlow.flows``.
    Stage 2 (``_segment_fits``) takes the outages of at least 2 lines that
    stage 1 leaves: for each base probe b and each row r of a removed line
    in ``_ProbeTable.rows``, a convex combination of b and r is a zero-shed
    dispatch too, balanced on the intact islands, with the same combination
    of their flows. No other row is tried.

    ``cuts`` holds one row of k removed line positions per outage. Each
    row's arithmetic reads only that row and the table, so its verdict
    does not depend on the other rows.
    """
    probes, rating, (count, k) = _probe_table(net).base, net.thermal_vector(), cuts.shape
    pf, settled = net.power_flow, np.zeros(count, dtype=bool)
    if not len(probes):
        return settled
    step = max(1, BATCH_ENTRIES // ((k + len(probes) * (2 * k + 1)) * max(1, len(rating))))
    for lo in range(0, count, step):
        outages = pf.factor(cuts[lo:lo + step])
        whole = np.flatnonzero(outages.torn < 0)
        if not len(whole):
            continue
        outages = outages.take(whole)
        flow = pf.flows(np.broadcast_to(probes, (len(whole), *probes.shape)), outages)
        fits = (np.abs(flow) <= rating).all(axis=-1).any(axis=1)
        left = np.flatnonzero(~fits)
        if k >= 2 and len(left):
            fits[left] = _segment_fits(net, flow[left], outages.take(left))
        settled[lo + whole] = fits
    return settled


def _segment_fits(net: Network, base: np.ndarray, outages: Outages) -> np.ndarray:
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
    rows, ok = net.shared("zero-shed probe rows", _probe_table(net).rows)
    part = outages.cuts
    rating, (count, k), m = net.thermal_vector(), part.shape, rows.shape[0]
    a = base[:, :, None, :]
    d = net.power_flow.flows(rows[part].reshape(count, 2 * k, m), outages)[:, None] - a
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


def _balanced(gen: np.ndarray, served: np.ndarray, comp: np.ndarray,
              size: int) -> tuple[np.ndarray, np.ndarray]:
    """``gen`` and ``served`` balanced on each island: on each key of
    ``comp`` (a key below ``size`` per bus, of one row or of each row), the
    larger of the two sums is scaled down pro rata to the smaller."""
    keys = comp.ravel()
    g_sum = np.bincount(keys, np.broadcast_to(gen, comp.shape).ravel(), size)
    s_sum = np.bincount(keys, np.broadcast_to(served, comp.shape).ravel(), size)
    g_scale = np.divide(s_sum, g_sum, out=np.ones(size), where=g_sum > s_sum)
    s_scale = np.divide(g_sum, s_sum, out=np.ones(size), where=s_sum > g_sum)
    return gen * g_scale[comp], served * s_scale[comp]


def _headroom(rating: np.ndarray, flow: np.ndarray) -> np.ndarray:
    """``rating / |flow|`` per line, in place of ``flow``: inf where the
    line carries no flow."""
    with np.errstate(divide="ignore"):
        return np.divide(rating, np.abs(flow, out=flow), out=flow)


def response_shed(net: Network, gen: np.ndarray, served: np.ndarray, outages: Outages,
                  rows: np.ndarray | None = None) -> np.ndarray:
    """Shed of a feasible defender response to each attack, built from one dispatch.

    ``gen`` and ``served`` are per-bus generation and served load, such as
    the optimal dispatch of another attack. ``outages``, from
    ``net.power_flow.factor``, holds the attacks, and ``rows`` picks those
    to bound (all by default). Per attack, the dispatch is balanced on
    every island of the surviving network (surplus generation or the
    served-load deficit scaled down pro rata), routed by DC power flow, and
    scaled on each island by the largest alpha <= 1 that keeps every line
    within its rating. That response is feasible for the attack's load-shed
    LP, so its shed bounds the attack's eta from above; for the attack that
    gave the dispatch it equals that attack's eta.

    The dispatch is balanced on the intact islands and routed by one PTDF
    product per call. An attack that is not torn (see ``Outages``), nearly
    every one, then takes only its k-by-k correction (``PowerFlow.flows``)
    and its alpha per intact island (``PowerFlow.island_min``). A torn
    attack, every split among them, is balanced on its own islands and
    routed alone. A row's shed reads only its own attack, so it does not
    depend on which rows are picked.
    """
    demand, rating = net.demand_vector(), net.thermal_vector()
    gen = np.clip(gen, 0.0, net.gen_cap_vector())
    served = np.clip(served, 0.0, demand)
    pf, total = net.power_flow, demand.sum()
    rows = np.arange(len(outages.cuts)) if rows is None else np.asarray(rows)
    g, s = _balanced(gen, served, pf.island, pf.num_islands)
    intact, served_on = (g - s) @ pf.ptdf_t, np.bincount(pf.island, s, pf.num_islands)
    shed = np.empty(len(rows))
    step = max(1, BATCH_ENTRIES // ((outages.cuts.shape[1] + 1) * max(len(gen), len(rating))))
    for lo in range(0, len(rows), step):
        part = rows[lo:lo + step]
        torn = outages.torn[part] >= 0
        whole = outages.take(part[~torn])
        flow = pf.flows(np.broadcast_to(intact, (len(whole.cuts), len(rating))), whole)
        alpha = np.minimum(pf.island_min(_headroom(rating, flow)), 1.0)
        shed[lo + np.flatnonzero(~torn)] = total - (alpha * served_on).sum(axis=1)
        if torn.any():
            shed[lo + np.flatnonzero(torn)] = total - _split_served(
                net, gen, served, outages.take(part[torn]))
    return shed


def _split_served(net: Network, gen: np.ndarray, served: np.ndarray,
                  outages: Outages) -> np.ndarray:
    """``response_shed``'s served load for torn attacks: the dispatch
    balanced on each attack's own islands, routed one attack at a time,
    and scaled per island."""
    pf, rating, n = net.power_flow, net.thermal_vector(), len(gen)
    count = len(outages.cuts)
    comp = np.arange(count)[:, None] * n + outages.islands[outages.torn]
    g, s = _balanced(gen, served, comp, count * n)
    # One vector-matrix product per attack: a matrix product would round a
    # row differently by the number of rows.
    flow = pf.flows(((g - s)[:, None] @ pf.ptdf_t)[:, 0], outages)
    alpha = np.ones(count * n)
    np.minimum.at(alpha, comp[:, pf.fr].ravel(), _headroom(rating, flow).ravel())
    return (alpha[comp] * s).sum(axis=1)
