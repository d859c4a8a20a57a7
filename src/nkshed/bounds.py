"""Upper bounds on the optimal thermal duals across all feasible attacks.

The cutting-plane cuts price each interdicted line's flow at a per-line
rate. For the cuts to never undercut the true shed of any feasible attack,
the rates must dominate the optimal duals of the interdicted-line thermal
rows over the whole feasible set.

Two modes are provided. ``heuristic_bounds`` prices every line at 1.0: the
shed caused by removing a line is then assumed to be at most the flow it
carried, which is exact for pure transportation networks but can undershoot
on meshed networks (Braess-style reroutes), so heuristic runs should be
certified afterwards. ``valid_bounds`` prices every line at the total
system load, a safe ceiling, except for lines the relaxation LPs prove can
never carry flow in either direction; those are priced at zero.

A note on the zero-pricing test: pruning a line merely because the
relaxation shows it is never *congested* (max |flow| strictly below its
thermal rating) is not sound here. The relevant duals are those of the
interdicted state, where the thermal pair pins the flow to zero and its
multiplier is the marginal value of restoring a unit of flow; that value
can be positive on an uncongested line whose rating is simply generous
(e.g. a rating of 10 on a line that carries 2 but whose loss strands load).
The relaxation can only certify a zero rate in a direction the line can
never use at all, which is the test applied below.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .attackers import MasterEncoding
from .backend import Model
from .inner import InnerSolution, add_dc_network, line_pairs
from .netmodel import Network, total_load

__all__ = ["DualBounds", "heuristic_bounds", "valid_bounds"]

VALID = "valid"
HEURISTIC = "heuristic"

# LP values at or below this are treated as exactly zero when classifying
# whether a line can ever carry flow in a direction.
FLOW_DEAD_TOL = 1e-6


@dataclass(frozen=True)
class DualBounds:
    """Per-line penalty rates for the interdicted thermal pair ``(pi1, pi2)``.

    The flow/angle coupling rows of an interdicted line carry zero duals
    once big-M is large enough, so they need no rate.
    """

    pi1: dict[int, float]
    pi2: dict[int, float]
    mode: str
    # Directional flow extremes (max reverse, max forward) from the valid-mode
    # relaxation LPs; empty in heuristic mode. Diagnostic only.
    flow_range: dict[int, tuple[float, float]] = field(default_factory=dict)

    def __post_init__(self):
        for name, entries in (("pi1", self.pi1), ("pi2", self.pi2)):
            for lid, v in entries.items():
                if v < 0:
                    raise ValueError(f"{name}[{lid}] must be >= 0, got {v}")

    def line(self, line_id: int) -> tuple[float, float]:
        return self.pi1[line_id], self.pi2[line_id]

    def price(self, sol: InnerSolution, line_id: int) -> float:
        """The line's flow in ``sol``, its negative part at pi1 and positive part at pi2."""
        pi1, pi2 = self.line(line_id)
        return pi1 * sol.flow_neg(line_id) + pi2 * sol.flow_pos(line_id)


def heuristic_bounds(net: Network) -> DualBounds:
    """Unit rates for every line; fast, not guaranteed, certify afterwards."""
    one = {lid: 1.0 for lid in net.line_ids()}
    return DualBounds(pi1=dict(one), pi2=dict(one), mode=HEURISTIC)


def _flow_extreme_lp(net: Network, encoding: MasterEncoding, line_pos: int,
                     sign: float) -> float:
    """max sign * flow(line) over the relaxed attack polytope and DC physics.

    The attack variables are relaxed to [0, 1] with the feasible-set rows
    kept. Every other line keeps its interdiction-dependent coupling and
    thermal rows; the probed line is left at full strength with its coupling
    relaxed to the +-M band, so the extreme covers both its surviving and
    interdicted operating ranges.
    """
    m = len(net.lines)
    t = net.thermal_vector()
    big_m = net.big_M

    mdl = Model(f"flow-extreme-{net.lines[line_pos].id}")
    # Feasible-set columns first (binaries relaxed), mirroring encoding order.
    mdl.add_vars(encoding.num_vars, lb=encoding.lb, ub=encoding.ub)
    mdl.add_rows(*encoding.row_block())
    dc = add_dc_network(mdl, net, 0.0)

    # Coupling relaxes and thermal shrinks as a line's x grows, except on the
    # probed line, which keeps the fixed +-M band and its full rating.
    others = np.flatnonzero(np.arange(m) != line_pos)
    x_coef = np.column_stack([np.full(m, big_m), np.full(m, big_m), -t, -t])
    rows = (4 * others[:, None] + np.arange(4)).ravel()
    relax = sparse.coo_array(
        (x_coef[others].ravel(), (rows, np.repeat(encoding.blocks["x"][others], 4))),
        shape=(4 * m, mdl.num_vars))
    lo = np.column_stack([np.zeros(m), np.zeros(m), -t, -t])
    lo[line_pos, :2] = -big_m
    mdl.add_rows(line_pairs(dc) + relax, lo.ravel(), np.inf)

    mdl.set_objective_coef(int(dc.flow[line_pos]), -sign)  # min -sign*p == max sign*p
    sol = mdl.solve_lp()
    return float(-sol.objective)


def valid_bounds(net: Network, encoding: MasterEncoding) -> DualBounds:
    """Certified rates: total load everywhere except provably flow-dead directions.

    For each line the pair of relaxation LPs ``max +-flow`` is solved over
    the relaxed feasible set. A line whose flow can never leave zero in
    either direction can never matter to any attack and is priced at zero;
    every other line is priced at the total load, the conservative ceiling
    on any load-shed dual.
    """
    load = total_load(net)
    pi1: dict[int, float] = {}
    pi2: dict[int, float] = {}
    rng: dict[int, tuple[float, float]] = {}
    for e, line in enumerate(net.lines):
        fwd = _flow_extreme_lp(net, encoding, e, +1.0)
        rev = _flow_extreme_lp(net, encoding, e, -1.0)
        rng[line.id] = (rev, fwd)
        dead = fwd <= FLOW_DEAD_TOL and rev <= FLOW_DEAD_TOL
        pi1[line.id] = 0.0 if dead else load
        pi2[line.id] = 0.0 if dead else load
    return DualBounds(pi1=pi1, pi2=pi2, mode=VALID, flow_range=rng)
