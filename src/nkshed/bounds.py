"""Per-line penalty rates for the MILP master's cuts.

A cut from a priced attack caps the shed estimate of every attack by the
priced shed plus, for each line the attack removes, the line's rate times
its absolute flow at the priced operating point. The rates shape the MILP
master's proposals; they prove nothing. No rate set makes these cuts valid:
with ``valid_bounds`` rates, the cut from attack {1, 2} on
``fixtures.random_mesh(1)`` bounds attack {1, 3} by 0.3799, against its
true shed of 0.5037, because the priced operating point violates the
restored line's coupling and no rate prices that. Over random meshes 0-99
at k = 2, 1706 ordered pairs break this way. Proofs come from the
enumerated master's feasible-response bound (``inner.response_shed``).

Two modes are provided. ``heuristic_bounds`` prices every line at 1.0: the
shed caused by removing a line is then taken to be at most the flow it
carried, which holds for pure transportation networks but can undershoot on
meshed networks (Braess-style reroutes). ``valid_bounds`` prices every line
at the total system load, except for lines the relaxation LPs show can
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

from .attackers import SpatialFootprint, encode_feasible_set
from .backend import Model
from .inner import DCColumns, add_dc_network
from .netmodel import AttackerModel, Network, total_load

__all__ = ["DualBounds", "heuristic_bounds", "valid_bounds"]

VALID = "valid"
HEURISTIC = "heuristic"

# LP values at or below this are treated as exactly zero when classifying
# whether a line can ever carry flow in a direction.
FLOW_DEAD_TOL = 1e-6


@dataclass(frozen=True)
class DualBounds:
    """Per-line penalty rates, indexed by line position.

    An interdicted line's coupling is dropped from the load-shed LP, so its
    duals are zero and a line needs one rate only: its thermal pair's,
    charged on the flow in either direction.
    """

    rate: np.ndarray
    mode: str
    # Directional flow extremes (max reverse, max forward) from the valid-mode
    # relaxation LPs; empty in heuristic mode. Diagnostic only.
    flow_range: dict[int, tuple[float, float]] = field(default_factory=dict)

    def __post_init__(self):
        for e in np.flatnonzero(self.rate < 0):
            raise ValueError(f"rate[{e}] must be >= 0, got {self.rate[e]}")

    def price(self, flow: np.ndarray) -> np.ndarray:
        """Each line's rate times its absolute flow, by line position."""
        return self.rate * np.abs(flow)


def heuristic_bounds(net: Network) -> DualBounds:
    """Unit rates for every line."""
    return DualBounds(rate=np.ones(len(net.lines)), mode=HEURISTIC)


def _line_pairs(dc: DCColumns) -> sparse.coo_array:
    """Per line the rows coupling, -coupling, flow and -flow, in model columns."""
    cpl, line = dc.coupling, np.arange(len(dc.flow))
    return sparse.coo_array(
        (np.concatenate([cpl.data, -cpl.data, np.ones(len(line)), -np.ones(len(line))]),
         (np.concatenate([4 * cpl.row, 4 * cpl.row + 1, 4 * line + 2, 4 * line + 3]),
          np.concatenate([cpl.col, cpl.col, dc.flow, dc.flow]))),
        shape=(4 * len(line), cpl.shape[1]))


def _flow_extreme_lp(net: Network, model: AttackerModel,
                     footprint: SpatialFootprint | None, line_pos: int, sign: float) -> float:
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
    # The feasible set's columns and rows first; solve_lp relaxes its binaries.
    x = encode_feasible_set(mdl, net, model, footprint)["x"]
    dc = add_dc_network(mdl, net, 0.0)

    # Coupling relaxes and thermal shrinks as a line's x grows, except on the
    # probed line, which keeps the fixed +-M band and its full rating.
    others = np.flatnonzero(np.arange(m) != line_pos)
    x_coef = np.column_stack([np.full(m, big_m), np.full(m, big_m), -t, -t])
    rows = (4 * others[:, None] + np.arange(4)).ravel()
    relax = sparse.coo_array(
        (x_coef[others].ravel(), (rows, np.repeat(x[others], 4))),
        shape=(4 * m, mdl.num_vars))
    lo = np.column_stack([np.zeros(m), np.zeros(m), -t, -t])
    lo[line_pos, :2] = -big_m
    mdl.add_rows(_line_pairs(dc) + relax, lo.ravel(), np.inf)

    mdl.set_objective_coef(int(dc.flow[line_pos]), -sign)  # min -sign*p == max sign*p
    sol = mdl.solve_lp()
    return float(-sol.objective)


def valid_bounds(net: Network, model: AttackerModel,
                 footprint: SpatialFootprint | None = None) -> DualBounds:
    """Rates of total load everywhere except provably flow-dead lines.

    For each line the pair of relaxation LPs ``max +-flow`` is solved over
    the relaxed feasible set. A line whose flow can never leave zero in
    either direction is priced at zero; every other line is priced at the
    total load. Like any rate set, these rates shape the MILP master's
    proposals and prove nothing (see the module docstring).
    """
    load = total_load(net)
    rate = np.empty(len(net.lines))
    rng: dict[int, tuple[float, float]] = {}
    for e, line in enumerate(net.lines):
        fwd = _flow_extreme_lp(net, model, footprint, e, +1.0)
        rev = _flow_extreme_lp(net, model, footprint, e, -1.0)
        rng[line.id] = (rev, fwd)
        rate[e] = 0.0 if fwd <= FLOW_DEAD_TOL and rev <= FLOW_DEAD_TOL else load
    return DualBounds(rate=rate, mode=VALID, flow_range=rng)
