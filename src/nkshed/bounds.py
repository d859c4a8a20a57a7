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
at the total system load, the most shed any attack can cause. A line whose
flow can never leave zero carries zero flow at every priced point, so its
rate never enters a cut, and no line needs a rate of its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .netmodel import Network, total_load

__all__ = ["DualBounds", "heuristic_bounds", "valid_bounds"]

VALID = "valid"
HEURISTIC = "heuristic"


@dataclass(frozen=True)
class DualBounds:
    """Per-line penalty rates, indexed by line position.

    An interdicted line's coupling is dropped from the load-shed LP, so its
    duals are zero and a line needs one rate only: its thermal pair's,
    charged on the flow in either direction.
    """

    rate: np.ndarray
    mode: str

    def __post_init__(self):
        for e in np.flatnonzero(self.rate < 0):
            raise ValueError(f"rate[{e}] must be >= 0, got {self.rate[e]}")

    def price(self, flow: np.ndarray) -> np.ndarray:
        """Each line's rate times its absolute flow, by line position."""
        return self.rate * np.abs(flow)


def heuristic_bounds(net: Network) -> DualBounds:
    """Unit rates for every line."""
    return DualBounds(rate=np.ones(len(net.lines)), mode=HEURISTIC)


def valid_bounds(net: Network) -> DualBounds:
    """The total load as every line's rate. Like any rate set, these rates
    shape the MILP master's proposals and prove nothing (see the module
    docstring)."""
    return DualBounds(rate=np.full(len(net.lines), total_load(net)), mode=VALID)
