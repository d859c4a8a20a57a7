"""Independent dense-LP pricing of an attack, used as a test oracle.

Deliberately a separate code path from the package solver: dense matrices
assembled directly here, thermal limits imposed as variable bounds instead
of rows, and scipy.linprog called straight. Only the network data model is
shared.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog


def incidence(net) -> np.ndarray:
    """The dense bus-by-line incidence in position order, from the line
    endpoints: -1 at a line's from bus, +1 at its to bus."""
    fr, to = net.endpoint_positions()
    inc, line = np.zeros((len(net.buses), len(fr))), np.arange(len(fr))
    inc[fr, line], inc[to, line] = -1.0, 1.0
    return inc


def default_band(net) -> float:
    """The +-M coupling band: total demand, or 1 when it is zero."""
    return sum(b.demand for b in net.buses) or 1.0


def reference_eta(net, attacked_line_ids, big_m: float | None = None) -> float:
    """Optimal load shed for the given attack, from first principles."""
    attacked = set(attacked_line_ids)
    n, m = len(net.buses), len(net.lines)
    big_m = float(big_m if big_m is not None else default_band(net))
    demand = np.array([b.demand for b in net.buses])
    cap = np.array([b.gen_cap for b in net.buses])
    x = np.array([1.0 if l.id in attacked else 0.0 for l in net.lines])
    b_sus = np.array([l.susceptance for l in net.lines])
    t = np.array([l.thermal for l in net.lines])
    bus_row = {bus.id: i for i, bus in enumerate(net.buses)}

    # Columns: shed (n) | gen (n) | theta (n) | flow (m)
    n_var = 3 * n + m
    c = np.zeros(n_var)
    c[:n] = demand

    a_eq = np.zeros((n, n_var))
    b_eq = demand.copy()
    for e, line in enumerate(net.lines):
        a_eq[bus_row[line.from_bus], 3 * n + e] = -1.0
        a_eq[bus_row[line.to_bus], 3 * n + e] = 1.0
    for i in range(n):
        a_eq[i, i] = demand[i]
        a_eq[i, n + i] = 1.0

    # Coupling rows: -M x <= flow + b (th_from - th_to) <= M x
    a_ub = np.zeros((2 * m, n_var))
    b_ub = np.zeros(2 * m)
    for e, line in enumerate(net.lines):
        fi, ti = bus_row[line.from_bus], bus_row[line.to_bus]
        a_ub[2 * e, 3 * n + e] = 1.0
        a_ub[2 * e, 2 * n + fi] = b_sus[e]
        a_ub[2 * e, 2 * n + ti] = -b_sus[e]
        b_ub[2 * e] = big_m * x[e]
        a_ub[2 * e + 1] = -a_ub[2 * e]
        b_ub[2 * e + 1] = big_m * x[e]

    bounds = (
        [(0.0, 1.0)] * n
        + [(0.0, cap[i]) for i in range(n)]
        + [(None, None)] * n
        + [(-t[e] * (1 - x[e]), t[e] * (1 - x[e])) for e in range(m)]
    )
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds,
                  method="highs")
    assert res.status == 0, f"reference LP not optimal: {res.message}"
    return float(res.fun)
