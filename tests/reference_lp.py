"""Independent dense-LP pricing of an attack, used as a test oracle.

Deliberately a separate code path from the package solver: dense matrices
assembled directly here, thermal limits imposed as variable bounds instead
of rows, and scipy.linprog called straight. Only the network data model is
shared.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog


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


def reference_flow_extreme(net, k: int, line_id: int, sign: float) -> float:
    """max sign*flow(line) over the relaxed traditional-attack polytope.

    Independent dense restatement of the per-line relaxation used to certify
    dual upper bounds: attack variables live in [0, 1] with their cardinality
    row kept, other lines keep interdiction-scaled coupling/thermal rows, and
    the probed line runs at full strength with an unconditioned +-M coupling
    band.
    """
    n, m = len(net.buses), len(net.lines)
    probe = net.line_pos[line_id]
    big_m = default_band(net)
    demand = np.array([b.demand for b in net.buses])
    cap = np.array([b.gen_cap for b in net.buses])
    b_sus = np.array([l.susceptance for l in net.lines])
    t = np.array([l.thermal for l in net.lines])
    bus_row = {bus.id: i for i, bus in enumerate(net.buses)}

    # Columns: x (m) | shed (n) | gen (n) | theta (n) | flow (m)
    def col(block, i):
        return {"x": 0, "shed": m, "gen": m + n, "theta": m + 2 * n,
                "flow": m + 3 * n}[block] + i

    n_var = m + 3 * n + m
    c = np.zeros(n_var)
    c[col("flow", probe)] = -sign  # linprog minimizes

    a_eq = np.zeros((n + 1, n_var))
    b_eq = np.zeros(n + 1)
    a_eq[0, :m] = 1.0
    b_eq[0] = k
    for i, bus in enumerate(net.buses):
        a_eq[1 + i, col("shed", i)] = demand[i]
        a_eq[1 + i, col("gen", i)] = 1.0
        b_eq[1 + i] = demand[i]
    for e, line in enumerate(net.lines):
        a_eq[1 + bus_row[line.from_bus], col("flow", e)] = -1.0
        a_eq[1 + bus_row[line.to_bus], col("flow", e)] = 1.0

    rows = []

    def add_ub(entries, rhs):
        row = np.zeros(n_var)
        for cc, v in entries:
            row[cc] = v
        rows.append((row, rhs))

    for e, line in enumerate(net.lines):
        fi, ti = bus_row[line.from_bus], bus_row[line.to_bus]
        couple = [(col("flow", e), 1.0), (col("theta", fi), b_sus[e]),
                  (col("theta", ti), -b_sus[e])]
        neg = [(cc, -v) for cc, v in couple]
        if e == probe:
            add_ub(couple, big_m)
            add_ub(neg, big_m)
            add_ub([(col("flow", e), 1.0)], t[e])
            add_ub([(col("flow", e), -1.0)], t[e])
        else:
            add_ub(couple + [(col("x", e), -big_m)], 0.0)
            add_ub(neg + [(col("x", e), -big_m)], 0.0)
            add_ub([(col("flow", e), 1.0), (col("x", e), t[e])], t[e])
            add_ub([(col("flow", e), -1.0), (col("x", e), t[e])], t[e])

    a_ub = np.vstack([r for r, _ in rows])
    b_ub = np.array([rhs for _, rhs in rows])
    bounds = ([(0.0, 1.0)] * m + [(0.0, 1.0)] * n
              + [(0.0, cap[i]) for i in range(n)] + [(None, None)] * n
              + [(None, None)] * m)
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds,
                  method="highs")
    assert res.status == 0, f"reference relaxation LP not optimal: {res.message}"
    return float(-res.fun)
