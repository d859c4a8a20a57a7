"""Seeded lattice networks as MATPOWER text plus a ``bus_id,lat,lon`` grid.

The network follows the ROADMAP lattice generator. ``random.Random(net_seed)``
first draws every bus in row-major order: a generator with probability 0.2
and capacity U(2, 4) p.u., otherwise a load of U(0.2, 0.8) p.u. It then draws
every line in row-major order (the line to the right neighbour before the
line to the one below): reactance U(0.05, 0.2), then rating U(0.8, 2.0).

``label_seed`` draws only the bus ids and the placement of the geolocation
grid. It changes the text nkshed parses, but not the network's arrays in bus
and branch order, so every label seed poses the same problem with the same
answer and line ids. ``label_seed=None`` gives ids 1..n on a fixed grid.

Values are written with ``repr`` on ``baseMVA = 1``, the form
``nkshed.serialize_case`` uses, so parsing reproduces them bit for bit.
"""

from __future__ import annotations

import random

__all__ = ["lattice_text"]


def lattice_text(rows: int, cols: int, net_seed: int,
                 label_seed: int | None = None) -> tuple[str, str]:
    """Return ``(case_text, geo_text)`` for a ``rows`` x ``cols`` lattice."""
    rng = random.Random(net_seed)
    n = rows * cols
    demand, gen_cap = [], []
    for _ in range(n):
        if rng.random() < 0.2:
            demand.append(0.0)
            gen_cap.append(rng.uniform(2.0, 4.0))
        else:
            demand.append(rng.uniform(0.2, 0.8))
            gen_cap.append(0.0)
    branches = []
    for i in range(rows):
        for j in range(cols):
            b = i * cols + j
            if j + 1 < cols:
                branches.append((b, b + 1))
            if i + 1 < rows:
                branches.append((b, b + cols))
    params = [(rng.uniform(0.05, 0.2), rng.uniform(0.8, 2.0)) for _ in branches]

    if label_seed is None:
        ids = list(range(1, n + 1))
        lat0, lon0, step = 40.0, -111.0, 0.25
    else:
        lab = random.Random(label_seed)
        ids = lab.sample(range(1, 100_000), n)
        lat0, lon0, step = lab.uniform(25.0, 45.0), lab.uniform(-120.0, -75.0), lab.uniform(0.1, 0.5)

    case = ["function mpc = lattice", "mpc.baseMVA = 1;", "mpc.bus = ["]
    case += [f"\t{ids[b]}\t1\t{demand[b]!r}\t0\t0\t0\t1\t1\t0\t1\t1\t1.1\t0.9;" for b in range(n)]
    case += ["];", "mpc.gen = ["]
    case += [f"\t{ids[b]}\t0\t0\t0\t0\t1\t1\t1\t{gen_cap[b]!r}\t0;" for b in range(n) if gen_cap[b] > 0]
    case += ["];", "mpc.branch = ["]
    case += [f"\t{ids[f]}\t{ids[t]}\t0\t{x!r}\t0\t{rate!r}\t0\t0\t0\t0\t1\t-360\t360;"
             for (f, t), (x, rate) in zip(branches, params)]
    case += ["];"]

    geo = ["bus_id,lat,lon"]
    geo += [f"{ids[b]},{round(lat0 - (b // cols) * step, 6)!r},{round(lon0 + (b % cols) * step, 6)!r}"
            for b in range(n)]
    return "\n".join(case) + "\n", "\n".join(geo) + "\n"
