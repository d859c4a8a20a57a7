"""Small synthetic networks for tests, demos, and certification runs.

Every fixture is fully geolocated (coordinates spread around 40N 111W on a
fraction-of-a-degree grid) so the spatial budget is meaningful, and sized so
exhaustive enumeration stays instant. ``SPATIAL_D`` suggests a disk diameter
per fixture that makes the spatial budget genuinely constraining: some line
pairs share a candidate center, others do not.

``random_mesh(seed)`` draws small seeded networks without coordinates. Their
total load is often below 1 p.u., which no fixture in the zoo has, and many
of their attacks split the network into islands.
"""

from __future__ import annotations

import random

from .netmodel import Bus, Line, Network, serialize_case

__all__ = ["two_bus", "triangle", "braess4", "star5", "ring6", "mesh8", "random_mesh",
           "FIXTURES", "SPATIAL_D", "write_case", "write_geo"]


def _net(bus_rows, line_rows) -> Network:
    buses = [Bus(i, demand=d, gen_cap=g, lat=lat, lon=lon) for i, d, g, lat, lon in bus_rows]
    lines = [Line(lid, f, t, x, cap) for lid, f, t, x, cap in line_rows]
    return Network(buses, lines)


def two_bus() -> Network:
    """One generator bus feeding one load bus over a single line."""
    return _net(
        [(1, 0.0, 1.0, 40.00, -111.00),
         (2, 1.0, 0.0, 40.00, -110.40)],
        [(1, 1, 2, 0.10, 1.0)],
    )


def triangle() -> Network:
    """Three-bus loop: one generator, two loads, one weak closing line."""
    return _net(
        [(1, 0.0, 2.0, 40.00, -111.00),
         (2, 1.0, 0.0, 40.50, -111.00),
         (3, 1.0, 0.0, 40.00, -110.40)],
        [(1, 1, 2, 0.10, 1.0),
         (2, 1, 3, 0.10, 1.0),
         (3, 2, 3, 0.10, 0.5)],
    )


def braess4() -> Network:
    """Four-bus mesh whose cross line congests the loop at the base point."""
    return _net(
        [(1, 0.0, 3.0, 40.00, -111.00),
         (2, 1.0, 0.0, 40.40, -110.60),
         (3, 1.0, 0.0, 39.60, -110.60),
         (4, 1.0, 0.0, 40.00, -110.20)],
        [(1, 1, 2, 0.10, 1.2),
         (2, 1, 3, 0.10, 1.5),
         (3, 2, 4, 0.10, 0.8),
         (4, 3, 4, 0.10, 0.8),
         (5, 2, 3, 0.10, 0.5)],
    )


def star5() -> Network:
    """Radial hub-and-spoke: every leaf hangs on one line."""
    return _net(
        [(1, 0.0, 2.4, 40.00, -111.00),
         (2, 0.6, 0.0, 40.35, -111.00),
         (3, 0.6, 0.0, 40.00, -110.55),
         (4, 0.6, 0.0, 39.65, -111.00),
         (5, 0.6, 0.0, 40.00, -111.45)],
        [(1, 1, 2, 0.08, 0.65),
         (2, 1, 3, 0.08, 0.65),
         (3, 1, 4, 0.08, 0.65),
         (4, 1, 5, 0.08, 0.65)],
    )


def ring6() -> Network:
    """Six-bus ring with two generators and asymmetric thermal ratings."""
    return _net(
        [(1, 0.0, 2.0, 40.00, -111.00),
         (2, 0.6, 0.0, 40.30, -110.70),
         (3, 0.6, 0.0, 40.30, -110.30),
         (4, 0.0, 1.0, 40.00, -110.00),
         (5, 0.6, 0.0, 39.70, -110.30),
         (6, 0.6, 0.0, 39.70, -110.70)],
        [(1, 1, 2, 0.10, 0.9),
         (2, 2, 3, 0.10, 0.5),
         (3, 3, 4, 0.10, 0.5),
         (4, 4, 5, 0.10, 0.9),
         (5, 5, 6, 0.10, 0.5),
         (6, 6, 1, 0.10, 0.5)],
    )


def mesh8() -> Network:
    """Eight-bus mesh with a parallel line pair and two generation sites."""
    return _net(
        [(1, 0.0, 2.5, 40.00, -111.20),
         (2, 0.5, 0.0, 40.30, -110.90),
         (3, 0.6, 0.0, 40.30, -110.50),
         (4, 0.4, 0.0, 40.15, -110.10),
         (5, 0.0, 1.5, 39.85, -110.10),
         (6, 0.7, 0.0, 39.70, -110.50),
         (7, 0.5, 0.0, 39.70, -110.90),
         (8, 0.3, 0.0, 39.85, -111.20)],
        [(1, 1, 2, 0.10, 0.7),
         (2, 1, 2, 0.12, 0.6),   # parallel to line 1, independently removable
         (3, 2, 3, 0.10, 0.6),
         (4, 3, 4, 0.10, 0.5),
         (5, 4, 5, 0.10, 0.6),
         (6, 5, 6, 0.10, 0.7),
         (7, 6, 7, 0.10, 0.5),
         (8, 7, 8, 0.10, 0.4),
         (9, 8, 1, 0.10, 0.6),
         (10, 2, 7, 0.15, 0.5),
         (11, 3, 6, 0.15, 0.5),
         (12, 4, 8, 0.20, 0.4)],
    )


def random_mesh(seed: int) -> Network:
    """Seeded 4-7 bus mesh: a random spanning tree plus 1..n random chords.

    Drawn from ``random.Random(seed)`` in this order: the bus count n; per
    bus in id order, bus 1 always and any other with probability 0.35 a
    generator of capacity U(0.5, 3), else a load of U(0.2, 1); a tree parent
    for each of buses 2..n; the chord count and each chord's two distinct
    buses; then per line in order its reactance U(0.05, 0.3) and rating
    U(0.1, 1.5). Chords may parallel other lines.
    """
    rng = random.Random(seed)
    n = rng.randint(4, 7)
    buses = [Bus(i, 0.0, rng.uniform(0.5, 3.0)) if i == 1 or rng.random() < 0.35
             else Bus(i, rng.uniform(0.2, 1.0), 0.0)
             for i in range(1, n + 1)]
    edges = [(rng.randint(1, i - 1), i) for i in range(2, n + 1)]
    edges += [tuple(rng.sample(range(1, n + 1), 2)) for _ in range(rng.randint(1, n))]
    lines = [Line(e + 1, a, b, rng.uniform(0.05, 0.3), rng.uniform(0.1, 1.5))
             for e, (a, b) in enumerate(edges)]
    return Network(buses, lines)


FIXTURES = {
    "two_bus": two_bus,
    "triangle": triangle,
    "braess4": braess4,
    "star5": star5,
    "ring6": ring6,
    "mesh8": mesh8,
}

# Disk diameters (km) that make the spatial budget bite on each fixture.
SPATIAL_D = {
    "two_bus": 80.0,
    "triangle": 80.0,
    "braess4": 90.0,
    "star5": 80.0,
    "ring6": 70.0,
    "mesh8": 80.0,
}


def write_case(net: Network, path) -> None:
    with open(path, "w") as fh:
        fh.write(serialize_case(net))


def write_geo(net: Network, path) -> None:
    with open(path, "w") as fh:
        fh.write("bus_id,lat,lon\n")
        for b in net.buses:
            if b.has_geo:
                fh.write(f"{b.id},{b.lat!r},{b.lon!r}\n")
