"""The benchmark's lattice networks (``bench/lattice.py`` at net seed 1), for tests."""

import importlib.util
import random
from pathlib import Path

from nkshed.netmodel import Bus, Line, Network, parse_case

_path = Path(__file__).resolve().parent.parent / "bench" / "lattice.py"
_spec = importlib.util.spec_from_file_location("lattice", _path)
_lattice = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_lattice)


def lattice(rows: int, cols: int) -> Network:
    """The rows x cols lattice at net seed 1, without its geolocation."""
    return parse_case(_lattice.lattice_text(rows, cols, 1)[0])


def spurs(rows: int, cols: int, count: int, seed: int = 1) -> Network:
    """The rows x cols lattice with ``count`` radial spurs, each a load bus
    hung by one line from a lattice bus, so that many attacks split an island.

    Per spur, ``random.Random(seed)`` draws in this order: the host, a
    lattice bus; the new bus's demand, U(0.2, 0.8) p.u., with no
    generation; the new line's reactance U(0.05, 0.2) and rating
    U(0.8, 2.0). Bus and line ids continue after the lattice's largest.
    """
    base, rng = lattice(rows, cols), random.Random(seed)
    buses, lines = list(base.buses), list(base.lines)
    bus_id, line_id = max(b.id for b in buses), max(l.id for l in lines)
    for i in range(1, count + 1):
        host = rng.choice(base.buses).id
        buses.append(Bus(bus_id + i, demand=rng.uniform(0.2, 0.8)))
        lines.append(Line(line_id + i, host, bus_id + i, rng.uniform(0.05, 0.2),
                          rng.uniform(0.8, 2.0)))
    return Network(tuple(buses), tuple(lines))
