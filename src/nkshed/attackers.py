"""Attacker feasible sets: footprints, mixed-integer encodings, predicates.

Three budgets are supported. The traditional budget fixes the number of
interdicted lines. The spatial budget additionally requires every chosen
line to sit inside a disk of diameter ``D_km`` around a chosen center bus,
realized through per-line candidate-center sets: ``compute_phi`` builds
them once per network and D, and every call reads them through the
model's D. The topological budget requires the chosen lines to form a
connected subgraph, realized through a single-commodity virtual flow
sourced at a super node that feeds one unit to every bus touching an
interdicted line.

``encode_feasible_set`` appends that mixed-integer constraint system to a
caller's ``backend.Model`` as triplet row blocks and returns its columns by
block name, for the MILP master.
``is_feasible_attack`` is the standalone predicate the brute-force oracle
uses; the two are exhaustively cross-checked in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .backend import Model
from .netmodel import AttackerModel, Network

__all__ = [
    "EARTH_RADIUS_KM",
    "SpatialFootprint",
    "SpatiallyInfeasibleError",
    "NoFeasibleAttackError",
    "haversine_km",
    "compute_phi",
    "check_budget",
    "encode_feasible_set",
    "is_feasible_attack",
]

EARTH_RADIUS_KM = 6371.0


class NoFeasibleAttackError(RuntimeError):
    """The attacker feasible set is empty."""


class SpatiallyInfeasibleError(ValueError):
    """No line can be interdicted for any candidate center: spatially infeasible."""


def haversine_km(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Great-circle distance in km between (lat, lon) points, R = 6371 km."""
    lat1, lon1 = math.radians(a[0]), math.radians(a[1])
    lat2, lon2 = math.radians(b[0]), math.radians(b[1])
    s = (math.sin((lat2 - lat1) / 2.0) ** 2
         + math.cos(lat1) * math.cos(lat2) * math.sin((lon2 - lon1) / 2.0) ** 2)
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(s)))


@dataclass(frozen=True)
class SpatialFootprint:
    """Per-line candidate center buses: those within D/2 of the line midpoint."""

    phi: dict[int, frozenset[int]]
    D_km: float


def compute_phi(net: Network, D_km: float) -> SpatialFootprint:
    """Candidate-center sets for every line, built once per network and D.

    A bus belongs to a line's set when its great-circle distance to the
    line's geographic midpoint (arithmetic mean of the endpoint
    coordinates) is at most D/2. Requires every bus to be geolocated.
    """
    if not D_km > 0:
        raise ValueError(f"D_km must be > 0, got {D_km}")
    return net.shared(("footprint", D_km), lambda: _footprint(net, D_km))


def _footprint(net: Network, D_km: float) -> SpatialFootprint:
    missing = [b.id for b in net.buses if not b.has_geo]
    if missing:
        raise ValueError(f"buses without geolocation: {missing}")
    pos = {b.id: (b.lat, b.lon) for b in net.buses}
    radius = D_km / 2.0
    phi: dict[int, frozenset[int]] = {}
    for line in net.lines:
        (lat1, lon1), (lat2, lon2) = pos[line.from_bus], pos[line.to_bus]
        midpoint = ((lat1 + lat2) / 2.0, (lon1 + lon2) / 2.0)
        phi[line.id] = frozenset(
            b.id for b in net.buses if haversine_km((b.lat, b.lon), midpoint) <= radius
        )
    return SpatialFootprint(phi, D_km)


def check_budget(net: Network, model: AttackerModel) -> None:
    """Raise if ``model`` cannot be posed on ``net``.

    An exact-k budget with k above the line count has no feasible attack
    and raises :class:`NoFeasibleAttackError`, as the oracle does. A
    spatial budget raises ``ValueError`` on a network with a bus lacking
    geolocation (through :func:`compute_phi`) or with a pinned center bus
    the network lacks, and :class:`SpatiallyInfeasibleError` when the
    footprint gives no line a candidate center.
    """
    if model.variant != "spatial":
        if model.k > len(net.lines):
            raise NoFeasibleAttackError(
                f"no feasible attack: k = {model.k} exceeds {len(net.lines)} lines")
        return
    if not any(compute_phi(net, model.D_km).phi.values()):
        raise SpatiallyInfeasibleError(
            f"spatially infeasible: no line within D/2 = {model.D_km / 2} km "
            "of any candidate center")
    if model.center_bus is not None and model.center_bus not in net.bus_pos:
        raise ValueError(f"pinned center bus {model.center_bus} not in network")


def encode_feasible_set(mdl: Model, net: Network, model: AttackerModel) -> dict[str, np.ndarray]:
    """Append a constraint system whose 0/1 solutions project onto the feasible attacks.

    Returns the columns added to ``mdl`` by block name. ``"x"`` holds one
    binary per line position; the spatial budget adds ``"center"``, one
    binary per bus position, and the topological budget ``"y"``,
    ``"kappa_edge"``, ``"flow_fwd"``, ``"flow_rev"`` and ``"kappa_flow"``.
    """
    check_budget(net, model)
    m, n = len(net.lines), len(net.buses)
    line, bus = np.arange(m), np.arange(n)
    k = float(model.k)
    x = mdl.add_vars(m, lb=0.0, ub=1.0, integer=True)

    if model.variant == "traditional":
        mdl.add_eq(x, np.ones(m), k)
        return {"x": x}

    if model.variant == "spatial":
        lb = np.zeros(n)
        if model.center_bus is not None:
            lb[net.bus_pos[model.center_bus]] = 1.0     # known event location
        c = mdl.add_vars(n, lb=lb, ub=1.0, integer=True)
        mdl.add_le(x, np.ones(m), k)                    # at most k lines
        mdl.add_eq(c, np.ones(n), 1.0)                  # exactly one center
        # x_e <= sum of its candidate centers, one row per line.
        phi = compute_phi(net, model.D_km).phi
        sets = [phi[lid] for lid in net.line_ids()]
        owner = np.repeat(line, [len(s) for s in sets])
        center = np.fromiter((net.bus_pos[bid] for s in sets for bid in s), int, len(owner))
        mdl._append(m, np.concatenate([line, owner]), np.concatenate([x, c[center]]),
                    np.concatenate([np.ones(m), -np.ones(len(owner))]), -np.inf, 0.0)
        return {"x": x, "center": c}

    # topological
    y = mdl.add_vars(n, lb=0.0, ub=1.0, integer=True)
    kx = mdl.add_vars(n, lb=0.0, ub=1.0, integer=True)
    fwd = mdl.add_vars(m, lb=0.0, ub=np.inf)
    rev = mdl.add_vars(m, lb=0.0, ub=np.inf)
    kflow = mdl.add_vars(n, lb=0.0, ub=np.inf)
    mdl.add_eq(x, np.ones(m), k)                        # exactly k lines
    mdl.add_eq(kx, np.ones(n), 1.0)                     # one super-node edge
    # Four rows per line: x_e <= y at either end, and fwd_e, rev_e <= k x_e.
    fr, to = net.endpoint_positions()
    mdl._append(4 * m, np.repeat(np.arange(4 * m), 2),
                np.column_stack([x, y[fr], x, y[to], fwd, x, rev, x]).ravel(),
                np.tile([1.0, -1.0, 1.0, -1.0, 1.0, -k, 1.0, -k], m), -np.inf, 0.0)
    mdl._append(n, np.repeat(bus, 2), np.column_stack([kflow, kx]).ravel(),
                np.tile([1.0, -(k + 1.0)], n), -np.inf, 0.0)
    # Virtual-flow balance: net inflow equals 1 for marked buses, with the
    # super-node edge supplying its bus.
    ends, sign = np.concatenate([fr, to]), np.repeat([-1.0, 1.0], m)
    mdl._append(n, np.concatenate([bus, bus, ends, ends]),
                np.concatenate([y, kflow, fwd, fwd, rev, rev]),
                np.concatenate([-np.ones(n), np.ones(n), sign, -sign]), 0.0, 0.0)
    return {"x": x, "y": y, "kappa_edge": kx, "flow_fwd": fwd, "flow_rev": rev,
            "kappa_flow": kflow}


def _connected(net: Network, lines: frozenset[int]) -> bool:
    """Edge-induced subgraph of the chosen lines is a single component."""
    fr, to = net.endpoint_positions()
    ends = [{fr[net.line_pos[lid]], to[net.line_pos[lid]]} for lid in lines]
    reached = ends.pop() if ends else set()
    while ends:
        touching = [e for e in ends if e & reached]
        if not touching:
            return False
        for e in touching:
            reached |= e
            ends.remove(e)
    return True


def is_feasible_attack(net: Network, model: AttackerModel, lines) -> bool:
    """Direct predicate for membership of a line set in the attacker feasible set."""
    lines = frozenset(int(l) for l in lines)
    for lid in lines:
        if lid not in net.line_pos:
            raise ValueError(f"unknown line id {lid}")
    if model.variant == "traditional":
        return len(lines) == model.k
    if model.variant == "spatial":
        if len(lines) > model.k:
            return False
        centers = spatial_centers(net, model, lines)
        if model.center_bus is not None:
            return model.center_bus in centers
        return len(centers) > 0
    return len(lines) == model.k and _connected(net, lines)


def spatial_centers(net: Network, model: AttackerModel, lines) -> frozenset[int]:
    """Buses that can serve as the disk center for all the given lines at once."""
    phi = compute_phi(net, model.D_km).phi
    lines = frozenset(int(l) for l in lines)
    centers = frozenset(net.bus_pos)
    for lid in lines:
        centers &= phi[lid]
    return centers
