"""Attacker feasible sets: footprints, mixed-integer encodings, predicates.

Three budgets are supported. The traditional budget fixes the number of
interdicted lines. The spatial budget additionally requires every chosen
line to sit inside a disk of diameter ``D_km`` around a chosen center bus,
realized through per-line candidate-center sets. The topological budget
requires the chosen lines to form a connected subgraph, realized through a
single-commodity virtual flow sourced at a super node that feeds one unit
to every bus touching an interdicted line.

``encode_feasible_set`` produces the mixed-integer constraint system the
master problem (and, relaxed, the dual-bound LPs) embeds.
``is_feasible_attack`` is the standalone predicate the brute-force oracle
uses; the two are exhaustively cross-checked in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .netmodel import AttackerModel, Network

__all__ = [
    "EARTH_RADIUS_KM",
    "SpatialFootprint",
    "MasterEncoding",
    "SpatiallyInfeasibleError",
    "haversine_km",
    "planar_km",
    "compute_phi",
    "encode_feasible_set",
    "is_feasible_attack",
]

EARTH_RADIUS_KM = 6371.0


class SpatiallyInfeasibleError(ValueError):
    """No line can be interdicted for any candidate center: spatially infeasible."""


def haversine_km(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Great-circle distance in km between (lat, lon) points, R = 6371 km."""
    lat1, lon1 = math.radians(a[0]), math.radians(a[1])
    lat2, lon2 = math.radians(b[0]), math.radians(b[1])
    s = (math.sin((lat2 - lat1) / 2.0) ** 2
         + math.cos(lat1) * math.cos(lat2) * math.sin((lon2 - lon1) / 2.0) ** 2)
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(s)))


def planar_km(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Equirectangular flat-earth distance in km; cheap alternative metric."""
    lat1, lon1 = math.radians(a[0]), math.radians(a[1])
    lat2, lon2 = math.radians(b[0]), math.radians(b[1])
    x = (lon2 - lon1) * math.cos(0.5 * (lat1 + lat2))
    y = lat2 - lat1
    return EARTH_RADIUS_KM * math.hypot(x, y)

_DISTANCE = {"haversine": haversine_km, "planar": planar_km}


@dataclass(frozen=True)
class SpatialFootprint:
    """Per-line candidate center buses: those within D/2 of the line midpoint."""

    phi: dict[int, frozenset[int]]
    D_km: float
    distance_mode: str = "haversine"


def compute_phi(net: Network, D_km: float, distance_mode: str = "haversine") -> SpatialFootprint:
    """Candidate-center sets for every line.

    A bus belongs to a line's set when its distance to the line's geographic
    midpoint (arithmetic mean of the endpoint coordinates) is at most D/2.
    Requires every bus to be geolocated.
    """
    if D_km <= 0:
        raise ValueError(f"D_km must be > 0, got {D_km}")
    if distance_mode not in _DISTANCE:
        raise ValueError(f"unknown distance mode {distance_mode!r}")
    dist = _DISTANCE[distance_mode]
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
            b.id for b in net.buses if dist((b.lat, b.lon), midpoint) <= radius
        )
    return SpatialFootprint(phi, D_km, distance_mode)


@dataclass
class MasterEncoding:
    """Mixed-integer description of one attacker feasible set.

    Columns live in named blocks; ``blocks['x']`` always holds one binary per
    line, in ``line_order``. Rows are two-sided ``lo <= a.x <= hi``; equalities
    have ``lo == hi``. The engine prepends its objective variable and offsets
    all column indices by one; the dual-bound LPs relax ``integrality``.
    """

    model: AttackerModel
    line_order: tuple[int, ...]
    bus_order: tuple[int, ...]
    blocks: dict[str, np.ndarray]
    lb: np.ndarray
    ub: np.ndarray
    integrality: np.ndarray
    rows: list[tuple[np.ndarray, np.ndarray, float, float]] = field(default_factory=list)
    footprint: SpatialFootprint | None = None

    @property
    def num_vars(self) -> int:
        return len(self.lb)

    def add_row(self, cols, vals, lo: float, hi: float) -> None:
        self.rows.append((np.asarray(cols, dtype=int), np.asarray(vals, dtype=float),
                          float(lo), float(hi)))

    def row_block(self) -> tuple[sparse.coo_array, np.ndarray, np.ndarray]:
        """All rows as one sparse block with per-row ``lo``/``hi``, for ``Model.add_rows``."""
        cols, vals, lo, hi = zip(*self.rows)
        owner = np.repeat(np.arange(len(cols)), [len(c) for c in cols])
        mat = sparse.coo_array((np.concatenate(vals), (owner, np.concatenate(cols))),
                               shape=(len(cols), self.num_vars))
        return mat, np.array(lo), np.array(hi)


def _base_encoding(net: Network, model: AttackerModel) -> MasterEncoding:
    m = len(net.lines)
    return MasterEncoding(
        model=model,
        line_order=net.line_ids(),
        bus_order=tuple(b.id for b in net.buses),
        blocks={"x": np.arange(m)},
        lb=np.zeros(m),
        ub=np.ones(m),
        integrality=np.ones(m, dtype=bool),
    )


def _extend(enc: MasterEncoding, name: str, count: int, lb=0.0, ub=1.0,
            integer: bool = True) -> np.ndarray:
    start = enc.num_vars
    idx = np.arange(start, start + count)
    enc.blocks[name] = idx
    enc.lb = np.concatenate([enc.lb, np.broadcast_to(lb, count).astype(float)])
    enc.ub = np.concatenate([enc.ub, np.broadcast_to(ub, count).astype(float)])
    enc.integrality = np.concatenate([enc.integrality, np.full(count, integer)])
    return idx


def encode_feasible_set(net: Network, model: AttackerModel,
                        footprint: SpatialFootprint | None = None) -> MasterEncoding:
    """Constraint system whose 0/1 solutions project onto the feasible attacks."""
    m, n = len(net.lines), len(net.buses)
    enc = _base_encoding(net, model)
    x = enc.blocks["x"]

    if model.variant == "traditional":
        if model.k > m:
            raise ValueError(f"infeasible: k = {model.k} exceeds {m} lines")
        enc.add_row(x, np.ones(m), model.k, model.k)
        return enc

    if model.variant == "spatial":
        if footprint is None:
            raise ValueError("spatial encoding requires a footprint")
        if all(len(footprint.phi[lid]) == 0 for lid in net.line_ids()):
            raise SpatiallyInfeasibleError(
                f"spatially infeasible: no line within D/2 = {footprint.D_km / 2} km "
                "of any candidate center")
        c = _extend(enc, "center", n)
        enc.add_row(x, np.ones(m), -np.inf, model.k)   # at most k lines
        enc.add_row(c, np.ones(n), 1.0, 1.0)           # exactly one center
        bus_col = {bid: c[i] for i, bid in enumerate(enc.bus_order)}
        for e, lid in enumerate(enc.line_order):
            cand = footprint.phi[lid]
            cols = [x[e]] + [bus_col[bid] for bid in sorted(cand)]
            vals = [1.0] + [-1.0] * len(cand)
            enc.add_row(cols, vals, -np.inf, 0.0)      # x_e <= sum of its candidate centers
        if model.center_bus is not None:
            if model.center_bus not in bus_col:
                raise ValueError(f"pinned center bus {model.center_bus} not in network")
            col = bus_col[model.center_bus]
            enc.lb[col] = 1.0                          # known event location
        return enc

    # topological
    if model.k > m:
        raise ValueError(f"infeasible: k = {model.k} exceeds {m} lines")
    y = _extend(enc, "y", n)
    kx = _extend(enc, "kappa_edge", n)
    fwd = _extend(enc, "flow_fwd", m, lb=0.0, ub=np.inf, integer=False)
    rev = _extend(enc, "flow_rev", m, lb=0.0, ub=np.inf, integer=False)
    kflow = _extend(enc, "kappa_flow", n, lb=0.0, ub=np.inf, integer=False)
    k = float(model.k)

    enc.add_row(x, np.ones(m), k, k)                   # exactly k lines
    enc.add_row(kx, np.ones(n), 1.0, 1.0)              # one super-node edge
    for e, (i, j) in enumerate(zip(*net.endpoint_positions())):
        enc.add_row([x[e], y[i]], [1.0, -1.0], -np.inf, 0.0)
        enc.add_row([x[e], y[j]], [1.0, -1.0], -np.inf, 0.0)
        enc.add_row([fwd[e], x[e]], [1.0, -k], -np.inf, 0.0)
        enc.add_row([rev[e], x[e]], [1.0, -k], -np.inf, 0.0)
    for i in range(n):
        enc.add_row([kflow[i], kx[i]], [1.0, -(k + 1.0)], -np.inf, 0.0)
    # Virtual-flow balance: net inflow equals 1 for marked buses, with the
    # super-node edge supplying its bus.
    inc = net.incidence.tocsr()
    for i in range(n):
        on = slice(inc.indptr[i], inc.indptr[i + 1])
        lines, sign = inc.indices[on], inc.data[on]
        cols = np.concatenate([[y[i], kflow[i]], fwd[lines], rev[lines]])
        vals = np.concatenate([[-1.0, 1.0], sign, -sign])
        enc.add_row(cols, vals, 0.0, 0.0)
    return enc


def _connected(net: Network, lines: frozenset[int]) -> bool:
    """Edge-induced subgraph of the chosen lines is a single component."""
    if not lines:
        return True
    chosen = np.zeros(len(net.lines), dtype=bool)
    chosen[[net.line_pos[lid] for lid in lines]] = True
    island = net.islands(chosen)
    return len(set(island[net.endpoint_positions()[0][chosen]])) == 1


def is_feasible_attack(net: Network, model: AttackerModel,
                       footprint: SpatialFootprint | None, lines) -> bool:
    """Direct predicate for membership of a line set in the attacker feasible set."""
    lines = frozenset(int(l) for l in lines)
    for lid in lines:
        if lid not in net.line_pos:
            raise ValueError(f"unknown line id {lid}")
    if model.variant == "traditional":
        return len(lines) == model.k
    if model.variant == "spatial":
        if footprint is None:
            raise ValueError("spatial feasibility requires a footprint")
        if len(lines) > model.k:
            return False
        centers = spatial_centers(net, footprint, lines)
        if model.center_bus is not None:
            return model.center_bus in centers
        return len(centers) > 0
    return len(lines) == model.k and _connected(net, lines)


def spatial_centers(net: Network, footprint: SpatialFootprint, lines) -> frozenset[int]:
    """Buses that can serve as the disk center for all the given lines at once."""
    lines = frozenset(int(l) for l in lines)
    centers = frozenset(b.id for b in net.buses)
    for lid in lines:
        centers &= footprint.phi[lid]
    return centers
