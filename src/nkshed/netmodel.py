"""Grid model: buses, lines, attacker budgets, and case-file ingestion.

The network model carries exactly what the DC load-shed problem needs:
active demands, aggregate generation caps, line reactances and thermal
ratings, and (optionally) bus geolocation for spatial attack footprints.
All power quantities are per-unit on the case base MVA.
"""

from __future__ import annotations

import io
import re
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

__all__ = [
    "Bus",
    "Line",
    "Network",
    "AttackerModel",
    "CaseFormatError",
    "GeoFormatError",
    "parse_case",
    "parse_geo",
    "serialize_case",
    "total_load",
]

# Relative tolerance for the susceptance/reactance consistency invariant.
_B_X_RTOL = 1e-12


class CaseFormatError(ValueError):
    """Raised for malformed or inconsistent case files."""


class GeoFormatError(ValueError):
    """Raised for malformed or inconsistent geolocation CSV files."""


@dataclass(frozen=True)
class Bus:
    """A bus with active demand, aggregate generation cap, and optional location."""

    id: int
    demand: float = 0.0
    gen_cap: float = 0.0
    lat: float = 0.0
    lon: float = 0.0
    has_geo: bool = False

    def __post_init__(self):
        if self.demand < 0:
            raise ValueError(f"bus {self.id}: demand must be >= 0, got {self.demand}")
        if self.gen_cap < 0:
            raise ValueError(f"bus {self.id}: gen_cap must be >= 0, got {self.gen_cap}")
        if self.has_geo:
            if not -90.0 <= self.lat <= 90.0:
                raise ValueError(f"bus {self.id}: latitude out of range: {self.lat}")
            if not -180.0 <= self.lon <= 180.0:
                raise ValueError(f"bus {self.id}: longitude out of range: {self.lon}")


@dataclass(frozen=True)
class Line:
    """A transmission line with reactance, susceptance = 1/reactance, and thermal limit."""

    id: int
    from_bus: int
    to_bus: int
    reactance: float
    susceptance: float
    thermal: float

    def __post_init__(self):
        if self.from_bus == self.to_bus:
            raise ValueError(f"line {self.id}: from_bus == to_bus ({self.from_bus})")
        if self.reactance <= 0:
            raise ValueError(f"line {self.id}: non-positive reactance {self.reactance}")
        if self.thermal <= 0:
            raise ValueError(f"line {self.id}: non-positive thermal limit {self.thermal}")
        if abs(self.susceptance * self.reactance - 1.0) > _B_X_RTOL:
            raise ValueError(
                f"line {self.id}: susceptance {self.susceptance} is not 1/reactance"
            )

    @staticmethod
    def of(line_id: int, from_bus: int, to_bus: int, reactance: float, thermal: float) -> "Line":
        """Build a line computing the susceptance from the reactance."""
        return Line(line_id, from_bus, to_bus, reactance, 1.0 / reactance, thermal)


@dataclass(frozen=True)
class Network:
    """Immutable network with per-bus incidence maps precomputed.

    ``adjacency`` maps each bus id to ``(out_line_ids, in_line_ids)`` where a
    line (i, j) appears once in bus i's out list and once in bus j's in list.
    ``incidence`` is the same map as a sparse bus-by-line matrix in position
    order: -1 at a line's from bus, +1 at its to bus. ``big_M`` is the first
    band on the flow/angle coupling of interdicted lines; by default it is
    the total system demand.
    """

    buses: tuple[Bus, ...]
    lines: tuple[Line, ...]
    adjacency: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = field(repr=False)
    big_M: float = 0.0

    # Derived index arrays, filled in __post_init__ (positional, solver-facing).
    bus_pos: dict[int, int] = field(default_factory=dict, repr=False, compare=False)
    line_pos: dict[int, int] = field(default_factory=dict, repr=False, compare=False)
    # Solver-facing arrays, read-only, also filled in __post_init__.
    incidence: sparse.coo_array = field(init=False, repr=False, compare=False)
    _arrays: dict[str, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        bus_ids = [b.id for b in self.buses]
        if len(set(bus_ids)) != len(bus_ids):
            raise ValueError("duplicate bus id")
        if self.big_M <= 0:
            raise ValueError(f"big_M must be > 0, got {self.big_M}")
        object.__setattr__(self, "bus_pos", {b.id: i for i, b in enumerate(self.buses)})
        object.__setattr__(self, "line_pos", {l.id: e for e, l in enumerate(self.lines)})
        for line in self.lines:
            if line.from_bus not in self.bus_pos or line.to_bus not in self.bus_pos:
                raise ValueError(f"line {line.id} references unknown bus")
        arrays = {
            "demand": np.array([b.demand for b in self.buses], dtype=float),
            "gen_cap": np.array([b.gen_cap for b in self.buses], dtype=float),
            "susceptance": np.array([l.susceptance for l in self.lines], dtype=float),
            "thermal": np.array([l.thermal for l in self.lines], dtype=float),
            "fr": np.array([self.bus_pos[l.from_bus] for l in self.lines], dtype=int),
            "to": np.array([self.bus_pos[l.to_bus] for l in self.lines], dtype=int),
        }
        for a in arrays.values():
            a.flags.writeable = False
        m = len(self.lines)
        incidence = sparse.coo_array(
            (np.repeat([-1.0, 1.0], m),
             (np.concatenate([arrays["fr"], arrays["to"]]), np.tile(np.arange(m), 2))),
            shape=(len(self.buses), m))
        object.__setattr__(self, "_arrays", arrays)
        object.__setattr__(self, "incidence", incidence)

    @staticmethod
    def build(buses: list[Bus] | tuple[Bus, ...],
              lines: list[Line] | tuple[Line, ...],
              big_M: float | None = None) -> "Network":
        """Assemble a network, computing adjacency and the default big-M."""
        adjacency: dict[int, tuple[list[int], list[int]]] = {b.id: ([], []) for b in buses}
        for line in lines:
            if line.from_bus not in adjacency or line.to_bus not in adjacency:
                raise ValueError(f"line {line.id} references unknown bus")
            adjacency[line.from_bus][0].append(line.id)
            adjacency[line.to_bus][1].append(line.id)
        frozen = {i: (tuple(out), tuple(inc)) for i, (out, inc) in adjacency.items()}
        if big_M is None:
            total = sum(b.demand for b in buses)
            big_M = total if total > 0 else 1.0
        return Network(tuple(buses), tuple(lines), frozen, big_M)

    # -- solver-facing array views ------------------------------------------------

    def demand_vector(self) -> np.ndarray:
        return self._arrays["demand"]

    def gen_cap_vector(self) -> np.ndarray:
        return self._arrays["gen_cap"]

    def susceptance_vector(self) -> np.ndarray:
        return self._arrays["susceptance"]

    def thermal_vector(self) -> np.ndarray:
        return self._arrays["thermal"]

    def endpoint_positions(self) -> tuple[np.ndarray, np.ndarray]:
        return self._arrays["fr"], self._arrays["to"]

    def line_ids(self) -> tuple[int, ...]:
        return tuple(l.id for l in self.lines)

    def islands(self, in_service: np.ndarray) -> np.ndarray:
        """Island label per bus position, joined only by the lines where ``in_service``."""
        fr, to = self.endpoint_positions()
        n = len(self.buses)
        links = sparse.coo_array((np.ones(in_service.sum()), (fr[in_service], to[in_service])),
                                 shape=(n, n))
        return connected_components(links, directed=False)[1]

    def with_buses(self, buses: tuple[Bus, ...]) -> "Network":
        """Copy of this network with replaced bus records (same ids required)."""
        if tuple(b.id for b in buses) != tuple(b.id for b in self.buses):
            raise ValueError("bus id set must be unchanged")
        return Network(buses, self.lines, self.adjacency, self.big_M)


def total_load(net: Network) -> float:
    """Total active demand, the default big-M and the trivial dual bound."""
    return float(sum(b.demand for b in net.buses))


@dataclass(frozen=True)
class AttackerModel:
    """Attacker budget: which sets of lines may be taken out simultaneously.

    ``traditional`` removes any k lines; ``spatial`` removes up to k lines
    whose footprints share a candidate center bus within ``D_km``;
    ``topological`` removes exactly k lines forming a connected subgraph.
    """

    variant: str
    k: int
    D_km: float | None = None
    center_bus: int | None = None

    def __post_init__(self):
        if self.variant not in ("traditional", "spatial", "topological"):
            raise ValueError(f"unknown attacker variant: {self.variant!r}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.variant == "spatial":
            if self.D_km is None or self.D_km <= 0:
                raise ValueError("spatial model requires D_km > 0")
        else:
            if self.D_km is not None:
                raise ValueError("D_km only applies to the spatial model")
            if self.center_bus is not None:
                raise ValueError("center_bus only applies to the spatial model")

    @staticmethod
    def traditional(k: int) -> "AttackerModel":
        return AttackerModel("traditional", k)

    @staticmethod
    def spatial(k: int, D_km: float, center_bus: int | None = None) -> "AttackerModel":
        return AttackerModel("spatial", k, D_km, center_bus)

    @staticmethod
    def topological(k: int) -> "AttackerModel":
        return AttackerModel("topological", k)


# -- MATPOWER-subset case parsing --------------------------------------------------
#
# Only the columns the DC interdiction model uses are read: bus (id, Pd),
# gen (bus, Pmax), branch (f, t, x, rateA, status). Everything else is parsed
# positionally and ignored. MW quantities are converted to per-unit on baseMVA.

_BLOCK_RE = re.compile(r"mpc\.(\w+)\s*=\s*\[")
_SCALAR_RE = re.compile(r"mpc\.(\w+)\s*=\s*([^;\[]+);")


def _strip_comment(line: str) -> str:
    cut = line.find("%")
    return line if cut < 0 else line[:cut]


def _parse_row(raw: str, lineno: int, table: str, min_cols: int) -> list[float]:
    text = raw.replace(";", " ").replace(",", " ").strip()
    fields = text.split()
    values = []
    for pos, tok in enumerate(fields):
        try:
            values.append(float(tok))
        except ValueError:
            raise CaseFormatError(
                f"line {lineno}: malformed {table} row, field {pos + 1} ({tok!r}) is not a number"
            ) from None
    if len(values) < min_cols:
        raise CaseFormatError(
            f"line {lineno}: malformed {table} row, expected at least {min_cols} fields, got {len(values)}"
        )
    return values


def _scan_blocks(case_text: str) -> tuple[dict[str, float], dict[str, list[tuple[int, list[float]]]]]:
    """Split the .m text into scalar assignments and matrix blocks with line numbers."""
    scalars: dict[str, float] = {}
    tables: dict[str, list[tuple[int, list[float]]]] = {}
    current: str | None = None
    min_cols = {"bus": 3, "gen": 9, "branch": 11}
    for lineno, raw in enumerate(case_text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if current is None:
            m = _BLOCK_RE.search(line)
            if m:
                current = m.group(1)
                tables.setdefault(current, [])
                rest = line[m.end():].strip()
                if rest.endswith("];"):
                    rest = rest[:-2].strip()
                    if rest:
                        tables[current].append(
                            (lineno, _parse_row(rest, lineno, current, min_cols.get(current, 1))))
                    current = None
                elif rest:
                    tables[current].append(
                        (lineno, _parse_row(rest, lineno, current, min_cols.get(current, 1))))
                continue
            m = _SCALAR_RE.search(line)
            if m:
                try:
                    scalars[m.group(1)] = float(m.group(2).strip().strip("'\""))
                except ValueError:
                    pass  # non-numeric scalar (e.g. version string): ignored
            continue
        # inside a matrix block
        if line.startswith("];") or line == "]":
            current = None
            continue
        body = line
        closed = body.endswith("];")
        if closed:
            body = body[:-2].strip()
        if body:
            tables[current].append(
                (lineno, _parse_row(body, lineno, current, min_cols.get(current, 1))))
        if closed:
            current = None
    return scalars, tables


def parse_case(case_text: str | io.TextIOBase) -> Network:
    """Parse a MATPOWER-subset ``.m`` case into a :class:`Network`.

    Demands and ratings are converted from MW to per-unit on ``baseMVA``.
    Out-of-service branches (status 0) are dropped; a branch rateA of 0
    (unlimited) is mapped to the network big-M so the thermal constraint
    stays well formed. Generators at the same bus are aggregated by summing
    Pmax. Line ids are assigned 1..m in kept-branch order, so parallel
    branches stay independently interdictable.
    """
    if hasattr(case_text, "read"):
        case_text = case_text.read()
    scalars, tables = _scan_blocks(case_text)
    if "bus" not in tables or not tables["bus"]:
        raise CaseFormatError("case has no bus table")
    if "branch" not in tables:
        raise CaseFormatError("case has no branch table")
    base = float(scalars.get("baseMVA", 100.0))
    if base <= 0:
        raise CaseFormatError(f"baseMVA must be > 0, got {base}")

    demands: dict[int, float] = {}
    for lineno, row in tables["bus"]:
        bus_id = int(round(row[0]))
        if bus_id in demands:
            raise CaseFormatError(f"line {lineno}: duplicate bus id {bus_id}")
        demands[bus_id] = row[2] / base

    gen_cap: dict[int, float] = {b: 0.0 for b in demands}
    for lineno, row in tables.get("gen", []):
        bus_id = int(round(row[0]))
        if bus_id not in demands:
            raise CaseFormatError(f"line {lineno}: generator references unknown bus {bus_id}")
        gen_cap[bus_id] += row[8] / base

    buses = [
        Bus(bus_id, demand=max(demands[bus_id], 0.0), gen_cap=gen_cap[bus_id])
        for bus_id in demands
    ]
    total = sum(b.demand for b in buses)
    big_M = total if total > 0 else 1.0

    lines: list[Line] = []
    next_id = 1
    for lineno, row in tables["branch"]:
        status = int(round(row[10]))
        if status == 0:
            continue
        f_bus, t_bus = int(round(row[0])), int(round(row[1]))
        for end in (f_bus, t_bus):
            if end not in demands:
                raise CaseFormatError(f"line {lineno}: branch references unknown bus {end}")
        x_mag = abs(row[3])  # reactance magnitude; series-compensated branches carry x < 0
        if x_mag <= 0:
            raise CaseFormatError(f"line {lineno}: non-positive reactance {row[3]}")
        rate_a = row[5] / base
        thermal = rate_a if rate_a > 0 else big_M
        lines.append(Line.of(next_id, f_bus, t_bus, x_mag, thermal))
        next_id += 1
    return Network.build(buses, lines, big_M=big_M)


def serialize_case(net: Network) -> str:
    """Emit the canonical ``.m`` form of a network (baseMVA = 1, p.u. values).

    ``parse_case(serialize_case(net))`` reproduces every solver-facing field.
    """
    out = ["function mpc = nkshed_case", "mpc.baseMVA = 1;"]
    out.append("mpc.bus = [")
    for b in net.buses:
        out.append(f"\t{b.id}\t1\t{b.demand!r}\t0\t0\t0\t1\t1\t0\t1\t1\t1.1\t0.9;")
    out.append("];")
    out.append("mpc.gen = [")
    for b in net.buses:
        if b.gen_cap > 0:
            out.append(f"\t{b.id}\t0\t0\t0\t0\t1\t1\t1\t{b.gen_cap!r}\t0;")
    out.append("];")
    out.append("mpc.branch = [")
    for l in net.lines:
        out.append(
            f"\t{l.from_bus}\t{l.to_bus}\t0\t{l.reactance!r}\t0\t{l.thermal!r}\t0\t0\t0\t0\t1\t-360\t360;"
        )
    out.append("];")
    return "\n".join(out) + "\n"


def parse_geo(csv_text: str | io.TextIOBase, net: Network) -> Network:
    """Attach bus geolocations from CSV rows ``bus_id,lat,lon``.

    Buses absent from the CSV keep ``has_geo = False``. A CSV row naming a
    bus the network does not contain is an error, as are duplicate rows and
    out-of-range coordinates.
    """
    if hasattr(csv_text, "read"):
        csv_text = csv_text.read()
    rows = [r.strip() for r in csv_text.splitlines()]
    rows = [r for r in rows if r]
    if not rows:
        raise GeoFormatError("empty geolocation file")
    header = [h.strip().lower() for h in rows[0].split(",")]
    if header != ["bus_id", "lat", "lon"]:
        raise GeoFormatError(f"expected header 'bus_id,lat,lon', got {rows[0]!r}")
    coords: dict[int, tuple[float, float]] = {}
    for lineno, row in enumerate(rows[1:], start=2):
        parts = [p.strip() for p in row.split(",")]
        if len(parts) != 3:
            raise GeoFormatError(f"line {lineno}: expected 3 fields, got {len(parts)}")
        try:
            bus_id = int(parts[0])
            lat, lon = float(parts[1]), float(parts[2])
        except ValueError:
            raise GeoFormatError(f"line {lineno}: malformed row {row!r}") from None
        if bus_id not in net.bus_pos:
            raise GeoFormatError(f"line {lineno}: unknown bus id {bus_id}")
        if bus_id in coords:
            raise GeoFormatError(f"line {lineno}: duplicate bus id {bus_id}")
        if not -90.0 <= lat <= 90.0:
            raise GeoFormatError(f"line {lineno}: latitude out of range: {lat}")
        if not -180.0 <= lon <= 180.0:
            raise GeoFormatError(f"line {lineno}: longitude out of range: {lon}")
        coords[bus_id] = (lat, lon)
    buses = tuple(
        replace(b, lat=coords[b.id][0], lon=coords[b.id][1], has_geo=True)
        if b.id in coords else b
        for b in net.buses
    )
    return net.with_buses(buses)
