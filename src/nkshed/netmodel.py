"""Grid model: buses, lines, attacker budgets, and case-file ingestion.

The network model carries exactly what the DC load-shed problem needs:
active demands, aggregate generation caps, line reactances and thermal
ratings, and (optionally) bus geolocation for spatial attack footprints.
All power quantities are per-unit on the case base MVA.
"""

from __future__ import annotations

import io
import numbers
import re
import threading
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

__all__ = [
    "Bus",
    "Line",
    "Network",
    "PowerFlow",
    "AttackerModel",
    "CaseFormatError",
    "GeoFormatError",
    "parse_case",
    "parse_geo",
    "serialize_case",
    "total_load",
]

# Batched outage computations work in chunks of rows whose temporary arrays
# hold about this many entries each.
BATCH_ENTRIES = 1 << 18


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
        if not np.isfinite([self.demand, self.gen_cap]).all():
            raise ValueError(f"bus {self.id}: demand and gen_cap must be finite")
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
    thermal: float

    def __post_init__(self):
        if self.from_bus == self.to_bus:
            raise ValueError(f"line {self.id}: from_bus == to_bus ({self.from_bus})")
        if not np.isfinite([self.reactance, self.thermal]).all():
            raise ValueError(f"line {self.id}: reactance and thermal limit must be finite")
        if self.reactance <= 0:
            raise ValueError(f"line {self.id}: non-positive reactance {self.reactance}")
        if self.thermal <= 0:
            raise ValueError(f"line {self.id}: non-positive thermal limit {self.thermal}")

    @property
    def susceptance(self) -> float:
        return 1.0 / self.reactance


@dataclass(frozen=True)
class Network:
    """Immutable network with its bus-by-line incidence precomputed.

    ``bus_pos`` and ``line_pos`` map ids to positions. ``incidence`` is a
    dense, read-only bus-by-line array in position order: -1 at a line's
    from bus, +1 at its to bus. ``thread_cache`` is a ``threading.local``
    in which solvers keep per-thread state built from the network, such as
    the kept load-shed model of :mod:`nkshed.inner`; ``shared`` keeps state
    that every thread reads, built once per network under a lock: the
    oracle's zero-shed probe table and the spatial footprint of each disk
    diameter.
    Every new Network, including one made by ``dataclasses.replace`` or
    ``parse_geo``, starts with both empty.
    ``power_flow`` is the network's :class:`PowerFlow`, built on first use.
    """

    buses: tuple[Bus, ...]
    lines: tuple[Line, ...]

    # Derived index maps, filled in __post_init__ (positional, solver-facing).
    bus_pos: dict[int, int] = field(init=False, repr=False, compare=False)
    line_pos: dict[int, int] = field(init=False, repr=False, compare=False)
    # Solver-facing arrays, read-only, also filled in __post_init__.
    incidence: np.ndarray = field(init=False, repr=False, compare=False)
    _arrays: dict[str, np.ndarray] = field(init=False, repr=False, compare=False)
    thread_cache: threading.local = field(init=False, repr=False, compare=False)
    _shared: dict = field(init=False, repr=False, compare=False)
    _shared_lock: threading.Lock = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        bus_pos = {b.id: i for i, b in enumerate(self.buses)}
        line_pos = {l.id: e for e, l in enumerate(self.lines)}
        for kind, pos, records in (("bus", bus_pos, self.buses), ("line", line_pos, self.lines)):
            if len(pos) != len(records):
                raise ValueError(f"duplicate {kind} id")
        object.__setattr__(self, "bus_pos", bus_pos)
        object.__setattr__(self, "line_pos", line_pos)
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
        line = np.arange(len(self.lines))
        incidence = np.zeros((len(self.buses), len(self.lines)))
        incidence[arrays["fr"], line], incidence[arrays["to"], line] = -1.0, 1.0
        for a in (*arrays.values(), incidence):
            a.flags.writeable = False
        object.__setattr__(self, "_arrays", arrays)
        object.__setattr__(self, "incidence", incidence)
        object.__setattr__(self, "thread_cache", threading.local())
        object.__setattr__(self, "_shared", {})
        object.__setattr__(self, "_shared_lock", threading.Lock())

    @staticmethod
    def build(buses: list[Bus] | tuple[Bus, ...],
              lines: list[Line] | tuple[Line, ...]) -> "Network":
        """Assemble a network from bus and line records."""
        return Network(tuple(buses), tuple(lines))

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

    def shared(self, key, build):
        """The value ``build()`` returned for ``key`` on this network.

        The first caller builds it while holding the network's lock, so it
        is built once and every thread reads the same object. A build must
        not call ``shared``: the lock is not reentrant. Keys in use:
        ``"zero-shed probes"``, the oracle's zero-shed probe table, and
        ``("footprint", D_km)``, the spatial footprint of one disk diameter
        (``attackers.compute_phi``).
        """
        if key not in self._shared:
            with self._shared_lock:
                if key not in self._shared:
                    self._shared[key] = build()
        return self._shared[key]

    @cached_property
    def power_flow(self) -> "PowerFlow":
        return PowerFlow(self)

    def with_buses(self, buses: tuple[Bus, ...]) -> "Network":
        """Copy of this network with replaced bus records (same ids required)."""
        if tuple(b.id for b in buses) != tuple(b.id for b in self.buses):
            raise ValueError("bus id set must be unchanged")
        return Network(buses, self.lines)


class PowerFlow:
    """Position-indexed DC power flow of one network, batched over line outages.

    Signs follow the load-shed LP: ``flow = b * (ang_to - ang_fr)`` and a
    bus's net injection ``p = gen - served`` leaves it, so
    ``incidence @ flow = -p``. Each batch call takes ``cuts``, an integer
    array with one row of removed line positions per outage.

    ``ptdf_t`` (buses by lines) is the transposed PTDF: ``inj @ ptdf_t``
    gives the intact network's flows for injections balanced on each of
    its islands. It comes from one dense solve of the Laplacian with the
    row and column of one root bus per island removed, so the roots' rows
    are exactly 0. The difference of its rows at line e's endpoints,
    ``ptdf @ incidence[:, e]``, is the flow each line takes over per unit
    moved off line e, so an outage of k lines gets its flows from the
    intact ones by one k-by-k solve (line outage distribution factors).
    Off its unit diagonal, each entry of that system is the flow on one
    removed line per unit moved between another's endpoints, at most 1 in
    magnitude. The system is singular exactly when the outage splits an
    island; it is then still consistent for injections balanced on the new
    islands, and every solution gives the same flows, so such outages take
    its least-squares solution. ``splits``, the one split test, reads its
    determinant, and ``flows`` is the one outage-flow kernel: the engine's
    feasible-response bound and the oracle's zero-shed screen call both.
    """

    # A zero singular value or determinant of an outage's k-by-k system rounds
    # to at most this. The system, the identity minus a matrix similar to a
    # symmetric one with eigenvalues in [0, 1], has eigenvalues in [0, 1].
    _SINGULAR = 1e-10

    def __init__(self, net: Network):
        self.fr, self.to = net.endpoint_positions()
        b, inc = net.susceptance_vector(), net.incidence
        self.island = _islands(self.fr, self.to, len(net.buses), np.zeros((1, 0), dtype=int))[0]
        self.num_islands = self.island.max() + 1
        # Grounding a root by +1 on its diagonal instead would leave rounding
        # noise in its row, enough to flip a zero-shed screen verdict.
        free = np.ones(len(self.island), dtype=bool)
        free[np.unique(self.island, return_index=True)[1]] = False
        self.ptdf_t = np.zeros(inc.shape)
        if free.any():
            part = inc[free]
            self.ptdf_t[free] = np.linalg.solve((part * b) @ part.T, part)
        self.ptdf_t *= -b

    def islands(self, cuts: np.ndarray, split: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Islands left by each outage.

        Returns a component key per bus of each row, unique across rows,
        and whether each row splits an island of the intact network. Rows
        that ``split`` (as ``splits`` returned it) marks False keep the
        intact islands; the others go through ``_islands``.
        """
        count, n = len(cuts), len(self.island)
        comp = np.arange(count)[:, None] * n + self.island
        search = np.flatnonzero(split)
        torn = np.zeros(count, dtype=bool)
        if not len(search):
            return comp, torn
        found = _islands(self.fr, self.to, n, cuts[search])
        first = np.unique(found, return_index=True)[1]
        torn[search] = np.bincount(first // n, minlength=len(search)) > self.num_islands
        comp[search] = count * n + found
        return comp, torn

    def splits(self, cuts: np.ndarray) -> np.ndarray:
        """Whether each outage splits an island of the intact network: whether
        the determinant of its k-by-k system is at most ``_SINGULAR``.

        A split makes the system exactly singular, and with entries at most
        1 in magnitude its determinant rounds to about 1e-16, so no split is
        missed. A nearly singular outage that keeps every island is flagged
        too, at a cost in time alone: ``islands`` finds it whole, and the
        zero-shed screen leaves it to the LP.
        """
        split = np.empty(len(cuts), dtype=bool)
        step = max(1, BATCH_ENTRIES // max(1, cuts.shape[1] ** 2))
        for lo in range(0, len(cuts), step):
            split[lo:lo + step] = np.linalg.det(self._system(cuts[lo:lo + step])) <= self._SINGULAR
        return split

    def _system(self, cuts: np.ndarray) -> np.ndarray:
        """Per outage, its k-by-k system: entry (i, j) is 1 where i = j plus the
        flow removed line i takes over per unit moved off removed line j."""
        at = cuts[:, :, None]
        return np.eye(cuts.shape[1]) + (self.ptdf_t[self.to[cuts][:, None, :], at]
                                        - self.ptdf_t[self.fr[cuts][:, None, :], at])

    def flows(self, base: np.ndarray, cuts: np.ndarray, split: np.ndarray) -> np.ndarray:
        """Line flows with each row's lines removed.

        ``base`` holds, per row, the intact network's flows of one injection
        (rows by lines) or of several (rows by injections by lines), each
        balanced on every island the row's outage leaves. Removed lines
        carry zero flow. ``split`` marks the rows whose outage splits an
        island, as ``islands`` returns it; their flows come from the
        least-squares solution.
        """
        count, k = cuts.shape
        flow = np.array(base, dtype=float)
        wide = flow.reshape(count, -1, flow.shape[-1])
        if k:
            # The flow each line takes over per unit moved off each removed line.
            shift = self.ptdf_t[self.to[cuts]] - self.ptdf_t[self.fr[cuts]]
            block = self._system(cuts)
            lost = np.take_along_axis(wide, cuts[:, None, :], axis=2).transpose(0, 2, 1)
            moved = np.zeros_like(lost)
            moved[~split] = np.linalg.solve(block[~split], lost[~split])
            if split.any():
                u, sv, vt = np.linalg.svd(block[split])
                keep = (sv > self._SINGULAR)[:, :, None]
                part = u.transpose(0, 2, 1) @ lost[split]
                part = np.divide(part, sv[:, :, None], out=np.zeros_like(part), where=keep)
                moved[split] = vt.transpose(0, 2, 1) @ part
            wide -= np.einsum("rjp,rjm->rpm", moved, shift)
        wide[np.arange(count)[:, None], :, cuts] = 0.0
        return flow


def _islands(fr: np.ndarray, to: np.ndarray, n: int, cuts: np.ndarray) -> np.ndarray:
    """Island label per bus position left by each outage (a row of removed
    line positions in ``cuts``), on lines given by their endpoint positions.

    Labels number the islands across rows in the order of their lowest
    bus, as a graph search started from each bus in turn numbers them.
    Each bus points at itself or at a lower bus of its island. Each round
    points the higher of each line's two end targets at the lower, then
    jumps pointers until every bus points at a bus that points at itself.
    Once a round changes nothing, every bus points at its island's lowest.
    """
    count = len(cuts)
    keep = np.ones((count, len(fr)), dtype=bool)
    keep[np.arange(count)[:, None], cuts] = False
    row, line = np.nonzero(keep)
    u, v = row * n + fr[line], row * n + to[line]
    root = np.arange(count * n)
    while True:
        ru, rv = root[u], root[v]
        before = root.copy()
        np.minimum.at(root, np.maximum(ru, rv), np.minimum(ru, rv))
        while True:
            jump = root[root]
            if (jump == root).all():
                break
            root = jump
        if (root == before).all():
            return np.unique(root, return_inverse=True)[1].reshape(count, n)


def _default_big_M(buses) -> float:
    """Total demand, or 1 when it is zero."""
    total = sum(b.demand for b in buses)
    return total if total > 0 else 1.0


def total_load(net: Network) -> float:
    """Total active demand, the trivial dual bound."""
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
        if not isinstance(self.k, numbers.Integral):
            raise ValueError(f"k must be an integer, got {self.k!r}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.variant == "spatial":
            if self.D_km is None or not self.D_km > 0:
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
_SCALAR_RE = re.compile(r"mpc\.(\w+)\s*=\s*([^;\[]+)(?:;|$)")


def _strip_comment(line: str) -> str:
    cut = line.find("%")
    return line if cut < 0 else line[:cut]


def _parse_row(raw: str, lineno: int, table: str, min_cols: int) -> list[float]:
    text = raw.replace(",", " ").strip()
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


def _finite(row: list[float], col: int, lineno: int, table: str) -> float:
    if not np.isfinite(row[col]):
        raise CaseFormatError(f"line {lineno}: {table} field {col + 1} must be finite, "
                              f"got {row[col]}")
    return row[col]


def _scan_blocks(case_text: str) -> tuple[dict[str, float], dict[str, list[tuple[int, list[float]]]]]:
    """Split the .m text into scalar assignments and matrix blocks with line numbers."""
    scalars: dict[str, float] = {}
    tables: dict[str, list[tuple[int, list[float]]]] = {}
    current: str | None = None
    min_cols = {"bus": 3, "gen": 9, "branch": 11}
    for lineno, raw in enumerate(case_text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        # Statements in order, several to a line or one: scalars, a block's
        # opening, its rows (each ending at ';') and its closing ']'.
        while line:
            if current is None:
                m = _BLOCK_RE.search(line)
                for name, value in _SCALAR_RE.findall(line if m is None else line[:m.start()]):
                    try:
                        scalars[name] = float(value.strip().strip("'\""))
                    except ValueError:
                        pass  # non-numeric scalar (e.g. version string): ignored
                if m is None:
                    break
                current = m.group(1)
                tables.setdefault(current, [])
                line = line[m.end():]
            rows, closed, line = line.partition("]")
            for row in rows.split(";"):
                if row.strip():
                    tables[current].append(
                        (lineno, _parse_row(row, lineno, current, min_cols.get(current, 1))))
            if closed:
                current = None
    return scalars, tables


def parse_case(case_text: str | io.TextIOBase) -> Network:
    """Parse a MATPOWER-subset ``.m`` case into a :class:`Network`.

    Demands and ratings are converted from MW to per-unit on ``baseMVA``.
    Out-of-service branches (status 0) are dropped; a branch rateA of 0
    (unlimited) is mapped to the total demand (1 when that is zero) so the
    thermal constraint stays well formed. Out-of-service generators
    (status <= 0) add no capacity, though the bus they name must exist;
    in-service generators at the same bus are aggregated by summing Pmax.
    Line ids are assigned 1..m in kept-branch order, so parallel branches
    stay independently interdictable.
    """
    if hasattr(case_text, "read"):
        case_text = case_text.read()
    scalars, tables = _scan_blocks(case_text)
    if "bus" not in tables or not tables["bus"]:
        raise CaseFormatError("case has no bus table")
    if "branch" not in tables:
        raise CaseFormatError("case has no branch table")
    base = float(scalars.get("baseMVA", 100.0))
    if not (np.isfinite(base) and base > 0):
        raise CaseFormatError(f"baseMVA must be finite and > 0, got {base}")

    demands: dict[int, float] = {}
    for lineno, row in tables["bus"]:
        bus_id = int(round(row[0]))
        if bus_id in demands:
            raise CaseFormatError(f"line {lineno}: duplicate bus id {bus_id}")
        demands[bus_id] = _finite(row, 2, lineno, "bus") / base

    gen_cap: dict[int, float] = {b: 0.0 for b in demands}
    for lineno, row in tables.get("gen", []):
        bus_id = int(round(row[0]))
        if bus_id not in demands:
            raise CaseFormatError(f"line {lineno}: generator references unknown bus {bus_id}")
        if _finite(row, 7, lineno, "gen") > 0:
            gen_cap[bus_id] += _finite(row, 8, lineno, "gen") / base

    buses = [
        Bus(bus_id, demand=max(demands[bus_id], 0.0), gen_cap=gen_cap[bus_id])
        for bus_id in demands
    ]
    big_M = _default_big_M(buses)

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
        x_mag = abs(_finite(row, 3, lineno, "branch"))  # reactance magnitude; series-compensated branches carry x < 0
        if x_mag <= 0:
            raise CaseFormatError(f"line {lineno}: non-positive reactance {row[3]}")
        rate_a = _finite(row, 5, lineno, "branch") / base
        thermal = rate_a if rate_a > 0 else big_M
        lines.append(Line(next_id, f_bus, t_bus, x_mag, thermal))
        next_id += 1
    return Network.build(buses, lines)


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
