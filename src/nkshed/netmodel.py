"""Grid model: buses, lines, attacker budgets, and case-file ingestion.

The network model carries exactly what the DC load-shed problem needs:
active demands, aggregate generation caps, line reactances and thermal
ratings, and (optionally) bus geolocation for spatial attack footprints.
All power quantities are per-unit on the case base MVA.
"""

from __future__ import annotations

import numbers
import re
import threading
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

__all__ = [
    "Bus",
    "Line",
    "Network",
    "PowerFlow",
    "Outages",
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
    """A bus with active demand, aggregate generation cap, and optional location.

    A located bus has both ``lat`` and ``lon`` in degrees, each range-checked;
    a bus without a location has neither, and ``has_geo`` tells the two apart.
    """

    id: int
    demand: float = 0.0
    gen_cap: float = 0.0
    lat: float | None = None
    lon: float | None = None

    def __post_init__(self):
        if not np.isfinite([self.demand, self.gen_cap]).all():
            raise ValueError(f"bus {self.id}: demand and gen_cap must be finite")
        if self.demand < 0:
            raise ValueError(f"bus {self.id}: demand must be >= 0, got {self.demand}")
        if self.gen_cap < 0:
            raise ValueError(f"bus {self.id}: gen_cap must be >= 0, got {self.gen_cap}")
        if (self.lat is None) != (self.lon is None):
            raise ValueError(f"bus {self.id}: lat and lon must be given together")
        for name, value, bound in (("latitude", self.lat, 90.0), ("longitude", self.lon, 180.0)):
            if value is not None and not -bound <= value <= bound:
                raise ValueError(f"bus {self.id}: {name} out of range: {value}")

    @property
    def has_geo(self) -> bool:
        return self.lat is not None


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
        if self.susceptance <= 1e-9:
            # HiGHS drops matrix coefficients of at most 1e-9 (small_matrix_value),
            # so the load-shed LP would route no flow on this line.
            raise ValueError(f"line {self.id}: reactance {self.reactance} too large, "
                             "its susceptance is at most 1e-9")
        if self.thermal <= 0:
            raise ValueError(f"line {self.id}: non-positive thermal limit {self.thermal}")

    @property
    def susceptance(self) -> float:
        return 1.0 / self.reactance


@dataclass(frozen=True)
class Network:
    """Immutable network that parses into O(buses + lines) state.

    ``buses`` and ``lines`` are stored as tuples; each record checks its
    fields, the network its ids and every line's ends.
    ``bus_pos`` and ``line_pos`` map ids to positions, and the vector
    accessors return read-only arrays in position order, built on
    construction. No buses-by-lines array is built before ``power_flow``
    is read. ``thread_cache`` is a ``threading.local``
    in which solvers keep per-thread state built from the network, such as
    the kept load-shed model of :mod:`nkshed.inner`; ``shared`` keeps state
    that every thread reads, built once per network under a lock: the
    oracle's zero-shed probe table, its probe rows and the spatial
    footprint of each disk diameter.
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
    _arrays: dict[str, np.ndarray] = field(init=False, repr=False, compare=False)
    thread_cache: threading.local = field(init=False, repr=False, compare=False)
    _shared: dict = field(init=False, repr=False, compare=False)
    _shared_lock: threading.Lock = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "buses", tuple(self.buses))
        object.__setattr__(self, "lines", tuple(self.lines))
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
        for a in arrays.values():
            a.flags.writeable = False
        object.__setattr__(self, "_arrays", arrays)
        object.__setattr__(self, "thread_cache", threading.local())
        object.__setattr__(self, "_shared", {})
        object.__setattr__(self, "_shared_lock", threading.Lock())

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
        ``"zero-shed probes"``, the oracle's zero-shed probe table,
        ``"zero-shed probe rows"``, that table's per-line rows, and
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


class Outages(NamedTuple):
    """A batch of line outages and their factors, built once by
    ``PowerFlow.factor`` and read by every ``PowerFlow.flows`` call on them.

    ``cuts`` holds one row of removed line positions per outage and ``op``
    the operator of its k-by-k outage system (see ``PowerFlow``). ``torn``
    is, per outage, -1 when its system's determinant is above
    ``PowerFlow._SINGULAR``, which keeps the intact islands, and ``op`` is
    then the inverse. Every other outage, each one that splits an island
    among them, has its row of ``islands`` (an int32 island number per bus,
    from 0) at ``torn``, and ``op`` is the least-squares operator at the
    rank its islands give; the rows of ``islands`` follow those outages in
    order.
    """

    cuts: np.ndarray
    op: np.ndarray
    torn: np.ndarray
    islands: np.ndarray

    def take(self, rows) -> "Outages":
        """The outages at ``rows``, with their factors."""
        return Outages(self.cuts[rows], self.op[rows], self.torn[rows], self.islands)


class PowerFlow:
    """Position-indexed DC power flow of one network, batched over line outages.

    Signs follow the load-shed LP: ``flow = b * (ang_to - ang_fr)`` and a
    bus's net injection ``p = gen - served`` leaves it, so ``A @ flow = -p``
    for the bus-by-line incidence ``A``: -1 at a line's from bus, +1 at its
    to bus. ``A`` is built only here, for the one solve below, and dropped.

    ``ptdf_t`` (buses by lines) is the transposed PTDF: ``inj @ ptdf_t``
    gives the intact network's flows for injections balanced on each of
    its islands. It comes from one dense solve of the Laplacian with the
    row and column of one root bus per island removed, so the roots' rows
    are exactly 0. ``shift`` (lines by lines), the difference of its rows
    at each line's endpoints, holds in row e the flow each line takes over
    per unit moved off line e, so an outage of k lines gets its flows from
    the intact ones by one k-by-k system (line outage distribution
    factors). Off its unit diagonal, each entry of that system is the flow
    on one removed line per unit moved between another's endpoints, at most
    1 in magnitude. The system is singular exactly when the outage splits
    an island; it is then still consistent for injections balanced on the
    new islands, and every solution gives the same flows, so such outages
    take its least-squares solution.

    ``factor`` builds each outage's operator once, with the determinant as
    the split test and the islands of each outage it tears; ``flows``, the
    one outage-flow kernel, applies them to any number of injections. The
    engine's feasible-response bound factors its attack table once, and
    the oracle's zero-shed screen each chunk it prices.
    """

    # A zero determinant of an outage's k-by-k system rounds to at most this.
    # The system, the identity minus a matrix similar to a symmetric one with
    # eigenvalues in [0, 1], has eigenvalues in [0, 1].
    _SINGULAR = 1e-10

    def __init__(self, net: Network):
        self.fr, self.to = net.endpoint_positions()
        b, line = net.susceptance_vector(), np.arange(len(net.lines))
        inc = np.zeros((len(net.buses), len(line)))
        inc[self.fr, line], inc[self.to, line] = -1.0, 1.0
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
        self.shift = self.ptdf_t[self.to] - self.ptdf_t[self.fr]
        # The lines in order of their intact island, and where each island
        # with a line starts in that order.
        line_island = self.island[self.fr]
        self._by_island = np.argsort(line_island, kind="stable")
        self._lined, self._first = np.unique(line_island[self._by_island], return_index=True)
        if (np.diff(line_island) >= 0).all():
            # Already in island order, as on every connected network: a view.
            self._by_island = slice(None)

    def factor(self, cuts: np.ndarray) -> Outages:
        """The :class:`Outages` of the rows of ``cuts``, one outage's line
        positions each, in one pass over chunks of about ``BATCH_ENTRIES``
        entries per system and island search.

        An outage is torn when the determinant of its system is at most
        ``_SINGULAR``. A split makes the system exactly singular, and with
        entries at most 1 in magnitude its determinant rounds to about
        1e-16, so no split is missed. Only the torn outages go through the
        island search, which labels their islands; the rest take the
        inverse with the rest of their chunk.
        """
        (count, k), n = cuts.shape, len(self.island)
        op = np.empty((count, k, k))
        torn, islands = np.full(count, -1, dtype=np.int32), [np.empty((0, n), dtype=np.int32)]
        step = max(1, BATCH_ENTRIES // max(k * k, n + len(self.fr)))
        for lo in range(0, count, step):
            system = self._system(cuts[lo:lo + step])
            singular = np.flatnonzero(np.linalg.det(system) <= self._SINGULAR)
            found = _islands(self.fr, self.to, n, cuts[lo + singular])
            found -= found[:, :1]
            torn[lo + singular] = np.arange(len(singular)) + sum(map(len, islands))
            islands.append(found.astype(np.int32))
            whole = np.delete(np.arange(len(system)), singular)
            op[lo + whole] = np.linalg.inv(system[whole])
            # Each island an outage adds is one null direction of its system,
            # so its least-squares operator drops exactly that many of the
            # smallest singular values, however small the others are.
            u, sv, vt = np.linalg.svd(system[singular])
            rank = k + self.num_islands - 1 - found.max(axis=1)
            inv_sv = np.divide(1.0, sv, out=np.zeros_like(sv),
                               where=np.arange(k) < rank[:, None])
            op[lo + singular] = (vt.transpose(0, 2, 1) * inv_sv[:, None, :]) @ u.transpose(0, 2, 1)
        return Outages(cuts, op, torn, np.concatenate(islands))

    def _system(self, cuts: np.ndarray) -> np.ndarray:
        """Per outage, its k-by-k system: entry (i, j) is 1 where i = j plus the
        flow removed line i takes over per unit moved off removed line j."""
        return np.eye(cuts.shape[1]) + self.shift[cuts[:, None, :], cuts[:, :, None]]

    def flows(self, base: np.ndarray, outages: Outages) -> np.ndarray:
        """Line flows with each outage's lines removed, as a new array.

        ``base`` holds, per outage, the intact network's flows of one
        injection (outages by lines) or of several (outages by injections by
        lines), each balanced on every island the outage leaves; a
        broadcast view serves for one injection shared by every outage.
        Removed lines carry zero flow. Each row reads only its own outage's
        operator and ``shift`` rows, so its flows do not depend on the
        other rows.
        """
        cuts = outages.cuts
        at, wide = np.arange(len(cuts))[:, None], base if base.ndim == 3 else base[:, None]
        # Per outage, what each removed line carried, then what it moves:
        # removed lines by injections.
        moved = outages.op @ wide[at, :, cuts]
        flow = wide - moved.transpose(0, 2, 1) @ self.shift[cuts]
        flow[at, :, cuts] = 0.0
        return flow if base.ndim == 3 else flow[:, 0]

    def island_min(self, values: np.ndarray) -> np.ndarray:
        """Per row of ``values`` (rows by lines), the least entry on each
        intact island's lines, inf on an island with no line: one reduction
        over the lines taken in order of their island."""
        least = np.full((len(values), self.num_islands), np.inf)
        if len(self._first):
            least[:, self._lined] = np.minimum.reduceat(values[:, self._by_island], self._first,
                                                         axis=1)
        return least


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
        if isinstance(self.k, bool) or not isinstance(self.k, numbers.Integral):
            raise ValueError(f"k must be an integer, got {self.k!r}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.variant == "spatial":
            if isinstance(self.D_km, bool) or not (isinstance(self.D_km, numbers.Real)
                                                   and 0 < self.D_km < np.inf):
                raise ValueError(f"spatial model requires a finite D_km > 0, got {self.D_km!r}")
            if self.center_bus is not None and (isinstance(self.center_bus, bool) or not
                                                isinstance(self.center_bus, numbers.Integral)):
                raise ValueError(f"center_bus must be an integer, got {self.center_bus!r}")
        else:
            if self.D_km is not None:
                raise ValueError("D_km only applies to the spatial model")
            if self.center_bus is not None:
                raise ValueError("center_bus only applies to the spatial model")

    @cached_property
    def sizes(self) -> range:
        """Attack sizes the budget admits: up to k if spatial, else exactly k."""
        return range(self.k + 1) if self.variant == "spatial" else range(self.k, self.k + 1)

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


def _bus_id(row: list[float], col: int, lineno: int, table: str) -> int:
    value = _finite(row, col, lineno, table)
    if value != int(value):
        raise CaseFormatError(f"line {lineno}: {table} field {col + 1} must be an integer "
                              f"bus id, got {value}")
    return int(value)


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


def parse_case(case_text: str) -> Network:
    """Parse a MATPOWER-subset ``.m`` case into a :class:`Network`.

    Demands and ratings are converted from MW to per-unit on ``baseMVA``.
    A negative Pd is clamped to 0. Out-of-service branches (status 0) are
    dropped; a branch rateA of 0 (unlimited) is mapped to the total demand,
    after that clamp (1 when that is zero), so the thermal constraint stays
    well formed. Out-of-service generators
    (status <= 0) add no capacity, though the bus they name must exist;
    in-service generators at the same bus are aggregated by summing Pmax,
    which must be >= 0 on each.
    Line ids are assigned 1..m in kept-branch order, so parallel branches
    stay independently interdictable. Every field read must be finite, and
    a bus id, in any table, an integer. A branch :class:`Line` rejects (x = 0,
    |x| >= 1e9 p.u., equal ends) raises :class:`CaseFormatError` naming its line.
    ``case_text`` is the file's text, as ``open(path).read()`` returns it.
    """
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
        bus_id = _bus_id(row, 0, lineno, "bus")
        if bus_id in demands:
            raise CaseFormatError(f"line {lineno}: duplicate bus id {bus_id}")
        demands[bus_id] = _finite(row, 2, lineno, "bus") / base

    gen_cap: dict[int, float] = {b: 0.0 for b in demands}
    for lineno, row in tables.get("gen", []):
        bus_id = _bus_id(row, 0, lineno, "gen")
        if bus_id not in demands:
            raise CaseFormatError(f"line {lineno}: generator references unknown bus {bus_id}")
        if _finite(row, 7, lineno, "gen") > 0:
            pmax = _finite(row, 8, lineno, "gen")
            if pmax < 0:
                raise CaseFormatError(f"line {lineno}: gen Pmax must be >= 0, got {pmax}")
            gen_cap[bus_id] += pmax / base

    buses = [
        Bus(bus_id, demand=max(demands[bus_id], 0.0), gen_cap=gen_cap[bus_id])
        for bus_id in demands
    ]
    unlimited = sum(b.demand for b in buses) or 1.0

    lines: list[Line] = []
    next_id = 1
    for lineno, row in tables["branch"]:
        if round(_finite(row, 10, lineno, "branch")) == 0:
            continue
        f_bus, t_bus = _bus_id(row, 0, lineno, "branch"), _bus_id(row, 1, lineno, "branch")
        for end in (f_bus, t_bus):
            if end not in demands:
                raise CaseFormatError(f"line {lineno}: branch references unknown bus {end}")
        x_mag = abs(_finite(row, 3, lineno, "branch"))  # reactance magnitude; series-compensated branches carry x < 0
        rate_a = _finite(row, 5, lineno, "branch") / base
        thermal = rate_a if rate_a > 0 else unlimited
        try:
            lines.append(Line(next_id, f_bus, t_bus, x_mag, thermal))
        except ValueError as err:
            raise CaseFormatError(f"line {lineno}: branch {err}") from None
        next_id += 1
    return Network(buses, lines)


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


def parse_geo(csv_text: str, net: Network) -> Network:
    """Attach bus geolocations from CSV rows ``bus_id,lat,lon``.

    ``csv_text`` is the file's text. Buses absent from the CSV keep their
    location, or stay without one. A CSV row naming a bus the network does
    not contain is an error, as are duplicate rows; a coordinate
    :class:`Bus` rejects (out of range) raises :class:`GeoFormatError`
    naming its line.
    """
    rows = [(lineno, r.strip()) for lineno, r in enumerate(csv_text.splitlines(), start=1)
            if r.strip()]
    if not rows:
        raise GeoFormatError("empty geolocation file")
    header = [h.strip().lower() for h in rows[0][1].split(",")]
    if header != ["bus_id", "lat", "lon"]:
        raise GeoFormatError(f"expected header 'bus_id,lat,lon', got {rows[0][1]!r}")
    located: dict[int, Bus] = {}
    for lineno, row in rows[1:]:
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
        if bus_id in located:
            raise GeoFormatError(f"line {lineno}: duplicate bus id {bus_id}")
        try:
            located[bus_id] = replace(net.buses[net.bus_pos[bus_id]], lat=lat, lon=lon)
        except ValueError as err:
            raise GeoFormatError(f"line {lineno}: {err}") from None
    return Network(tuple(located.get(b.id, b) for b in net.buses), net.lines)
