"""Thin LP/MILP layer over HiGHS, as shipped with scipy.

Rows enter a :class:`Model` as blocks ``lo <= A x <= hi`` of COO
triplets and reach HiGHS as they are, one ranged row per model row:
``lo == hi`` is an equality and an infinite side is no constraint. A
solve returns the objective and the column values, and a MILP solve also
HiGHS's proven bound; nkshed reads no duals. HiGHS's column-wise matrix
is assembled with numpy alone, so the backend loads neither
``scipy.sparse`` nor ``scipy.linalg``.

LPs and MILPs both go through the HiGHS binding vendored in scipy
(``scipy.optimize._highspy._core``), loaded from its file. Importing it by
name first runs the ``scipy.optimize`` package, which loads solvers, FFT
and special functions that nkshed never calls, in most of the time
``import nkshed`` took.
pybind11 registers the binding's types once per process, so the module
enters ``sys.modules`` under its own name before it runs: a later
``import scipy.optimize`` reuses it instead of loading the extension
again, and one that came first lends its own.

LPs run the dual simplex, with presolve on unless
``solve_lp(presolve=False)``. The first LP solve passes the LP to HiGHS;
the HiGHS model then lives with the :class:`Model`, ``set_col_bounds``
edits its column bounds in place (``changeColsBounds``), and every solve
clears HiGHS's solver state first (``linprog``). ``solve_lp``, the one
LP solve, is then a cold solve of exactly the LP a fresh :class:`Model`
would pass. Given a basis, one that ``basis`` took from an earlier solve
of the same model, it starts from that basis instead, so the optimum
depends on that basis and the bounds, never on the solves in between; a
start that stops short is solved again once, cold. Each MILP solve
passes the model to a new HiGHS model, set as scipy's ``milp`` sets it,
and runs it (``milp``). ``linprog`` and ``milp`` are named after the
scipy functions they replaced. The binding names the backend uses
(``tests/test_backend.py`` lists them) are checked on scipy 1.17.1, and
by CI on the scipy floor. HiGHS is simplex-based, so LP optima are basic
solutions, and runs are deterministic for fixed inputs.
"""

from __future__ import annotations

import ctypes
import importlib.util
import os
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder

import numpy as np
import scipy

__all__ = ["Model", "Solution", "BackendError", "OPTIMAL", "INFEASIBLE", "UNBOUNDED"]

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
FAILED = "failed"


def _load_highs():
    """scipy's HiGHS binding, loaded from its file without running the
    ``scipy.optimize`` package, or the module already loaded."""
    name = "scipy.optimize._highspy._core"
    if name in sys.modules:
        return sys.modules[name]
    where = os.path.join(os.path.dirname(scipy.__file__), "optimize", "_highspy")
    spec = FileFinder(where, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(name)
    if spec is None:
        raise ImportError(f"no HiGHS binding {name} in {where}", name=name, path=where)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[name]
        raise
    return module


highs = _load_highs()

_STATUS = {highs.HighsModelStatus.kOptimal: OPTIMAL,
           highs.HighsModelStatus.kInfeasible: INFEASIBLE,
           highs.HighsModelStatus.kUnbounded: UNBOUNDED}
# The options linprog(method="highs") sets but presolve, which solve_lp sets
# per solve: dual simplex, quiet.
_LP_OPTIONS = {"output_flag": False, "log_to_console": False, "simplex_strategy": 1,
               "highs_debug_level": 0}
# The options scipy's milp sets but presolve, which solve_milp sets per solve.
_MILP_OPTIONS = {"log_to_console": False}
# HiGHS column types by Model integer marker.
_VAR_TYPE = (highs.HighsVarType.kContinuous, highs.HighsVarType.kInteger)

_fflush = ctypes.CDLL(None).fflush
_fflush.argtypes, _fflush.restype = [ctypes.c_void_p], ctypes.c_int
# File descriptor 1 belongs to the process, so the redirection state does too.
_redirect_lock = threading.Lock()
_redirect_users = 0
_saved_stdout = -1


@contextmanager
def _stdout_to_stderr():
    """Point fd 1 at fd 2 while HiGHS runs: its MIP solver prints some lines to
    fd 1 even with output off. Concurrent solves share one redirection; the
    last to leave flushes C stdio, where those lines wait, and restores fd 1."""
    global _redirect_users, _saved_stdout
    with _redirect_lock:
        if _redirect_users == 0:
            sys.stdout.flush()
            _saved_stdout = os.dup(1)
            os.dup2(2, 1)
        _redirect_users += 1
    try:
        yield
    finally:
        with _redirect_lock:
            _redirect_users -= 1
            if _redirect_users == 0:
                _fflush(None)
                os.dup2(_saved_stdout, 1)
                os.close(_saved_stdout)


def linprog(lp, basis=None) -> None:
    """Solve the kept HiGHS LP ``lp``: clear its solver state, load ``basis``
    if one is given, then run. Raises :class:`BackendError` if HiGHS rejects
    the basis.

    The one call into HiGHS per LP solve. It keeps the name of the scipy
    function it replaced, which ``bench/tracing.py`` times as the HiGHS
    share of an LP solve.
    """
    lp.clearSolver()
    if basis is not None and lp.setBasis(basis) == highs.HighsStatus.kError:
        raise BackendError("HiGHS rejected the start basis")
    lp.run()


def milp(solver):
    """Run the HiGHS MILP ``solver`` and return its ``HighsInfo``.

    The one call into HiGHS per MILP solve. It keeps the name of the scipy
    function it replaced, which ``bench/tracing.py`` times as the HiGHS
    share of a MILP solve, reading the node count off the info.
    """
    solver.run()
    return solver.getInfo()


def _per_entry(values, shape) -> np.ndarray:
    """``values`` as a float array of ``shape``, broadcast if it is not one."""
    values = np.asarray(values, dtype=float)
    return values if values.shape == shape else np.broadcast_to(values, shape)


def _check_sides(name: str, lo, hi, what: str = "row sides") -> None:
    """Reject sides that bound nothing: NaN, ``lo = +inf`` or ``hi = -inf``."""
    if not ((lo < np.inf).all() and (hi > -np.inf).all()):
        raise ValueError(f"{name or '(unnamed)'}: {what} must be finite, or -inf below "
                         "and +inf above")


class BackendError(RuntimeError):
    """Solver returned something other than what the caller required."""


@dataclass
class Solution:
    """``x`` holds one value per column; ``dual_bound`` is HiGHS's proven
    lower bound on the objective (MILP only)."""

    status: str
    objective: float
    x: np.ndarray
    dual_bound: float = np.nan

    @property
    def optimal(self) -> bool:
        return self.status == OPTIMAL


class Model:
    """Incrementally built linear model, solvable as an LP or a MILP.

    Rows enter as blocks of COO triplets through ``add_triplets``;
    ``add_eq`` and ``add_le`` are one-row cases.
    """

    def __init__(self, name: str = ""):
        self.name = name
        self._obj: list[float] = []
        self._lb, self._ub = np.zeros(0), np.zeros(0)
        self._integer: list[bool] = []
        # Row blocks: COO triplets in model coordinates, then per-row lo and hi.
        self._rows = [(np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros(0),
                       np.zeros(0), np.zeros(0))]
        self.num_rows = 0
        # The live HiGHS LP, built by the first solve_lp; see _pass.
        self._lp = None
        # Solves from a basis that stopped short and were solved again cold.
        self.cold_restarts = 0

    # -- variables ---------------------------------------------------------------

    @property
    def num_vars(self) -> int:
        return len(self._obj)

    def add_var(self, lb: float = 0.0, ub: float = np.inf, obj: float = 0.0,
                integer: bool = False) -> int:
        return int(self.add_vars(1, lb, ub, obj, integer)[0])

    def add_vars(self, n: int, lb=0.0, ub=np.inf, obj=0.0, integer=False) -> np.ndarray:
        """Append a block of n variables; scalar or per-variable bounds/costs."""
        start = len(self._obj)
        self._lp = None
        self._obj.extend(np.broadcast_to(obj, n).astype(float))
        self._lb = np.concatenate([self._lb, np.broadcast_to(lb, n)])
        self._ub = np.concatenate([self._ub, np.broadcast_to(ub, n)])
        self._integer.extend(bool(i) for i in np.broadcast_to(integer, n))
        return np.arange(start, start + n)

    def set_col_bounds(self, cols, lb, ub) -> None:
        """Set ``lb <= x[col] <= ub`` on columns already added.

        ``lb`` and ``ub`` are scalars or one value per column; ``lb > ub``
        or a column named twice raises ``ValueError``. A live HiGHS LP
        receives the columns whose bounds changed, in one call.
        """
        cols = np.asarray(cols, dtype=np.int32)
        lb, ub = _per_entry(lb, cols.shape), _per_entry(ub, cols.shape)
        _check_sides(self.name, lb, ub, "column bounds")
        if (lb > ub).any():
            raise ValueError(f"{self.name or '(unnamed)'}: column lower bound above upper bound")
        ordered = np.sort(cols)
        if (ordered[1:] == ordered[:-1]).any():
            raise ValueError(f"{self.name or '(unnamed)'}: a column is named twice")
        changed = (lb != self._lb[cols]) | (ub != self._ub[cols])
        cols, lb, ub = cols[changed], lb[changed], ub[changed]
        if len(cols) and self._lp is not None:
            self._lp.changeColsBounds(len(cols), cols, lb, ub)
        self._lb[cols], self._ub[cols] = lb, ub

    # -- rows --------------------------------------------------------------------

    def add_triplets(self, n: int, ri, ci, vals, lo, hi) -> range:
        """Append ``lo <= A x <= hi``, ``n`` rows given by COO triplets:
        entry ``vals[i]`` of ``A`` at row ``ri[i]`` of the block and column
        ``ci[i]``. Entries at one row and column add up; an explicit zero is
        kept. ``lo`` and ``hi`` are scalars or one value per row; ``lo ==
        hi`` makes an equality and an infinite side is no constraint.
        Returns the range of row indices added."""
        start = self.num_rows
        self._lp = None
        self._rows.append((ri + start, ci, vals, np.broadcast_to(np.asarray(lo, dtype=float), n),
                           np.broadcast_to(np.asarray(hi, dtype=float), n)))
        self.num_rows += n
        return range(start, self.num_rows)

    def _add_row(self, cols, vals, lo: float, hi: float) -> int:
        c = np.asarray(cols, dtype=int)
        v = np.asarray(vals, dtype=float)
        if c.shape != v.shape:
            raise ValueError("cols and vals must have equal length")
        return self.add_triplets(1, np.zeros_like(c), c, v, lo, hi).start

    def add_eq(self, cols, vals, rhs: float) -> int:
        return self._add_row(cols, vals, rhs, rhs)

    def add_le(self, cols, vals, rhs: float) -> int:
        return self._add_row(cols, vals, -np.inf, rhs)

    def _block(self, eq_first: bool):
        """The rows as one block ``lo <= mat @ x <= hi``, column-wise.

        The equalities and the other rows each keep model order, the
        equalities first if ``eq_first``. ``mat`` is HiGHS's column-wise
        form ``(start, index, value)``: column j's entries sit at
        ``start[j]:start[j + 1]`` with their block rows in ``index``, in
        ascending order, entries at one row and column summed in the order
        added and explicit zeros kept, as scipy's CSR-to-CSC conversion
        gives them. Returns ``mat`` and the sides. Raises ``ValueError`` on
        input that HiGHS may not return on or may drop silently.
        """
        ri, ci, vals, lo, hi = (np.concatenate(p) for p in zip(*self._rows))
        if (not np.isfinite(self._obj).all() or not np.isfinite(vals).all()
                or np.isnan(self._lb).any() or np.isnan(self._ub).any()):
            raise ValueError(f"{self.name or '(unnamed)'}: costs and coefficients must be "
                             "finite and column bounds not NaN")
        if len(ci) and not 0 <= ci.min() <= ci.max() < self.num_vars:
            raise ValueError(f"{self.name or '(unnamed)'}: a row names a column the model "
                             "lacks")
        _check_sides(self.name, lo, hi)
        eq = lo == hi
        order = np.argsort(~eq if eq_first else eq, kind="stable")
        at = np.empty_like(order)
        at[order] = np.arange(len(order))
        row = at[ri]
        by_col = np.lexsort((row, ci))
        row, col, vals = row[by_col], ci[by_col], vals[by_col]
        first = np.ones(len(row), dtype=bool)
        first[1:] = (row[1:] != row[:-1]) | (col[1:] != col[:-1])
        head = np.flatnonzero(first)
        start = np.zeros(self.num_vars + 1, dtype=np.int64)
        np.cumsum(np.bincount(col[head], minlength=self.num_vars), out=start[1:])
        mat = (start, row[head], np.add.reduceat(vals, head))
        return mat, lo[order], hi[order]

    # -- solves ------------------------------------------------------------------

    def _pass(self, integer: bool, options: dict):
        """Pass the model to a new HiGHS solver set to ``options``: as a MILP
        if ``integer``, else as an LP with the integer markers ignored."""
        # Row order picks HiGHS's vertex among optima, and so the cuts: LPs put
        # the inequalities first, MILPs the equalities.
        (start, index, value), lo, hi = self._block(eq_first=integer)
        cost, lb, ub = np.asarray(self._obj), self._lb, self._ub
        lp = highs.HighsLp()
        lp.num_col_, lp.num_row_ = self.num_vars, self.num_rows
        lp.a_matrix_.num_col_, lp.a_matrix_.num_row_ = self.num_vars, self.num_rows
        lp.a_matrix_.format_ = highs.MatrixFormat.kColwise
        lp.a_matrix_.start_, lp.a_matrix_.index_, lp.a_matrix_.value_ = start, index, value
        lp.col_cost_, lp.col_lower_, lp.col_upper_ = cost, lb, ub
        lp.row_lower_, lp.row_upper_ = lo, hi
        if integer:
            lp.integrality_ = [_VAR_TYPE[i] for i in self._integer]
        solver = highs._Highs()
        for key, value in options.items():
            solver.setOptionValue(key, value)
        if solver.passModel(lp) == highs.HighsStatus.kError:
            raise BackendError(f"{'MILP' if integer else 'LP'} {self.name or '(unnamed)'}: "
                               "HiGHS rejected the model")
        return solver

    def solve_lp(self, require_optimal: bool = True, presolve: bool = True,
                 basis=None) -> Solution:
        """Solve the continuous relaxation; integer markers are ignored.

        The first solve passes the LP to HiGHS; later solves re-solve it from
        scratch, after any ``set_col_bounds``, or from ``basis``, a
        ``basis()`` of this model, when one is given. ``presolve`` applies
        to this solve only; HiGHS does not presolve an LP it starts from a
        basis. A solve from ``basis`` that stops short of what the caller
        needs, a status other than optimal, infeasible or unbounded (the
        dual simplex can stop with model status "Not Set"), or other than
        optimal under ``require_optimal``, is solved again once, cold with
        presolve on, so the answer still depends on the LP alone;
        ``cold_restarts`` counts those solves.
        """
        lp = self._live_lp()
        lp.setOptionValue("presolve", "on" if presolve else "off")
        try:
            linprog(lp, basis)
        except BackendError as err:
            raise BackendError(f"LP {self.name or '(unnamed)'}: {err}") from err
        start = self._status(lp, False)
        if basis is not None and (start == FAILED or require_optimal and start != OPTIMAL):
            self.cold_restarts += 1
            lp.setOptionValue("presolve", "on")
            linprog(lp)
        status = self._status(lp, require_optimal)
        if status != OPTIMAL:
            return Solution(status, np.nan, np.zeros(self.num_vars))
        return Solution(OPTIMAL, lp.getObjectiveValue(), np.asarray(lp.getSolution().col_value))

    def basis(self):
        """The HiGHS basis of this model's last LP solve, to start a later
        ``solve_lp`` from."""
        if self._lp is None:
            raise BackendError(f"LP {self.name or '(unnamed)'}: no solve to take a basis from")
        return self._lp.getBasis()

    def _live_lp(self):
        """The live HiGHS LP, passed to HiGHS first if the model changed
        since."""
        if self._lp is None:
            self._lp = self._pass(False, _LP_OPTIONS)
        return self._lp

    def _status(self, solver, require_optimal: bool) -> str:
        model_status = solver.getModelStatus()
        status = _STATUS.get(model_status, FAILED)
        if status != OPTIMAL and require_optimal:
            raise BackendError(f"LP {self.name or '(unnamed)'}: {status} "
                               f"({solver.modelStatusToString(model_status)})")
        return status

    def solve_milp(self, presolve: bool = True) -> Solution:
        """Solve the model with its integer markers, as scipy's ``milp`` would.

        Each solve passes the model to a new HiGHS model, with ``presolve``
        for this solve, and returns its status, optimal or not. ``dual_bound``
        is HiGHS's proven bound, or the objective when no column is integer.
        """
        solver = self._pass(True, {**_MILP_OPTIONS, "presolve": "on" if presolve else "off"})
        with _stdout_to_stderr():
            info = milp(solver)
        status = _STATUS.get(solver.getModelStatus(), FAILED)
        if status != OPTIMAL:
            return Solution(status, np.nan, np.zeros(self.num_vars))
        # HiGHS reports no MIP dual bound when no column is integer.
        objective = info.objective_function_value
        bound = info.mip_dual_bound if any(self._integer) else objective
        return Solution(OPTIMAL, objective, np.asarray(solver.getSolution().col_value),
                        dual_bound=bound)
