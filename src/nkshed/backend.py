"""Thin LP/MILP layer over scipy's HiGHS interface.

Rows enter a :class:`Model` as sparse blocks ``lo <= A x <= hi`` and reach
HiGHS in one of two canonical senses: a row with ``lo == hi`` is an
equality, and every other finite side is one greater-or-equal row, an upper
side negated. For a minimization LP the dual of a ``>=`` row is then
nonnegative, which is the convention the load-shed duals and their upper
bounds are stated in. HiGHS receives the equalities, then the ``>=`` rows,
each in the order they were added. HiGHS is simplex-based, so LP duals are
exact basic solutions, and runs are deterministic for fixed inputs.
"""

from __future__ import annotations

import ctypes
import os
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

__all__ = ["Model", "Solution", "BackendError", "OPTIMAL", "INFEASIBLE", "UNBOUNDED"]

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
FAILED = "failed"

_LP_STATUS = {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}

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


class BackendError(RuntimeError):
    """Solver returned something other than what the caller required."""


@dataclass
class Solution:
    """``dual`` holds one entry per model row (LP only); ``dual_bound`` is
    HiGHS's proven lower bound on the objective (MILP only)."""

    status: str
    objective: float
    x: np.ndarray
    dual: np.ndarray | None = None
    dual_bound: float = np.nan

    @property
    def optimal(self) -> bool:
        return self.status == OPTIMAL


class Model:
    """Incrementally built linear model, solvable as an LP or a MILP.

    Rows enter as blocks through ``add_rows``; ``add_eq``, ``add_ge`` and
    ``add_le`` are its one-row cases.
    """

    def __init__(self, name: str = ""):
        self.name = name
        self._obj: list[float] = []
        self._lb: list[float] = []
        self._ub: list[float] = []
        self._integer: list[bool] = []
        # Row blocks: COO triplets in model coordinates, then per-row lo and hi.
        self._rows = [(np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros(0),
                       np.zeros(0), np.zeros(0))]
        self.num_rows = 0

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
        self._obj.extend(np.broadcast_to(obj, n).astype(float))
        self._lb.extend(np.broadcast_to(lb, n).astype(float))
        self._ub.extend(np.broadcast_to(ub, n).astype(float))
        self._integer.extend(bool(i) for i in np.broadcast_to(integer, n))
        return np.arange(start, start + n)

    def set_objective_coef(self, col: int, coef: float) -> None:
        self._obj[col] = coef

    # -- rows --------------------------------------------------------------------

    def add_rows(self, mat, lo, hi, col_offset: int = 0) -> range:
        """Append ``lo <= mat @ x[col_offset:col_offset + mat.shape[1]] <= hi``.

        ``lo`` and ``hi`` are scalars or one value per row; ``lo == hi`` makes
        an equality and an infinite side is no constraint. Returns the range
        of row indices added, which index ``Solution.dual``.
        """
        block = mat.tocoo() if sparse.issparse(mat) else sparse.coo_array(mat)
        return self._append(block.shape[0], block.row, block.col + col_offset, block.data, lo, hi)

    def _add_row(self, cols, vals, lo: float, hi: float) -> int:
        c = np.asarray(cols, dtype=int)
        v = np.asarray(vals, dtype=float)
        if c.shape != v.shape:
            raise ValueError("cols and vals must have equal length")
        return self._append(1, np.zeros_like(c), c, v, lo, hi).start

    def _append(self, n: int, ri, ci, vals, lo, hi) -> range:
        start = self.num_rows
        self._rows.append((ri + start, ci, vals, np.broadcast_to(np.asarray(lo, dtype=float), n),
                           np.broadcast_to(np.asarray(hi, dtype=float), n)))
        self.num_rows += n
        return range(start, self.num_rows)

    def add_eq(self, cols, vals, rhs: float) -> int:
        return self._add_row(cols, vals, rhs, rhs)

    def add_ge(self, cols, vals, rhs: float) -> int:
        return self._add_row(cols, vals, rhs, np.inf)

    def add_le(self, cols, vals, rhs: float) -> int:
        return self._add_row(cols, vals, -np.inf, rhs)

    def _stack(self):
        """The rows as HiGHS receives them: equalities, then ``>=`` rows.

        Row r yields candidate rows 2r, its equality or lower side, and
        2r + 1, its upper side negated; ``is_eq`` and ``is_ge`` mark the
        candidates that exist. Returns both blocks with their right-hand sides.
        """
        ri, ci, vals, lo, hi = (np.concatenate(p) for p in zip(*self._rows))
        eq = lo == hi
        live = np.column_stack([np.isfinite(lo), ~eq & np.isfinite(hi)]).ravel()
        is_eq = np.column_stack([eq, np.zeros_like(eq)]).ravel() & live
        is_ge = live & ~is_eq
        rhs = np.column_stack([lo, -hi]).ravel()
        at = np.where(is_eq, np.cumsum(is_eq), np.cumsum(is_ge)) - 1
        cand = np.concatenate([2 * ri, 2 * ri + 1])
        col, data = np.tile(ci, 2), np.concatenate([vals, -vals])

        def csr(sense):
            on = sense[cand]
            return sparse.csr_array((data[on], (at[cand[on]], col[on])),
                                    shape=(int(sense.sum()), self.num_vars))

        return csr(is_eq), rhs[is_eq], csr(is_ge), rhs[is_ge], is_eq, is_ge

    # -- solves ------------------------------------------------------------------

    def solve_lp(self, require_optimal: bool = True) -> Solution:
        """Solve the continuous relaxation; integer markers are ignored.

        ``dual[r]`` is d(objective)/d(active side of row r): for a
        minimization it is >= 0 on a ``>=`` row, <= 0 on a ``<=`` row and
        free on an equality.
        """
        a_eq, b_eq, a_ge, b_ge, is_eq, is_ge = self._stack()
        res = linprog(
            c=np.asarray(self._obj),
            A_ub=-a_ge if len(b_ge) else None,
            b_ub=-b_ge if len(b_ge) else None,
            A_eq=a_eq if len(b_eq) else None,
            b_eq=b_eq if len(b_eq) else None,
            bounds=np.column_stack([self._lb, self._ub]),
            method="highs",
        )
        status = _LP_STATUS.get(res.status, FAILED)
        if status != OPTIMAL:
            if require_optimal:
                raise BackendError(f"LP {self.name or '(unnamed)'}: {status} ({res.message})")
            return Solution(status, np.nan, np.zeros(self.num_vars))
        side = np.zeros(2 * self.num_rows)
        side[is_eq] = res.eqlin.marginals
        # ge rows were negated into <= form, so the canonical dual is -marginal.
        side[is_ge] = -res.ineqlin.marginals
        dual = side[0::2] - side[1::2]
        return Solution(OPTIMAL, float(res.fun), np.asarray(res.x), dual)

    def solve_milp(self, require_optimal: bool = True) -> Solution:
        a_eq, b_eq, a_ge, b_ge, _, _ = self._stack()
        mat = sparse.vstack([a_eq, a_ge], format="csr")
        lo = np.concatenate([b_eq, b_ge])
        hi = np.concatenate([b_eq, np.full(len(b_ge), np.inf)])
        constraints = [LinearConstraint(mat, lo, hi)] if len(lo) else []
        with _stdout_to_stderr():
            res = milp(
                c=np.asarray(self._obj),
                constraints=constraints,
                integrality=np.asarray(self._integer, dtype=int),
                bounds=Bounds(np.asarray(self._lb), np.asarray(self._ub)),
            )
        status = _LP_STATUS.get(res.status, FAILED)
        if status != OPTIMAL:
            if require_optimal:
                raise BackendError(f"MILP {self.name or '(unnamed)'}: {status} ({res.message})")
            return Solution(status, np.nan, np.zeros(self.num_vars))
        # HiGHS reports no MIP dual bound when no column is integer.
        bound = res.fun if res.mip_dual_bound is None else res.mip_dual_bound
        return Solution(OPTIMAL, float(res.fun), np.asarray(res.x), dual_bound=float(bound))
