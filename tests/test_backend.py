"""LP backend: a kept HiGHS model re-solves exactly like a fresh one."""

import numpy as np
import pytest

from nkshed.backend import INFEASIBLE, BackendError, Model

# Row kinds of the small LP: an equality, a >= row, a <= row and a range.
ROWS = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 0.0], [0.0, 1.0, 2.0], [2.0, 0.0, -1.0]])
BOUNDS = [
    ([4.0, -1.0, -np.inf, -2.0], [4.0, np.inf, 6.0, 3.0]),
    ([2.0, 0.0, -np.inf, -1.0], [2.0, np.inf, 2.0, 1.5]),
    ([1.5, -0.0, -np.inf, 0.0], [1.5, np.inf, 9.0, 0.5]),
]


def _small_lp(lo, hi) -> tuple[Model, range]:
    mdl = Model("small")
    mdl.add_vars(3, lb=[0.0, -np.inf, 0.0], ub=[10.0, 10.0, 3.0], obj=[1.0, 2.0, -1.0])
    return mdl, mdl.add_rows(ROWS, lo, hi)


def _bits(sol):
    return sol.status, repr(sol.objective), sol.x.tobytes(), sol.dual.tobytes()


def test_set_row_bounds_resolves_like_a_fresh_model():
    kept, rows = _small_lp(*BOUNDS[0])
    kept.solve_lp()
    for lo, hi in BOUNDS[1:] + BOUNDS:
        kept.set_row_bounds(rows, lo, hi)
        assert _bits(kept.solve_lp()) == _bits(_small_lp(lo, hi)[0].solve_lp()), (lo, hi)


def test_set_row_bounds_on_some_rows_keeps_the_others():
    kept, rows = _small_lp(*BOUNDS[0])
    kept.solve_lp()
    kept.set_row_bounds([1, 3], [0.5, -1.0], [np.inf, 1.5])
    lo, hi = np.array(BOUNDS[0])
    lo[[1, 3]], hi[[1, 3]] = [0.5, -1.0], [np.inf, 1.5]
    assert _bits(kept.solve_lp()) == _bits(_small_lp(lo, hi)[0].solve_lp())


def test_rows_and_columns_added_after_a_solve_reach_highs():
    kept, _ = _small_lp(*BOUNDS[0])
    kept.solve_lp()
    x = kept.add_var(lb=0.0, ub=1.0, obj=-5.0)
    kept.add_le([0, x], [1.0, 1.0], 2.0)
    fresh, _ = _small_lp(*BOUNDS[0])
    fresh.add_var(lb=0.0, ub=1.0, obj=-5.0)
    fresh.add_le([0, x], [1.0, 1.0], 2.0)
    assert _bits(kept.solve_lp()) == _bits(fresh.solve_lp())


@pytest.mark.parametrize("row, lo, hi", [
    (0, 4.0, 5.0),        # equality -> range
    (1, -1.0, 7.0),       # >= row gains an upper side
    (2, 0.0, 6.0),        # <= row gains a lower side
    (3, -np.inf, 3.0),    # range loses its lower side
    (3, 1.0, 1.0),        # range -> equality
])
def test_set_row_bounds_rejects_a_change_of_sense(row, lo, hi):
    mdl, _ = _small_lp(*BOUNDS[0])
    before = _bits(mdl.solve_lp())
    with pytest.raises(ValueError, match="finite"):
        mdl.set_row_bounds([row], lo, hi)
    assert _bits(mdl.solve_lp()) == before


def test_infeasible_lp_reports_status_or_raises():
    mdl, rows = _small_lp(*BOUNDS[0])
    mdl.solve_lp()
    mdl.set_row_bounds(rows[:1], 40.0, 40.0)
    assert mdl.solve_lp(require_optimal=False).status == INFEASIBLE
    with pytest.raises(BackendError, match="infeasible"):
        mdl.solve_lp()
    mdl.set_row_bounds(rows[:1], 4.0, 4.0)
    assert _bits(mdl.solve_lp()) == _bits(_small_lp(*BOUNDS[0])[0].solve_lp())


@pytest.mark.parametrize("col, value, field", [(0, np.nan, "obj"), (1, np.inf, "obj"),
                                                (2, np.nan, "lb"), (0, np.nan, "ub")])
def test_nan_or_infinite_input_is_rejected_before_highs(col, value, field):
    mdl, _ = _small_lp(*BOUNDS[0])
    getattr(mdl, f"_{field}")[col] = value
    with pytest.raises(ValueError, match="finite"):
        mdl.solve_lp(require_optimal=False)
