"""LP/MILP backend: ranged rows, the matrix HiGHS receives, MILPs by
enumeration and bit for bit against scipy's ``milp``, and a kept HiGHS
model re-solving exactly like a fresh one."""

import ast
import importlib.util
import itertools
import re
import sys
import types
from importlib.machinery import ExtensionFileLoader
from pathlib import Path

import numpy as np
import pytest
import scipy
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.optimize._highspy import _core as highs

from nkshed import backend
from nkshed import fixtures as fx
from nkshed.attackers import encode_feasible_set
from nkshed.backend import INFEASIBLE, BackendError, Model
from nkshed.inner import _exact_model, _ProbeTable
from nkshed.netmodel import AttackerModel

# Row kinds of the small LP: an equality, a >= row, a <= row and a range.
ROWS = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 0.0], [0.0, 1.0, 2.0], [2.0, 0.0, -1.0]])
BOUNDS = [
    ([4.0, -1.0, -np.inf, -2.0], [4.0, np.inf, 6.0, 3.0]),
    ([2.0, 0.0, -np.inf, -1.0], [2.0, np.inf, 2.0, 1.5]),
    ([1.5, -0.0, -np.inf, 0.0], [1.5, np.inf, 9.0, 0.5]),
]
# Column bounds of the small LP: as built, one column fixed, and some sides
# infinite.
COL_BOUNDS = [
    ([0.0, -np.inf, 0.0], [10.0, 10.0, 3.0]),
    ([1.0, -2.0, 0.0], [1.0, 10.0, 3.0]),
    ([0.0, -np.inf, -np.inf], [np.inf, 5.0, np.inf]),
]


def _add_dense(mdl, mat, lo, hi) -> range:
    """Append the dense rows ``lo <= mat @ x <= hi``, their nonzeros as triplets."""
    ri, ci = np.nonzero(mat)
    return mdl.add_triplets(len(mat), ri, ci, mat[ri, ci], lo, hi)


def _small_lp(lo, hi, lb=COL_BOUNDS[0][0], ub=COL_BOUNDS[0][1]) -> tuple[Model, range]:
    mdl = Model("small")
    mdl.add_vars(3, lb=lb, ub=ub, obj=[1.0, 2.0, -1.0])
    return mdl, _add_dense(mdl, ROWS, lo, hi)


def _bits(sol):
    return sol.status, repr(sol.objective), sol.x.tobytes()


def test_rows_and_columns_added_after_a_solve_reach_highs():
    kept, _ = _small_lp(*BOUNDS[0])
    kept.solve_lp()
    x = kept.add_var(lb=0.0, ub=1.0, obj=-5.0)
    kept.add_le([0, x], [1.0, 1.0], 2.0)
    fresh, _ = _small_lp(*BOUNDS[0])
    fresh.add_var(lb=0.0, ub=1.0, obj=-5.0)
    fresh.add_le([0, x], [1.0, 1.0], 2.0)
    assert _bits(kept.solve_lp()) == _bits(fresh.solve_lp())


@pytest.mark.parametrize("presolve", [True, False])
def test_set_col_bounds_resolves_like_a_fresh_model(presolve):
    kept, _ = _small_lp(*BOUNDS[0])
    kept.solve_lp(presolve=presolve)
    for lb, ub in COL_BOUNDS[1:] + COL_BOUNDS:
        kept.set_col_bounds(range(3), lb, ub)
        fresh, _ = _small_lp(*BOUNDS[0], lb, ub)
        assert _bits(kept.solve_lp(presolve=presolve)) == _bits(fresh.solve_lp(presolve=presolve))


def test_set_col_bounds_on_some_cols_keeps_the_others():
    kept, _ = _small_lp(*BOUNDS[0])
    kept.solve_lp()
    kept.set_col_bounds([0, 2], [1.0, -np.inf], [1.0, 2.0])
    lb, ub = np.array(COL_BOUNDS[0])
    lb[[0, 2]], ub[[0, 2]] = [1.0, -np.inf], [1.0, 2.0]
    assert _bits(kept.solve_lp()) == _bits(_small_lp(*BOUNDS[0], lb, ub)[0].solve_lp())


@pytest.mark.parametrize("col, lb, ub", [(0, np.nan, 1.0), (1, np.inf, np.inf),
                                         (2, -np.inf, -np.inf), (0, 0.0, np.nan)])
def test_set_col_bounds_rejects_nan_or_an_infinity_inside_the_column(col, lb, ub):
    mdl, _ = _small_lp(*BOUNDS[0])
    before = _bits(mdl.solve_lp())
    with pytest.raises(ValueError, match="finite"):
        mdl.set_col_bounds([col], lb, ub)
    assert _bits(mdl.solve_lp()) == before


def test_set_col_bounds_rejects_a_lower_bound_above_the_upper():
    mdl, _ = _small_lp(*BOUNDS[0])
    before = _bits(mdl.solve_lp())
    with pytest.raises(ValueError, match="above"):
        mdl.set_col_bounds([0, 1], [2.0, 0.0], [1.0, 1.0])
    assert _bits(mdl.solve_lp()) == before


def test_set_col_bounds_rejects_a_column_named_twice():
    mdl, _ = _small_lp(*BOUNDS[0])
    before = _bits(mdl.solve_lp())
    with pytest.raises(ValueError, match="twice"):
        mdl.set_col_bounds([0, 2, 0], [1.0, 0.0, 2.0], [1.0, 3.0, 2.0])
    assert _bits(mdl.solve_lp()) == before


def _outcome(sol):
    return _bits(sol) if sol.optimal else sol.status


def test_batched_col_bounds_over_many_updates_resolve_like_a_fresh_model():
    # Random subsets of the columns get bounds from a menu that includes
    # fixed, one-sided and free columns, so some steps are infeasible or
    # unbounded; each step sends HiGHS one batch.
    rng = np.random.default_rng(7)
    menu = [(0.0, 10.0), (1.0, 1.0), (-np.inf, 5.0), (-2.0, np.inf), (-np.inf, np.inf),
            (0.0, 3.0), (2.5, 2.5)]
    kept, _ = _small_lp(*BOUNDS[0])
    kept.solve_lp()
    lb, ub = (np.array(b) for b in COL_BOUNDS[0])
    statuses = set()
    for _ in range(60):
        cols = rng.choice(3, size=rng.integers(1, 4), replace=False)
        new = np.array([menu[i] for i in rng.integers(len(menu), size=len(cols))])
        kept.set_col_bounds(cols, new[:, 0], new[:, 1])
        lb[cols], ub[cols] = new[:, 0], new[:, 1]
        fresh, _ = _small_lp(*BOUNDS[0], lb, ub)
        sol = kept.solve_lp(require_optimal=False)
        assert _outcome(sol) == _outcome(fresh.solve_lp(require_optimal=False)), (lb, ub)
        statuses.add(sol.status)
    assert len(statuses) > 1


def test_solve_lp_reaches_the_optimum_from_any_basis():
    kept, _ = _small_lp(*BOUNDS[0])
    kept.solve_lp()
    start = kept.basis()
    for lb, ub in COL_BOUNDS[1:] + COL_BOUNDS:
        kept.set_col_bounds(range(3), lb, ub)
        fresh = _small_lp(*BOUNDS[0], lb, ub)[0].solve_lp()
        for basis in (start, kept.basis()):
            assert kept.solve_lp(basis=basis).objective == pytest.approx(fresh.objective,
                                                                         abs=1e-12)
    assert kept.cold_restarts == 0


def test_solve_lp_from_a_basis_is_solve_lp():
    # The optimum of the same LP, and bitwise the same solution each time it
    # starts from the same basis, whatever was solved in between.
    kept, _ = _small_lp(*BOUNDS[0])
    kept.solve_lp()
    start = kept.basis()
    for lb, ub in COL_BOUNDS[1:] + COL_BOUNDS:
        kept.set_col_bounds(range(3), lb, ub)
        fresh = _small_lp(*BOUNDS[0], lb, ub)[0].solve_lp()
        warm = kept.solve_lp(basis=start)
        assert warm.objective == pytest.approx(fresh.objective, abs=1e-12)
        kept.solve_lp()
        assert _bits(kept.solve_lp(basis=start)) == _bits(warm)
    other = Model("other")
    other.add_vars(2, lb=0.0, ub=1.0, obj=[1.0, 1.0])
    _add_dense(other, np.ones((1, 2)), 1.0, 1.0)
    other.solve_lp()
    with pytest.raises(BackendError, match="small: HiGHS rejected the start basis"):
        kept.solve_lp(basis=other.basis())


def test_a_start_short_of_what_the_caller_needs_is_solved_again_cold():
    # An infeasible LP is an answer when no optimum is required: no second
    # solve. When one is, the start falls back to one cold solve, which
    # raises when that finds no optimum either.
    mdl, _ = _small_lp(*BOUNDS[0])
    with pytest.raises(BackendError, match="no solve"):
        mdl.basis()
    mdl.solve_lp()
    start = mdl.basis()
    mdl.set_col_bounds(range(3), 0.0, 1.0)  # row 0 needs a sum of 4
    assert mdl.solve_lp(require_optimal=False, basis=start).status == INFEASIBLE
    assert mdl.cold_restarts == 0
    with pytest.raises(BackendError, match="infeasible"):
        mdl.solve_lp(basis=start)
    assert mdl.cold_restarts == 1


def _highs_names_used(source: str) -> tuple[set, set, set, set]:
    """The names ``source`` reads off the binding module ``highs``, the
    methods it calls on a HiGHS solver (one named ``lp`` or ``solver``, or
    ``self._lp``), the fields it sets on a ``HighsLp`` named ``lp`` and
    the fields it reads off a ``HighsInfo`` named ``info``."""
    module, methods, lp_fields, info_fields = set(), set(), set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "highs":
                module.add(node.attr)
            elif node.value.id == "lp" and isinstance(node.ctx, ast.Store):
                lp_fields.add(node.attr)
            elif node.value.id == "info":
                info_fields.add(node.attr)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            owner = node.func.value
            if (isinstance(owner, ast.Name) and owner.id in ("lp", "solver")) or (
                    isinstance(owner, ast.Attribute) and ast.unparse(owner) == "self._lp"):
                methods.add(node.func.attr)
    return module, methods, lp_fields, info_fields


def test_every_binding_name_the_backend_uses_exists():
    # The binding is scipy's private one, so a scipy release may lack a
    # name the backend uses; this names it.
    module, methods, lp_fields, info_fields = _highs_names_used(
        Path(backend.__file__).read_text())
    assert {"setBasis", "getBasis", "changeColsBounds", "getObjectiveValue", "run",
            "passModel", "getInfo"} <= methods
    assert "HighsVarType" in module and "integrality_" in lp_fields
    assert {"mip_dual_bound", "objective_function_value"} <= info_fields
    # The benchmark's tracer reads the node count off what backend.milp returns.
    info_fields.add("mip_node_count")
    assert sorted(n for n in module if not hasattr(highs, n)) == []
    assert sorted(n for n in methods if not hasattr(highs._Highs, n)) == []
    assert sorted(n for n in lp_fields if not hasattr(highs.HighsLp(), n)) == []
    assert sorted(n for n in info_fields if not hasattr(highs.HighsInfo(), n)) == []


def test_infeasible_lp_reports_status_or_raises():
    mdl, _ = _small_lp(*BOUNDS[0])
    mdl.solve_lp()
    mdl.set_col_bounds(range(3), 0.0, 1.0)  # row 0 needs a sum of 4
    assert mdl.solve_lp(require_optimal=False).status == INFEASIBLE
    with pytest.raises(BackendError, match="infeasible"):
        mdl.solve_lp()
    mdl.set_col_bounds(range(3), *COL_BOUNDS[0])
    assert _bits(mdl.solve_lp()) == _bits(_small_lp(*BOUNDS[0])[0].solve_lp())


# Row cases: a >= row at +inf or NaN, a <= row at -inf or NaN, a NaN range side.
@pytest.mark.parametrize("col, value, field", [(0, np.nan, "obj"), (1, np.inf, "obj"),
                                                (2, np.nan, "lb"), (0, np.nan, "ub"),
                                                (1, np.inf, "lo"), (1, np.nan, "lo"),
                                                (2, -np.inf, "hi"), (2, np.nan, "hi"),
                                                (3, np.nan, "lo")])
def test_nan_or_infinite_input_is_rejected_before_highs(col, value, field):
    sides = {"lo": np.array(BOUNDS[0][0]), "hi": np.array(BOUNDS[0][1])}
    if field in sides:
        sides[field][col] = value
    mdl, _ = _small_lp(sides["lo"], sides["hi"])
    if field not in sides:
        getattr(mdl, f"_{field}")[col] = value
    with pytest.raises(ValueError, match="finite"):
        mdl.solve_lp(require_optimal=False)
    with pytest.raises(ValueError, match="finite"):
        mdl.solve_milp()


def test_a_row_naming_a_column_the_model_lacks_is_rejected_before_highs():
    for col in (3, -1):
        mdl, _ = _small_lp(*BOUNDS[0])
        mdl.add_le([0, col], [1.0, 1.0], 1.0)
        with pytest.raises(ValueError, match="lacks"):
            mdl.solve_lp(require_optimal=False)


def test_a_row_with_more_columns_than_values_is_rejected():
    mdl, _ = _small_lp(*BOUNDS[0])
    for add in (mdl.add_eq, mdl.add_le):
        with pytest.raises(ValueError, match="equal length"):
            add([0, 1], [1.0], 1.0)


def test_the_binding_is_loaded_once():
    # Loading again finds the module in sys.modules, the one the backend uses.
    assert backend._load_highs() is backend.highs
    assert sys.modules["scipy.optimize._highspy._core"] is backend.highs


def test_a_missing_binding_raises_import_error_naming_where_it_looked(monkeypatch, tmp_path):
    # No binding loaded, and none beside an empty scipy directory.
    monkeypatch.delitem(sys.modules, "scipy.optimize._highspy._core")
    monkeypatch.setattr(scipy, "__file__", str(tmp_path / "__init__.py"))
    where = str(tmp_path / "optimize" / "_highspy")
    with pytest.raises(ImportError, match=re.escape(where)) as err:
        backend._load_highs()
    assert err.value.path == where


def test_a_binding_that_fails_to_load_leaves_no_module_behind(monkeypatch):
    # The binding is found but running it fails: the error propagates and
    # the half-made module is taken back out of sys.modules.
    name = "scipy.optimize._highspy._core"
    monkeypatch.delitem(sys.modules, name)
    monkeypatch.setattr(importlib.util, "module_from_spec",
                        lambda spec: types.ModuleType(spec.name))

    def fail(self, module):
        assert sys.modules[name] is module
        raise ImportError("binding failed to load")

    monkeypatch.setattr(ExtensionFileLoader, "exec_module", fail)
    with pytest.raises(ImportError, match="binding failed to load"):
        backend._load_highs()
    assert name not in sys.modules


def _scipy_colwise(mdl, eq_first):
    """``Model._block``'s matrix as scipy's CSR-to-CSC conversion gives it,
    the rows in HiGHS's order: equalities first if ``eq_first``, else last,
    each kind in model order."""
    from scipy import sparse
    ri, ci, vals, lo, hi = (np.concatenate(p) for p in zip(*mdl._rows))
    at = np.argsort(np.argsort(lo != hi if eq_first else lo == hi, kind="stable"))
    csc = sparse.csr_array((vals, (at[ri], ci)), shape=(mdl.num_rows, mdl.num_vars)).tocsc()
    return csc.indptr, csc.indices, csc.data


def _network_models(name):
    net = fx.FIXTURES[name]()
    yield _exact_model(net)[0].mdl
    yield _ProbeTable(net)._slack.mdl
    for variant in ("traditional", "spatial", "topological"):
        mdl = Model(variant)
        mdl.add_var(obj=-1.0)
        encode_feasible_set(mdl, net, AttackerModel(
            variant, min(2, len(net.lines)), fx.SPATIAL_D[name] if variant == "spatial" else None))
        yield mdl


@pytest.mark.parametrize("name", ["small"] + sorted(fx.FIXTURES))
def test_highs_matrix_is_scipys_column_wise_conversion_bit_for_bit(name):
    if name == "small":
        # Entries at one row and column add up, in the order added; a zero stays.
        mdl, _ = _small_lp(*BOUNDS[0])
        mdl.add_triplets(2, np.array([0, 1, 0, 1]), np.array([1, 2, 1, 0]),
                         np.array([0.1, 0.0, 0.2, 5.0]), 0.0, [1.0, 0.0])
        models = [mdl]
    else:
        models = _network_models(name)
    for mdl in models:
        for eq_first in (True, False):
            got = mdl._block(eq_first)[0]
            want = _scipy_colwise(mdl, eq_first)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want], mdl.name


@pytest.mark.parametrize("bounds", BOUNDS)
@pytest.mark.parametrize("costs", [[1.0, 2.0, -1.0], [-1.0, 1.0, 2.0], [-3.0, -1.0, 1.0]])
def test_milp_over_every_row_kind_matches_enumeration(bounds, costs):
    box = [(0, 4), (-3, 4), (0, 3)]
    mdl = Model("small-milp")
    mdl.add_vars(3, lb=[b[0] for b in box], ub=[b[1] for b in box], obj=costs, integer=True)
    lo, hi = bounds
    _add_dense(mdl, ROWS, lo, hi)
    points = np.array(list(itertools.product(*(range(a, b + 1) for a, b in box))), dtype=float)
    act = points @ ROWS.T
    feasible = points[np.all((act >= np.array(lo) - 1e-9) & (act <= np.array(hi) + 1e-9), axis=1)]
    sol = mdl.solve_milp()
    if len(feasible) == 0:
        assert sol.status == INFEASIBLE
        return
    assert sol.optimal
    assert sol.objective == pytest.approx((feasible @ costs).min(), abs=1e-9)
    assert any(np.allclose(sol.x, p) for p in feasible)


def _direct_milp(costs, box, rows, lo, hi, integer, presolve):
    """``scipy.optimize.milp`` on the rows in the order HiGHS receives them
    from a :class:`Model`: equalities first, each kind in model order."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    order = np.argsort(lo != hi, kind="stable")
    return milp(c=np.asarray(costs, dtype=float),
                constraints=[LinearConstraint(rows[order], lo[order], hi[order])],
                integrality=np.full(len(costs), int(integer)),
                bounds=Bounds(*np.array(box, dtype=float).T), options={"presolve": presolve})


# The MILPs of test_milp_over_every_row_kind_matches_enumeration, the same
# model with no integer column, and one with no integer point.
MILP_CASES = [(costs, [(0, 4), (-3, 4), (0, 3)], ROWS, *bounds, True)
              for bounds in BOUNDS
              for costs in ([1.0, 2.0, -1.0], [-1.0, 1.0, 2.0], [-3.0, -1.0, 1.0])]
MILP_CASES += [([1.0, 2.0, -1.0], [(0, 4), (-3, 4), (0, 3)], ROWS, *BOUNDS[0], False),
               ([1.0, 1.0], [(0, 3), (0, 3)], np.array([[2.0, 2.0]]), [3.0], [3.0], True)]


@pytest.mark.parametrize("case", MILP_CASES)
@pytest.mark.parametrize("presolve", [True, False])
def test_solve_milp_is_scipys_milp_bit_for_bit(case, presolve):
    costs, box, rows, lo, hi, integer = case
    mdl = Model("parity")
    mdl.add_vars(len(costs), lb=[b[0] for b in box], ub=[b[1] for b in box], obj=costs,
                 integer=integer)
    _add_dense(mdl, rows, lo, hi)
    sol = mdl.solve_milp(presolve=presolve)
    res = _direct_milp(costs, box, rows, lo, hi, integer, presolve)
    if res.status == 2:
        assert sol.status == INFEASIBLE
        return
    assert res.status == 0 and sol.optimal
    bound = res.fun if res.mip_dual_bound is None else res.mip_dual_bound
    assert (sol.x.tobytes(), repr(sol.objective), repr(sol.dual_bound)) == (
        res.x.tobytes(), repr(res.fun), repr(bound))


def test_a_milp_highs_rejects_raises_instead_of_reading_infeasible():
    # scipy's milp reports a model HiGHS rejects, here one with a column
    # fixed at +inf, as infeasible, which the MILP master would read as every
    # attack retired.
    mdl = Model("rejected")
    mdl.add_vars(2, lb=np.inf, ub=np.inf, obj=-1.0, integer=True)
    mdl.add_le([0, 1], [1.0, 1.0], 1.0)
    with pytest.raises(BackendError, match="MILP rejected: HiGHS rejected the model"):
        mdl.solve_milp()
