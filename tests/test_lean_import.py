"""``import nkshed`` loads scipy's HiGHS binding without ``scipy.optimize``,
loads nothing of ``scipy.sparse`` or ``scipy.linalg``, and shares the one
binding module with ``scipy.optimize`` in either import order. Each case
runs in a fresh interpreter, since a module, once imported, stays in
``sys.modules``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import nkshed

SRC = str(Path(nkshed.__file__).resolve().parents[1])

# Both solvers of both packages, run after both are imported.
SOLVE_ALL = """
import numpy as np
from scipy.optimize import LinearConstraint, linprog, milp
from nkshed.backend import Model
lp = linprog([1.0, 1.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.5], method="highs")
assert lp.status == 0 and abs(lp.fun - 1.5) < 1e-9, lp
mip = milp([1.0, 1.0], integrality=[1, 1],
           constraints=LinearConstraint([[1.0, 1.0]], 1.5, np.inf))
assert mip.status == 0 and mip.fun == 2.0, mip
mdl = Model("both")
mdl.add_vars(2, ub=4.0, obj=1.0, integer=True)
mdl.add_triplets(1, *np.nonzero(np.ones((1, 2))), np.ones(2), 1.5, np.inf)
assert mdl.solve_lp().objective == 1.5
assert mdl.solve_milp().objective == 2.0
assert nkshed.backend.highs is sys.modules["scipy.optimize._highspy._core"] is first_binding
"""


def _run(code: str) -> None:
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr


def test_import_nkshed_leaves_scipy_sparse_and_linalg_out():
    _run("import sys, nkshed\n"
         "loaded = [m for m in sys.modules if m.split('.')[:2] in "
         "(['scipy', 'sparse'], ['scipy', 'linalg'])]\n"
         "assert not loaded, loaded")


def test_import_nkshed_leaves_scipy_optimize_out():
    _run("import sys, nkshed\n"
         "assert 'scipy.optimize' not in sys.modules, 'scipy.optimize imported'\n"
         "assert nkshed.backend.highs is sys.modules['scipy.optimize._highspy._core']")


@pytest.mark.parametrize("first, second", [("nkshed", "scipy.optimize"),
                                           ("scipy.optimize", "nkshed")])
def test_nkshed_and_scipy_optimize_share_one_binding_in_either_order(first, second):
    # The binding module the first import loaded is the one both use.
    _run(f"import sys\nimport {first}\n"
         "first_binding = sys.modules['scipy.optimize._highspy._core']\n"
         f"import {second}\nimport nkshed\n{SOLVE_ALL}")


def test_a_missing_binding_file_names_its_path(tmp_path):
    # scipy's tree moved to an empty directory: the import fails, naming
    # where it looked.
    fake = tmp_path / "scipy"
    _run("import scipy\n"
         f"scipy.__file__ = {str(fake / '__init__.py')!r}\n"
         "try:\n"
         "    import nkshed\n"
         "except ImportError as err:\n"
         f"    assert {str(fake / 'optimize' / '_highspy')!r} in str(err), err\n"
         "else:\n"
         "    raise AssertionError('imported without the binding')")
