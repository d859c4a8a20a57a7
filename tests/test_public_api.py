"""Every exported name resolves, so a deletion cannot leave a stale export."""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import nkshed
from nkshed import attackers, engine, oracle

MODULES = ["nkshed"] + [f"nkshed.{m.name}" for m in pkgutil.iter_modules(nkshed.__path__)
                        if m.name != "__main__"]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    exported = getattr(mod, "__all__", [])
    assert len(exported) == len(set(exported)), module
    missing = [name for name in exported if not hasattr(mod, name)]
    assert missing == [], (module, missing)



def test_no_public_function_takes_a_footprint():
    # The footprint follows from the network and the model's D_km.
    functions = [engine.solve_interdiction, oracle.solve_exhaustive, oracle.feasible_attacks,
                 oracle.attack_plan, attackers.is_feasible_attack,
                 attackers.encode_feasible_set, attackers.check_budget,
                 attackers.spatial_centers]
    for function in functions:
        assert "footprint" not in inspect.signature(function).parameters, function.__name__
    assert [f.name for f in dataclasses.fields(engine.SolveConfig)] == [
        "epsilon", "max_iters", "bounds_mode"]
