"""Pinned effect curves of every estimator at n=24, T=16.

``data/pinned_effects.json`` holds the effect curves, and for the searched
fits the chosen lambda and bandwidths, computed at commit be11b17, before
the kernel estimators shared one kernel evaluator, one contrast rule and one
hyperparameter search.  Those changes kept every arithmetic step except the
summation order of the potential-outcome average and of the per-unit
contrast, so the binary scenarios must match bit for bit except for
``iterative-srvf``, whose contrast moved from per-unit differences to the
difference of potential outcomes.
"""
import json
import pathlib

import numpy as np
import pytest

from funcause import Scenario, ScenarioConfig, generate, run_estimator, select_hyperparameters
from funcause.kernels import output_gram

PINNED = json.loads((pathlib.Path(__file__).parent / "data" / "pinned_effects.json").read_text())

# bound on the drift from a changed floating-point summation order
REORDER_TOL = 1e-10


def _dataset(scenario):
    cfg = ScenarioConfig(n=PINNED["n"], t=PINNED["t"], scenario=Scenario(scenario))
    return generate(cfg)[0]


def _tolerance(scenario, name):
    if scenario.startswith("binary") and name != "iterative-srvf":
        return 0.0
    return REORDER_TOL


@pytest.mark.parametrize(
    "scenario,name",
    [(scen, name) for scen, effects in PINNED["effects"].items() for name in effects],
)
def test_effect_curve_pinned(scenario, name):
    effect = run_estimator(_dataset(scenario), name)
    np.testing.assert_allclose(
        effect.delta.values,
        PINNED["effects"][scenario][name],
        rtol=0,
        atol=_tolerance(scenario, name),
    )


@pytest.mark.parametrize(
    "scenario,name",
    [(scen, name) for scen, searches in PINNED["searches"].items() for name in searches],
)
def test_search_pinned(scenario, name):
    ds = _dataset(scenario)
    pinned = PINNED["searches"][scenario][name]
    k_y = output_gram(ds.outcome_grid) if name == "operator-kernel" else None
    kx, kv, lam = select_hyperparameters(ds, k_y=k_y, seed=0)
    assert lam == pinned["lam"]
    assert [kx.family.value, kx.lengthscale] == pinned["kx"]
    assert [kv.family.value, kv.lengthscale] == pinned["kv"]
    effect = run_estimator(ds, name, search=True)
    np.testing.assert_allclose(
        effect.delta.values, pinned["delta"], rtol=0, atol=_tolerance(scenario, name)
    )
