"""Pinned outputs of elastic registration.

``data/pinned_register.json`` holds the registered outcome and covariate
curves that ``funcause register`` writes for ``--target outcomes``,
``covariates`` and ``both`` on ``continuous_functional`` (n=12, T=30, seed
0), and the registered outcomes and warps of ``register_outcomes(per_arm=True)``
on ``binary_nonmonotonic`` (n=16, T=40, seed 0).  The ``funcause register``
outputs were computed at commit 954e3a5, when the Karcher means still took
lists of curves and returned lists of warps; passing matrices through kept
every arithmetic step, and ``elastic``'s one stop rule leaves them as they
were, so they must match bit for bit.  The per-arm outputs were computed
again when every registration moved to that rule: they were pinned at a
budget of 5 sweeps.
"""
import json
import pathlib

import numpy as np
import pytest

from funcause import Scenario, ScenarioConfig, generate, load_dataset, register_outcomes, save_dataset
from funcause.cli import main

PINNED = json.loads((pathlib.Path(__file__).parent / "data" / "pinned_register.json").read_text())


def _dataset(case):
    cfg = ScenarioConfig(n=case["n"], t=case["t"], scenario=Scenario(case["scenario"]), seed=case["seed"])
    return generate(cfg)[0]


@pytest.mark.parametrize("target", ["outcomes", "covariates", "both"])
def test_cli_register_pinned(tmp_path, target):
    case = PINNED["cli"]
    data, out = tmp_path / "data.csv", tmp_path / "registered.csv"
    save_dataset(_dataset(case), data)
    assert main(["register", str(data), "--target", target, "--output", str(out)]) == 0
    registered = load_dataset(out)
    pinned = case["outputs"][target]
    np.testing.assert_allclose(registered.outcome_matrix, pinned["outcome_matrix"], rtol=0, atol=0)
    np.testing.assert_allclose(
        registered.covariate_curve_matrix, pinned["covariate_curve_matrix"], rtol=0, atol=0
    )


def test_register_outcomes_per_arm_pinned():
    case = PINNED["per_arm"]
    registered, warps = register_outcomes(_dataset(case), per_arm=True)
    np.testing.assert_allclose(registered.outcome_matrix, case["outcome_matrix"], rtol=0, atol=0)
    np.testing.assert_allclose(warps, case["warps"], rtol=0, atol=0)
