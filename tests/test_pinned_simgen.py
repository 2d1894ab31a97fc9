"""Pinned synthetic datasets.

``data/pinned_simgen.json`` holds, for each scenario at n=400, T=100 and at
n=33, T=57, with the default knobs and with shift 0.2, width 0.1, no
baseline covariates and no noise, the shape and the sha256 of the raw
float64 bytes of every generated array, and the true effect norm as
``float.hex``.  They were computed at commit f9bd583, when
``simgen.generate`` still looped over the units; the broadcast form keeps
every RNG draw and arithmetic step, so each array must match bit for bit.
"""
import hashlib
import json
import pathlib

import numpy as np
import pytest

from funcause import Scenario, ScenarioConfig, generate

PINNED = json.loads((pathlib.Path(__file__).parent / "data" / "pinned_simgen.json").read_text())


def _id(case):
    knobs = "default" if not case["knobs"] else "wide"
    return f"{case['scenario']}-n{case['n']}-t{case['t']}-{knobs}"


@pytest.mark.parametrize("case", PINNED["cases"], ids=_id)
def test_generate_pinned(case):
    scenario = Scenario(case["scenario"])
    ds, truth = generate(ScenarioConfig(n=case["n"], t=case["t"], scenario=scenario, **case["knobs"]))
    arrays = {
        "treatments": ds.treatments,
        "covariate_matrix": ds.covariate_matrix,
        "outcome_matrix": ds.outcome_matrix,
        "beta_x": truth.beta_x.values,
    }
    if ds.covariate_curve_matrix is not None:
        arrays["covariate_curve_matrix"] = ds.covariate_curve_matrix
    assert arrays.keys() == case["sha256"].keys()
    for name, arr in arrays.items():
        assert list(arr.shape) == case["shapes"][name], name
        assert arr.dtype == np.float64, name
        digest = hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()
        assert digest == case["sha256"][name], name
    assert truth.true_phi_date.hex() == case["true_phi_date"]
