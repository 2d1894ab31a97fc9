"""Importing funcause and fitting its estimators loads numpy, not scipy.

scipy is imported on first use, by ``effect_ci``, ``welch_t_test`` and
``resample``.  The check runs in a fresh interpreter, since the test
process has imported scipy already.
"""
import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import json, sys
import funcause, funcause.cli
from funcause import effect_ci, estimators, simgen

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

after_import = scipy_modules()
curves, _ = simgen.generate(
    simgen.ScenarioConfig(n=12, t=12, scenario=simgen.Scenario.CONTINUOUS_FUNCTIONAL)
)
estimators.iterative_srvf_estimate(curves)
estimators.run_estimator(curves, "kernel", search=True)
binary, _ = simgen.generate(simgen.ScenarioConfig(n=20, t=12, amplitude=0.0))
effects = [
    estimators.run_estimator(binary, name, search=name.endswith("kernel"))
    for name in estimators.ESTIMATOR_NAMES
]
after_fits = scipy_modules()
cis = [effect_ci(binary, e.delta) for e in effects]
print(json.dumps({
    "after_import": after_import,
    "after_fits": after_fits,
    "bounds": [[ci.lower, ci.upper] for ci in cis],
    "regimes": sorted({ci.regime.value for ci in cis}),
    "scipy_after_ci": "scipy" in sys.modules,
}))
"""


def test_estimators_run_without_scipy_and_effect_ci_loads_it():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["after_import"] == []
    assert out["after_fits"] == []
    assert out["scipy_after_ci"]
    assert "zero_norm" in out["regimes"]
    for lower, upper in out["bounds"]:
        assert 0.0 <= lower <= upper < float("inf")
