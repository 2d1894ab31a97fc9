"""Importing funcause, fitting its estimators and computing their confidence
intervals load numpy, not scipy.

scipy is imported on first use, by ``welch_t_test`` only.
The check runs in a fresh interpreter, since the test process has imported
scipy already.
"""
import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import json, os, sys, tempfile
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
# a strong effect, for the nonzero-norm regime
strong, _ = simgen.generate(simgen.ScenarioConfig(n=40, t=12, amplitude=3.0, noise=0.01))
cis.append(effect_ci(strong, estimators.run_estimator(strong, "ipw").delta))
after_ci = scipy_modules()
with tempfile.TemporaryDirectory() as tmp:
    data, out = os.path.join(tmp, "data.csv"), os.path.join(tmp, "result.json")
    codes = [
        funcause.cli.main(["simulate", "--n", "20", "--t", "12", "--output", data]),
        funcause.cli.main(["estimate", data, "--estimator", "dr", "--ci", "--output", out]),
    ]
print(json.dumps({
    "after_import": after_import,
    "after_fits": after_fits,
    "after_ci": after_ci,
    "after_cli_ci": scipy_modules(),
    "cli_codes": codes,
    "bounds": [[ci.lower, ci.upper] for ci in cis],
    "regimes": sorted({ci.regime.value for ci in cis}),
}))
"""


def test_estimators_and_intervals_run_without_scipy():
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
    assert out["after_ci"] == []
    assert out["after_cli_ci"] == []
    assert out["cli_codes"] == [0, 0]
    assert out["regimes"] == ["nonzero_norm", "zero_norm"]
    for lower, upper in out["bounds"]:
        assert 0.0 <= lower <= upper < float("inf")
