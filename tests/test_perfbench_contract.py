"""The benchmark in ``perfbench/`` still runs against the library.

Loads ``perfbench/workloads.py`` and ``perfbench/tracing.py`` as they are,
builds each workload's miniature (``tiny=True``) inputs and runs every job
once under the span recorder, as a traced benchmark pass does.  A library
change that breaks a job, or removes a function the recorder wraps, fails
here.  The jobs' output checks are not asserted: their error bounds hold
for the full-size inputs only.
"""
import importlib.util
import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
tracing = _load("tracing")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_runs_traced(name, tmp_path):
    build, make_jobs, _ = workloads.WORKLOADS[name]
    jobs = make_jobs(build(0, str(tmp_path), tiny=True), str(tmp_path))
    assert jobs
    rec = tracing.Recorder()
    with tracing.Tracing(rec):
        outputs = [job.run() for job in jobs]
    # command-line jobs return their exit code, which must be success
    assert all(out == 0 for out in outputs if isinstance(out, int))
    assert rec.spans
    tracing.layer_metrics(rec, 1.0, 1)


def test_iterative_workload_records_karcher_spans(tmp_path):
    # every registration reaches the span that perfbench wraps, with its sweeps
    build, make_jobs, _ = workloads.WORKLOADS["iterative_continuous"]
    jobs = make_jobs(build(0, str(tmp_path), tiny=True), str(tmp_path))
    rec = tracing.Recorder()
    with tracing.Tracing(rec):
        for job in jobs:
            job.run()
    metrics = tracing.layer_metrics(rec, 1.0, 1)
    assert metrics["elastic.karcher_mean.calls"] > 0
    assert metrics["elastic.karcher_mean.sweeps"] > 0
