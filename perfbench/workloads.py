"""Workload definitions: inputs from the seed, the job list, output checks.

Every input comes from ``funcause.simgen``, except the density curves of
the sphere-mean job, which are drawn from a generator seeded with the
workload seed as in acceptance criterion 09.  A job's ``run`` is the timed
call into funcause; its ``check`` runs afterwards, untimed, and returns an
``Outcome``.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from funcause import cli, elastic, estimators, fdata, frechet, simgen

# Upper bounds on each effect's mean absolute error against the simgen
# truth, and on the sphere mean's distance to its population: about twice
# the largest value seen at the commit that introduced the benchmark, over
# seeds 0-29 (iterative_continuous and kernel-continuous) and 0-4 (the rest
# of kernel_study).  A result past its bound is wrong, not merely slow.
MAE_BOUNDS = {
    "iterative-srvf": 0.5,
    "kernel": 1.3,
    "benchmark-ipw": 0.06,
    "benchmark-dr": 0.03,
    "benchmark-frechet-euclid": 0.2,
    "benchmark-kernel": 0.03,
    "benchmark-operator-kernel": 0.025,
    "estimate-null": 0.008,
    "estimate-effect": 0.021,
    "kernel-continuous": 0.33,
}
SPHERE_DIST_BOUND = 0.09


@dataclass
class Outcome:
    errors: list = field(default_factory=list)
    maes: list = field(default_factory=list)
    fingerprint: object = None


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]


def _cli(argv) -> int:
    """Run the command line in-process, keeping its progress lines off the
    benchmark's standard output."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _check_effect(kind: str, effect, grid, truth) -> Outcome:
    out = Outcome(fingerprint=np.array(effect.delta.values))
    if effect.delta.grid != grid:
        out.errors.append(f"{kind}: effect not on the outcome grid")
    if not np.all(np.isfinite(effect.delta.values)):
        out.errors.append(f"{kind}: non-finite effect")
        return out
    mae, _ = simgen.effect_error(effect, truth)
    out.maes.append(mae)
    if not mae <= MAE_BOUNDS[kind]:
        out.errors.append(f"{kind}: MAE {mae:.4g} above bound {MAE_BOUNDS[kind]}")
    return out


def _effect_job(name, kind, fn, ds, truth) -> Job:
    return Job(name, fn, lambda eff: _check_effect(kind, eff, ds.outcome_grid, truth))


# ---------------------------------------------------------------------------
# iterative_continuous
# ---------------------------------------------------------------------------

# Jobs are kept under a second, so that the speed probes either side of a
# job (run.py, speed.py) see the machine as the job saw it, and a run holds
# about fifteen passes.  Hence n=20, not the paper-scale n=100: there a fit
# takes about 5 s, and the spread of wall_s over five seeds was 0.105,
# against 0.021 here.  The Karcher chains, restarts and DP size per call are
# those of n=100, with a fifth of the curves per sweep.
IC_N = 20
IC_REPLICATES = 3
# Two KRR rounds: round 0 runs both Karcher means with 2 sweeps, round 1
# restarts them from the raw curves with 3.  With the estimator's defaults
# (up to 10 rounds of 5+r sweeps) the work depends on when each chain
# converges: 1,400 to 7,700 align_pair calls a replicate at n=100 over seeds
# 0-23, too uneven for a steady run.  These caps give 10 calls per curve
# (1,000 at n=100) unless a chain converges early.
IC_CONFIG = dict(lam=1e-2, r_max=2, karcher_max_iter=2)


def _ic_config(seed, tiny):
    return simgen.ScenarioConfig(
        n=12 if tiny else IC_N,
        t=12 if tiny else 50,
        scenario=simgen.Scenario.CONTINUOUS_FUNCTIONAL,
        shift=0.1,
        seed=seed,
    )


def build_iterative_continuous(seed, workdir, tiny=False):
    cfg = _ic_config(seed, tiny)
    return [simgen.generate(cfg, replicate=k) for k in range(1 if tiny else IC_REPLICATES)]


def jobs_iterative_continuous(inputs, workdir):
    jobs = []
    for k, (ds, truth) in enumerate(inputs):
        cfg = estimators.IterativeConfig(**IC_CONFIG)
        jobs.append(_effect_job(
            f"iterative-srvf/r{k}", "iterative-srvf",
            lambda ds=ds, cfg=cfg: estimators.iterative_srvf_estimate(ds, cfg).effect,
            ds, truth))
        jobs.append(_effect_job(
            f"kernel/r{k}", "kernel",
            lambda ds=ds: cli.run_estimator(ds, "kernel", search=True),
            ds, truth))
    return jobs


# ---------------------------------------------------------------------------
# kernel_study
# ---------------------------------------------------------------------------

KS_ESTIMATORS = ("ipw", "dr", "frechet-euclid", "kernel", "operator-kernel")
KS_SIZES = (200, 400)
# As on iterative_continuous, jobs are kept near a second and a pass near
# 6 s: the benchmark command runs once per seed below, with one replicate of
# each size, rather than once with many replicates.
KS_BENCH_SEEDS = 2
KS_CI_REPLICATES = 2  # pairs of estimate --ci runs, one per regime
# One continuous fit at T=50: its Fisher-Rao covariate Gram is the only
# elastic code on this workload (SRSF transforms), which is meant to stay
# a small share of the time.
KS_CONTINUOUS_N = 100
KS_CONTINUOUS_T = 50
KS_T = 100

SPHERE_T, SPHERE_N, SPHERE_NOISE = 30, 80, 0.3


def _sphere_population(t):
    grid = fdata.Grid.uniform(t)
    base = np.exp(-((grid.points - 0.5) ** 2) / 0.02)
    return grid, base / base.sum()


def _density_curves(seed, n):
    grid, base = _sphere_population(SPHERE_T)
    rng = np.random.default_rng([seed, 9])
    curves = []
    for _ in range(n):
        p = np.exp(np.log(base) + SPHERE_NOISE * rng.standard_normal(SPHERE_T))
        curves.append(fdata.Curve(grid, p / p.sum()))
    return curves


def _sphere_job(name, curves) -> Job:
    def check(res):
        grid, base = _sphere_population(len(curves[0].grid))
        vals = res.mean.values
        out = Outcome(fingerprint=np.array(vals))
        if res.mean.grid != grid or not np.all(np.isfinite(vals)) or np.any(vals < 0):
            out.errors.append(f"{name}: mean is not a nonnegative curve on the grid")
            return out
        dist = elastic.fr_distance_sphere(res.mean, fdata.Curve(grid, base))
        if not dist <= SPHERE_DIST_BOUND:
            out.errors.append(f"{name}: distance to population {dist:.4g} above bound")
        return out

    return Job(name, lambda: frechet.frechet_mean(curves, metric=frechet.Metric.FISHER_RAO_SPHERE), check)


def build_kernel_study(seed, workdir, tiny=False):
    n = 40 if tiny else 400
    t = 12 if tiny else KS_T
    estimates = []
    for k in range(1 if tiny else KS_CI_REPLICATES):
        for label, amplitude, regime in (("null", 0.0, "zero_norm"), ("effect", 1.0, "nonzero_norm")):
            cfg = simgen.ScenarioConfig(
                n=n, t=t, scenario=simgen.Scenario.BINARY_MONOTONIC, amplitude=amplitude, seed=seed
            )
            ds, truth = simgen.generate(cfg, replicate=k)
            path = os.path.join(workdir, f"ks-{label}{k}.csv")
            fdata.save_dataset(ds, path)
            estimates.append((label, k, path, truth, regime))
    cfg = simgen.ScenarioConfig(
        n=n if tiny else KS_CONTINUOUS_N,
        t=12 if tiny else KS_CONTINUOUS_T,
        scenario=simgen.Scenario.CONTINUOUS_FUNCTIONAL,
        seed=seed,
    )
    continuous = simgen.generate(cfg, replicate=0)
    curves = _density_curves(seed, 8 if tiny else SPHERE_N)
    # seeds 2s and 2s+1 for workload seed s, so no two workload seeds share one
    benches = [
        dict(
            seed=KS_BENCH_SEEDS * seed + k,
            t=t,
            sizes=(16, 24) if tiny else KS_SIZES,
            replicates=1,
            output=os.path.join(workdir, f"ks-report{k}"),
        )
        for k in range(1 if tiny else KS_BENCH_SEEDS)
    ]
    return benches, estimates, continuous, curves


def _bench_argv(b):
    return [
        "benchmark", "--scenario", "binary_monotonic", "--t", str(b["t"]),
        "--estimators", ",".join(KS_ESTIMATORS),
        "--sizes", ",".join(str(n) for n in b["sizes"]),
        "--replicates", str(b["replicates"]), "--search",
        "--seed", str(b["seed"]), "--output", b["output"],
    ]


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _check_report(b, code) -> Outcome:
    out = Outcome()
    if code != 0:
        out.errors.append(f"benchmark: exit code {code}")
        return out
    d = b["output"]
    box = _read_csv(os.path.join(d, "boxplot_data.csv"))
    per_t = _read_csv(os.path.join(d, "per_t_error.csv"))
    summary = _read_csv(os.path.join(d, "summary.csv"))
    n_est, n_size = len(KS_ESTIMATORS), len(b["sizes"])
    if len(box) != n_est * n_size * b["replicates"]:
        out.errors.append(f"benchmark: {len(box)} boxplot rows")
    if len(per_t) != n_est * n_size * b["t"]:
        out.errors.append(f"benchmark: {len(per_t)} per-t rows, not one per grid point")
    if len(summary) != n_est * n_size:
        out.errors.append(f"benchmark: {len(summary)} summary rows")
    for row in box:
        mae = float(row["mae"])
        out.maes.append(mae)
        if not (math.isfinite(mae) and mae <= MAE_BOUNDS["benchmark-" + row["estimator"]]):
            out.errors.append(f"benchmark: {row['estimator']} n={row['n']} MAE {mae:.4g}")
    if not all(math.isfinite(float(r["abs_error_mean"])) for r in per_t):
        out.errors.append("benchmark: non-finite per-t error")
    for row in summary:
        maes = [float(r["mae"]) for r in box if r["estimator"] == row["estimator"] and r["n"] == row["n"]]
        if not maes or abs(float(row["mae_mean"]) - float(np.mean(maes))) > 1e-5:
            out.errors.append(f"benchmark: summary mean for {row['estimator']} n={row['n']}")
    for name in ("per_t_error.svg", "mae_boxplot.svg"):
        try:
            ET.parse(os.path.join(d, name))
        except ET.ParseError as exc:
            out.errors.append(f"benchmark: {name}: {exc}")
    with open(os.path.join(d, "metadata.json"), encoding="utf-8") as fh:
        json.load(fh)
    # summary.csv carries wall times, so only the deterministic tables
    # take part in the pass-to-pass comparison
    parts = []
    for name in ("boxplot_data.csv", "per_t_error.csv"):
        with open(os.path.join(d, name), "rb") as fh:
            parts.append(fh.read())
    out.fingerprint = b"".join(parts)
    return out


def _estimate_job(label, k, path, truth, regime, workdir) -> Job:
    name = f"estimate-{label}/r{k}"
    dst = os.path.join(workdir, f"ks-{label}{k}.json")
    argv = ["estimate", path, "--estimator", "operator-kernel", "--search", "--ci", "--output", dst]

    def check(code):
        out = Outcome()
        if code != 0:
            out.errors.append(f"{name}: exit code {code}")
            return out
        with open(dst, "rb") as fh:
            out.fingerprint = fh.read()
        try:
            res = json.loads(out.fingerprint)
            delta = np.asarray(res["delta"], dtype=float)
            ci = res["ci"]
            bounds = (float(res["phi_date"]), float(ci["lower"]), float(ci["upper"]))
            bands = np.asarray(ci["pointwise"], dtype=float)
        except (ValueError, KeyError, TypeError) as exc:
            out.errors.append(f"{name}: malformed result JSON: {exc!r}")
            return out
        t = len(truth.beta_x.grid)
        if delta.shape != (t,) or bands.shape != (t, 2):
            out.errors.append(f"{name}: effect not on the outcome grid")
            return out
        if not (np.all(np.isfinite(delta)) and np.all(np.isfinite(bands)) and all(map(math.isfinite, bounds))):
            out.errors.append(f"{name}: non-finite result")
            return out
        if not bounds[1] <= bounds[2]:
            out.errors.append(f"{name}: interval lower bound above upper")
        if ci["regime"] != regime:
            out.errors.append(f"{name}: regime {ci['regime']}, expected {regime}")
        mae = float(np.mean(np.abs(delta - truth.beta_x.values)))
        out.maes.append(mae)
        kind = f"estimate-{label}"
        if not mae <= MAE_BOUNDS[kind]:
            out.errors.append(f"{name}: MAE {mae:.4g} above bound {MAE_BOUNDS[kind]}")
        return out

    return Job(name, lambda: _cli(argv), check)


def jobs_kernel_study(inputs, workdir):
    benches, estimates, continuous, curves = inputs
    jobs = [
        Job(f"benchmark/s{b['seed']}", lambda b=b: _cli(_bench_argv(b)), lambda code, b=b: _check_report(b, code))
        for b in benches
    ]
    for label, k, path, truth, regime in estimates:
        jobs.append(_estimate_job(label, k, path, truth, regime, workdir))
    ds, truth = continuous
    jobs.append(_effect_job(
        "kernel-continuous", "kernel-continuous",
        lambda: cli.run_estimator(ds, "kernel", search=True), ds, truth))
    jobs.append(_sphere_job("sphere-mean", curves))
    return jobs


# name -> (build, jobs, why)
WORKLOADS = {
    "iterative_continuous": (
        build_iterative_continuous,
        jobs_iterative_continuous,
        "elastic hot path with restarts: each KRR round re-runs both Karcher means from the raw "
        "curves, so batched DP and a resumable Karcher mean both show",
    ),
    "kernel_study": (
        build_kernel_study,
        jobs_kernel_study,
        "almost no DP: Gram builds, eigh, holdout search, Monte Carlo CI, thread pool, CSV/SVG "
        "report, sphere mean; elastic changes should show no change",
    ),
}
