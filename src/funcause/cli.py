"""Command-line front end: simulate, estimate, benchmark, register.

Parses arguments and does the file I/O; every estimator runs through
``funcause.estimators.run_estimator``.  Exit codes: 0 success, 1 runtime
error, 2 usage error.  Every command is deterministic given its config and
seed, except the wall times in ``benchmark``'s ``timings.csv``.
"""
from __future__ import annotations

import argparse
import configparser
import csv
import json
import os
import subprocess
import sys
import time

import numpy as np

from . import estimators, plots, simgen
from .errors import FuncauseError
from .estimators import ESTIMATOR_NAMES, run_estimator
from .fdata import load_dataset, save_dataset
from .inference import effect_ci

SCHEMA_VERSION = 1


def _git_hash() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

# the ``ScenarioConfig`` fields that are scenario flags, in flag order
_SCENARIO_KNOBS = (
    "t", "noise", "shift", "confounding", "amplitude", "n_covariates", "baseline_offset", "seed",
)


def _scenario_config(args, n: int) -> simgen.ScenarioConfig:
    knobs = {knob: getattr(args, knob) for knob in _SCENARIO_KNOBS}
    return simgen.ScenarioConfig(n=n, scenario=simgen.Scenario(args.scenario), **knobs)


def cmd_simulate(args) -> int:
    cfg = _scenario_config(args, args.n)
    ds, truth = simgen.generate(cfg, replicate=args.replicate)
    save_dataset(ds, args.output)
    if args.truth:
        with open(args.truth, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "schema_version": SCHEMA_VERSION,
                    "scenario": cfg.scenario.value,
                    "beta_x": truth.beta_x.values.tolist(),
                    "true_phi_date": truth.true_phi_date,
                },
                fh,
                indent=2,
            )
    print(f"wrote {args.output} ({len(ds)} samples, T={len(ds.outcome_grid)})")
    return 0


def cmd_estimate(args) -> int:
    ds = load_dataset(args.dataset)
    effect = run_estimator(ds, args.estimator, lam=args.lam, search=args.search, seed=args.seed)
    result = {
        "schema_version": SCHEMA_VERSION,
        "estimator": args.estimator,
        "phi_date": effect.scalar_norm,
        "delta": effect.delta.values.tolist(),
        "n": len(ds),
        "t": len(ds.outcome_grid),
    }
    if args.ci:
        ci = effect_ci(ds, effect.delta, level=args.level)
        result["ci"] = {
            "estimate": ci.estimate,
            "lower": ci.lower,
            "upper": ci.upper,
            "level": ci.level,
            "regime": ci.regime.value,
            "pointwise": ci.pointwise.tolist(),
        }
    text = json.dumps(result, indent=2)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text)
    return 0


def cmd_register(args) -> int:
    ds = load_dataset(args.dataset)
    do_out = args.target in ("outcomes", "both")
    do_cov = args.target in ("covariates", "both")
    if do_cov and ds.covariate_grid is None:
        raise ValueError("dataset has no covariate curves to register")

    # plain elastic registration without the estimator-side smoothing split;
    # not a fixed point: on noisy curves a second run moves them again
    current = ds
    if do_cov:
        current, _ = estimators.register_covariate_curves(current)
    if do_out:
        current, _ = estimators.register_outcomes(current, smooth_window=0)
    save_dataset(current, args.output)
    print(f"wrote {args.output}")
    return 0


def _apply_config(parser: argparse.ArgumentParser, args) -> None:
    """Parse the ``[benchmark]`` entries of ``args.config`` as flags of the
    same subcommand, and let each entry override its flag in ``args``."""
    ini = configparser.ConfigParser()
    try:
        found = ini.read(args.config)
    except configparser.Error as exc:
        raise ValueError(f"cannot parse config file {args.config}: {exc}") from exc
    if not found:
        raise ValueError(f"cannot read config file: {args.config}")
    if not ini.has_section("benchmark"):
        raise ValueError(f"config file {args.config} has no [benchmark] section")
    entries = {key.replace("-", "_"): value for key, value in ini.items("benchmark")}
    known = vars(parser.parse_args(["benchmark"])).keys() - {"command", "func", "config"}
    unknown = sorted(entries.keys() - known)
    if unknown:
        raise ValueError(f"config file {args.config}: unknown keys: {', '.join(unknown)}")
    argv = ["benchmark"]
    for dest, value in entries.items():
        if dest == "search":
            argv += ["--search"] if ini.getboolean("benchmark", "search") else []
        else:
            argv += ["--" + dest.replace("_", "-"), value]
    parsed = vars(parser.parse_args(argv))
    vars(args).update({dest: parsed[dest] for dest in entries})


def _benchmark_task(args, names: list, n: int, rep: int) -> list:
    """(MAE, wall time in s, per-t absolute error) of each estimator in
    ``names`` on replicate ``rep`` of the scenario at size ``n``."""
    ds, truth = simgen.generate(_scenario_config(args, n), replicate=rep)
    results = []
    for est in names:
        t0 = time.perf_counter()
        effect = run_estimator(ds, est, search=args.search, seed=args.seed + rep)
        wall = time.perf_counter() - t0
        mae, per_t = simgen.effect_error(effect, truth)
        results.append((mae, wall, per_t.values))
    return results


def cmd_benchmark(args) -> int:
    names = [e.strip() for e in args.estimators.split(",")]
    sizes = [int(x) for x in args.sizes.split(",")]
    if args.replicates < 1:
        raise ValueError("replicates must be >= 1")
    for est in names:
        if est not in ESTIMATOR_NAMES:
            raise ValueError(f"unknown estimator: {est}")
    for what, values in (("estimators", names), ("sizes", sizes)):
        if len(set(values)) < len(values):
            raise ValueError(f"repeated {what}: {', '.join(map(str, values))}")
    for n in sizes:  # a rejected scenario knob fails before anything is written
        _scenario_config(args, n)
    outdir = args.output
    os.makedirs(outdir, exist_ok=True)

    # [estimator, size, replicate] arrays of the MAE, the wall time and
    # (on a last axis) the absolute error at each grid point
    shape = (len(names), len(sizes), args.replicates)
    mae, wall, per_t = np.empty(shape), np.empty(shape), np.empty(shape + (args.t,))
    for b, n in enumerate(sizes):
        for rep in range(args.replicates):
            results = _benchmark_task(args, names, n, rep)
            mae[:, b, rep], wall[:, b, rep], per_t[:, b, rep] = zip(*results)
    per_t_std, per_t_mean = per_t.std(axis=-1), per_t.mean(axis=2)

    # wall times go to their own file, so every other report file is
    # deterministic given the config and seed
    with (
        open(os.path.join(outdir, "summary.csv"), "w", newline="", encoding="utf-8") as fh,
        open(os.path.join(outdir, "timings.csv"), "w", newline="", encoding="utf-8") as th,
    ):
        writer, timings = csv.writer(fh), csv.writer(th)
        writer.writerow(["estimator", "n", "mae_mean", "mae_sd", "per_t_std_mean"])
        timings.writerow(["estimator", "n", "wall_time_s"])
        for a, est in enumerate(names):
            for b, n in enumerate(sizes):
                maes = mae[a, b]
                writer.writerow(
                    [
                        est,
                        n,
                        f"{maes.mean():.6f}",
                        f"{maes.std(ddof=1) if maes.size > 1 else 0.0:.6f}",
                        f"{per_t_std[a, b].mean():.6f}",
                    ]
                )
                timings.writerow([est, n, f"{wall[a, b].sum():.3f}"])

    with open(os.path.join(outdir, "boxplot_data.csv"), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["estimator", "n", "replicate", "mae"])
        for est, n in sorted((est, n) for est in names for n in sizes):
            maes = mae[names.index(est), sizes.index(n)]
            writer.writerows([est, n, rep, f"{m:.6f}"] for rep, m in enumerate(maes))

    n_max = max(sizes)
    tgrid = np.linspace(0.0, 1.0, args.t)
    with open(os.path.join(outdir, "per_t_error.csv"), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["estimator", "n", "t_index", "t", "abs_error_mean"])
        for a, est in enumerate(names):
            for b, n in enumerate(sizes):
                for j, (tv, ev) in enumerate(zip(tgrid, per_t_mean[a, b])):
                    writer.writerow([est, n, j, f"{tv:.6f}", f"{ev:.6f}"])

    plots.line_plot_svg(
        os.path.join(outdir, "per_t_error.svg"),
        tgrid,
        per_t_mean[:, sizes.index(n_max)],
        labels=names,
        title=f"Mean absolute error over time (n={n_max})",
    )
    plots.box_plot_svg(
        os.path.join(outdir, "mae_boxplot.svg"),
        mae.reshape(-1, args.replicates),
        labels=[f"{est}\u00a0n={n}" for est in names for n in sizes],
        title="MAE by estimator and sample size",
    )

    config = {k: v for k, v in vars(args).items() if k not in ("command", "func")}
    with open(os.path.join(outdir, "metadata.json"), "w", encoding="utf-8") as fh:
        json.dump(
            {
                "schema_version": SCHEMA_VERSION,
                "git_hash": _git_hash(),
                "config": {**config, "estimators": names, "sizes": sizes},
            },
            fh,
            indent=2,
        )
    print(f"wrote benchmark report to {outdir}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_scenario_flags(p):
    """``--scenario`` and one flag per ``_SCENARIO_KNOBS`` field, each with
    the type and default of its ``ScenarioConfig`` field."""
    p.add_argument("--scenario", default=simgen.ScenarioConfig.scenario.value,
                   choices=[s.value for s in simgen.Scenario])
    for knob in _SCENARIO_KNOBS:
        default = getattr(simgen.ScenarioConfig, knob)
        p.add_argument("--" + knob.replace("_", "-"), type=type(default), default=default)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="funcause",
        description="Causal effect estimation for functional outcomes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic dataset")
    _add_scenario_flags(p)
    p.add_argument("--n", type=int, default=simgen.ScenarioConfig.n)
    p.add_argument("--replicate", type=int, default=0)
    p.add_argument("--output", required=True, help="dataset path (.csv or .json)")
    p.add_argument("--truth", help="optional ground-truth JSON path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", help="run one estimator on a dataset")
    p.add_argument("dataset")
    p.add_argument("--estimator", required=True, choices=ESTIMATOR_NAMES)
    p.add_argument("--lam", type=float, default=None, help="ridge penalty (kernel estimators)")
    p.add_argument("--search", action="store_true", help="holdout hyperparameter search")
    p.add_argument("--ci", action="store_true", help="attach a confidence interval")
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", help="result JSON path (default: stdout)")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("benchmark", help="replicate x size x estimator study")
    _add_scenario_flags(p)
    p.add_argument("--config", help="INI config file with a [benchmark] section")
    p.add_argument("--estimators", default="ipw,kernel")
    p.add_argument("--sizes", default="50,100")
    p.add_argument("--replicates", type=int, default=3)
    p.add_argument("--search", action="store_true")
    p.add_argument("--output", default="benchmark_out")
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("register", help="elastic registration of dataset curves")
    p.add_argument("dataset")
    p.add_argument("--target", required=True, choices=("outcomes", "covariates", "both"))
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_register)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            _apply_config(parser, args)
        return args.func(args)
    except (FuncauseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
