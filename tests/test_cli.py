"""End-to-end tests for the command-line interface."""
import ast
import csv
import inspect
import json
import pathlib
import re
import shlex
import typing

import numpy as np
import pytest

from funcause import cli, elastic, estimators, load_dataset
from funcause.cli import ESTIMATOR_NAMES, main, run_estimator
from funcause import ScenarioConfig, Scenario, effect_error, generate


def run(argv):
    return main(argv)


class TestSimulate:
    def test_writes_dataset_and_truth(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        truth = tmp_path / "truth.json"
        code = run(
            [
                "simulate",
                "--n",
                "20",
                "--t",
                "16",
                "--output",
                str(data),
                "--truth",
                str(truth),
            ]
        )
        assert code == 0
        ds = load_dataset(data)
        assert len(ds) == 20
        payload = json.loads(truth.read_text())
        assert payload["schema_version"] == 1
        assert len(payload["beta_x"]) == 16

    def test_deterministic_given_seed(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for p in (p1, p2):
            assert run(["simulate", "--n", "10", "--t", "8", "--seed", "5", "--output", str(p)]) == 0
        assert p1.read_text() == p2.read_text()

    @pytest.mark.parametrize("flag", ["seed", "replicate"])
    def test_negative_seed_or_replicate_writes_nothing(self, tmp_path, capsys, flag):
        data = tmp_path / "data.csv"
        assert run(["simulate", "--n", "10", f"--{flag}=-1", "--output", str(data)]) == 1
        assert capsys.readouterr().err == f"error: {flag} must be nonnegative\n"
        assert not data.exists()


class TestEstimate:
    @pytest.fixture()
    def dataset_path(self, tmp_path):
        p = tmp_path / "data.csv"
        assert run(["simulate", "--n", "30", "--t", "12", "--output", str(p)]) == 0
        return p

    @pytest.mark.parametrize("estimator", ["ipw", "dr", "frechet-euclid", "kernel"])
    def test_runs_each_estimator(self, dataset_path, tmp_path, estimator):
        out = tmp_path / "result.json"
        code = run(
            ["estimate", str(dataset_path), "--estimator", estimator, "--output", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["estimator"] == estimator
        assert len(payload["delta"]) == 12
        assert payload["phi_date"] >= 0

    def test_ci_attached(self, dataset_path, tmp_path):
        out = tmp_path / "result.json"
        code = run(
            [
                "estimate",
                str(dataset_path),
                "--estimator",
                "ipw",
                "--ci",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        ci = json.loads(out.read_text())["ci"]
        assert ci["lower"] <= ci["upper"]
        assert ci["regime"] in ("nonzero_norm", "zero_norm")

    @pytest.mark.parametrize("estimator", ["ipw", "dr", "frechet-euclid", "frechet-fr"])
    def test_lam_without_ridge_penalty_exits_one(self, dataset_path, tmp_path, capsys, estimator):
        out = tmp_path / "result.json"
        argv = ["estimate", str(dataset_path), "--estimator", estimator, "--lam", "5"]
        assert run(argv + ["--output", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "scenario,flags,message",
        [
            pytest.param(
                "continuous_functional", ["--estimator", "iterative-srvf", "--ci"],
                "covariance kernel needs binary treatments", id="ci-continuous",
            ),
            *[
                pytest.param(
                    "binary_nonmonotonic", ["--estimator", "srvf-operator-kernel", f"--lam={lam}"],
                    "lambda must be positive and finite", id=f"lam={lam}",
                )
                for lam in ("0", "-1", "nan", "inf")
            ],
            *[
                pytest.param(
                    "binary_nonmonotonic",
                    ["--estimator", "srvf-operator-kernel", "--ci", f"--level={level}"],
                    "level must be in (0, 1)", id=f"level={level}",
                )
                for level in ("0", "1.5", "nan")
            ],
            *[
                pytest.param(
                    "binary_nonmonotonic",
                    ["--estimator", "srvf-operator-kernel", "--ci", f"--level={level}"],
                    "level must leave a tail (1 - level) / 2 of at least 1e-07", id=f"level={level}",
                )
                for level in ("0.99999999", "0.9999999999999999")
            ],
            pytest.param(
                "binary_nonmonotonic", ["--estimator", "srvf-operator-kernel", "--level=1.5"],
                "--level needs --ci", id="level-without-ci",
            ),
        ],
    )
    def test_bad_argument_fails_before_fitting(
        self, tmp_path, capsys, monkeypatch, scenario, flags, message
    ):
        data = tmp_path / "data.csv"
        argv = ["simulate", "--scenario", scenario, "--n", "20", "--t", "12"]
        assert run(argv + ["--output", str(data)]) == 0
        calls = []
        for module, name in ((elastic, "_align_rows"), (estimators, "_fit")):
            fn = getattr(module, name)
            monkeypatch.setattr(
                module, name, lambda *a, fn=fn, name=name, **k: calls.append(name) or fn(*a, **k)
            )
        out = tmp_path / "result.json"
        assert run(["estimate", str(data), *flags, "--output", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert calls == []
        assert not out.exists()

    def test_missing_dataset_exits_one(self, tmp_path):
        code = run(
            ["estimate", str(tmp_path / "nope.csv"), "--estimator", "ipw"]
        )
        assert code == 1

    def test_bad_estimator_exits_two(self, dataset_path):
        with pytest.raises(SystemExit) as err:
            run(["estimate", str(dataset_path), "--estimator", "bogus"])
        assert err.value.code == 2

    def test_missing_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as err:
            run([])
        assert err.value.code == 2


def _register_twice(tmp_path, *simulate_flags):
    """The outcome matrices after one and after two noise-free ``register``
    runs on a simulated dataset."""
    data, once, twice = tmp_path / "data.csv", tmp_path / "reg1.csv", tmp_path / "reg2.csv"
    argv = ["simulate", "--noise", "0.0", "--confounding", "0.0", *simulate_flags]
    assert run(argv + ["--output", str(data)]) == 0
    assert run(["register", str(data), "--target", "outcomes", "--output", str(once)]) == 0
    assert run(["register", str(once), "--target", "outcomes", "--output", str(twice)]) == 0
    return load_dataset(once).outcome_matrix, load_dataset(twice).outcome_matrix


class TestRegister:
    def test_idempotent_on_second_run(self, tmp_path):
        y1, y2 = _register_twice(tmp_path, "--n", "12", "--t", "24", "--amplitude", "0.0")
        assert np.max(np.abs(y1 - y2)) <= 1e-6

    @pytest.mark.xfail(
        strict=True,
        reason="register is not a fixed point: a second run moves noise-free curves with "
        "bumps by an RMS of up to 0.22; the cause is open (ROADMAP item 11)",
    )
    @pytest.mark.parametrize("seed", ["0", "1"])
    def test_idempotent_on_second_run_with_bumps(self, tmp_path, seed):
        y1, y2 = _register_twice(tmp_path, "--n", "20", "--t", "50", "--seed", seed)
        assert np.max(np.abs(y1 - y2)) <= 1e-6

    def test_covariates_requires_covariate_curves(self, tmp_path):
        data = tmp_path / "data.csv"
        assert run(["simulate", "--n", "10", "--t", "12", "--output", str(data)]) == 0
        out = tmp_path / "reg.csv"
        code = run(["register", str(data), "--target", "covariates", "--output", str(out)])
        assert code == 1


class TestBenchmark:
    def test_report_files_and_row_counts(self, tmp_path):
        outdir = tmp_path / "report"
        code = run(
            [
                "benchmark",
                "--estimators",
                "ipw,frechet-euclid",
                "--sizes",
                "20,30",
                "--replicates",
                "3",
                "--t",
                "10",
                "--output",
                str(outdir),
            ]
        )
        assert code == 0
        for name in (
            "summary.csv",
            "timings.csv",
            "boxplot_data.csv",
            "per_t_error.csv",
            "per_t_error.svg",
            "mae_boxplot.svg",
            "metadata.json",
        ):
            assert (outdir / name).exists()
        with open(outdir / "summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4  # 2 estimators x 2 sizes
        with open(outdir / "timings.csv") as fh:
            timings = list(csv.DictReader(fh))
        assert [(r["estimator"], r["n"]) for r in timings] == [(r["estimator"], r["n"]) for r in rows]
        assert all(float(r["wall_time_s"]) >= 0.0 for r in timings)
        with open(outdir / "boxplot_data.csv") as fh:
            raw = list(csv.DictReader(fh))
        assert len(raw) == 12  # 2 estimators x 2 sizes x 3 replicates
        meta = json.loads((outdir / "metadata.json").read_text())
        assert meta["schema_version"] == 1
        assert "git_hash" in meta

    def test_report_matches_per_record_reference(self, tmp_path):
        # every aggregate recomputed from one (estimator, n, replicate)
        # record at a time; the names and sizes are not in sorted order
        names, sizes, reps, t = ["ipw", "frechet-euclid"], [24, 20], 3, 10
        outdir = tmp_path / "report"
        argv = ["benchmark", "--estimators", ",".join(names), "--sizes", "24,20", "--t", str(t)]
        assert run(argv + ["--replicates", str(reps), "--output", str(outdir)]) == 0
        records = {}
        for n in sizes:
            for rep in range(reps):
                ds, truth = generate(ScenarioConfig(n=n, t=t), replicate=rep)
                for est in names:
                    mae, per_t = effect_error(run_estimator(ds, est), truth)
                    records[est, n, rep] = (mae, per_t.values)

        box, summary, per_t_rows = [], [], []
        for est, n in sorted((est, n) for est in names for n in sizes):
            box += [[est, str(n), str(r), f"{records[est, n, r][0]:.6f}"] for r in range(reps)]
        for est in names:
            for n in sizes:
                maes = np.array([records[est, n, r][0] for r in range(reps)])
                stds = np.array([float(np.std(records[est, n, r][1])) for r in range(reps)])
                summary.append(
                    [est, str(n), f"{maes.mean():.6f}", f"{maes.std(ddof=1):.6f}", f"{stds.mean():.6f}"]
                )
                mean_t = np.mean([records[est, n, r][1] for r in range(reps)], axis=0)
                per_t_rows += [
                    [est, str(n), str(j), f"{tv:.6f}", f"{ev:.6f}"]
                    for j, (tv, ev) in enumerate(zip(np.linspace(0.0, 1.0, t), mean_t))
                ]

        def read(name):
            with open(outdir / name) as fh:
                return [list(row.values()) for row in csv.DictReader(fh)]

        assert read("boxplot_data.csv") == box
        assert read("summary.csv") == summary
        assert read("per_t_error.csv") == per_t_rows

    def test_searched_report_matches_estimate(self, tmp_path):
        # a searched benchmark row is the searched estimate of its dataset
        names, n, t, reps = ["kernel", "operator-kernel"], 30, 12, 2
        outdir = tmp_path / "report"
        argv = ["benchmark", "--scenario", "binary_nonmonotonic", "--estimators", ",".join(names)]
        argv += ["--sizes", str(n), "--t", str(t), "--replicates", str(reps), "--search"]
        assert run(argv + ["--seed", "2", "--output", str(outdir)]) == 0
        cfg = ScenarioConfig(n=n, t=t, scenario=Scenario.BINARY_NONMONOTONIC, seed=2)
        expected = []
        for est in names:
            for rep in range(reps):
                ds, truth = generate(cfg, replicate=rep)
                mae, _ = effect_error(estimators.estimate(ds, est, search=True).effect, truth)
                expected.append([est, str(n), str(rep), f"{mae:.6f}"])
        with open(outdir / "boxplot_data.csv") as fh:
            assert [list(row.values()) for row in csv.DictReader(fh)] == expected

    def test_benchmark_deterministic(self, tmp_path):
        outputs = []
        for sub in ("a", "b"):
            outdir = tmp_path / sub
            code = run(
                [
                    "benchmark",
                    "--estimators",
                    "ipw",
                    "--sizes",
                    "20",
                    "--replicates",
                    "4",
                    "--t",
                    "8",
                    "--output",
                    str(outdir),
                ]
            )
            assert code == 0
            outputs.append(
                [
                    (outdir / name).read_bytes()
                    for name in ("boxplot_data.csv", "summary.csv", "per_t_error.csv")
                ]
            )
        assert outputs[0] == outputs[1]

    def test_config_file_overrides_flags(self, tmp_path):
        ini = tmp_path / "bench.ini"
        outdir = tmp_path / "out"
        ini.write_text(
            "[benchmark]\n"
            "estimators = ipw\n"
            "sizes = 16\n"
            "replicates = 2\n"
            f"output = {outdir}\n"
        )
        code = run(
            [
                "benchmark",
                "--estimators",
                "kernel",
                "--sizes",
                "99",
                "--t",
                "8",
                "--config",
                str(ini),
            ]
        )
        assert code == 0
        with open(outdir / "summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert rows[0]["estimator"] == "ipw"
        assert rows[0]["n"] == "16"

    @pytest.mark.parametrize(
        "text", ["[other]\nsizes = 16\n", "sizes = 16\n"], ids=["other-section", "no-header"]
    )
    def test_config_without_section_fails_cleanly(self, tmp_path, capsys, text):
        ini = tmp_path / "bench.ini"
        ini.write_text(text)
        code = run(["benchmark", "--output", str(tmp_path / "x"), "--config", str(ini)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(ini) in err
        assert "Traceback" not in err
        assert not (tmp_path / "x").exists()

    def test_config_unknown_key_fails_cleanly(self, tmp_path, capsys):
        ini = tmp_path / "bench.ini"
        ini.write_text("[benchmark]\nestimators = ipw\nsizes = 16\nreplicate = 2\n")
        code = run(["benchmark", "--t", "8", "--output", str(tmp_path / "x"), "--config", str(ini)])
        assert code == 1
        err = capsys.readouterr().err
        assert "replicate" in err
        assert "Traceback" not in err
        assert not (tmp_path / "x").exists()

    def test_n_flag_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run(["benchmark", "--n", "3", "--sizes", "20", "--output", str(tmp_path / "x")])
        assert err.value.code == 2
        assert not (tmp_path / "x").exists()

    def test_config_n_key_rejected(self, tmp_path, capsys):
        ini = tmp_path / "bench.ini"
        ini.write_text("[benchmark]\nestimators = ipw\nsizes = 20\nn = 3\n")
        code = run(["benchmark", "--t", "8", "--output", str(tmp_path / "x"), "--config", str(ini)])
        assert code == 1
        assert "unknown keys: n" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_scenario_flags_reach_the_data(self, tmp_path):
        outputs = []
        for sub, extra in (("a", []), ("b", ["--amplitude", "0", "--n-covariates", "1"])):
            outdir = tmp_path / sub
            argv = ["benchmark", "--estimators", "ipw", "--sizes", "20", "--replicates", "2"]
            code = run(argv + ["--t", "8", "--output", str(outdir), *extra])
            assert code == 0
            outputs.append((outdir / "boxplot_data.csv").read_text())
        assert outputs[0] != outputs[1]

    def test_unknown_estimator_exits_one(self, tmp_path):
        code = run(
            [
                "benchmark",
                "--estimators",
                "bogus",
                "--sizes",
                "16",
                "--output",
                str(tmp_path / "x"),
            ]
        )
        assert code == 1


    @pytest.mark.parametrize(
        "estimators,sizes,repeated",
        [
            ("ipw,ipw", "20,24", "estimators"),
            ("ipw", "20,20", "sizes"),
            ("ipw,dr,ipw", "20", "estimators"),
        ],
    )
    @pytest.mark.parametrize("via_config", [False, True], ids=["flags", "config"])
    def test_repeated_estimators_or_sizes_rejected(
        self, tmp_path, capsys, estimators, sizes, repeated, via_config
    ):
        outdir = tmp_path / "x"
        argv = ["benchmark", "--t", "8", "--replicates", "2", "--output", str(outdir)]
        if via_config:
            ini = tmp_path / "bench.ini"
            ini.write_text(f"[benchmark]\nestimators = {estimators}\nsizes = {sizes}\n")
            argv += ["--config", str(ini)]
        else:
            argv += ["--estimators", estimators, "--sizes", sizes]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: repeated {repeated}: ")
        assert "Traceback" not in err
        assert not outdir.exists()

    @pytest.mark.parametrize(
        "knobs,message",
        [
            ({"sizes": "3", "t": "8"}, "need at least 4 samples"),
            ({"sizes": "20,24", "t": "8", "shift": "0.5"}, "shift must be in [0, 0.2]"),
            ({"sizes": "20", "t": "7"}, "need at least 8 grid points"),
            ({"sizes": "20", "t": "8", "seed": "-1"}, "seed must be nonnegative"),
        ],
    )
    @pytest.mark.parametrize("via_config", [False, True], ids=["flags", "config"])
    def test_rejected_scenario_knob_writes_nothing(
        self, tmp_path, capsys, knobs, message, via_config
    ):
        outdir = tmp_path / "x"
        argv = ["benchmark", "--estimators", "ipw", "--replicates", "1", "--output", str(outdir)]
        if via_config:
            ini = tmp_path / "bench.ini"
            ini.write_text("[benchmark]\n" + "".join(f"{k} = {v}\n" for k, v in knobs.items()))
            argv += ["--config", str(ini)]
        else:
            argv += [arg for k, v in knobs.items() for arg in (f"--{k}", v)]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"
        assert not outdir.exists()


class TestScenarioFlags:
    def test_defaults_are_scenario_config_defaults(self):
        args = cli.build_parser().parse_args(["simulate", "--output", "x"])
        assert cli._scenario_config(args, args.n) == ScenarioConfig()
        assert cli._scenario_config(args, 100) == ScenarioConfig()

    @pytest.mark.parametrize("command", ["simulate", "benchmark"])
    def test_each_knob_parses_to_its_field_type(self, command):
        hints = typing.get_type_hints(ScenarioConfig)
        argv = [command, "--output", "x"]
        for knob in cli._SCENARIO_KNOBS:
            argv += ["--" + knob.replace("_", "-"), "3"]
        args = cli.build_parser().parse_args(argv)
        for knob in cli._SCENARIO_KNOBS:
            value = getattr(args, knob)
            assert type(value) is hints[knob] and value == 3


class TestArchitecture:
    def test_cli_leaves_the_interval_to_the_library(self):
        # every module, name and attribute cli.py imports or refers to
        tree = ast.parse(pathlib.Path(cli.__file__).read_text(encoding="utf-8"))
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names.update((node.module or "").split("."))
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(part for a in node.names for part in a.name.split("."))
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
        assert not names & {"inference", "effect_ci", "check_ci"}

    def test_run_estimator_is_the_library_binding(self):
        # the benchmark tracer wraps every binding of estimators.run_estimator
        assert cli.run_estimator is estimators.run_estimator

    @pytest.mark.parametrize(
        "fn", ["run_estimator", "estimate", "select_hyperparameters", "holdout_error"]
    )
    def test_search_takes_no_seed(self, fn):
        assert "seed" not in inspect.signature(getattr(estimators, fn)).parameters

    def test_estimate_has_no_seed_flag(self):
        with pytest.raises(SystemExit) as err:
            run(["estimate", "data.csv", "--estimator", "kernel", "--seed", "0"])
        assert err.value.code == 2

    def test_readme_commands_parse(self):
        # every `funcause ...` command in README's sh blocks, continuations joined
        readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
        blocks = re.findall(r"^```sh\n(.*?)^```", readme.read_text(encoding="utf-8"), re.M | re.S)
        lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
        commands = [shlex.split(line)[1:] for line in lines if line.startswith("funcause ")]
        assert len(commands) >= 4
        parser = cli.build_parser()
        for argv in commands:
            try:
                parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"README command does not parse: funcause {shlex.join(argv)}")


class TestRunEstimator:
    def test_all_estimators_run_on_binary_data(self):
        ds, _ = generate(ScenarioConfig(n=24, t=16))
        for name in ESTIMATOR_NAMES:
            eff = run_estimator(ds, name)
            assert eff.delta.values.shape == (16,)

    def test_kernel_estimators_run_on_continuous_data(self):
        ds, _ = generate(
            ScenarioConfig(n=24, t=16, scenario=Scenario.CONTINUOUS_FUNCTIONAL)
        )
        for name in ("kernel", "operator-kernel", "iterative-srvf"):
            eff = run_estimator(ds, name)
            assert eff.delta.values.shape == (16,)

    def test_unknown_name_rejected(self):
        ds, _ = generate(ScenarioConfig(n=10, t=8))
        with pytest.raises(ValueError):
            run_estimator(ds, "bogus")
