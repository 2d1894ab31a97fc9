"""Span recorder for the traced benchmark run.

The recorder wraps public funcause functions at every binding site (the
defining module and each funcause module that imported the name), keeps one
span stack per thread, holds all spans in memory and derives self times,
counts and ratios once the traced pass has ended.  Nothing here changes
arguments or results, so traced and untraced passes return the same values.
"""
from __future__ import annotations

import collections
import functools
import os
import sys
import threading
import time

import numpy as np

# (module, function, span name); a span name of None means one span per
# estimator name, taken from the call's second argument.
TARGETS = (
    ("elastic", "align_pair", "elastic.align_pair"),
    ("elastic", "karcher_mean", "elastic.karcher_mean"),
    ("elastic", "srsf_transform", "elastic.srsf_transform"),
    ("estimators", "krr_fit", "estimators.krr_fit"),
    ("estimators", "holdout_error", "estimators.holdout_error"),
    ("estimators", "potential_outcome", "estimators.potential_outcome"),
    ("estimators", "predict_curve", "estimators.predict_curve"),
    ("estimators", "register_outcomes", "estimators.register_outcomes"),
    ("estimators", "iterative_srvf_estimate", "estimators.iterative_srvf_estimate"),
    ("kernels", "input_gram", "kernels.input_gram"),
    ("kernels", "median_heuristic", "kernels.median_heuristic"),
    ("kernels", "output_gram", "kernels.output_gram"),
    ("inference", "effect_ci", "inference.effect_ci"),
    ("frechet", "frechet_mean", "frechet.frechet_mean"),
    ("classical", "fit_propensity", "classical.fit_propensity"),
    ("classical", "ipw_effect", "classical.ipw_effect"),
    ("classical", "fit_outcome_models", "classical.fit_outcome_models"),
    ("classical", "dr_effect", "classical.dr_effect"),
    ("fdata", "load_dataset", "fdata.load_dataset"),
    ("fdata", "save_dataset", "fdata.save_dataset"),
    ("simgen", "generate", "simgen.generate"),
    ("cli", "run_estimator", None),
    ("cli", "cmd_benchmark", "cli.benchmark"),
    # the pool task itself, so that pool busy time is measured where it runs
    ("cli", "_benchmark_task", "cli.benchmark_task"),
    ("plots", "line_plot_svg", "plots.line_plot_svg"),
    ("plots", "box_plot_svg", "plots.box_plot_svg"),
)

# the estimators the workloads run through cli.run_estimator
ESTIMATOR_NAMES = ("ipw", "dr", "frechet-euclid", "kernel", "operator-kernel")

ELASTIC_SPANS = ("elastic.align_pair", "elastic.karcher_mean", "elastic.srsf_transform")
CLASSICAL_SPANS = (
    "classical.fit_propensity",
    "classical.ipw_effect",
    "classical.fit_outcome_models",
    "classical.dr_effect",
)
PLOT_SPANS = ("plots.line_plot_svg", "plots.box_plot_svg")

# Every per-layer metric, with its unit, in the order it is reported.  The
# last two are filled in by the run: the mean absolute error of all effects
# against the simgen truth, and the traced pass time over the untraced one,
# minus 1.
LAYER_METRICS = (
    ("elastic.align_pair.calls", "count"),
    ("elastic.align_pair.self_s", "s"),
    ("elastic.align_pair.ms_per_call", "ms"),
    ("elastic.align_pair.identity_frac", "ratio"),
    ("elastic.dp_cells", "count"),
    ("elastic.karcher_mean.calls", "count"),
    ("elastic.karcher_mean.self_s", "s"),
    ("elastic.karcher_mean.sweeps", "count"),
    ("elastic.karcher_mean.unconverged", "count"),
    ("elastic.srsf_transform.self_s", "s"),
    ("elastic.self_frac", "ratio"),
    ("estimators.krr_fit.calls", "count"),
    ("estimators.krr_fit.self_s", "s"),
    ("estimators.holdout_error.self_s", "s"),
    ("estimators.potential_outcome.self_s", "s"),
    ("estimators.predict_curve.calls", "count"),
    ("estimators.predict_curve.self_s", "s"),
    ("estimators.register_outcomes.self_s", "s"),
    ("estimators.iterative_srvf_estimate.self_s", "s"),
    ("estimators.iterative.rounds", "count"),
    ("kernels.input_gram.calls", "count"),
    ("kernels.input_gram.self_s", "s"),
    ("kernels.median_heuristic.self_s", "s"),
    ("kernels.output_gram.self_s", "s"),
    ("inference.effect_ci.self_s", "s"),
    ("inference.zero_norm_frac", "ratio"),
    ("frechet.frechet_mean.self_s", "s"),
    ("frechet.unconverged_frac", "ratio"),
    ("classical.self_s", "s"),
    ("fdata.load_dataset.self_s", "s"),
    ("fdata.save_dataset.self_s", "s"),
    ("fdata.bytes_written", "bytes"),
    ("simgen.generate.self_s", "s"),
) + tuple((f"cli.run_estimator.{name}.s", "s") for name in ESTIMATOR_NAMES) + (
    ("cli.benchmark.self_s", "s"),
    ("cli.pool_busy_frac", "ratio"),
    ("plots.self_s", "s"),
    ("accuracy.effect_mae", "outcome"),
    ("trace.overhead_frac", "ratio"),
)


class Recorder:
    """In-memory span store with one span stack per thread.

    A span opened on a worker thread whose own stack is empty takes the
    innermost open span of the main thread as its parent: the only pool in
    the program (the ``benchmark`` command's thread pool) runs while the
    main thread waits inside that command.
    """

    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.counters = collections.Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack = []

    def _stack(self) -> list:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        with self._lock:
            if stack:
                parent = stack[-1]
            elif self._main_stack and stack is not self._main_stack:
                parent = self._main_stack[-1]
            else:
                parent = None
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent])
        stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack().pop()

    def count(self, key: str, amount=1) -> None:
        with self._lock:
            self.counters[key] += amount

    def totals(self):
        """Per span name: calls, summed duration and summed self time.

        Self time is a span's duration minus the part of its interval that
        the union of its child spans covers, so overlapping children from
        pool threads are not subtracted twice.
        """
        children = collections.defaultdict(list)
        for name, start, end, parent in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out = collections.defaultdict(lambda: [0, 0.0, 0.0])
        for idx, (name, start, end, _) in enumerate(self.spans):
            covered, reach = 0.0, start
            for c0, c1 in sorted(children.get(idx, ())):
                c0, c1 = max(c0, reach), min(c1, end)
                if c1 > c0:
                    covered += c1 - c0
                    reach = c1
            rec = out[name]
            rec[0] += 1
            rec[1] += end - start
            rec[2] += (end - start) - covered
        return out


def _after_align_pair(rec, args, kwargs, out):
    q1 = args[0] if args else kwargs["q1"]
    t = len(q1.grid)
    rec.count("elastic.dp_cells", 7 * t * t)
    if np.array_equal(out[0].values, q1.grid.points):
        rec.count("elastic.align_pair.identity")


def _after_karcher_mean(rec, args, kwargs, out):
    rec.count("elastic.karcher_mean.sweeps", len(out.objective_trace) - 1)
    if not out.converged:
        rec.count("elastic.karcher_mean.unconverged")


def _after_iterative(rec, args, kwargs, out):
    rec.count("estimators.iterative.rounds", len(out.trace) + 1)


def _after_effect_ci(rec, args, kwargs, out):
    if out.regime.value == "zero_norm":
        rec.count("inference.zero_norm")


def _after_frechet_mean(rec, args, kwargs, out):
    if not out.converged:
        rec.count("frechet.unconverged")


def _after_save_dataset(rec, args, kwargs, out):
    path = args[1] if len(args) > 1 else kwargs["path"]
    rec.count("fdata.bytes_written", os.path.getsize(path))


_HOOKS = {
    "elastic.align_pair": _after_align_pair,
    "elastic.karcher_mean": _after_karcher_mean,
    "estimators.iterative_srvf_estimate": _after_iterative,
    "inference.effect_ci": _after_effect_ci,
    "frechet.frechet_mean": _after_frechet_mean,
    "fdata.save_dataset": _after_save_dataset,
}


def _estimator_span(args, kwargs) -> str:
    name = args[1] if len(args) > 1 else kwargs["name"]
    return f"cli.run_estimator.{name}"


def _wrap(rec: Recorder, span, fn):
    hook = _HOOKS.get(span)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = rec.open(span if span is not None else _estimator_span(args, kwargs))
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if hook is not None:
            hook(rec, args, kwargs, out)
        return out

    return traced


class Tracing:
    """Context manager that installs wrappers at every binding site and
    restores the original functions on exit."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self._patched = []

    def __enter__(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "funcause" or n.startswith("funcause."))]
        for mod_name, fn_name, span in TARGETS:
            orig = getattr(sys.modules[f"funcause.{mod_name}"], fn_name)
            wrapper = _wrap(self.rec, span, orig)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, orig))
        return self.rec

    def __exit__(self, *exc):
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()
        return False


def layer_metrics(rec: Recorder, pass_wall: float, workers: int) -> dict:
    """Derive the span-based per-layer metrics from one traced set-up and
    pass.  Names that never ran read 0."""
    tot = rec.totals()
    cnt = rec.counters

    def calls(span):
        return tot[span][0] if span in tot else 0

    def self_s(*spans):
        return sum(tot[s][2] for s in spans if s in tot)

    def dur(span):
        return tot[span][1] if span in tot else 0.0

    def frac(num, den):
        return num / den if den else 0.0

    align = calls("elastic.align_pair")
    m = {
        "elastic.align_pair.calls": align,
        "elastic.align_pair.self_s": self_s("elastic.align_pair"),
        "elastic.align_pair.ms_per_call": 1e3 * frac(self_s("elastic.align_pair"), align),
        "elastic.align_pair.identity_frac": frac(cnt["elastic.align_pair.identity"], align),
        "elastic.dp_cells": cnt["elastic.dp_cells"],
        "elastic.karcher_mean.calls": calls("elastic.karcher_mean"),
        "elastic.karcher_mean.self_s": self_s("elastic.karcher_mean"),
        "elastic.karcher_mean.sweeps": cnt["elastic.karcher_mean.sweeps"],
        "elastic.karcher_mean.unconverged": cnt["elastic.karcher_mean.unconverged"],
        "elastic.srsf_transform.self_s": self_s("elastic.srsf_transform"),
        "elastic.self_frac": frac(self_s(*ELASTIC_SPANS), pass_wall),
        "estimators.krr_fit.calls": calls("estimators.krr_fit"),
        "estimators.krr_fit.self_s": self_s("estimators.krr_fit"),
        "estimators.holdout_error.self_s": self_s("estimators.holdout_error"),
        "estimators.potential_outcome.self_s": self_s("estimators.potential_outcome"),
        "estimators.predict_curve.calls": calls("estimators.predict_curve"),
        "estimators.predict_curve.self_s": self_s("estimators.predict_curve"),
        "estimators.register_outcomes.self_s": self_s("estimators.register_outcomes"),
        "estimators.iterative_srvf_estimate.self_s": self_s("estimators.iterative_srvf_estimate"),
        "estimators.iterative.rounds": cnt["estimators.iterative.rounds"],
        "kernels.input_gram.calls": calls("kernels.input_gram"),
        "kernels.input_gram.self_s": self_s("kernels.input_gram"),
        "kernels.median_heuristic.self_s": self_s("kernels.median_heuristic"),
        "kernels.output_gram.self_s": self_s("kernels.output_gram"),
        "inference.effect_ci.self_s": self_s("inference.effect_ci"),
        "inference.zero_norm_frac": frac(cnt["inference.zero_norm"], calls("inference.effect_ci")),
        "frechet.frechet_mean.self_s": self_s("frechet.frechet_mean"),
        "frechet.unconverged_frac": frac(cnt["frechet.unconverged"], calls("frechet.frechet_mean")),
        "classical.self_s": self_s(*CLASSICAL_SPANS),
        "fdata.load_dataset.self_s": self_s("fdata.load_dataset"),
        "fdata.save_dataset.self_s": self_s("fdata.save_dataset"),
        "fdata.bytes_written": cnt["fdata.bytes_written"],
        "simgen.generate.self_s": self_s("simgen.generate"),
    }
    for name in ESTIMATOR_NAMES:
        m[f"cli.run_estimator.{name}.s"] = dur(f"cli.run_estimator.{name}")
    m["cli.benchmark.self_s"] = self_s("cli.benchmark")
    m["cli.pool_busy_frac"] = frac(dur("cli.benchmark_task"), dur("cli.benchmark") * workers)
    m["plots.self_s"] = self_s(*PLOT_SPANS)
    return m
