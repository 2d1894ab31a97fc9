"""funcause benchmark: run one workload from a seed, check it, print metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
A run sets up its inputs, then runs the workload's job list in a closed loop
with one client (the next job starts when the previous one returns) and
repeats the list while another pass fits in ``--seconds``.  Every pass is
checked, and must reproduce the first pass bit for bit.  Times are scaled
by the machine's speed, measured with the reference loop in ``speed.py``
around every job and set-up.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with traced ones (set-up inputs rebuilt and the pass run
under the span recorder) and reports the per-layer metrics plus the
tracing overhead.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import os

# BLAS threads are pinned before numpy is first imported; the benchmark
# command's own pool gets at most two workers.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
NPROC = len(os.sched_getaffinity(0))
os.environ["FUNCAUSE_THREADS"] = str(min(2, NPROC))

import argparse
import glob
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

T_START = time.perf_counter()
import speed  # noqa: E402  (after T_START: its numpy import is set-up time)
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# whole set-ups timed per run, each in a fresh interpreter so that imports
# are timed too
SETUP_REPEATS = 5

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_program():
    """Import funcause from this checkout's src/, or exit 2 without a result."""
    if not os.path.isfile(os.path.join(SRC, "funcause", "__init__.py")):
        print(f"error: no funcause sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import funcause

    if os.path.dirname(os.path.abspath(funcause.__file__)) != os.path.join(SRC, "funcause"):
        print(f"error: imported funcause from {funcause.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def git_hash() -> str:
    """HEAD of the checkout, read from .git without starting a process."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args, loadavg) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = "unavailable"
    loc = 0
    for path in sorted(glob.glob(os.path.join(SRC, "funcause", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            loc += sum(1 for _ in fh)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": NPROC,
        "loadavg_start": loadavg,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ[k] for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "FUNCAUSE_THREADS")},
        "git_hash": git_hash(),
        "source_loc": loc,
    }


def set_up(build, make_jobs, seed, workdir, import_s):
    """Generate the inputs (and CSVs) and run one warm-up pass over a
    miniature of the job list; returns the inputs and the set-up details.

    Speed probes right after the imports and at the end, outside the timed
    steps, give the sweep time that ``scaled_s`` is scaled by."""
    sweep = speed.probe()
    t0 = time.perf_counter()
    inputs = build(seed, workdir)
    build_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    tiny_dir = os.path.join(workdir, "warm")
    os.makedirs(tiny_dir)
    for job in make_jobs(build(seed, tiny_dir, tiny=True), tiny_dir):
        job.run()
    warm_s = time.perf_counter() - t0
    sweep = (sweep + speed.probe()) / 2
    setup_s = import_s + build_s + warm_s
    return inputs, {"import_s": import_s, "build_s": build_s, "warm_s": warm_s, "setup_s": setup_s,
                    "sweep_ms": 1e3 * sweep, "scaled_s": speed.scale(setup_s, sweep)}


def set_up_in_child(args) -> dict:
    """Time one whole set-up, imports included, in a fresh interpreter;
    returns the child's set-up details."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-only"]
    # run() waits for the child, and kills and reaps it on a timeout
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_pass(jobs):
    """Run the job list once, with a speed probe before each job and after
    the last; returns [(job, output, error, wall, cpu, sweep)], where
    ``sweep`` is the mean of the probes either side of the job."""
    results = []
    before = speed.probe()
    for job in jobs:
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            output, error = job.run(), None
        except Exception:  # a failing job is counted, and the pass goes on
            output, error = None, traceback.format_exc()
        wall, cpu = time.perf_counter() - t0, cpu_seconds() - cpu0
        after = speed.probe()
        results.append((job, output, error, wall, cpu, (before + after) / 2))
        before = after
    return results


def per_pass(passes, field):
    """Mean time per pass of the jobs' wall (field 3) or CPU (field 4) time,
    scaled by the mean sweep time around the jobs."""
    results = [r for p in passes for r in p]
    total = sum(r[field] for r in results)
    return speed.scale(total / len(passes), statistics.fmean(r[5] for r in results))


def check_pass(results, reference, tally):
    """Check one pass's outputs, counting failures in ``tally``; the first
    pass fills ``reference`` and later passes must match it bit for bit.
    Returns the pass's effect MAEs."""
    import numpy as np

    maes = []
    for job, output, error, *_ in results:
        tally["attempted"] += 1
        if error is None:
            try:
                outcome = job.check(output)
            except Exception:  # a malformed output is a failed job, not a crash
                error = traceback.format_exc()
        if error is not None:
            tally["failed"] += 1
            print(f"FAIL {job.name}:\n{error}", file=sys.stderr)
            continue
        errors = list(outcome.errors)
        fp = outcome.fingerprint
        if job.name not in reference:
            reference[job.name] = fp
        else:
            ref = reference[job.name]
            same = ref == fp if isinstance(fp, bytes) else np.array_equal(ref, fp)
            if not same:
                errors.append(f"{job.name}: output differs from the run's first pass")
        if errors:
            tally["failed"] += 1
            for e in errors:
                print(f"FAIL {e}", file=sys.stderr)
        maes.extend(outcome.maes)
    return maes


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        with open("/proc/loadavg", encoding="utf-8") as fh:
            loadavg = fh.read().strip()
    except OSError:
        loadavg = "unavailable"
    import_program()
    import workloads
    import tracing

    import_s = time.perf_counter() - T_START
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    build, make_jobs, _ = workloads.WORKLOADS[args.workload]
    workers = int(os.environ["FUNCAUSE_THREADS"])

    base = os.path.join(ROOT, ".perfbench_work")
    workdir = os.path.join(base, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        inputs, setup = set_up(build, make_jobs, args.seed, workdir, import_s)
        if args.setup_only:
            print(json.dumps(setup))
            return 0
        setups = [set_up_in_child(args) for _ in range(SETUP_REPEATS)]
        setup_s = statistics.median(c["scaled_s"] for c in setups)

        jobs = make_jobs(inputs, workdir)
        tally = {"attempted": 0, "failed": 0}
        reference = {}
        passes, traced, layer_runs = [], [], []
        maes = None
        deadline = time.perf_counter() + args.seconds
        while True:
            t_pass = time.perf_counter()
            results = run_pass(jobs)
            passes.append(results)
            pass_maes = check_pass(results, reference, tally)
            maes = pass_maes if maes is None else maes
            if args.trace:
                rec = tracing.Recorder()
                with tracing.Tracing(rec):
                    results = run_pass(make_jobs(build(args.seed, workdir), workdir))
                traced.append(results)
                check_pass(results, reference, tally)
                traced_wall = sum(r[3] for r in results)
                layer_runs.append(tracing.layer_metrics(rec, traced_wall, workers))
            step = time.perf_counter() - t_pass
            # start another pass only if it is expected to end in time
            if time.perf_counter() + step > deadline:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass

    effect_mae = statistics.fmean(maes) if maes else float("nan")
    if args.trace:
        values = {name: statistics.median(r[name] for r in layer_runs) for name in layer_runs[0]}
        values["accuracy.effect_mae"] = effect_mae
        values["trace.overhead_frac"] = per_pass(traced, 3) / per_pass(passes, 3) - 1.0
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in tracing.LAYER_METRICS}
    else:
        values = {
            "wall_s": per_pass(passes, 3),
            "setup_s": setup_s,
            "cpu_s": per_pass(passes, 4),
            "peak_rss_mb": peak_rss_mb(),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    env = environment(args, loadavg)
    sweeps = [r[5] for p in passes for r in p]
    env.update(passes=len(passes), traced_passes=len(traced), setup=setups,
               own_setup=setup, sweep_ms_mean=1e3 * statistics.fmean(sweeps),
               sweep_ms_range=[1e3 * min(sweeps), 1e3 * max(sweeps)],
               unscaled_wall_s=sum(r[3] for p in passes for r in p) / len(passes))
    print("env " + json.dumps(env, sort_keys=True))
    info = dict((name, {"value": m["value"], "unit": m["unit"]}) for name, m in metrics.items())
    info["effect_mae"] = {"value": effect_mae, "unit": "outcome"}
    info["fail_frac"] = {"value": tally["failed"] / tally["attempted"], "unit": "ratio"}
    for name, m in info.items():
        print(f"{args.workload:22s} {name:44s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": tally["failed"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
