"""End-to-end benchmark of the witness-forge CLI.

Run from the repository root:

    python3 bench/run.py --workload cbounds-seesaw --seed 0 --seconds 30 --trace 0

One process per workload drives `witness_forge.cli.main` in-process
over a fixed list of CLI jobs built from the seed. A run is a whole
number of passes over that list, fixed by `--seconds` and the
workload's nominal pass time, so every run with the same arguments
does the same work. After the timed passes the outputs are checked
against numpy (see `checks.py`), and the last line of stdout is one
JSON object: `correct`, `attempted`, `failed` and `metrics`.

With `--trace 0` the metrics are the end-to-end ones: set-up time,
geometric-mean job time and jobs per second, all three scaled to a
reference speed (see SpeedGauge), and peak resident set. With `--trace 1`
the same passes run with spans around each module's entry points and
the metrics are the per-layer ones; the spans are written to
`bench/results/trace-<workload>.jsonl`.
"""

from __future__ import annotations

import os

# One thread in total: BLAS and OpenMP pools stay single-threaded, so the
# process never asks for more than one of the machine's cores. Set before
# numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import collections
import contextlib
import importlib
import io
import json
import math
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
WORK = BENCH / "_work"
RESULTS = BENCH / "results"

SETUP_REPEATS = 5
# Wall seconds of one pass on a 2-core x86-64 machine; `--seconds` is
# turned into a whole number of passes with these, never into a deadline.
NOMINAL_PASS_S = {"cbounds-seesaw": 25.0, "extend-purify": 25.0, "oracle-grid": 11.0}
WF_MODULES = ("cli", "linalg", "qstate", "witness", "oracle", "fileio", "extend")

# Speed gauge. The shared CPU's speed drifts by about 20 % over minutes,
# and process CPU time drifts with it. A fixed reference task with the
# same mix as the CLI jobs (interpreter work on 4x4 complex arrays) runs
# before every job and every set-up; each time is scaled by
# REF_NOMINAL_S / (median of the last REF_WINDOW reference times), that
# is, to the speed at which the reference takes REF_NOMINAL_S. Over
# 30-s windows this took the spread of a fixed job's time from 0.26 to
# 0.03. The reference is the benchmark's own code, the same on every
# commit, so any change to the program still shows in full.
REF_NOMINAL_S = 0.0225
REF_WINDOW = 5
_REF_MATRIX = np.random.default_rng(0).standard_normal((4, 4)) + 0j


def fresh_import():
    """Import witness_forge from source as a new process would."""
    for name in [m for m in sys.modules if m == "witness_forge" or m.startswith("witness_forge.")]:
        del sys.modules[name]
    wf = importlib.import_module("witness_forge")
    return wf, {m: importlib.import_module(f"witness_forge.{m}") for m in WF_MODULES}


def set_up(workload: str, seed: int, work: Path):
    """One whole set-up: import, generate, validate and write the inputs.
    Returns the plan, the imported modules and the time taken."""
    t0 = time.perf_counter()
    wf, modules = fresh_import()
    plan = workloads.BUILDERS[workload](wf, seed, work)
    return plan, modules, time.perf_counter() - t0


def reference_task() -> float:
    """Wall time of the fixed reference task."""
    t0 = time.perf_counter()
    m, acc = _REF_MATRIX.copy(), 0.0
    for _ in range(3000):
        m = 0.5 * (m @ _REF_MATRIX.conj().T) / (abs(m[0, 0]) + 1.0)
        acc += float(m[1, 2].real)
    return time.perf_counter() - t0


class SpeedGauge:
    """Scale factors from the reference task's recent times."""

    def __init__(self) -> None:
        self.recent = collections.deque(maxlen=REF_WINDOW)
        self.factors: list[float] = []
        for _ in range(REF_WINDOW - 1):
            self.recent.append(reference_task())

    def factor(self) -> float:
        """Times the reference once more; returns the scale for the next
        timing."""
        self.recent.append(reference_task())
        self.factors.append(REF_NOMINAL_S / statistics.median(self.recent))
        return self.factors[-1]


def geometric_mean(times: list[float]) -> float:
    """The typical job time. A workload mixes 10 to 26 classes of job
    whose times differ by up to 50x and move by 10-30 % with the seed's
    frame; the median sat on one or two classes and its spread over ten
    seeds reached 0.21, while the geometric mean weights every class."""
    return math.exp(statistics.fmean(math.log(t) for t in times))


def run_job(main, argv: list[str], tracer) -> tuple[int | None, str, float]:
    """One CLI command with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    code = None
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = tracer.span("cli", main, argv) if tracer else main(argv)
        except Exception:  # a crash inside the program is a failed job
            traceback.print_exc()
    dt = time.perf_counter() - t0
    if code != 0:
        print(f"job failed (exit {code}): {' '.join(argv)}\n{err.getvalue()}", file=sys.stderr)
    return code, out.getvalue(), dt


def run(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    """Set up, run the timed passes and check them. Returns the result
    object and a log of the unscaled figures and the speed factors; the
    traced run logs its jobs per second there too, so the tracing
    overhead can be seen."""
    # One directory per process, so runs in the same checkout never share files.
    work = WORK / f"{workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return _run(workload, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(workload: str, seed: int, seconds: int, trace: bool, work: Path) -> tuple[dict, dict]:
    gauge = SpeedGauge()
    factor = gauge.factor()
    plan, modules, setup_time = set_up(workload, seed, work)
    raw_setups, setup_times = [setup_time], [setup_time * factor]
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracer.install(modules)
    main = modules["cli"].main
    passes = max(1, round(seconds / NOMINAL_PASS_S[workload]))
    total = passes * len(plan.jobs)
    # The other set-ups are spread over the run: the machine's speed drifts
    # over tens of seconds, and set-ups done back to back all saw one speed.
    # They rewrite identical inputs; the jobs keep the first import.
    more_setups = {total * k // SETUP_REPEATS for k in range(1, SETUP_REPEATS)}

    raw, times, failed, first = [], [], 0, {}
    errors = []
    for i in range(total):
        if i in more_setups:
            factor = gauge.factor()
            raw_setups.append(set_up(workload, seed, work)[2])
            setup_times.append(raw_setups[-1] * factor)
        j = i % len(plan.jobs)
        argv = plan.jobs[j]
        factor = gauge.factor()
        code, out, dt = run_job(main, argv, tracer)
        raw.append(dt)
        times.append(dt * factor)
        if code != 0:
            failed += 1
        elif first.setdefault(j, out) != out:
            errors.append(f"report of {' '.join(argv)} changed between passes")

    if len(first) == len(plan.jobs):
        errors += plan.check([json.loads(first[j]) for j in range(len(plan.jobs))])
    else:
        errors.append("some jobs never succeeded, outputs left unchecked")
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)

    attempted = len(times)
    jobs_per_s = (attempted - failed) / sum(times)
    log = {
        "jobs_per_s": jobs_per_s,
        "raw_setup_s": statistics.median(raw_setups),
        "raw_job_gmean_s": geometric_mean(raw),
        "raw_jobs_per_s": (attempted - failed) / sum(raw),
        "speed_factor_median": statistics.median(gauge.factors),
    }
    if tracer:
        metrics = tracer.metrics()
        RESULTS.mkdir(exist_ok=True)
        tracer.write(RESULTS / f"trace-{workload}.jsonl")
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "job_gmean_s": (geometric_mean(times), "s"),
            "jobs_per_s": (jobs_per_s, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, log


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "witness_forge" / "__init__.py").is_file():
        print(f"witness_forge sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result, log = run(args.workload, args.seed, args.seconds, bool(args.trace))
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / "runs.jsonl", "a") as fh:
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, **log, **result}
        fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
