#!/usr/bin/env python3
"""balmet benchmark: one workload, timed end to end or traced layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cp1-sweep --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` of the same checkout.  A run

1. (``--trace 0``) times set-up in fresh processes: ``import balmet`` plus the
   workload's warm-up application(s), median of several;
2. sets up in this process and builds the workload's inputs from ``--seed``;
3. runs passes over the inputs for about ``--seconds`` seconds, checking every
   output (see ``workloads.py``); ``wall_s`` is the median pass time;
4. (``--trace 1``) alternates untraced and traced passes, and reports the
   per-layer metrics of ``tracer.py`` instead;
5. prints a readable summary, writes a report (and the spans) under
   ``.bench_out/``, and prints one JSON object as its last line.

It exits 0 when every check passed, 1 when a check failed (the JSON line says
``"correct": false``), and 2 without a result when it cannot run at all.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# BLAS/OpenMP pools are pinned before numpy is first imported, here and in
# every child process (they inherit the environment).
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("cp1-sweep", "cpn-symmetric", "cpn-generic")
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 120

perf = time.perf_counter


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_balmet():
    """Import balmet from this checkout's src/, and nowhere else."""
    if not (SRC / "balmet" / "__init__.py").is_file():
        raise BenchError(f"no balmet sources under {SRC}")
    sys.path.insert(0, str(SRC))
    balmet = importlib.import_module("balmet")
    if Path(balmet.__file__).resolve().parent != SRC / "balmet":
        raise BenchError(f"imported balmet from {balmet.__file__}, not from {SRC}")
    return balmet


def phase(tracer, name: str):
    return tracer.active(name) if tracer is not None else contextlib.nullcontext()


def set_up(workload: str, traced: bool):
    """Import balmet and run the warm-up; returns (seconds, workloads module, tracer)."""
    t0 = perf()
    balmet = import_balmet()
    import workloads
    tracer = None
    if traced:
        import tracer as tracer_mod
        tracer = tracer_mod.Tracer(balmet)
    with phase(tracer, "setup"):
        workloads.WORKLOADS[workload].warm_up()
    return perf() - t0, workloads, tracer


def setup_samples(workload: str) -> list[float]:
    """Set-up time of fresh processes, one after another."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", workload],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def run_passes(plan, new_tally, budget_s: float, tracer=None):
    """Run passes until the next one would overrun the budget.

    With a tracer, untraced and traced passes alternate, so that a change of
    host speed during the run touches both alike.  Returns the untraced and
    the traced pass times and every pass's tally; there is at least one pass
    of each kind asked for.
    """
    times: dict[bool, list[float]] = {False: [], True: []}
    tallies = []
    start = perf()
    while True:
        done = times[False] + times[True]
        if (done and (tracer is None or times[True])
                and perf() - start + statistics.median(done) > budget_s):
            break
        traced = tracer is not None and len(times[True]) < len(times[False])
        gc.collect()
        tally = new_tally()
        with phase(tracer if traced else None, "pass"):
            t0 = perf()
            for i, task in enumerate(plan.tasks):
                if traced:
                    tracer.task = f"{len(done)}.{i}"
                task.run(tally)
            times[traced].append(perf() - t0)
        tallies.append(tally)
    return times[False], times[True], tallies


def run_limits(plan, new_tally, tracer=None):
    tally = new_tally()
    with phase(tracer, "limits"):
        for i, task in enumerate(plan.limits):
            if tracer is not None:
                tracer.task = f"limit.{i}"
            task.run(tally)
    return tally


def environment(balmet) -> dict:
    import numpy
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "balmet": balmet.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--setup-probe", choices=WORKLOAD_NAMES, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        seconds, _, _ = set_up(args.setup_probe, traced=False)
        print(repr(seconds))
        return 0
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    traced = bool(args.trace)
    setup_s = None
    if not traced:
        setup_runs = setup_samples(args.workload)
        setup_s = statistics.median(setup_runs)
    own_setup_s, workloads, tracer = set_up(args.workload, traced)
    balmet = sys.modules["balmet"]
    OUT.mkdir(exist_ok=True)
    plan = workloads.WORKLOADS[args.workload].plan(args.seed, OUT)

    times, traced_times, every = run_passes(plan, workloads.Tally, args.seconds, tracer)
    limits = run_limits(plan, workloads.Tally, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = sum(t.attempted for t in every)
    failed = sum(t.failed for t in every)
    problems = sorted({p for t in every for p in t.problems})
    digests = {t.digest.hexdigest() for t in every}
    if len(digests) != 1:
        problems.append(f"outputs differ between passes ({len(digests)} digests)")
    for p in limits.problems:
        problems.append(f"known-limit start certified a wrong value: {p}")
    correct = not problems
    wall_s = statistics.median(times)

    summary = {
        "wall_s": (wall_s, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "fail_frac": (failed / attempted, "ratio"),
        "table_dev_ratio": (max((d for t in every for d in t.table_dev), default=None), "ratio"),
        "sigma_dev_max": (max((d for t in every for d in t.sigma_dev), default=None), "abs"),
    }
    if traced:
        import tracer as tracer_mod
        overhead = statistics.median(traced_times) / wall_s - 1.0
        layer = tracer.layer_metrics(len(traced_times), overhead)
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in tracer_mod.per_layer_names()}
    else:
        metrics = {name: {"value": summary[name][0], "unit": summary[name][1]}
                   for name in ("wall_s", "setup_s", "peak_rss_mb")}

    env = environment(balmet)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env,
        "pass_s": times, "traced_pass_s": traced_times,
        "setup_samples_s": None if traced else setup_runs,
        "own_setup_s": own_setup_s,
        "summary": {k: v[0] for k, v in summary.items()},
        "known_limits": {"attempted": limits.attempted, "failed": limits.failed},
        "problems": problems,
        "metrics": metrics,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"report-{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    if traced:
        tracer.write(OUT / f"spans-{stem}.json", {k: report[k] for k in
                                                  ("workload", "seed", "seconds", "env")})

    print(f"balmet benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"env: nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"threads={','.join(f'{k}={v}' for k, v in env['threads'].items())}")
    print(f"passes: {len(times)} untraced, {len(traced_times)} traced; "
          f"operations attempted {attempted}, failed {failed}")
    for name, (value, unit) in summary.items():
        if value is not None:
            print(f"  {name:<16} {value:.6g} {unit}")
    if plan.limits:
        print(f"  known-limit starts (log10 spread {workloads.CP1_LIMIT_SPREAD[0]:g}"
              f"-{workloads.CP1_LIMIT_SPREAD[1]:g}, not workload operations): "
              f"{limits.failed}/{limits.attempted} raised")
    if traced:
        if tracer.missing:
            print(f"  not traced (name missing): {', '.join(tracer.missing)}")
        for name, entry in metrics.items():
            print(f"  {name:<32} {entry['value']:.6g} {entry['unit']}")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        sys.exit(2)
