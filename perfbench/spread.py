#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the acceptance check takes it.

    python3 perfbench/spread.py --workload cpn-generic --runs 10 [--first-seed 1]

Runs ``run.py`` once per seed (one after another), then prints for every
end-to-end metric in BENCHMARK.json its median over the runs and the distance
between the first and third quartile (``statistics.quantiles(n=4)``) as a
share of that median, next to the metric's bound.  Raw results go to
``.bench_out/spread-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
        if proc.returncode != 0:
            print(proc.stdout, proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(result)
        values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: {values}", flush=True)
    (ROOT / ".bench_out" / f"spread-{args.workload}.json").write_text(json.dumps(results))
    for metric in bench["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        print(f"{metric['name']:<12} median {med:.6g} {metric['unit']}  "
              f"IQR/median {(q3 - q1) / med:.4f}  bound {metric['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
