"""Seeded inputs, warm-ups, passes and output checks of the three workloads.

Every start is built here from the public balmet API and a numpy generator
seeded by the benchmark's ``--seed``; balmet only ever sees the generated
metrics.  A pass runs every task of a workload once and checks every output:

* a golden table through ``balmet.cli.main(["reproduce", id])``: exit code 0
  and every cell within ``ColumnSpec.allowance`` (``table_dev_ratio`` <= 1);
* a sigma-law probe: ``|sigma_hat - law| < 1e-2`` (``sigma_dev_max``);
* a single application: the trace relation ``sum a_i/a~_i = N`` (N = k+1 on
  CP^1, the basis size on CP^n) to 1e-9.

Caught ``QuadratureError``/``ConvergenceError`` count as failed operations.
On a single application that is all they do; on a table or a probe they also
fail the run, as does a table mismatch, a sigma-law miss, a broken trace
relation, or a pass whose outputs differ bit-wise from the first pass.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
from dataclasses import dataclass, field
from math import comb
from pathlib import Path
from typing import Callable

import numpy as np

import balmet
from balmet import ConvergenceError, QuadratureError, cli, cp1, cpn, dynamics

SIGMA_GATE = 1e-2
TRACE_GATE = 1e-9
ERR_FLOOR = 1e-8

# cp1-sweep: log10 coefficient spread of the single applications.  Up to 8
# every start certifies below the 2048-node cap (20000 draws reached at most
# m=1024); from about 10 on some fail, and from 20 on most do, so those starts
# are run apart as known limits instead of as workload operations.
CP1_SPREAD = (0.0, 8.0)
CP1_LIMIT_SPREAD = (20.0, 30.0)
CP1_SINGLES_PER_MAP = 100
CP1_LIMIT_STARTS_PER_MAP = 2
PROBES_PER_CONFIG = 2


class Tally:
    """Counts, accuracy figures and an output digest of one pass."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.table_dev: list[float] = []   # worst deviation ratio of each table
        self.sigma_dev: list[float] = []   # |sigma_hat - law| of each probe
        self.digest = hashlib.sha256()

    def numerical_failure(self, label: str, exc: Exception, gated: bool) -> None:
        self.failed += 1
        if gated:
            self.problems.append(f"{label}: {type(exc).__name__}: {exc}")

    def record(self, *values) -> None:
        for v in values:
            self.digest.update(np.asarray(v, dtype=float).tobytes())


@dataclass
class Task:
    label: str
    run: Callable[[Tally], None]


@dataclass
class Plan:
    """What one run of a workload executes."""

    tasks: list[Task]
    limits: list[Task] = field(default_factory=list)


# -- tasks ------------------------------------------------------------------

def table_task(table_id: str, out_dir: Path, sigma_law: float | None = None) -> Task:
    """Reproduce a golden table through the CLI and diff the CSV it writes."""
    path = out_dir / f"table-{table_id}.csv"
    golden = balmet.golden_table(table_id)

    def run(tally: Tally) -> None:
        tally.attempted += 1
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["reproduce", table_id, "--out", str(path)])
        if code == 2:
            tally.failed += 1
            tally.problems.append(f"table {table_id}: numerical failure (exit 2)")
            return
        with open(path, newline="", encoding="utf-8") as fh:
            rows = [[float(v) for v in row] for row in list(csv.reader(fh))[1:]]
        if len(rows) != len(golden.rows):
            tally.problems.append(f"table {table_id}: {len(rows)} rows, "
                                  f"expected {len(golden.rows)}")
            return
        worst = 0.0
        for row, grow in zip(rows, golden.rows):
            tally.record(row)
            for j, col in enumerate(golden.columns, start=1):
                worst = max(worst, abs(row[j] - grow[j]) / col.allowance(grow[j]))
        tally.table_dev.append(worst)
        if code != 0 or worst > 1.0:
            tally.problems.append(f"table {table_id}: exit {code}, "
                                  f"table_dev_ratio {worst:.3g}")
        if sigma_law is not None:
            # the last sigma_tilde of the table is itself a sigma-law probe
            dev = abs(rows[-1][-1] - sigma_law)
            tally.sigma_dev.append(dev)
            if not dev < SIGMA_GATE:
                tally.problems.append(f"table {table_id}: sigma_tilde misses the "
                                      f"law by {dev:.3g}")

    return Task(f"table {table_id}", run)


def probe_task(op: str, g0, law: float, label: str) -> Task:
    def run(tally: Tally) -> None:
        tally.attempted += 1
        try:
            sigma_hat, _ = dynamics.sigma_probe(op, g0, err_floor=ERR_FLOOR)
        except (QuadratureError, ConvergenceError) as exc:
            tally.numerical_failure(label, exc, gated=True)
            return
        dev = abs(sigma_hat - law)
        tally.record(sigma_hat)
        tally.sigma_dev.append(dev)
        if not dev < SIGMA_GATE:
            tally.problems.append(f"{label}: sigma_hat {sigma_hat!r} misses "
                                  f"the law {law!r} by {dev:.3g}")

    return Task(label, run)


def apply_task(op: str, g, label: str) -> Task:
    """One application, checked by the trace relation sum a_i/a~_i = N."""

    def run(tally: Tally) -> None:
        tally.attempted += 1
        try:
            if isinstance(g, balmet.MultiIndexMetric):
                h = cpn.apply_Tnu_cpn(g)
            else:
                h = cp1.apply_operator(op, g)
        except (QuadratureError, ConvergenceError) as exc:
            tally.numerical_failure(label, exc, gated=False)
            return
        tally.record(h.coeffs)
        dev = abs(float(np.sum(g.coeffs / h.coeffs)) - g.coeffs.size)
        if not dev <= TRACE_GATE:
            tally.problems.append(f"{label}: trace relation off by {dev:.3g}")

    return Task(label, run)


# -- seeded starts ------------------------------------------------------------

def _binomial(k: int) -> np.ndarray:
    return np.array([comb(k, q) for q in range(k + 1)], dtype=float)


def generic_cp1(rng, k: int) -> balmet.DiagonalMetric:
    return balmet.DiagonalMetric(_binomial(k) * np.exp(rng.uniform(-0.5, 0.5, k + 1)))


def palindromic_cp1(rng, k: int) -> balmet.DiagonalMetric:
    half = rng.uniform(-0.5, 0.5, (k + 2) // 2)
    pert = np.array([half[min(q, k - q)] for q in range(k + 1)])
    return balmet.DiagonalMetric(_binomial(k) * np.exp(pert))


def wide_cp1(rng, k: int, spread: tuple[float, float]) -> balmet.DiagonalMetric:
    """Binomial coefficients times 10^u, the u spanning a drawn log10 spread."""
    s = rng.uniform(*spread)
    u = rng.uniform(0.0, 1.0, k + 1)
    u = (u - u.min()) / (u.max() - u.min())
    return balmet.DiagonalMetric(_binomial(k) * 10.0 ** (s * u))


def generic_cpn(rng, n: int, k: int) -> balmet.MultiIndexMetric:
    basis = balmet.build_basis(n, k)
    base = balmet.multinomial_coeffs(basis)
    return balmet.MultiIndexMetric(basis, base * np.exp(rng.uniform(-0.4, 0.4, basis.size)))


def _cp1_degree(rng, op: str) -> int:
    return 2 * int(rng.integers(1, 5)) if op == "TK" else int(rng.integers(2, 9))


# -- workloads ------------------------------------------------------------------

def plan_cp1_sweep(seed: int, out_dir: Path) -> Plan:
    rng = np.random.default_rng(seed)
    tasks = [table_task(tid, out_dir) for tid in ("tk-k2", "tnu-k3", "t-k6")]
    law = dynamics.sigma_closed_form
    for _ in range(PROBES_PER_CONFIG):
        for k in range(2, 9):
            tasks.append(probe_task("T", generic_cp1(rng, k), law("T", k), f"probe T k={k}"))
        for k in range(2, 13, 2):
            tasks.append(probe_task("TK", generic_cp1(rng, k), law("TK", k), f"probe TK k={k}"))
        for k in range(2, 11):
            tasks.append(probe_task("Tnu", palindromic_cp1(rng, k),
                                    law("Tnu", k, palindromic=True),
                                    f"probe Tnu palindromic k={k}"))
            tasks.append(probe_task("Tnu", generic_cp1(rng, k),
                                    law("Tnu", k, palindromic=False),
                                    f"probe Tnu generic k={k}"))
    for i in range(3 * CP1_SINGLES_PER_MAP):
        op = ("T", "Tnu", "TK")[i % 3]
        k = _cp1_degree(rng, op)
        tasks.append(apply_task(op, wide_cp1(rng, k, CP1_SPREAD), f"apply {op} k={k}"))
    limits = []
    for i in range(3 * CP1_LIMIT_STARTS_PER_MAP):
        op = ("T", "Tnu", "TK")[i % 3]
        k = _cp1_degree(rng, op)
        limits.append(apply_task(op, wide_cp1(rng, k, CP1_LIMIT_SPREAD),
                                 f"limit {op} k={k}"))
    return Plan(tasks, limits)


def plan_cpn_symmetric(seed: int, out_dir: Path) -> Plan:
    rng = np.random.default_rng(seed)
    basis = balmet.build_basis(3, 4)
    values = np.concatenate(([1.0], rng.uniform(1.0, 50.0, 4)))
    start = balmet.metric_from_class_values(basis, values)
    return Plan([
        table_task("cpn-k4", out_dir, sigma_law=balmet.sigma_predict_cpn(3, 4, True)),
        apply_task("Tnu", start, "apply Tnu CP^3 k=4 symmetric"),
    ])


def plan_cpn_generic(seed: int, out_dir: Path) -> Plan:
    rng = np.random.default_rng(seed)
    tasks = []
    for n, k in [(2, k) for k in range(2, 6)] + [(3, 2)]:
        law = balmet.sigma_predict_cpn(n, k, False)
        tasks.append(probe_task("Tnu", generic_cpn(rng, n, k), law,
                                f"probe Tnu CP^{n} k={k} generic"))
        tasks.append(apply_task("Tnu", generic_cpn(rng, n, k),
                                f"apply Tnu CP^{n} k={k} generic"))
    return Plan(tasks)


# -- warm-ups: fixed starts that reach each workload's highest node level ------

def warm_up_cp1() -> None:
    cp1.apply_operator("T", balmet.DiagonalMetric(np.array([1.0, 1e8, 1.0])))  # m=1024


def warm_up_cpn_symmetric() -> None:
    basis = balmet.build_basis(3, 4)
    cpn.apply_Tnu_cpn(balmet.metric_from_class_values(basis, (1.0, 20.0, 30.0, 40.0, 50.0)))


def warm_up_cpn_generic() -> None:
    rng = np.random.default_rng(0)
    cpn.apply_Tnu_cpn(generic_cpn(rng, 2, 5))  # m=128
    cpn.apply_Tnu_cpn(generic_cpn(rng, 3, 2))  # m=96


@dataclass(frozen=True)
class Workload:
    plan: Callable[[int, Path], Plan]
    warm_up: Callable[[], None]


WORKLOADS = {
    "cp1-sweep": Workload(plan_cp1_sweep, warm_up_cp1),
    "cpn-symmetric": Workload(plan_cpn_symmetric, warm_up_cpn_symmetric),
    "cpn-generic": Workload(plan_cpn_generic, warm_up_cpn_generic),
}
