"""Benchmark tables and their regression machinery.

Four reference trajectories are embedded verbatim as golden data, at the
precision to which they are conventionally printed: the degree-2 T_K run,
the degree-3 T_nu run, the degree-6 T run whose first application moves the
metric *away* from its limit, and the fully symmetric degree-4 T_nu run on
CP^3.  Each is a ``balmet iterate`` run, declared in one ``GoldenTable`` with
the rows and columns it is cut to; ``trajectory_table`` lays out the rows of
every such run.  ``reproduce`` regenerates a table from scratch and diffs it
cell by cell; tolerances combine the documented accuracy targets with half an
ulp of the printed precision, since the golden values are rounded.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .cpn import build_basis, full_symmetry_orbits, metric_from_class_values
from .dynamics import (
    NormalizationMode,
    build_trajectory,
    coordinate_sigma_series,
)
from .metrics import MultiIndexMetric

__all__ = ["GoldenTable", "ReproduceReport", "CellDeviation", "TABLE_IDS",
           "golden_table", "generate_table", "reproduce", "trajectory_table"]


@dataclass(frozen=True)
class ColumnSpec:
    name: str
    decimals: int      # printed decimals of the golden values
    rel_tol: float
    abs_tol: float

    def allowance(self, golden: float) -> float:
        return self.rel_tol * abs(golden) + self.abs_tol + 0.5 * 10.0 ** (-self.decimals)


@dataclass(frozen=True)
class GoldenTable:
    table_id: str
    # the ``balmet iterate`` run: operator, n, k, start (coefficients on CP^1,
    # class values on CP^n), steps, normalization
    run: tuple
    columns: tuple[ColumnSpec, ...]          # without the leading r column
    rows: tuple[tuple[float, ...], ...]      # each row starts with r


@dataclass(frozen=True)
class CellDeviation:
    r: int
    column: str
    computed: float
    golden: float
    deviation: float
    allowed: float


@dataclass(frozen=True)
class ReproduceReport:
    table_id: str
    computed_rows: tuple[tuple[float, ...], ...]
    max_deviation: dict[str, float]
    failures: tuple[CellDeviation, ...]
    elapsed_s: float

    @property
    def ok(self) -> bool:
        return not self.failures


def _cols(names, decimals, rel, abs_):
    return tuple(ColumnSpec(n, decimals, rel, abs_) for n in names)


_TK_K2 = GoldenTable(
    table_id="tk-k2",
    run=("TK", 1, 2, (1, 17, 36), 5, "balanced"),
    columns=_cols(("a0", "a1", "a2"), 4, 0.0, 1e-4)
    + _cols(("dist", "bnd"), 4, 0.0, 5e-4),
    rows=(
        (0, 0.8826, 15.0043, 31.7738, 0.2848, 1.0180),
        (1, 0.9738, 12.6377, 35.0561, 0.0640, 0.3027),
        (2, 0.9946, 12.1292, 35.8067, 0.0131, 0.0683),
        (3, 0.9989, 12.0259, 35.9612, 0.0026, 0.0140),
        (4, 0.9998, 12.0052, 35.9922, 0.0005, 0.0028),
        (5, 1.0000, 12.0010, 35.9984, 0.0001, 0.0006),
    ),
)

_TNU_K3 = GoldenTable(
    table_id="tnu-k3",
    run=("Tnu", 1, 3, (1, 25, 0.07, 13), 20, "balanced"),
    columns=_cols(("a0", "a1", "a2", "a3"), 5, 0.0, 1e-4)
    + _cols(("dist", "bnd"), 5, 0.0, 5e-4),
    rows=(
        (0, 0.20720, 5.18011, 0.01450, 2.69366, 5.67338, 17.02014),
        (1, 0.57206, 2.68260, 3.45522, 1.58209, 0.74488, 16.50932),
        (2, 0.73295, 2.72858, 3.31411, 1.32528, 0.44129, 15.99849),
        (3, 0.83372, 2.82894, 3.18320, 1.18836, 0.26423, 15.48766),
        (4, 0.89777, 2.89557, 3.10812, 1.11040, 0.15845, 14.97684),
        (5, 0.93773, 2.93684, 3.06435, 1.06526, 0.09505, 14.46601),
        (10, 0.99505, 2.99505, 3.00496, 1.00497, 0.00739, 11.91189),
        (15, 0.99961, 2.99962, 3.00039, 1.00039, 0.00057, 9.35784),
        (20, 0.99997, 2.99997, 3.00003, 1.00003, 0.00004, 6.80474),
    ),
)

_T_K6 = GoldenTable(
    table_id="t-k6",
    run=("T", 1, 6, (1, 6000, 150000, 2e10, 150000, 6000, 1), 100, "balanced"),
    columns=_cols(("a0", "a1", "a2", "a3"), 5, 1e-3, 0.0)
    + _cols(("err", "bnd"), 5, 0.0, 5e-3),
    rows=(
        (0, 0.00010, 0.58903, 14.72580, 1963439.38600, 17.69856, 106.19139),
        (1, 0.00010, 0.48814, 1073.02459, 733382.16850, 18.10011, 106.00906),
        (2, 0.00011, 0.60722, 1196.93120, 414634.58830, 17.67812, 105.82674),
        (3, 0.00013, 0.72695, 1195.91914, 257759.72070, 17.21170, 105.64441),
        (4, 0.00016, 0.84269, 1147.31003, 167930.51810, 16.72422, 105.46208),
        (5, 0.00020, 0.95726, 1076.08572, 112611.11230, 16.22342, 105.27976),
        (10, 0.00068, 1.58083, 669.18359, 18910.93755, 13.62571, 104.36813),
        (20, 0.01002, 3.32601, 190.00391, 970.58975, 8.42894, 102.54488),
        (30, 0.11205, 5.07732, 52.17933, 117.34474, 3.98456, 100.72162),
        (40, 0.51092, 5.88292, 22.24884, 34.20518, 1.22538, 98.89836),
        (50, 0.87358, 5.99470, 16.26035, 22.28184, 0.24744, 97.07511),
        (60, 0.97741, 5.99984, 15.20684, 20.36883, 0.04187, 95.25185),
        (70, 0.99629, 6.00000, 15.03350, 20.05958, 0.00682, 93.42860),
        (80, 0.99940, 6.00000, 15.00541, 20.00962, 0.00110, 91.60534),
        (90, 0.99990, 6.00000, 15.00088, 20.00156, 0.00018, 89.78209),
        (100, 0.99998, 6.00000, 15.00014, 20.00025, 0.00003, 87.95883),
    ),
)

_CPN_K4 = GoldenTable(
    table_id="cpn-k4",
    run=("Tnu", 3, 4, (1, 20, 30, 40, 50), 8, "first"),
    columns=_cols(("a2", "a5", "a6", "a15"), 7, 0.0, 1e-3)
    + _cols(("sigma_tilde",), 4, 0.0, 5e-4),
    rows=(
        (0, 20.0000000, 30.0000000, 40.0000000, 50.0000000, 0.0000),
        (1, 4.3071170, 6.5967335, 13.0915039, 25.9850356, 0.0192),
        (2, 4.0344368, 6.0688663, 12.1588436, 24.3600437, 0.1121),
        (3, 4.0052604, 6.0105224, 12.0258597, 24.0613530, 0.1528),
        (4, 4.0008611, 6.0017223, 12.0042908, 24.0102741, 0.1637),
        (5, 4.0001430, 6.0002860, 12.0007145, 24.0017140, 0.1661),
        (6, 4.0000238, 6.0000476, 12.0001191, 24.0002857, 0.1665),
        (7, 4.0000040, 6.0000079, 12.0000198, 24.0000476, 0.1666),
        (8, 4.0000007, 6.0000013, 12.0000033, 24.0000079, 0.1667),
    ),
)

_TABLES = {t.table_id: t for t in (_TK_K2, _TNU_K3, _T_K6, _CPN_K4)}
TABLE_IDS = tuple(_TABLES)


def golden_table(table_id: str) -> GoldenTable:
    if table_id not in _TABLES:
        raise ValueError(f"unknown table {table_id!r}; expected one of {TABLE_IDS}")
    return _TABLES[table_id]


def trajectory_table(traj, idx=None) -> tuple[list[str], list[list]]:
    """Header and rows ``r, coefficients, err, bnd, sigma_tilde`` of a
    trajectory, as ``balmet iterate`` prints them, with the coefficients at
    basis positions idx (default all): a0..ak for a DiagonalMetric, a1..aN for
    a MultiIndexMetric (on CP^1 too, as ``apply_step`` dispatches on the type).
    Under first-coefficient normalization sigma_tilde tracks coordinate idx[1]."""
    idx = range(traj.iterates[0].coeffs.size) if idx is None else idx
    first = 1 if isinstance(traj.iterates[0], MultiIndexMetric) else 0
    if traj.normalization is NormalizationMode.FIRST_COEFF:
        sig = coordinate_sigma_series(traj, coord=idx[1] if len(idx) > 1 else 0)
    else:
        sig = [float("nan")] + list(traj.sigma_tilde)
    shown = traj.display_iterates()
    rows = [[r] + [float(shown[r].coeffs[i]) for i in idx]
            + [traj.err[r], traj.bound[r], sig[r]] for r in range(traj.steps + 1)]
    return ["r"] + [f"a{i + first}" for i in idx] + ["err", "bnd", "sigma_tilde"], rows


def generate_table(table_id: str) -> list[tuple[float, ...]]:
    """Recompute a golden table's rows from scratch: its ``iterate`` run,
    cut to the golden rows and columns (``dist`` is the run's ``err``)."""
    table = golden_table(table_id)
    op, n, k, start, steps, mode = table.run
    idx = None
    if n > 1:  # shown by class, as ``iterate --class-coeffs`` does
        basis = build_basis(n, k)
        start = metric_from_class_values(basis, start)
        idx = [o[0] for o in full_symmetry_orbits(basis)]
    header, rows = trajectory_table(
        build_trajectory(op, start, steps=steps, normalization=mode), idx)
    names = ["err" if c.name == "dist" else c.name for c in table.columns]
    cols = [header.index(name) for name in ["r"] + names]
    return [tuple(rows[int(grow[0])][j] for j in cols) for grow in table.rows]


def reproduce(table_id: str) -> ReproduceReport:
    """Regenerate a table and diff it against the golden data."""
    table = golden_table(table_id)
    t0 = time.perf_counter()
    computed = generate_table(table_id)
    elapsed = time.perf_counter() - t0
    failures: list[CellDeviation] = []
    max_dev = {c.name: 0.0 for c in table.columns}
    for crow, grow in zip(computed, table.rows):
        for j, col in enumerate(table.columns, start=1):
            dev = abs(crow[j] - grow[j])
            max_dev[col.name] = max(max_dev[col.name], dev)
            allowed = col.allowance(grow[j])
            if dev > allowed:
                failures.append(CellDeviation(int(grow[0]), col.name,
                                              crow[j], grow[j], dev, allowed))
    return ReproduceReport(table_id=table_id, computed_rows=tuple(computed),
                           max_deviation=max_dev, failures=tuple(failures),
                           elapsed_s=elapsed)
