"""Command-line surface: iterate metrics, estimate convergence rates, check
the distance envelope, regenerate the benchmark tables, and export density
profiles.

Exit codes: 0 success, 1 validation error, 2 numerical failure,
3 benchmark-table mismatch.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from functools import lru_cache
from math import comb

import numpy as np

from . import __version__
from .cp1 import OperatorKind, density_profile
from .cpn import (
    build_basis,
    check_dimension,
    full_symmetry_orbits,
    metric_from_class_values,
    multinomial_coeffs,
    permutation_orbits,
)
from .dynamics import (
    DEFAULT_CONV_TOL,
    DEFAULT_ERR_FLOOR,
    DEFAULT_MAX_ITER,
    NormalizationMode,
    build_trajectory,
    iterate,
    sigma_law,
    sigma_probe,
)
from .errors import ConvergenceError, MetricError, QuadratureError
from .metrics import (
    BalancedFamily,
    DiagonalMetric,
    MultiIndexMetric,
    balanced_coeffs,
    is_palindromic,
)
from .quadrature import DEFAULT_APPLY_TOL
from .tables import TABLE_IDS, golden_table, reproduce, trajectory_table

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_MISMATCH = 3


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise MetricError(f"could not parse coefficient list {text!r}") from exc


def _bool_flag(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise MetricError(f"expected true/false, got {text!r}")


def _write_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([v if isinstance(v, str) else _fmt(v) for v in row])
    return buf.getvalue()


def _add_tol(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", type=float, default=DEFAULT_APPLY_TOL,
                   help="per-application quadrature tolerance")


def _add_output_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_metric_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--op", required=True, help="operator: T, Tnu, or TK")
    p.add_argument("--n", type=int, default=1, help="projective dimension (1..3)")
    p.add_argument("--k", type=int, required=True, help="line-bundle power")
    src = p.add_mutually_exclusive_group()
    src.add_argument("--coeffs", help="comma-separated coefficients (full vector)")
    src.add_argument("--class-coeffs",
                     help="one value per full-symmetry class (CP^n, n >= 2)")
    src.add_argument("--family", choices=("round", "binomial"),
                     help="named start: the round metric, or the binomial family")
    p.add_argument("--alpha", type=float, default=None, help="family scale (default 1)")
    p.add_argument("--c", type=float, default=None,
                   help="binomial family parameter (default 1)")


def _check_start_args(args) -> None:
    check_dimension(args.n)
    if args.k < 0:
        raise MetricError("k must be nonnegative")
    if args.k < 1 and args.n >= 2:
        raise MetricError(f"a metric over CP^{args.n} needs k >= 1, got k={args.k}")
    if args.family == "binomial" and args.n != 1:
        raise MetricError("--family binomial applies to CP^1 (n=1) only")
    # the family flags are read only for a start of their family
    for flag, value, reads, start in (
            ("--alpha", args.alpha, args.family is not None, "--family"),
            ("--c", args.c, args.family == "binomial", "--family binomial")):
        if value is not None and not reads:
            raise MetricError(f"{flag} applies only to a {start} start")


def _build_start(args):
    """Returns (metric, class_indices or None)."""
    _check_start_args(args)
    n, k = args.n, args.k
    if n == 1 and args.class_coeffs:
        raise MetricError("--class-coeffs applies to CP^n with n >= 2")
    basis = None if n == 1 else build_basis(n, k)
    if args.coeffs:
        coeffs = np.asarray(_parse_floats(args.coeffs))
        size, run = (k + 1, f"k={k}") if basis is None else (basis.size, f"n={n}, k={k}")
        if coeffs.size != size:
            raise MetricError(f"expected {size} coefficients for {run}, got {coeffs.size}")
        metric = DiagonalMetric(coeffs) if basis is None else MultiIndexMetric(basis, coeffs)
        return metric, None
    if args.family is None and not args.class_coeffs:
        raise MetricError("provide --coeffs or --family for the start metric" if basis is None
                          else "provide --coeffs, --class-coeffs, or --family round")
    alpha, c = (1.0 if v is None else v for v in (args.alpha, args.c))
    if basis is None:  # --family round is the binomial family at c = 1
        return balanced_coeffs(BalancedFamily(k, alpha, c)), None
    reps = [o[0] for o in full_symmetry_orbits(basis)]
    if args.class_coeffs:
        return metric_from_class_values(basis, _parse_floats(args.class_coeffs)), reps
    return MultiIndexMetric(basis, alpha * multinomial_coeffs(basis)), reps


def cmd_iterate(args) -> int:
    metric, class_indices = _build_start(args)
    kind = OperatorKind.parse(args.op)
    mode = NormalizationMode.parse(args.normalize)
    traj = build_trajectory(kind, metric, steps=args.steps, normalization=mode,
                            tol=args.tol, conv_tol=args.conv_tol,
                            max_iter=args.max_iter)
    header, rows = trajectory_table(traj, class_indices)
    if args.format == "csv":
        _write_text(_csv_text(header, rows), args.out)
    else:
        payload = {
            "meta": {
                "operator": kind.value,
                "n": args.n,
                "k": args.k,
                "normalization": mode.value,
                "tolerances": {"apply": args.tol, "conv": args.conv_tol},
                "columns": header[1:-3],
            },
            "rows": [
                {
                    "r": r,
                    "coeffs": row[1:-3],
                    "err": row[-3],
                    "sigma_tilde": None if r == 0 or not np.isfinite(row[-1]) else row[-1],
                    "bnd": row[-2],
                }
                for r, row in enumerate(rows)
            ],
        }
        _write_text(json.dumps(payload, indent=2) + "\n", args.out)
    return EXIT_OK


def cmd_sigma(args) -> int:
    explicit = bool(args.coeffs or args.class_coeffs or args.family)
    # the generator flags are read only for a generated start of their dimension
    for flag, value, reads, space in (
            ("--palindromic", args.palindromic, args.n == 1, "CP^1"),
            ("--symmetric", args.symmetric, args.n >= 2, "CP^n with n >= 2")):
        if value is not None and (explicit or not reads):
            raise MetricError(f"{flag} applies only to a generated start on {space}")
        if value is True and args.k == 1:
            raise MetricError(f"{flag} true at k=1 generates only the round metric, which"
                              " every map fixes: there is no contraction ratio to estimate")
    metric = _build_start(args)[0] if explicit else _random_start(args)
    kind = OperatorKind.parse(args.op)
    predicted, regime = sigma_law(kind, metric)
    sigma_hat, used = sigma_probe(kind, metric, err_floor=args.err_floor,
                                  tol=args.tol, max_steps=args.steps)
    if used == args.steps:  # the step cap, not the floor, ended the orbit
        print(f"warning: no step size reached --err-floor {args.err_floor:g} within"
              f" --steps {args.steps}; sigma_hat may not have settled", file=sys.stderr)
    report = {
        "operator": kind.value,
        "n": args.n,
        "k": args.k,
        "regime": regime,
        "sigma_hat": sigma_hat,
        "sigma_predicted": predicted,
        "abs_difference": abs(sigma_hat - predicted),
        "iterations_used": used,
    }
    if args.format == "json":
        _write_text(json.dumps(report, indent=2) + "\n", args.out)
    else:
        lines = "".join(f"{key}: {val}\n" for key, val in report.items())
        _write_text(lines, args.out)
    return EXIT_OK


def _random_start(args):
    _check_start_args(args)
    rng = np.random.default_rng(args.seed)
    n, k = args.n, args.k
    if n == 1:
        base = np.array([comb(k, q) for q in range(k + 1)], float)
        if args.palindromic is True:
            half = rng.uniform(-0.5, 0.5, (k + 2) // 2)
            pert = np.array([half[min(q, k - q)] for q in range(k + 1)])
        else:
            pert = rng.uniform(-0.5, 0.5, k + 1)
            if is_palindromic(DiagonalMetric(base * np.exp(pert))):
                pert[0] += 0.25
        return DiagonalMetric(base * np.exp(pert))
    basis = build_basis(n, k)
    base = multinomial_coeffs(basis)
    if args.symmetric is True:
        # invariant under a full cycle of the coordinates, whose group acts
        # transitively on them, as the symmetric law needs
        pi = (1, 2, 0) if n == 2 else (1, 2, 3, 0)
        orbits = permutation_orbits(basis, [pi])
        coeffs = np.empty(basis.size)
        for orbit in orbits:
            coeffs[list(orbit)] = base[orbit[0]] * np.exp(rng.uniform(-0.5, 0.5))
        return MultiIndexMetric(basis, coeffs)
    return MultiIndexMetric(basis, base * np.exp(rng.uniform(-0.5, 0.5, basis.size)))


def cmd_reproduce(args) -> int:
    report = reproduce(args.table)
    table = golden_table(args.table)
    lines = [f"table {report.table_id}: {len(report.computed_rows)} rows "
             f"in {report.elapsed_s:.2f}s"]
    for col in table.columns:
        dev = report.max_deviation[col.name]
        lines.append(f"  column {col.name}: max deviation {dev:.3e}")
    if report.failures:
        lines.append(f"  {len(report.failures)} cells out of tolerance:")
        for f in report.failures:
            lines.append(
                f"    r={f.r} {f.column}: computed {f.computed!r} vs "
                f"golden {f.golden!r} (|dev| {f.deviation:.3e} > {f.allowed:.3e})"
            )
        lines.append("RESULT: FAIL")
    else:
        lines.append("RESULT: PASS")
    sys.stdout.write("\n".join(lines) + "\n")
    if args.out is not None:
        header = ["r"] + [col.name for col in table.columns]
        if args.format == "csv":
            _write_text(_csv_text(header, report.computed_rows), args.out)
        else:
            payload = {
                "meta": {"table": report.table_id, "columns": header},
                "rows": [dict(zip(header, row)) for row in report.computed_rows],
            }
            _write_text(json.dumps(payload, indent=2) + "\n", args.out)
    return EXIT_OK if report.ok else EXIT_MISMATCH


def _profile_path(base: str, r: int) -> str:
    if "{r}" in base:
        return base.replace("{r}", str(r))
    if "." in base.rsplit("/", maxsplit=1)[-1]:
        stem, ext = base.rsplit(".", 1)
        return f"{stem}_r{r}.{ext}"
    return f"{base}_r{r}"


def cmd_profile(args) -> int:
    if args.n != 1:
        raise MetricError("density profiles are defined on CP^1 (n=1)")
    metric, _ = _build_start(args)
    if args.xs:
        xs = np.asarray(_parse_floats(args.xs))
    else:
        for flag, x in (("--x-min", args.x_min), ("--x-max", args.x_max)):
            if not 0.0 < x < np.inf:
                raise ValueError(f"{flag} must be finite and positive, got {x}")
        xs = np.geomspace(args.x_min, args.x_max, args.x_count)
    iterates = iterate(OperatorKind.parse(args.op), metric, args.steps, tol=args.tol)
    profiles = [density_profile(g, xs) for g in iterates]
    if args.out is None:
        rows = []
        for r, prof in enumerate(profiles):
            rows.extend([r, x, v] for x, v in zip(prof.x, prof.rho))
        _write_text(_csv_text(["r", "x", "rho"], rows), None)
    else:
        for r, prof in enumerate(profiles):
            rows = [[x, v] for x, v in zip(prof.x, prof.rho)]
            _write_text(_csv_text(["x", "rho"], rows), _profile_path(args.out, r))
    return EXIT_OK


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (parsing leaves it as is)."""
    parser = argparse.ArgumentParser(
        prog="balmet", description="Balanced-metric iterations on projective space")
    parser.add_argument("--version", action="version", version=f"balmet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_it = sub.add_parser("iterate", help="run an operator trajectory",
                          parents=[], description="Iterate an operator and "
                          "tabulate coefficients, distance to the balanced "
                          "limit, and the conjectured envelope.")
    _add_metric_args(p_it)
    p_it.add_argument("--steps", type=int, required=True)
    p_it.add_argument("--normalize", default="balanced",
                      choices=[m.value for m in NormalizationMode])
    _add_tol(p_it)
    p_it.add_argument("--conv-tol", type=float, default=DEFAULT_CONV_TOL,
                      help="balanced-limit convergence tolerance")
    p_it.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER,
                      help="iteration cap for the balanced limit")
    _add_output_args(p_it)
    p_it.set_defaults(fn=cmd_iterate)

    p_sig = sub.add_parser("sigma", help="estimate the convergence ratio")
    _add_metric_args(p_sig)
    p_sig.add_argument("--steps", type=int, default=300,
                       help="index of the last step size the estimate may read")
    p_sig.add_argument("--err-floor", type=float, default=DEFAULT_ERR_FLOOR,
                       help="stop at the first step size at or below this floor")
    p_sig.add_argument("--palindromic", type=_bool_flag, default=None,
                       help="with no explicit start: generate one of this parity")
    p_sig.add_argument("--symmetric", type=_bool_flag, default=None,
                       help="with no explicit start (CP^n): generate one of this symmetry")
    p_sig.add_argument("--seed", type=int, default=0,
                       help="seed for generated starts")
    _add_tol(p_sig)
    _add_output_args(p_sig)
    p_sig.set_defaults(fn=cmd_sigma)

    p_rep = sub.add_parser("reproduce", help="regenerate a benchmark table")
    p_rep.add_argument("table", choices=list(TABLE_IDS))
    _add_output_args(p_rep)
    p_rep.set_defaults(fn=cmd_reproduce)

    p_prof = sub.add_parser("profile", help="export density profiles rho(x)")
    _add_metric_args(p_prof)
    p_prof.add_argument("--steps", type=int, default=0,
                        help="also profile this many operator iterates")
    p_prof.add_argument("--xs", default=None, help="explicit sample points")
    p_prof.add_argument("--x-min", type=float, default=1e-3)
    p_prof.add_argument("--x-max", type=float, default=1e3)
    p_prof.add_argument("--x-count", type=int, default=200)
    _add_tol(p_prof)
    p_prof.add_argument("--out", default=None,
                        help="CSV path, one file per iterate (default stdout)")
    p_prof.set_defaults(fn=cmd_profile)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed its usage error (code 2) or its --help/--version text
        return EXIT_VALIDATION if exc.code else EXIT_OK
    try:
        return args.fn(args)
    except (MetricError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (QuadratureError, ConvergenceError) as exc:
        # the error names its map, n and k itself; step_index is the index of
        # the input a failing application got
        step = f" (step {exc.step_index})" if hasattr(exc, "step_index") else ""
        print(f"numerical failure{step}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
