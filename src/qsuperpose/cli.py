"""Batch command-line front-end.

Subcommands:
    report  - cavity/output statistics for one configuration, with the
              combined-Hamiltonian counterparts side by side (JSON).
    sweep   - the same quantities along a parameter sweep (CSV).
    qgrid   - a Q function sampled on a grid (CSV or JSON).
    verify  - the oracle-equivalence suite, as a pass/fail table.

All emitted floats carry 9 significant digits, and input rates are snapped to
9 significant digits first, so re-running on the recorded parameters
reproduces every derived column exactly.  Exit codes: 0 success, 2 invalid
input, 3 numerical failure (including any failed verify check).  Errors and
warnings go to stderr as one JSON line each.
"""

import argparse
import csv
import io
import json
import sys
import warnings
from dataclasses import replace
from pathlib import Path

from .combined import coherent_term, quad_variance_single, steady_moments_combined
from .errors import DomainError, NumericsError, ValidationError
from .params import ARRAY_BYTES_CAP, CavityConfig, Q_KINDS, as_count, scale
from .superposed import output_report

SWEEP_PARAMS = ("kappa", "eps1", "eps2")
#: the most points a sweep takes: its rows are all built before any is
#: written, and one JSON row peaks near 4.8 KB, so 8 KiB a row keeps a
#: sweep inside ARRAY_BYTES_CAP
SWEEP_CAP = ARRAY_BYTES_CAP // 8192


def _round9(x: float) -> float:
    return float(f"{x:.9g}")


def _f9(x) -> str:
    return f"{x:.9g}" if isinstance(x, float) else str(x)


def report_payload(config: CavityConfig) -> dict:
    """Superposed-light report plus the combined-treatment counterparts,
    so the two procedures can be compared in one document."""
    rep = output_report(config)
    p = scale(config)
    combined = steady_moments_combined(p)
    vp, vm = quad_variance_single(p)
    payload = rep.to_dict()
    payload.update(
        {
            "combined_mean_amp": combined.mean_amp,
            "combined_mean_sq": combined.mean_sq,
            "combined_mean_photon": combined.mean_photon,
            "combined_var_plus": vp,
            "combined_var_minus": vm,
            "combined_coherent_term": coherent_term(p),
            "coherent_mean_photon": p.a**2,
        }
    )
    return {k: _round9(v) for k, v in payload.items()}


def _config(args: argparse.Namespace) -> CavityConfig:
    return CavityConfig(_round9(args.kappa), _round9(args.eps1), _round9(args.eps2))


def _auto_or(text: str, parse, what: str):
    """None for 'auto', else ``parse(text)``; ``what`` opens the error."""
    if text == "auto":
        return None
    try:
        return parse(text)
    except ValueError:
        raise DomainError(f"{what} or 'auto', got {text!r}") from None


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.out is not None:
        args.out.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _rows_to_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(rows[0].keys())
    for row in rows:
        writer.writerow([_f9(v) for v in row.values()])
    return buf.getvalue()


def _write_rows(args: argparse.Namespace, rows: list[dict]) -> None:
    """CSV, or indented JSON: one object for ``report``, a list otherwise."""
    if args.format == "csv":
        _emit(args, _rows_to_csv(rows))
    else:
        doc = rows[0] if args.command == "report" else rows
        _emit(args, json.dumps(doc, indent=2) + "\n")


def _run_report(args: argparse.Namespace) -> int:
    _write_rows(args, [report_payload(_config(args))])
    return 0


def _parse_sweep(text: str) -> tuple[str, float, float, int]:
    parts = text.split(":")
    if len(parts) != 4:
        raise DomainError(f"sweep must look like param:start:stop:steps, got {text!r}")
    param, start, stop, steps = parts
    try:
        start, stop, steps = float(start), float(stop), int(steps)
    except ValueError as exc:
        raise DomainError(f"bad sweep specification {text!r}: {exc}") from None
    if param not in SWEEP_PARAMS:
        raise DomainError(f"sweep parameter must be one of {SWEEP_PARAMS}")
    return param, start, stop, as_count("steps", steps, 2, SWEEP_CAP)


def _linspace(start: float, stop: float, steps: int) -> list[float]:
    """``np.linspace(start, stop, steps).tolist()`` for steps >= 2, by numpy's
    own arithmetic: point i is i*step + start with step = (stop - start)/div
    and div = steps - 1, or (i/div)*(stop - start) + start where that step
    underflows to zero, and the last point is stop."""
    div, delta = steps - 1, stop - start
    step = delta / div
    if step == 0:
        points = [(i / div) * delta + start for i in range(div)]
    else:
        points = [i * step + start for i in range(div)]
    return points + [stop]


def _run_sweep(args: argparse.Namespace) -> int:
    config = _config(args)
    param, start, stop, steps = _parse_sweep(args.sweep)

    def at(value: float) -> CavityConfig:
        return replace(config, **{param: _round9(value)})

    # endpoint configs first, so a range that leaves the stability domain
    # names its endpoint before any row is computed
    for value in (start, stop):
        at(value)
    rows = [report_payload(at(v)) for v in _linspace(start, stop, steps)]
    _write_rows(args, rows)
    return 0


def _run_qgrid(args: argparse.Namespace) -> int:
    # the phase-space grids, and numpy with them, load only here
    from .qfunctions import q_grid

    config = _config(args)
    extent = _auto_or(args.grid_extent, float, "grid extent must be a number")
    grid = q_grid(args.kind, scale(config), n=args.grid_n, extent=extent)
    if args.format == "csv":
        buf = io.StringIO()
        grid.write_csv(buf)
        _emit(args, buf.getvalue())
    else:
        _emit(args, json.dumps(grid.as_json_dict()) + "\n")
    return 0


def _run_verify(args: argparse.Namespace) -> int:
    # the oracles load only here: no other command uses them
    from .verification import run_verification

    config = _config(args)
    trunc = _auto_or(args.trunc, int, "truncation must be an integer")
    results = run_verification(config, trunc=trunc, tol=args.tol)
    width = max(len(r.name) for r in results) + 2
    lines = [f"{'check':<{width}}{'max_dev':<15}{'tol':<15}status"]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(
            f"{r.name:<{width}}{r.max_deviation:<15.9g}{r.tolerance:<15.9g}{status}"
        )
    n_fail = sum(not r.passed for r in results)
    lines.append(f"{len(results) - n_fail}/{len(results)} checks passed")
    print("\n".join(lines))
    if args.out is not None:
        rows = [
            r.to_dict() | {"max_deviation": _round9(r.max_deviation)} for r in results
        ]
        _write_rows(args, rows)
    return 0 if n_fail == 0 else 3


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are :class:`DomainError`, so that
    :func:`main` reports them as one JSON line too; subparsers share it."""

    def error(self, message):
        raise DomainError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qsuperpose",
        description="Statistics and squeezing of superposed coherent and "
        "squeezed cavity light.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, run, eps1_default=0.0, eps2_default=0.0):
        p.set_defaults(run=run)
        p.add_argument("--kappa", type=float, default=1.0, help="cavity damping rate")
        p.add_argument(
            "--eps1", type=float, default=eps1_default, help="coherent drive rate"
        )
        p.add_argument(
            "--eps2",
            type=float,
            default=eps2_default,
            help="subharmonic pump rate (< kappa/2)",
        )
        p.add_argument("--out", type=Path, default=None, help="output file")

    rep = sub.add_parser("report", help="single-configuration report")
    add_common(rep, _run_report)
    rep.add_argument("--format", choices=("json", "csv"), default="json")

    swp = sub.add_parser("sweep", help="parameter sweep")
    add_common(swp, _run_sweep)
    swp.add_argument(
        "--sweep",
        required=True,
        metavar="PARAM:START:STOP:STEPS",
        help="e.g. eps2:0:0.49:50",
    )
    swp.add_argument("--format", choices=("csv", "json"), default="csv")

    grd = sub.add_parser("qgrid", help="sample a Q function on a grid")
    add_common(grd, _run_qgrid)
    grd.add_argument("--kind", choices=Q_KINDS, default="superposed")
    grd.add_argument("--grid-n", type=int, default=128, help="points per axis")
    grd.add_argument(
        "--grid-extent", default="auto", help="half-width per axis, or 'auto'"
    )
    grd.add_argument("--format", choices=("csv", "json"), default="csv")

    ver = sub.add_parser("verify", help="run the oracle-equivalence suite")
    add_common(ver, _run_verify, eps1_default=0.3, eps2_default=0.2)
    ver.add_argument(
        "--trunc", default="auto", help="Fock truncation for the oracle, or 'auto'"
    )
    ver.add_argument(
        "--tol", type=float, default=1e-6, help="tolerance for oracle agreement"
    )
    ver.add_argument("--format", choices=("json", "csv"), default="json")
    return parser


def main(argv=None) -> int:
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning
        try:
            args = build_parser().parse_args(argv)
            return args.run(args)
        except ValidationError as exc:
            _print_error(exc)
            return 2
        except NumericsError as exc:
            _print_error(exc)
            return 3


def _print_json_line(record: dict) -> None:
    json.dump(record, sys.stderr)
    sys.stderr.write("\n")


def _print_error(exc: Exception) -> None:
    _print_json_line({"error": type(exc).__name__, "message": str(exc)})


def _print_warning(message, category, filename, lineno, file=None, line=None):
    """``warnings.showwarning`` for the CLI: one JSON line on stderr, with no
    source path, line number or source line."""
    _print_json_line({"warning": category.__name__, "message": str(message)})


def entry() -> None:  # console-script target
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
