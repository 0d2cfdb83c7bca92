"""Closed forms recomputed from the paper, and the output checks built on them.

Nothing here imports ``qsuperpose``: every expected value comes from the
formulas in PAPER.md, so a defect in the package cannot hide in its own
reference.  With a = 2*eps1/kappa and b = 2*eps2/kappa:

    <n>        = a^2 + b^2/(2(1 - b^2))
    S          = b/(2(1 + b))
    var_+-     = 2 -+ b/(1 +- b)         (pair baseline 2)
    combined   = a^2/(1 + b)^2           (coherent term of the combined route)

The superposed Husimi function is the Gaussian with mean (a, 0) and
quadrature variances var_+/4 and var_-/4 (coherent light: mean (a, 0),
variances 1/2; squeezed light: mean 0, variances var_+/4 and var_-/4).

Every ``check_*`` function returns a list of problems; an empty list means
the output is correct.
"""

import json
import math
import re

import numpy as np

#: relative agreement of a 9-significant-digit field with its closed form
REL_9DIGITS = 1e-8
#: relative agreement of a Q value whose coordinates were printed to 9 digits
REL_Q = 1e-5
#: values below this underflow differently in two correct evaluations
Q_FLOOR = 1e-290
#: |discrete normalization - 1| the package itself warns about
NORM_TOL = 1e-4
#: fewest verify checks a passing run must report
MIN_VERIFY_CHECKS = 13


def scaled(kappa: float, eps1: float, eps2: float) -> tuple[float, float]:
    return 2 * eps1 / kappa, 2 * eps2 / kappa


def report_fields(kappa: float, a: float, b: float) -> dict:
    """Every report column this benchmark checks, from the closed forms."""
    one_minus_b2 = 1 - b * b
    n = a * a + b * b / (2 * one_minus_b2)
    var_p = 2 - b / (1 + b)
    var_m = 2 + b / (1 - b)
    s = b / (2 * (1 + b))
    return {
        "a": a,
        "b": b,
        "mean_photon": n,
        "mean_photon_out": kappa * n,
        "var_plus": var_p,
        "var_minus": var_m,
        "var_plus_out": kappa * var_p,
        "var_minus_out": kappa * var_m,
        "squeezing": s,
        "squeezing_out": s,
        "combined_coherent_term": a * a / (1 + b) ** 2,
        "coherent_mean_photon": a * a,
    }


def combined_moments(a: float, b: float) -> tuple[float, float]:
    """(<a>, <n>) of the single-Hamiltonian steady state the Fock oracle solves."""
    return a / (1 + b), a * a / (1 + b) ** 2 + b * b / (2 * (1 - b * b))


def superposed_moments(a: float, b: float) -> tuple[float, float, float]:
    """(<a>, <a^2>, <n>) of the superposed light."""
    return a, a * a - b / (2 * (1 - b * b)), a * a + b * b / (2 * (1 - b * b))


def transient_mean_amp(a: float, b: float, tau: float) -> float:
    """<a>(tau) from vacuum, tau in units of 1/kappa:
    d<a>/dtau = -(1 + b)<a>/2 + a/2."""
    return a / (1 + b) * (1 - math.exp(-(1 + b) * tau / 2))


def gaussian_q(kind: str, a: float, b: float, x, y):
    """Husimi function of the given light at alpha = x + iy."""
    if kind == "coherent":
        mx, vx, vy = a, 0.5, 0.5
    else:
        mx = 0.0 if kind == "squeezed" else a
        vx, vy = (2 - b / (1 + b)) / 4, (2 + b / (1 - b)) / 4
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    expo = -((x - mx) ** 2) / (2 * vx) - y * y / (2 * vy)
    return np.exp(expo) / (2 * math.pi * math.sqrt(vx * vy))


def _close(got: float, want: float, rel: float = REL_9DIGITS) -> bool:
    return math.isfinite(got) and abs(got - want) <= rel * abs(want) + 1e-15


def check_report_row(row: dict, kappa: float, eps1: float, eps2: float) -> list[str]:
    """One report/sweep row against the closed forms at its recorded rates."""
    problems = []
    for key, want in (("kappa", kappa), ("eps1", eps1), ("eps2", eps2)):
        if not _close(float(row.get(key, "nan")), want):
            problems.append(f"{key}={row.get(key)} but the input was {want}")
    a, b = scaled(kappa, eps1, eps2)
    for key, want in report_fields(kappa, a, b).items():
        got = float(row.get(key, "nan"))
        if not _close(got, want):
            problems.append(f"{key}={got!r}, closed form {want!r}")
    return problems


def _parse_rows(text: str, fmt: str) -> list[dict]:
    if fmt == "json":
        obj = json.loads(text)
        return obj if isinstance(obj, list) else [obj]
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def check_report(text: str, op: dict) -> list[str]:
    rows = _parse_rows(text, op["format"])
    if len(rows) != 1:
        return [f"expected one report row, got {len(rows)}"]
    return check_report_row(rows[0], op["kappa"], op["eps1"], op["eps2"])


def check_sweep(text: str, op: dict) -> list[str]:
    rows = _parse_rows(text, op["format"])
    if len(rows) != op["steps"]:
        return [f"expected {op['steps']} sweep rows, got {len(rows)}"]
    param = op["param"]
    problems = []
    for idx, want in ((0, op["start"]), (-1, op["stop"])):
        if not _close(float(rows[idx][param]), want):
            problems.append(f"sweep {param} row {idx} is {rows[idx][param]}, not {want}")
    for row in rows:
        rates = {k: float(row[k]) for k in ("kappa", "eps1", "eps2")}
        problems += check_report_row(row, **rates)
        if problems:
            break
    return problems


def _check_q_values(kind, a, b, x, y, q) -> list[str]:
    want = gaussian_q(kind, a, b, x, y)
    if not np.all(np.isfinite(q)):
        return ["Q values are not all finite"]
    big = want > Q_FLOOR
    rel = np.abs(q[big] - want[big]) / want[big]
    problems = []
    if rel.size and rel.max() > REL_Q:
        k = int(np.argmax(rel))
        problems.append(
            f"Q({x[big][k]:.6g}{y[big][k]:+.6g}i) = {q[big][k]:.9g}, "
            f"Gaussian {want[big][k]:.9g}"
        )
    if np.any(np.abs(q[~big]) > 10 * Q_FLOOR):
        problems.append("Q is not negligible where the Gaussian underflows")
    return problems


def check_qgrid(text: str, op: dict) -> list[str]:
    """A sampled Q function: grid shape, every value against the Gaussian,
    and unit normalization of the discrete integral."""
    a, b = scaled(op["kappa"], op["eps1"], op["eps2"])
    n = op["grid_n"]
    if op["format"] == "json":
        obj = json.loads(text)
        if obj.get("n") != n or obj.get("kind") != op["kind"]:
            return [f"envelope n={obj.get('n')} kind={obj.get('kind')}"]
        ax = np.linspace(-obj["extent"], obj["extent"], n)
        x = np.repeat(ax, n)
        y = np.tile(ax, n)
        q = np.asarray(obj["values"], dtype=float)
        if q.size != n * n:
            return [f"expected {n * n} values, got {q.size}"]
        dx = dy = float(obj["dx"])
        norm = float(obj["normalization"])
        if not _close(norm, float(q.sum()) * dx * dy, 1e-6):
            return [f"normalization field {norm} disagrees with the values"]
    else:
        head, _, body = text.partition("\n")
        if head.strip() != "re,im,q":
            return [f"unexpected CSV header {head!r}"]
        cols = np.array(body.replace(",", " ").split(), dtype=float)
        if cols.size != 3 * n * n:
            return [f"expected {n * n} rows, got {cols.size / 3:g}"]
        x, y, q = cols.reshape(-1, 3).T
        spacing = []
        for axis in (np.unique(x), np.unique(y)):
            if axis.size != n:
                return [f"axis has {axis.size} distinct values, not {n}"]
            steps = np.diff(axis)
            # each coordinate carries up to ~5e-9 relative rounding
            if steps.max() - steps.min() > 2e-8 * np.abs(axis).max():
                return ["grid axis is not uniform"]
            spacing.append(steps.mean())
        dx, dy = spacing
        norm = float(q.sum()) * dx * dy
    problems = _check_q_values(op["kind"], a, b, x, y, q)
    if abs(norm - 1) > NORM_TOL:
        problems.append(f"discrete normalization {norm:.9g}")
    return problems


_PASSED = re.compile(r"^(\d+)/(\d+) checks passed$")


def check_verify(text: str, op: dict) -> list[str]:
    lines = text.strip().splitlines()
    m = _PASSED.match(lines[-1].strip()) if lines else None
    if m is None:
        return ["no 'k/k checks passed' summary line"]
    passed, total = int(m.group(1)), int(m.group(2))
    if passed != total or total < MIN_VERIFY_CHECKS:
        return [f"{passed}/{total} checks passed, want all of >= {MIN_VERIFY_CHECKS}"]
    return []


CLI_CHECKS = {
    "report": check_report,
    "sweep": check_sweep,
    "qgrid": check_qgrid,
    "verify": check_verify,
}
