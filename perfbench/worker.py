"""Long-lived library process for the oracle-scale workload.

Usage: python perfbench/worker.py OPS_JSON RESULT_JSON SPAWN_TIME
           (--setup-only | --seconds S --block B | --count K) [--trace SPANS_JSON]

Imports the package, warms every call path up on tiny inputs, then runs the
ops of OPS_JSON in order, one at a time: whole blocks of B ops until S
seconds have passed, or exactly K ops.  Each call is timed alone; its result
is then checked against the closed forms, outside the timed region.
SPAWN_TIME is the parent's ``time.time()`` when it started this process, so
that set-up time includes interpreter start-up.
"""

import argparse
import json
import math
import sys
import time

t_import = time.perf_counter()
modules_before = len(sys.modules)

import qsuperpose as qs  # noqa: E402 - the import is what is being timed
import qsuperpose.cli  # noqa: E402,F401

import_stats = {
    "import_s": time.perf_counter() - t_import,
    "modules": len(sys.modules) - modules_before,
    "scipy_linalg": int("scipy.linalg" in sys.modules),
}

import numpy as np  # noqa: E402

import closedforms as cf  # noqa: E402
import spans  # noqa: E402

#: agreement the package's own verify suite demands of the Fock oracle
ORACLE_TOL = 1e-6
#: agreement ``verify`` demands of the characteristic-function transform
CHARFN_TOL = 1e-4


def coherent_density(beta: complex, dim: int):
    """|beta><beta| on levels 0..dim-1, built here, not by the package."""
    c = np.empty(dim, dtype=complex)
    c[0] = math.exp(-abs(beta) ** 2 / 2)
    for n in range(1, dim):
        c[n] = c[n - 1] * beta / math.sqrt(n)
    rho = np.outer(c, c.conj())
    return qs.DensityMatrix(dim=dim, elements=rho / np.trace(rho).real)


def _config(op):
    k = op["kappa"]
    return qs.CavityConfig(k, op.get("a", 0.0) * k / 2, op.get("b", 0.0) * k / 2)


def prepare(op):
    """Inputs built outside the timed call."""
    if op["class"] == "expect":
        return coherent_density(complex(*op["beta"]), op["dim"])
    return None


def call(op, prepared):
    cls = op["class"]
    if cls == "solve":
        return qs.steady_state(_config(op))
    if cls == "propagate":
        return qs.propagate(_config(op), op["tau"] / op["kappa"])
    if cls == "expect":
        return qs.expect(prepared, op["which"], complex(*op["arg"]))
    p = qs.ScaledParams(op["a"], op["b"])
    if cls == "kernel":
        spec = qs.QuadratureSpec(nodes=op["nodes"])
        return qs.superpose_q_numeric(complex(*op["alpha"]), p, spec)
    if cls == "evolve":
        return qs.evolve_moments(p, op["tau"])
    if cls == "charfn":
        return qs.q_from_char_fn(complex(*op["alpha"]), p, op["kind"])
    if cls == "moments":
        return qs.moments_via_qfunction(p)
    raise ValueError(f"unknown op class {cls!r}")


def _fock_moments(rho):
    m = np.asarray(rho.elements)
    n = np.arange(m.shape[0])
    mean_amp = np.sum(np.sqrt(n[1:]) * np.diagonal(m, -1))
    return complex(np.trace(m)), complex(mean_amp), float(np.real(n @ np.diagonal(m)))


def check(op, result) -> list[str]:
    """Problems with one result, against the closed forms."""
    cls = op["class"]
    fails = []

    def near(what, got, want, tol):
        if not abs(got - want) <= tol:
            fails.append(f"{what}={got!r}, closed form {want!r}")

    if cls in ("solve", "propagate"):
        cfg = _config(op)
        a, b = cf.scaled(cfg.kappa, cfg.eps1, cfg.eps2)
        trace, amp, n = _fock_moments(result)
        near("trace", trace, 1.0, 1e-9)
        if cls == "solve":
            want_amp, want_n = cf.combined_moments(a, b)
            near("<n>", n, want_n, ORACLE_TOL)
        else:
            want_amp = cf.transient_mean_amp(a, b, op["tau"])
        near("<a>", amp, want_amp, ORACLE_TOL)
    elif cls == "kernel":
        want = float(cf.gaussian_q("superposed", op["a"], op["b"], *op["alpha"]))
        near("Q/Q_closed", result / want, 1.0, qs.QuadratureSpec().rtol)
    elif cls == "expect":
        beta, z = complex(*op["beta"]), complex(*op["arg"])
        if op["which"] == "husimi":
            want = math.exp(-abs(z - beta) ** 2) / math.pi
        else:
            want = np.exp(-abs(z) ** 2 + z * beta.conjugate() - z.conjugate() * beta)
        near(op["which"], result, want, ORACLE_TOL)
    elif cls == "evolve":
        a, b = op["a"], op["b"]
        steady_amp, steady_n = cf.combined_moments(a, b)
        near("<a>(t)", result.mean_amp, cf.transient_mean_amp(a, b, op["tau"]), ORACLE_TOL)
        near("<n>(t)", result.mean_photon, steady_n, ORACLE_TOL)
        near("<a^2>(t)", result.mean_sq, steady_amp**2 - b / (2 * (1 - b * b)), ORACLE_TOL)
    elif cls == "charfn":
        want = float(cf.gaussian_q(op["kind"], op["a"], op["b"], *op["alpha"]))
        near("Q", result, want, CHARFN_TOL)
    elif cls == "moments":
        amp, sq, n = cf.superposed_moments(op["a"], op["b"])
        near("<a>", result.mean_amp, amp, ORACLE_TOL)
        near("<a^2>", result.mean_sq, sq, ORACLE_TOL)
        near("<n>", result.mean_photon, n, ORACLE_TOL)
    return fails


def warm_up():
    """First calls pay one-off costs (lazy imports, caches of numpy and
    scipy); run every path once on inputs far smaller than any op's."""
    cfg = qs.CavityConfig(1.0, 0.1, 0.05)
    p = qs.ScaledParams(0.2, 0.1)
    qs.steady_state(cfg, trunc=12)
    qs.propagate(cfg, 0.05, trunc=8)
    rho = coherent_density(0.3 + 0.1j, 12)
    qs.expect(rho, "husimi", 0.1j)
    qs.expect(rho, "char_fn", 0.1)
    qs.superpose_q_numeric(0.1, p, qs.QuadratureSpec(nodes=8))
    qs.evolve_moments(p, 0.05)
    qs.q_from_char_fn(0.1, p, "coherent", qs.QuadratureSpec(nodes=16))
    qs.moments_via_qfunction(p, n=31)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("ops")
    ap.add_argument("result")
    ap.add_argument("spawn_time", type=float)
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--seconds", type=float)
    mode.add_argument("--count", type=int)
    ap.add_argument("--block", type=int, default=1)
    ap.add_argument("--trace")
    args = ap.parse_args()

    warm_up()
    out = {"setup_s": time.time() - args.spawn_time, "import": import_stats, "ops": []}
    if not args.setup_only:
        with open(args.ops, encoding="utf-8") as fh:
            ops = json.load(fh)
        tracer = None
        if args.trace:
            tracer = spans.Tracer()
            tracer.install()
        start = time.perf_counter()
        for i, op in enumerate(ops):
            if args.count is not None and i >= args.count:
                break
            if (
                args.seconds is not None
                and i % args.block == 0
                and time.perf_counter() - start >= args.seconds
            ):
                break
            prepared = prepare(op)
            if tracer is not None:
                tracer.op = i
            rec = {"class": op["class"]}
            result = None
            t0 = time.perf_counter()
            try:
                result = call(op, prepared)
            except Exception as exc:  # noqa: BLE001 - a failed op is recorded, not fatal
                rec["error"] = type(exc).__name__
                rec["message"] = str(exc)[:200]
            rec["lat_s"] = time.perf_counter() - t0
            if result is not None:
                problems = check(op, result)
                if problems:
                    rec["wrong"] = problems[:3]
            out["ops"].append(rec)
        if tracer is not None:
            tracer.dump(args.trace)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main()
