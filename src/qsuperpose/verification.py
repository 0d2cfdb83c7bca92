"""Oracle-equivalence checks behind the ``verify`` CLI command.

Each check compares a closed-form result against an independent numerical
path (truncated Fock-space steady state, phase-space quadrature, moment-ODE
integration) and reports its worst deviation.  Everything is deterministic:
fixed grids, fixed summation orders, no sampling.
"""

from dataclasses import asdict, astuple, dataclass

import numpy as np

from . import fock
from .combined import (
    MomentSet,
    coherent_term,
    evolve_moments,
    quad_variance_single,
    steady_moments_combined,
    variance_expansion,
)
from .errors import DomainError, TruncationError
from .params import Q_KINDS, CavityConfig, ScaledParams, finite, gaussian_form, scale
from .qfunctions import QuadratureSpec, plane_sums, q_from_char_fn, superpose_q_numeric
from .superposed import (
    PAIR_BASELINE,
    moments_via_qfunction,
    output_report,
    quad_variance_pair,
    quadrature_squeezing,
    superposed_moments,
)

#: standard (a, b) grid the cross-validations sweep over
STANDARD_A = (0.0, 0.3, 0.6)
STANDARD_B = (0.0, 0.2, 0.4, 0.8)

#: offsets from the drive a of the phase points the kernel check probes,
#: near the superposed Q's peak
KERNEL_POINTS = (0j, 0.5 + 0.2j, -0.3 + 0.4j, 0.25 - 0.35j, 0.1 + 0.6j)

#: agreement of the oracle's moments with those at doubled truncations
DOUBLING_TOL = 1e-8


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_deviation: float
    tolerance: float
    passed: bool
    note: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


def _within(name: str, dev: float, tol: float, note: str = "") -> CheckResult:
    return CheckResult(name, float(dev), tol, bool(dev <= tol), note)


def _gap(x: MomentSet, y: MomentSet) -> float:
    """The largest absolute difference between the fields of x and y."""
    return max(abs(u - v) for u, v in zip(astuple(x), astuple(y)))


def _grid_params(extra: ScaledParams) -> list[ScaledParams]:
    grid = [ScaledParams(a, b) for a in STANDARD_A for b in STANDARD_B]
    if all((p.a, p.b) != (extra.a, extra.b) for p in grid):
        grid.append(extra)
    return grid


def check_combined_vs_lindblad(params: ScaledParams, rho, tol) -> CheckResult:
    dev = _gap(fock.moments(rho), steady_moments_combined(params))
    return _within("combined_moments_vs_lindblad", dev, tol)


def check_squeezed_variance_vs_oracle(params: ScaledParams, rho, tol) -> CheckResult:
    vp, vm = quad_variance_single(ScaledParams(0.0, params.b))
    dev = max(
        abs(fock.expect(rho, "quad_var_plus") - vp),
        abs(fock.expect(rho, "quad_var_minus") - vm),
    )
    return _within("squeezed_variance_vs_oracle", dev, tol)


def check_single_uncertainty_product() -> CheckResult:
    bs = np.linspace(0.0, 0.99, 100)
    dev = 0.0
    for b in bs:
        vp, vm = quad_variance_single(ScaledParams(0.0, float(b)))
        dev = max(dev, abs(vp * vm - 1 / (1 - b * b)))
    return _within("single_uncertainty_product", dev, 1e-9)


def check_q_normalization(extra: ScaledParams) -> CheckResult:
    """Unit normalization of the three closed-form Q functions on the
    standard grid and ``extra``, each integral the first of its
    :func:`plane_sums`: it holds to ~1e-11 up to b = 1 - 1e-6."""
    dev = 0.0
    for p in _grid_params(extra):
        for kind in Q_KINDS:
            dev = max(dev, abs(plane_sums(gaussian_form(p, kind))[0] - 1.0))
    return _within("q_normalization", dev, 1e-6)


def check_superposition_kernel(params: ScaledParams) -> CheckResult:
    spec = QuadratureSpec()
    form = gaussian_form(params, "superposed")
    dev = 0.0
    for z in KERNEL_POINTS:
        alpha = params.a + z
        closed = form(alpha)
        dev = max(dev, abs(superpose_q_numeric(alpha, params, spec) - closed) / closed)
    return _within("superposition_kernel_4d", dev, spec.rtol, "relative")


def check_charfn_transform(params: ScaledParams) -> CheckResult:
    """The coherent and squeezed Q from their characteristic functions
    against the closed forms, at 25 points of a square of half-width 1.2
    about each Q's mean: a for the coherent kind, 0 for the squeezed."""
    pts = [
        complex(re, im)
        for re in np.linspace(-1.2, 1.2, 5)
        for im in np.linspace(-1.2, 1.2, 5)
    ]
    dev = 0.0
    for kind in ("coherent", "squeezed"):
        form = gaussian_form(params, kind)
        for z in pts:
            alpha = form.mean + z
            dev = max(dev, abs(q_from_char_fn(alpha, params, kind) - form(alpha)))
    return _within("charfn_transform", dev, 1e-4)


def check_superposed_moments_threeway(
    params: ScaledParams, quad: MomentSet, oracle: MomentSet, tol
) -> CheckResult:
    closed = superposed_moments(params)
    dev = max(_gap(closed, quad), _gap(closed, oracle))
    return _within("superposed_moments_threeway", dev, tol)


def check_pair_variance_quadrature(params: ScaledParams, mom: MomentSet) -> CheckResult:
    vp, vm = variance_expansion(mom, PAIR_BASELINE)
    closed_plus, closed_minus = quad_variance_pair(params)
    dev = max(abs(vp - closed_plus), abs(vm - closed_minus))
    return _within("pair_variance_quadrature", dev, 1e-6)


def check_halving_identity() -> CheckResult:
    dev = 0.0
    for b in np.linspace(0.0, 0.99, 100):
        p = ScaledParams(0.0, float(b))
        single_plus, _ = quad_variance_single(p)
        dev = max(dev, abs(quadrature_squeezing(p) - 0.5 * (1 - single_plus)))
    return _within("halving_identity", dev, 1e-12)


def check_output_scaling(config: CavityConfig) -> CheckResult:
    p = scale(config)
    dev = 0.0
    for factor in (0.5, 1.0, 2.0):
        k = factor * config.kappa
        rep = output_report(CavityConfig(k, p.a * k / 2, p.b * k / 2))
        dev = max(
            dev,
            abs(rep.mean_photon_out - k * rep.mean_photon),
            abs(rep.squeezing_out - rep.squeezing),
            abs(rep.var_plus_out - k * rep.var_plus),
        )
    return _within("output_scaling_identities", dev, 1e-15)


def check_transient_mean_amp(config: CavityConfig) -> CheckResult:
    p = scale(CavityConfig(config.kappa, config.eps1, 0.0))
    dev = 0.0
    for kt in (0.5, 1.0, 2.0, 4.0):
        got = evolve_moments(p, kt).mean_amp
        dev = max(dev, abs(got - p.a * (1 - np.exp(-kt / 2))))
    return _within("transient_mean_amplitude", dev, 1e-6)


def check_coherent_term_contrast() -> CheckResult:
    # the combined treatment's defect: the pump shifts the coherent light's
    # own photon-number contribution
    with_pump = coherent_term(ScaledParams(0.6, 0.4))
    without = coherent_term(ScaledParams(0.6, 0.0))
    gap = without - with_pump
    return CheckResult(
        "coherent_term_contrast",
        float(gap),
        1e-12,
        bool(gap > 1e-12),
        "gap must exceed tolerance",
    )


def check_truncation_doubling(config: CavityConfig, lo) -> CheckResult:
    """Moments of the steady state ``lo`` at its lab and frame truncations
    against both doubled: the solve truncates in the frame, so doubling the
    lab N alone would compare a state with itself."""
    dim, frame_dim = lo.dim, fock.frame_truncation(config)
    if 2 * frame_dim > fock.frame_cap():
        raise TruncationError(
            f"the doubling check needs {2 * frame_dim} frame levels, beyond the "
            f"cap {fock.frame_cap()} of the frame solve; this regime is out of "
            "the oracle's reach"
        )
    hi = fock.steady_state_in_frame(config, 2 * dim, 2 * frame_dim)
    dev = _gap(fock.moments(lo), fock.moments(hi))
    note = f"N {dim}/{2 * dim}, frame {frame_dim}/{2 * frame_dim}"
    return _within("oracle_truncation_doubling", dev, DOUBLING_TOL, note)


def run_verification(
    config: CavityConfig,
    trunc: int | None = None,
    tol: float = 1e-6,
) -> list[CheckResult]:
    """Run every check against the given configuration; deterministic.
    Each Fock state and the quadrature moments are computed once, for every
    check that reads them.  tol must be finite and positive, else
    :class:`DomainError`."""
    if not (finite("tol", tol) and tol > 0):
        raise DomainError(f"tol must be finite and positive, got {tol}")
    p = scale(config)
    rho = fock.steady_state(config, trunc)
    rho_sq = fock.steady_state(CavityConfig(config.kappa, 0.0, config.eps2), trunc)
    rho_coh = fock.steady_state(CavityConfig(config.kappa, config.eps1, 0.0), trunc)
    oracle = fock.moments(rho_coh) + fock.moments(rho_sq)
    quad = moments_via_qfunction(p)
    return [
        check_combined_vs_lindblad(p, rho, tol),
        check_squeezed_variance_vs_oracle(p, rho_sq, tol),
        check_single_uncertainty_product(),
        check_q_normalization(p),
        check_superposition_kernel(p),
        check_charfn_transform(p),
        check_superposed_moments_threeway(p, quad, oracle, tol),
        check_pair_variance_quadrature(p, quad),
        check_halving_identity(),
        check_output_scaling(config),
        check_transient_mean_amp(config),
        check_coherent_term_contrast(),
        check_truncation_doubling(config, rho),
    ]
