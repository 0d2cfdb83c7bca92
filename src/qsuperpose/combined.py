"""Moments of the cavity light when both drives act through one Hamiltonian.

This is the conventional treatment: add the coherent-drive and subharmonic
Hamiltonians, write the damped operator equation of motion, and close the
first and second moment equations.  The steady state then mixes the two
drives: the coherent contribution to the photon number picks up a spurious
dependence on the pump (see :func:`coherent_term`), and the quadrature
variance loses the coherent contribution entirely.  The module reproduces
that procedure faithfully so it can be contrasted with the Q-function
superposition of :mod:`qsuperpose.superposed`.

Times are measured in units of 1/kappa throughout (tau = kappa * t).
"""

import math
from dataclasses import astuple, dataclass
from typing import TYPE_CHECKING

from .errors import DomainError, NumericsError, StepError
from .params import ScaledParams, finite

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class MomentSet:
    """First and second moments of the cavity mode.

    Attributes:
        mean_amp: <a> (= <a^dag>, real for real drives).
        mean_sq: <a^2> (= <a^dag^2>, real here).
        mean_photon: <a^dag a>, >= 0.
    """

    mean_amp: float
    mean_sq: float
    mean_photon: float

    def __post_init__(self):
        # tolerate quadrature-level noise but reject genuinely negative values
        if self.mean_photon < -1e-9:
            raise DomainError(f"mean photon number negative: {self.mean_photon}")

    def __add__(self, other: "MomentSet") -> "MomentSet":
        """Field-wise sum: the moments of two superposed independent sources."""
        return MomentSet(*(x + y for x, y in zip(astuple(self), astuple(other))))


def steady_mean_amp(params: ScaledParams) -> float:
    """Steady-state <a> = a/(1+b)."""
    return params.a / (1 + params.b)


def coherent_term(params: ScaledParams) -> float:
    """The coherent-drive part a^2/(1+b)^2 of the combined photon number.

    Diagnostic: for b > 0 this differs from the pump-free value a^2, i.e. in
    the combined treatment the pump alters the coherent light's own photon
    number, which has no physical justification.
    """
    amp = params.a / (1 + params.b)
    return amp * amp  # inf, not OverflowError, past the float range


def steady_moments_combined(params: ScaledParams) -> MomentSet:
    """Closed-form steady-state moments of the combined treatment."""
    a, b = params.a, params.b
    # (1-b)(1+b) keeps full relative precision in the threshold-divergent
    # denominator 1-b^2 as b -> 1
    one_minus_b2 = (1 - b) * (1 + b)
    mean_amp = a / (1 + b)
    mean_sq = a * a / (1 + b) ** 2 - b / (2 * one_minus_b2)
    mean_photon = a * a / (1 + b) ** 2 + b**2 / (2 * one_minus_b2)
    return MomentSet(mean_amp, mean_sq, mean_photon)


def _moment_system(params: ScaledParams):
    """Linear system dy/dtau = M y + c for y = (<a>, <a^dag>, <a^2>,
    <a^dag^2>, <a^dag a>), in units of 1/kappa."""
    import numpy as np

    a, b = params.a, params.b
    m = np.array(
        [
            [-0.5, -b / 2, 0.0, 0.0, 0.0],
            [-b / 2, -0.5, 0.0, 0.0, 0.0],
            [a, 0.0, -1.0, 0.0, -b],
            [0.0, a, 0.0, -1.0, -b],
            [a / 2, a / 2, -b / 2, -b / 2, -1.0],
        ]
    )
    c = np.array([a / 2, a / 2, -b / 2, -b / 2, 0.0])
    return m, c


def taylor_apply(m: "np.ndarray", y: "np.ndarray", t: float) -> "np.ndarray":
    """exp(t M) y for the square matrix M = m, to rounding: the degree-18
    Taylor polynomial T(h M) of exp(h M), summed term by term, on s =
    max(1, ceil(t |M|_1)) sub-steps of h = t/s (Al-Mohy & Higham, SIAM J.
    Sci. Comput. 33, 2011), as the power T(h M)^s applied by repeated
    squaring with one matrix-vector product per set bit of s.  A t |M|_1
    that is not finite is a StepError; powers that overflow to inf and nan
    are returned for the caller to refuse."""
    import numpy as np

    norm = t * float(np.abs(m).sum(axis=0).max())  # inf past the float range
    if not norm < math.inf:
        raise StepError(f"the flow over t={t} takes no finite count of sub-steps")
    steps = max(1, math.ceil(norm))
    h = t / steps
    power = term = np.identity(len(m))
    for k in range(1, 19):
        term = term @ (h * m) / k
        power = power + term
    with np.errstate(over="ignore", invalid="ignore"):
        while steps:
            if steps & 1:
                y = power @ y
            steps >>= 1
            if steps:
                power = power @ power
    return y


def evolve_moments(params: ScaledParams, t: float) -> MomentSet:
    """The closed moment equations' exact flow from vacuum up to time t.

    t is in units of 1/kappa.  The system is linear, so the moments at t are
    exp(t A) (0, 1) for the augmented system A = [[M, c], [0, 0]] acting on
    (y, 1), applied by :func:`taylor_apply`.  <a^dag> and <a^dag^2> are
    propagated as independent components and checked against <a> and <a^2>
    instead of being assumed equal.  A negative or non-finite t is a
    StepError, and so is a result that is not finite or exceeds 1e12.
    """
    import numpy as np

    if not finite("t", t) or t < 0:
        raise StepError(f"time must be non-negative, got {t}")
    m, c = _moment_system(params)
    aug = np.zeros((6, 6))
    aug[:5, :5], aug[:5, 5] = m, c
    y = np.zeros(6)
    y[5] = 1.0
    y = taylor_apply(aug, y, t)
    if not np.all(np.isfinite(y)) or np.abs(y).max() > 1e12:
        raise StepError(f"moment integration diverged (t={t})")
    if not (abs(y[1] - y[0]) < 1e-10 and abs(y[3] - y[2]) < 1e-10):
        raise NumericsError("conjugate-moment symmetry broken during integration")
    return MomentSet(mean_amp=float(y[0]), mean_sq=float(y[2]), mean_photon=float(y[4]))


def variance_expansion(mom: MomentSet, baseline: float) -> tuple[float, float]:
    """Variances of a_+ = a^dag + a and a_- = i(a^dag - a) from the moments
    m = <a>, s = <a^2>, n = <a^dag a> about ``baseline``: baseline + 2n +
    2s - 4m^2 and baseline + 2n - 2s."""
    m, s, n = mom.mean_amp, mom.mean_sq, mom.mean_photon
    return baseline + 2 * n + 2 * s - 4 * m * m, baseline + 2 * n - 2 * s


def checked_variances(
    mom: MomentSet, baseline: float, closed: tuple[float, float], what: str
) -> tuple[float, float]:
    """The closed-form variances ``closed`` of a_+ and a_-, once their
    :func:`variance_expansion` agrees with them; any disagreement is a bug
    and raises :class:`NumericsError` naming the ``what`` it checked.
    An expansion that is no finite number, as for moments past the float
    range, is a :class:`DomainError` naming it too."""
    var_plus, var_minus = variance_expansion(mom, baseline)
    if not (math.isfinite(var_plus) and math.isfinite(var_minus)):
        raise DomainError(f"the {what} of the moments {mom} overflows the float range")
    closed_plus, closed_minus = closed
    # the expansion cancels moments that diverge as b -> 1, so allow the
    # corresponding roundoff on top of the 1e-12 agreement
    tol = 1e-12 * max(1.0, abs(mom.mean_photon), abs(mom.mean_sq))
    ok = abs(var_plus - closed_plus) <= tol and abs(var_minus - closed_minus) <= tol
    if not ok:
        raise NumericsError(f"moment expansion disagrees with the closed-form {what}")
    return closed_plus, closed_minus


def quad_variance_single(params: ScaledParams) -> tuple[float, float]:
    """Steady-state variances of a_+ = a^dag + a and a_- = i(a^dag - a)
    relative to the single-beam coherent baseline of one.

    Evaluated through the normally-ordered moment expansion and cross-checked
    against the closed forms 1 -+ b/(1 +- b) (:func:`checked_variances`).
    The result depends on b only: in this treatment the coherent drive drops
    out of the variance entirely.
    """
    b = params.b
    closed = (1 - b / (1 + b), 1 + b / (1 - b))
    return checked_variances(steady_moments_combined(params), 1, closed, "variance")
