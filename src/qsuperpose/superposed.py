"""Moments, variances, and squeezing of the superposed light, plus the
output-beam relations.

Everything here follows from the superposed Q function: operator expectations
are antinormally-ordered phase-space averages (whence <a^dag a> =
int Q |alpha|^2 - 1), and the quadrature variance of the superposed pair is
referenced to the variance of a pair of coherent beams (two), not of a single
beam (one).  With that baseline the coherent drive no longer leaks into the
squeezing, and the output light through the mirror inherits the cavity
squeezing unchanged.
"""

from dataclasses import asdict, dataclass

from .combined import MomentSet, checked_variances
from .errors import DomainError
from .params import (
    CavityConfig,
    ScaledParams,
    array_cap,
    as_count,
    gaussian_form,
    scale,
)

#: coherent-state quadrature variance of a single beam
SINGLE_BEAM_BASELINE = 1.0
#: quadrature variance of a pair of superposed coherent beams
PAIR_BASELINE = 2.0


def output_pair_baseline(kappa: float) -> float:
    """Quadrature variance of a pair of superposed coherent output beams."""
    return 2.0 * kappa


def superposed_moments(params: ScaledParams) -> MomentSet:
    """Closed-form moments of the superposed light.

    mean_amp = a, mean_sq = a^2 + b/(2(b^2-1)), mean_photon =
    a^2 + b^2/(2(1-b^2)): each is exactly the sum of the coherent-only and
    squeezed-only steady-state moments, with no cross contamination.
    """
    a, b = params.a, params.b
    one_minus_b2 = (1 - b) * (1 + b)  # full precision as b -> 1
    return MomentSet(
        mean_amp=a,
        mean_sq=a * a - b / (2 * one_minus_b2),
        mean_photon=a * a + b**2 / (2 * one_minus_b2),
    )


def moments_via_qfunction(params: ScaledParams, n: int = 48) -> MomentSet:
    """Moments by direct quadrature against the superposed Q function.

    Antinormal ordering: mean_photon = int Q |alpha|^2 d^2alpha - 1, while
    <a> and <a^2> carry over unordered.  Serves as an independent check on
    :func:`superposed_moments`; the default agrees with it to ~1e-11 of <n> + 1.

    With alpha = x + iy, the sums of Q x, Q x^2 and Q y^2 are the
    :func:`~qsuperpose.qfunctions.plane_sums` on ``QuadratureSpec(nodes=n)``:
    each axis is n nodes over its own 8 standard deviations about its mean.
    An n that is no integer from 16 to ``array_cap(1)`` raises
    :class:`DomainError` before anything is evaluated, and so does a drive
    at which the closed form overflows.
    """
    from .qfunctions import QuadratureSpec, plane_sums

    n = as_count("n", n, 16, array_cap(1))
    form = gaussian_form(params, "superposed")
    _, amp, x2, y2 = plane_sums(form, QuadratureSpec(nodes=n))
    return MomentSet(mean_amp=amp, mean_sq=x2 - y2, mean_photon=x2 + y2 - 1.0)


def quad_variance_pair(params: ScaledParams) -> tuple[float, float]:
    """Variances of a_+ and a_- for the superposed pair, baseline two.

    Evaluated through the antinormal moment expansion and cross-checked
    against the closed forms 2 -+ b/(1 +- b) (:func:`checked_variances`);
    both are independent of a, and the product (4 - b^2)/(1 - b^2) never
    drops below four.
    """
    b = params.b
    closed = (2 - b / (1 + b), 2 + b / (1 - b))
    return checked_variances(
        superposed_moments(params), PAIR_BASELINE, closed, "pair variance"
    )


def quadrature_squeezing(params: ScaledParams) -> float:
    """Fractional squeezing of the plus quadrature below the pair baseline,
    S = (2 - var_plus)/2 = b/(2(1+b)), in [0, 1/4).

    Half the squeezing of the squeezed light alone.  Written from b
    directly: (2 - var_plus)/2 subtracts a var_plus rounded next to 2, which
    loses about eps/b of relative accuracy and the 9th printed digit for
    every b below 1e-9.
    """
    b = params.b
    return b / (2 * (1 + b))


@dataclass(frozen=True)
class SqueezingReport:
    """Cavity and output-light statistics for one configuration.

    The *_out fields are for the traveling beam outside the mirror: photon
    flux kappa * <a^dag a> and variances kappa * (cavity variance), referenced
    to the output pair baseline 2*kappa.  The fractional squeezing is
    identical inside and out.
    """

    kappa: float
    eps1: float
    eps2: float
    a: float
    b: float
    mean_photon: float
    mean_photon_out: float
    var_plus: float
    var_minus: float
    var_plus_out: float
    var_minus_out: float
    squeezing: float
    squeezing_out: float

    def __post_init__(self):
        if self.var_plus * self.var_minus < 4.0 - 1e-12:
            raise DomainError(
                f"pair uncertainty product {self.var_plus * self.var_minus} < 4"
            )
        if self.squeezing_out != self.squeezing:
            raise DomainError("output squeezing must equal cavity squeezing")
        if self.mean_photon_out != self.kappa * self.mean_photon:
            raise DomainError("output photon flux must be kappa * mean_photon")

    def to_dict(self) -> dict:
        return asdict(self)


def output_report(config: CavityConfig) -> SqueezingReport:
    """Full report for one cavity configuration.

    Output relations are exact identities: photon flux kappa * <a^dag a>,
    variances kappa * (cavity variances), squeezing unchanged.
    """
    p = scale(config)
    mom = superposed_moments(p)
    var_plus, var_minus = quad_variance_pair(p)
    s = quadrature_squeezing(p)
    k = config.kappa
    return SqueezingReport(
        kappa=k,
        eps1=config.eps1,
        eps2=config.eps2,
        a=p.a,
        b=p.b,
        mean_photon=mom.mean_photon,
        mean_photon_out=k * mom.mean_photon,
        var_plus=var_plus,
        var_minus=var_minus,
        var_plus_out=k * var_plus,
        var_minus_out=k * var_minus,
        squeezing=s,
        squeezing_out=s,
    )
