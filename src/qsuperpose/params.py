"""Cavity parameters and the Gaussian phase-space forms they induce.

The system is a single cavity mode, resonantly driven by a coherent field of
amplitude rate ``eps1`` and pumped through a degenerate subharmonic
(parametric) process of amplitude rate ``eps2``, damped at rate ``kappa``
into a vacuum reservoir through a one-sided mirror.  All steady-state
physics depends only on the dimensionless drives

    a = 2*eps1/kappa,    b = 2*eps2/kappa,

and a steady state exists only below threshold, b < 1.  This module owns
those parameter types, the stability checks, and the closed-form Gaussian
Husimi Q functions every other module consumes.  Each Q is stored on its own
axes, alpha = x + iy, as a :class:`GaussianQ` of three fields (mean, cx,
cy): a Gaussian exp(-cx (x - mean)^2) in x times exp(-cy y^2) in y, whose
prefactor sqrt(cx cy)/pi exp(-cx mean^2) normalizes it by construction.
cx and cy are written straight from b, so none of them cancels as b -> 1:
over 1 - b from 1e-6 down to 1.1e-16 the moments of the Q stay within
1.4e-13 of <n> + 1 and its normalization within 1e-14.  (u, v) of
:func:`squeeze_coeffs` remain for the superposition kernel's exponent.
This module also owns the one rule for sizes: every truncation, node count
and grid size is read by :func:`as_count`, an integer from its floor to its
cap, and every cap set by memory comes from the one byte budget
:data:`ARRAY_BYTES_CAP` through :func:`array_cap`.  Everything but the
evaluation of Q on arrays is plain float arithmetic: numpy is imported only
inside the functions that build arrays, so the closed-form commands and
``qgrid`` never load it.
"""

import math
import numbers
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .errors import DomainError, StabilityError

if TYPE_CHECKING:
    import numpy as np

Q_KINDS = ("coherent", "squeezed", "superposed")
#: bytes allowed for the largest complex array a size can make the package
#: build: one axis of a 1-d phase-space sum, the n x n grid of q_grid (whose
#: cells are floats, half that), the n^3 complex values the superposition
#: kernel forms per call (streamed a few n^2 at a time, so they bound its
#: work rather than its memory), and the kept blocks of the Fock oracle's
#: frame solve, at most 16 n_f^3 bytes;
#: :func:`array_cap` turns it into each cap on n
ARRAY_BYTES_CAP = 2**28


def finite(name: str, value) -> bool:
    """Whether the real number ``value`` is finite.  DomainError unless it is
    real (an int, float or bool, or a numpy scalar of one) and within the
    float range, so that a str, None, complex or 10**400 value fails as
    invalid input, not in a comparison or a conversion."""
    if isinstance(value, numbers.Real) or not isinstance(value, numbers.Complex):
        try:
            return math.isfinite(value)
        except OverflowError:
            raise DomainError(f"{name} is beyond the float range") from None
        except TypeError:
            pass
    raise DomainError(f"{name} must be a real number, got {value!r}")


def phase_point(name: str, value) -> complex:
    """``value`` as a complex number; DomainError unless it is a finite
    number, so that a str, None or NaN phase point fails as invalid input."""
    if isinstance(value, numbers.Complex):
        if finite(name, value.real) and finite(name, value.imag):
            return complex(value)
    raise DomainError(f"{name} must be a finite complex number, got {value!r}")


def phase_points(name: str, value) -> "np.ndarray":
    """``value``, a scalar or array, as a complex numpy array; DomainError
    unless every entry is a finite number, so that a str, None or NaN entry
    fails as invalid input before any arithmetic."""
    import numpy as np

    try:
        arr = np.asarray(value)
        ok = arr.dtype.kind in "biufc" and np.isfinite(arr).all()
    except ValueError:  # a ragged nesting
        ok = False
    if not ok:
        raise DomainError(f"{name} must hold finite complex numbers, got {value!r}")
    return arr.astype(complex, copy=False)


def as_count(name: str, value, lo: int | None = None, hi: int | None = None) -> int:
    """``value`` as an int; DomainError unless it is a finite integer, at
    least the floor ``lo`` and at most the cap ``hi`` where they are given (a
    cap comes with a floor).  Every size the package accepts, a truncation,
    a node count or a grid's points per axis, is read by this one rule,
    before anything is allocated."""
    if not (finite(name, value) and value == int(value)):
        raise DomainError(f"{name} must be a finite integer, got {value}")
    count = int(value)
    if (lo is not None and count < lo) or (hi is not None and count > hi):
        span = f"at least {lo}" if hi is None else f"from {lo} to {hi} (the cap)"
        raise DomainError(f"{name} must be {span}, got {count}")
    return count


def linspace(start: float, stop: float, steps: int) -> list[float]:
    """``np.linspace(start, stop, steps).tolist()`` for steps >= 2, by numpy's
    own arithmetic: point i is i*step + start with step = (stop - start)/div
    and div = steps - 1, or (i/div)*(stop - start) + start where that step
    underflows to zero, and the last point is stop.  The axes of a sweep and
    of a Q grid, in plain floats."""
    div, delta = steps - 1, stop - start
    step = delta / div
    if step == 0:
        points = [(i / div) * delta + start for i in range(div)]
    else:
        points = [i * step + start for i in range(div)]
    return points + [stop]


def array_cap(k: int) -> int:
    """The largest n whose complex n^k array, 16 n^k bytes, fits
    :data:`ARRAY_BYTES_CAP`: 16,777,216 for the one axis of a 1-d
    phase-space sum (k = 1), 4096 for the n x n grid of q_grid (k = 2; its
    cells are floats, half that), 256 for the n^3 values the superposition
    kernel forms per call and the frame solve's kept blocks (k = 3)."""
    n = round((ARRAY_BYTES_CAP / 16) ** (1 / k))
    return n if 16 * n**k <= ARRAY_BYTES_CAP else n - 1


@dataclass(frozen=True)
class CavityConfig:
    """Physical rates of the driven cavity.

    Attributes:
        kappa: cavity damping constant (inverse time), > 0.
        eps1: coherent-drive amplitude rate, >= 0.
        eps2: subharmonic pump amplitude rate, >= 0 and < kappa/2.
    """

    kappa: float
    eps1: float = 0.0
    eps2: float = 0.0

    def __post_init__(self):
        if not finite("kappa", self.kappa) or self.kappa <= 0:
            raise DomainError(f"kappa must be positive, got {self.kappa}")
        if not finite("eps1", self.eps1) or self.eps1 < 0:
            raise DomainError(f"eps1 must be non-negative, got {self.eps1}")
        if not finite("eps2", self.eps2) or self.eps2 < 0:
            raise DomainError(f"eps2 must be non-negative, got {self.eps2}")
        if self.eps2 >= self.kappa / 2:
            raise StabilityError(
                f"no steady state: eps2={self.eps2} >= kappa/2={self.kappa / 2}"
            )


@dataclass(frozen=True)
class ScaledParams:
    """Dimensionless drive strengths a = 2*eps1/kappa, b = 2*eps2/kappa."""

    a: float
    b: float

    def __post_init__(self):
        if not finite("a", self.a) or self.a < 0:
            raise DomainError(f"a must be non-negative, got {self.a}")
        if not finite("b", self.b) or self.b < 0:
            raise DomainError(f"b must be non-negative, got {self.b}")
        if self.b >= 1:
            raise StabilityError(f"no steady state: b={self.b} >= 1")


def scale(config: CavityConfig) -> ScaledParams:
    """Reduce physical rates to the dimensionless drives (a, b)."""
    return ScaledParams(2 * config.eps1 / config.kappa, 2 * config.eps2 / config.kappa)


def squeeze_coeffs(params: ScaledParams) -> tuple[float, float]:
    """Coefficients (u, v) of the squeezed-light Q function's exponent in the
    |alpha|^2, Re(alpha^2) basis,

    Q_squeezed(alpha) = sqrt(u^2 - v^2)/pi * exp(-u|alpha|^2 + v*Re(alpha^2)),

    as the superposition kernel writes its exponent.  For b in [0, 1):
    u in (2/3, 1] and v in (-2/3, 0], with u^2 > v^2, so the Gaussian is
    always normalizable.  v < 0 places the narrow quadrature on the real
    axis.  u - v and u + v are the axis coefficients of :func:`gaussian_form`,
    but u + v cancels as b -> 1, so no closed form is built from them.
    """
    b = params.b
    denom = 1 - b * b / 4
    u = (1 - b * b / 2) / denom
    v = -(b / 2) / denom
    return u, v


@dataclass(frozen=True)
class GaussianQ:
    """Gaussian Q function on the phase plane, on its own axes: with
    alpha = x + iy,

        Q(x + iy) = sqrt(cx*cy)/pi * exp(-cx*(x - mean)^2 - cy*y^2),

    a Gaussian in x about ``mean`` times one in y about 0, normalized to one
    by construction.  ``prefactor`` = sqrt(cx*cy)/pi * exp(-cx*mean^2) is
    derived from the three fields, and Q is evaluated uncentred, as
    prefactor * exp(-cx*x^2 - cy*y^2 + 2*cx*mean*x).  A non-positive cx or
    cy, or a drive at which the prefactor underflows to zero (from a = 27.3
    at b = 0 down to 23.3 as b -> 1), is refused with :class:`DomainError`.
    """

    mean: float
    cx: float
    cy: float
    prefactor: float = field(init=False)

    def __post_init__(self):
        if not (self.cx > 0 and self.cy > 0):
            raise DomainError(f"not normalizable: cx={self.cx}, cy={self.cy}")
        shift = self.cx * self.mean * self.mean  # inf, not OverflowError
        pref = math.sqrt(self.cx * self.cy) * math.exp(-shift) / math.pi
        if pref == 0:
            raise DomainError(
                f"closed-form Q underflows at this drive (a = {self.mean:.6g})"
            )
        object.__setattr__(self, "prefactor", pref)

    def __call__(self, alpha):
        """Evaluate at a complex point or array of points; DomainError for a
        non-finite or non-numeric point (:func:`phase_points`) or an overflow."""
        import numpy as np

        alpha = phase_points("alpha", alpha)
        x, y = alpha.real, alpha.imag
        with np.errstate(over="ignore", invalid="ignore"):
            out = self.prefactor * np.exp(
                -self.cx * x**2 - self.cy * y**2 + 2 * self.cx * self.mean * x
            )
        self._check_finite(out)
        return float(out) if out.ndim == 0 else out

    def _check_finite(self, values) -> None:
        import numpy as np

        if not np.isfinite(values).all():
            raise DomainError(
                f"closed-form Q overflows at this drive (a = {self.mean:.6g})"
            )

    def axis_factors(self, ax) -> tuple["np.ndarray", "np.ndarray"]:
        """Factors fx, fy on the real axis ``ax`` with Q(x + iy) = fx(x)*fy(y):
        fx = exp(-cx*x^2 + 2*cx*mean*x) and fy = prefactor*exp(-cy*y^2).  So
        Q on the grid ax x ax is their outer product, and its sums against x,
        x^2, y^2 are products of 1-d sums.  fx peaks at exp(cx*mean^2), which
        overflows at a drive where Q itself is still finite: DomainError, as
        in :meth:`__call__`."""
        import numpy as np

        ax = np.asarray(ax, dtype=float)
        with np.errstate(over="ignore"):
            fx = np.exp(-self.cx * ax**2 + 2 * self.cx * self.mean * ax)
        self._check_finite(fx)
        return fx, self.prefactor * np.exp(-self.cy * ax**2)

    def marginals(self) -> tuple[float, float, float]:
        """(mean, sigma_x, sigma_y): Q is a Gaussian in x about ``mean`` of
        standard deviation sigma_x times one in y about 0 of sigma_y.  For
        the squeezed and superposed Q, as b -> 1 sigma_y grows like
        (1 - b)^(-1/2) while sigma_x stays at most the vacuum's 1/sqrt(2)."""
        return self.mean, math.sqrt(1 / (2 * self.cx)), math.sqrt(1 / (2 * self.cy))

    def half_width(self, sigmas: float) -> float:
        """Half-width of an origin-centred square box covering the displaced
        peak plus ``sigmas`` standard deviations of the widest Gaussian axis
        (at least the vacuum width)."""
        mean, sigma_x, sigma_y = self.marginals()
        return abs(mean) + sigmas * max(1.0, sigma_x, sigma_y)


def gaussian_form(params: ScaledParams, kind: str) -> GaussianQ:
    """Closed-form Gaussian Q function for one of the three light kinds.

    kind: "coherent" (linear drive only), "squeezed" (pump only), or
    "superposed" (Q-function superposition of both).  The squeezed Q has
    cx = (1 + b)/(1 + b/2) and cy = (1 - b)/(1 - b/2), written straight
    from b so that neither cancels as b -> 1; the coherent Q is the vacuum's
    (cx = cy = 1).  The coherent and superposed Q are centred at mean = a.
    """
    if kind not in Q_KINDS:
        raise DomainError(f"kind must be one of {Q_KINDS}, got {kind!r}")
    b = 0.0 if kind == "coherent" else params.b
    mean = 0.0 if kind == "squeezed" else params.a
    return GaussianQ(mean, (1 + b) / (1 + b / 2), (1 - b) / (1 - b / 2))
