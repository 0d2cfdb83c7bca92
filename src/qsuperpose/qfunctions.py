"""Husimi Q functions of the coherent, squeezed, and superposed cavity light.

Closed Gaussian forms, the antinormally-ordered characteristic functions they
derive from, and two brute-force cross-checks:

* :func:`q_from_char_fn` rebuilds Q from the characteristic function by a 2-d
  phase-space transform, summed exactly as a product of two 1-d sums,
* :func:`superpose_q_numeric` evaluates the raw 4-d superposition integral
  that composes the coherent and squeezed Q functions into the superposed one.

Conventions: alpha is an ordinary Python complex number, and all phase-space
integrals use d^2alpha = d(Re alpha) d(Im alpha); the 1/pi prefactors only
normalize under that measure.
"""

import io
import math
import warnings
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import DomainError, NormalizationWarning, QuadratureError
from .params import (
    ARRAY_BYTES_CAP,
    Q_KINDS,
    ScaledParams,
    as_count,
    check_extent,
    check_grid,
    gaussian_form,
    phase_point,
    phase_points,
    squeeze_coeffs,
)

#: integrand-to-peak ratio above which a quadrature box is rejected
BOUNDARY_RATIO = 1e-12

CHAR_KINDS = ("coherent", "squeezed")


def trapezoid_weights(n: int) -> np.ndarray:
    w = np.ones(n)
    w[0] = w[-1] = 0.5
    return w


@dataclass(frozen=True)
class QuadratureSpec:
    """Real-grid quadrature settings: half-width and node count per axis.

    The same extent and node count apply to every real dimension of the
    integral: the two axes of the characteristic-function transform, each
    in its own units of phi's width (:func:`q_from_char_fn`), and the four
    phase-space axes of the superposition kernel.  ``rtol`` is the agreement
    the kernel's callers expect against the closed form when the box covers
    the integrand.  ``nodes`` is capped so that the kernel's complex nodes^3
    intermediate fits :data:`ARRAY_BYTES_CAP`; the transform builds only
    1-d arrays.
    """

    extent: float = 8.0
    nodes: int = 64
    rtol: ClassVar[float] = 1e-3

    def __post_init__(self):
        check_extent(self.extent)
        object.__setattr__(self, "nodes", as_count("nodes", self.nodes))
        if self.nodes < 8:
            raise DomainError(f"need at least 8 nodes per axis, got {self.nodes}")
        if 16 * self.nodes**3 > ARRAY_BYTES_CAP:
            mib = 16 * self.nodes**3 / 2**20
            raise DomainError(
                f"{self.nodes} nodes per axis need a {mib:.1f} MiB kernel array, "
                f"above the cap of {ARRAY_BYTES_CAP >> 20} MiB"
            )

    def grid(self) -> tuple[np.ndarray, np.ndarray, float]:
        x = np.linspace(-self.extent, self.extent, self.nodes)
        return x, trapezoid_weights(self.nodes), x[1] - x[0]


def q_coherent(alpha, params: ScaledParams):
    """Q function of the coherently driven cavity at steady state,
    (1/pi) exp(-|alpha|^2 + 2a Re(alpha) - a^2).  Peaks at alpha = a."""
    return gaussian_form(params, "coherent")(alpha)


def q_squeezed(alpha, params: ScaledParams):
    """Q function of the subharmonically pumped cavity at steady state."""
    return gaussian_form(params, "squeezed")(alpha)


def q_superposed(alpha, params: ScaledParams):
    """Q function of the superposed coherent and squeezed light."""
    return gaussian_form(params, "superposed")(alpha)


def _char_gauss_coeffs(params: ScaledParams) -> tuple[float, float]:
    """(a1, a2) of the squeezed characteristic function
    exp(-a1 |z|^2 + a2 (z^2 + conj(z)^2)/2)."""
    b = params.b
    one_minus_b2 = (1 - b) * (1 + b)
    a1 = 1 + b**2 / (2 * one_minus_b2)
    a2 = -b / (2 * one_minus_b2)
    return a1, a2


def char_fn_antinormal(z, params: ScaledParams, kind: str):
    """Steady-state antinormally-ordered characteristic function.

    kind "coherent": exp(-|z|^2 + a(z - conj(z))).
    kind "squeezed": exp(-a1 |z|^2 + a2 (z^2 + conj(z)^2)/2).

    Accepts a complex scalar or array; always returns complex values (the
    coherent form is complex off the real z axis).  A non-finite or
    non-numeric z raises :class:`DomainError` (:func:`phase_points`).
    """
    if kind not in CHAR_KINDS:
        raise DomainError(f"kind must be one of {CHAR_KINDS}, got {kind!r}")
    z = phase_points("z", z)
    zz = z.real**2 + z.imag**2
    if kind == "coherent":
        out = np.exp(-zz + params.a * (z - z.conj()))
    else:
        a1, a2 = _char_gauss_coeffs(params)
        out = np.exp(-a1 * zz + a2 * (z**2).real)
    return complex(out) if out.ndim == 0 else out


def q_from_char_fn(
    alpha: complex,
    params: ScaledParams,
    kind: str,
    quad_spec: QuadratureSpec | None = None,
) -> float:
    """Rebuild Q(alpha) from the characteristic function numerically.

    Evaluates (1/pi^2) * integral d^2z phi(z) exp(conj(z) alpha - z conj(alpha))
    by tensor-product trapezoid quadrature.  With z = x + iy both kinds
    factor as phi(x + iy) = phi(x) phi(iy), and the kernel as
    exp(2i(x Im alpha - y Re alpha)), so the 2-d sum is exactly the product
    of one 1-d sum per axis.  Each axis is measured in phi's own width:
    x = t/sqrt(a1 - a2) and y = t/sqrt(a1 + a2) with t on
    :meth:`QuadratureSpec.grid` and (a1, a2) of :func:`_char_gauss_coeffs`
    ((1, 0) for the coherent kind), so ``extent`` counts those units and the
    narrow axis stays resolved as b -> 1.  The kernel is purely
    oscillatory, so the box only needs to cover the Gaussian decay of phi;
    a box that clips it raises :class:`QuadratureError`, and a non-finite or
    non-numeric alpha a :class:`DomainError`.
    """
    alpha = phase_point("alpha", alpha)
    spec = quad_spec or QuadratureSpec()
    t, w, h = spec.grid()
    a1, a2 = _char_gauss_coeffs(params) if kind == "squeezed" else (1.0, 0.0)
    total = 1 / np.pi**2
    for unit, width, wave in (
        (1, math.sqrt(a1 - a2), 2 * alpha.imag),
        (1j, math.sqrt(a1 + a2), -2 * alpha.real),
    ):
        x = t / width
        phi = char_fn_antinormal(unit * x, params, kind)
        mag = np.abs(phi)
        # |phi| is a product, so this is the 2-d box's edge-to-peak ratio
        ratio = max(mag[0], mag[-1]) / mag.max()
        if ratio > BOUNDARY_RATIO:
            raise QuadratureError(
                f"characteristic function not negligible at the box edge "
                f"(ratio {ratio:.2e}); increase extent"
            )
        total *= (w * phi * np.exp(1j * wave * x)).sum() * h / width
    return float(total.real)


def _max_exponent(re_b, re_g, cross_ik, cross_jl) -> float:
    """max over (i, j, k, l) of re_b[i, j] + re_g[k, l] + cross_ik[i, k]
    + cross_jl[j, l], by two O(n^3) max-plus reductions."""
    over_k = (re_g[None, :, :] + cross_ik[:, :, None]).max(axis=1)  # [i, l]
    return float((re_b[:, :, None] + over_k[:, None, :] + cross_jl[None, :, :]).max())


def _superposition_sum(x, w, u, v, a, alpha):
    """Weighted sum of exp(E) over the 4-d grid beta = x[i]+1j*x[j],
    gamma = x[k]+1j*x[l], where E is the variable part of the superposition
    kernel exponent; the alpha-only constant is folded in by the caller.

    Returns the sum with max Re(E) over the grid and over its boundary, so
    the caller can reject a box that truncates a non-negligible integrand.

    The only coupling of beta and gamma is c*conj(gamma)*beta with c = u-1,
    which splits exactly into c*(x[i]*x[k] + x[j]*x[l]) +
    1j*c*(x[j]*x[k] - x[i]*x[l]).  So exp(E) factors into the planes
    exp(E_beta[i,j]), exp(E_gamma[k,l]) and the 2-index cross factors
    R[i,k] R[j,l] P[j,k] conj(P[i,l]), with P = exp(1j*c*x x'), and the same
    trapezoid sum of the same integrand contracts as
    T[i,j,l] = sum_k R[i,k] P[j,k] G[k,l], G the weighted gamma plane (O(n^4)
    multiply-adds, O(n^2) exponentials), then one O(n^3) contraction.
    """
    c = u - 1.0  # in (-1/3, 0]
    ac = alpha.conjugate()
    beta = x[:, None] + 1j * x[None, :]  # also the gamma plane
    betac = beta.conj()
    # c/2 (x^2 + x'^2) moves out of the planes into R = exp(c/2 (x + x')^2),
    # which never exceeds one, so no factor overflows on a wide box
    diag = -0.5 * c * (x[:, None] ** 2 + x[None, :] ** 2) - betac * beta
    e_b = diag + a * betac + 0.5 * v * beta * beta + (ac - v * alpha) * beta
    e_g = diag + (ac - a) * beta + (1.0 - u) * alpha * betac + 0.5 * v * betac * betac
    ww = w[:, None] * w[None, :]
    cross = 0.5 * c * (x[:, None] + x[None, :]) ** 2
    r = np.exp(cross)
    p = np.exp(1j * c * np.outer(x, x))
    t = np.einsum("ik,jk,kl->ijl", r, p, ww * np.exp(e_g), optimize=True)
    total = np.einsum("ijl,ij,jl,il->", t, ww * np.exp(e_b), r, p.conj(), optimize=True)
    re_b, re_g = e_b.real, e_g.real
    edge = [0, -1]
    peak = _max_exponent(re_b, re_g, cross, cross)
    bnd = max(
        _max_exponent(re_b[edge], re_g, cross[edge], cross),  # i on the edge
        _max_exponent(re_b[:, edge], re_g, cross, cross[edge]),  # j
        _max_exponent(re_b, re_g[edge], cross[:, edge], cross),  # k
        _max_exponent(re_b, re_g[:, edge], cross, cross[:, edge]),  # l
    )
    return complex(total), peak, bnd


def superpose_q_numeric(
    alpha: complex,
    params: ScaledParams,
    quad_spec: QuadratureSpec | None = None,
) -> float:
    """Brute-force superposed Q function via the raw 4-d composition integral.

    The coherent and squeezed Q functions are composed through a Gaussian
    kernel over two intermediate phase-space variables; this evaluates that
    integral directly on a 4-d trapezoid grid (no completion of squares), as
    an independent check on :func:`q_superposed`.  Agreement within
    ``quad_spec.rtol`` is expected once the box extends past the integrand's
    support (~6 standard deviations).  A non-finite or non-numeric alpha
    raises :class:`DomainError`.
    """
    alpha = phase_point("alpha", alpha)
    spec = quad_spec or QuadratureSpec()
    u, v = squeeze_coeffs(params)
    a = params.a
    x, w, h = spec.grid()
    total, peak, bnd = _superposition_sum(x, w, u, v, a, alpha)
    if bnd - peak > math.log(BOUNDARY_RATIO):
        raise QuadratureError(
            f"superposition integrand not negligible at the box edge "
            f"(ratio {math.exp(bnd - peak):.2e}); increase extent"
        )
    const = (
        -abs(alpha) ** 2 + a * alpha - a * a + 0.5 * v * alpha * alpha
    )  # alpha-only part of the exponent
    pref = math.sqrt(u * u - v * v) / np.pi**3
    return float((pref * np.exp(const) * total * h**4).real)


@dataclass(frozen=True)
class QGrid:
    """A Q function sampled on a centered square grid.

    values[i, j] = Q(axis[i] + 1j*axis[j]) with axis = linspace(-extent,
    extent, n); dx is the spacing.  ``normalization`` is the discrete
    integral sum(values) * dx**2, which should be 1 for an adequate grid.
    """

    kind: str
    params: ScaledParams
    extent: float
    n: int
    dx: float
    values: np.ndarray
    normalization: float

    def __post_init__(self):
        if self.values.shape != (self.n, self.n):
            raise DomainError(f"values must be {self.n}x{self.n}")
        finite = np.all(np.isfinite(self.values)) and math.isfinite(self.normalization)
        if not finite:
            raise DomainError("Q values must be finite")
        if np.any(self.values < 0):
            raise DomainError("Q values must be non-negative")

    def axis(self) -> np.ndarray:
        return np.linspace(-self.extent, self.extent, self.n)

    def write_csv(self, fh: io.TextIOBase) -> None:
        """Rows of (re, im, q), row-major over the grid, 9 significant digits,
        with the CRLF terminator of the csv module's default dialect (no cell
        is ever quoted: every cell is a finite number)."""
        labels = [f"{x:.9g}" for x in self.axis().tolist()]
        fh.write("re,im,q\r\n")
        for re, row in zip(labels, self.values.tolist()):
            fh.write("".join([f"{re},{im},{q:.9g}\r\n" for im, q in zip(labels, row)]))

    def as_json_dict(self) -> dict:
        """Compact JSON envelope with the values flattened row-major."""
        return {
            "kind": self.kind,
            "params": {
                "a": float(f"{self.params.a:.9g}"),
                "b": float(f"{self.params.b:.9g}"),
            },
            "extent": float(f"{self.extent:.9g}"),
            "n": self.n,
            "dx": float(f"{self.dx:.9g}"),
            "normalization": float(f"{self.normalization:.9g}"),
            "values": [float(f"{v:.9g}") for v in self.values.ravel().tolist()],
        }


def q_grid(
    kind: str,
    params: ScaledParams,
    n: int = 128,
    extent: float | None = None,
) -> QGrid:
    """Sample a closed-form Q function on a centered square grid.

    extent=None covers the peak plus six standard deviations
    (:meth:`GaussianQ.half_width`).  n is capped so that the complex n x n
    grid fits :data:`ARRAY_BYTES_CAP`.  A non-finite or non-integral n, or a
    non-finite extent, raises :class:`DomainError` before anything is
    allocated; a closed form that overflows at this drive raises it too.
    If the discrete normalization deviates from one by more than 1e-4 a
    :class:`NormalizationWarning` is issued and the deviation is left
    visible in ``normalization``.
    """
    if kind not in Q_KINDS:
        raise DomainError(f"kind must be one of {Q_KINDS}, got {kind!r}")
    n = check_grid(n, extent)
    if 16 * n**2 > ARRAY_BYTES_CAP:
        raise DomainError(
            f"n = {n} grid points per axis need a {16 * n**2 / 2**20:.1f} MiB grid, "
            f"above the cap of {ARRAY_BYTES_CAP >> 20} MiB"
        )
    form = gaussian_form(params, kind)
    if extent is None:
        extent = form.half_width(6)
    ax = np.linspace(-extent, extent, n)
    alpha = ax[:, None] + 1j * ax[None, :]
    dx = ax[1] - ax[0]
    with np.errstate(over="ignore", invalid="ignore"):
        values = form(alpha)
        norm = float(values.sum() * dx * dx)
    if not (np.all(np.isfinite(values)) and math.isfinite(norm)):
        raise DomainError(
            f"closed-form {kind} Q overflows at this drive (a = {params.a:.6g})"
        )
    if abs(norm - 1) > 1e-4:
        warnings.warn(
            NormalizationWarning(
                f"discrete Q normalization {norm:.6g} deviates from 1; "
                f"grid (n={n}, extent={extent:.3g}) is too coarse or too small"
            )
        )
    return QGrid(
        kind=kind,
        params=params,
        extent=float(extent),
        n=n,
        dx=float(dx),
        values=values,
        normalization=norm,
    )
