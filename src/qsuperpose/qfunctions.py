"""Husimi Q functions of the coherent, squeezed, and superposed cavity light.

Closed Gaussian forms (:class:`~qsuperpose.params.GaussianQ`, each on its own
axes), the antinormally-ordered characteristic functions they derive from,
also on their own axes, and two brute-force cross-checks:

* :func:`q_from_char_fn` rebuilds Q from the characteristic function by a 2-d
  phase-space transform, summed exactly as a product of two 1-d sums,
* :func:`superpose_q_numeric` evaluates the raw 4-d superposition integral
  that composes the coherent and squeezed Q functions into the superposed one.

The closed form sampled on a grid, :func:`~qsuperpose.qgrid.q_grid`, lives in
:mod:`qsuperpose.qgrid`, in plain floats.

Conventions: alpha is an ordinary Python complex number, and all phase-space
integrals use d^2alpha = d(Re alpha) d(Im alpha); the 1/pi prefactors only
normalize under that measure.
"""

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import DomainError, QuadratureError
from .params import (
    GaussianQ,
    ScaledParams,
    array_cap,
    as_count,
    gaussian_form,
    phase_point,
    phase_points,
    squeeze_coeffs,
)

#: integrand-to-peak ratio above which a quadrature box is rejected
BOUNDARY_RATIO = 1e-12

CHAR_KINDS = ("coherent", "squeezed")

#: Im(beta) rows (j) per block of the streamed superposition sum: from 4 to
#: 64 rows it times alike at 32 to 256 nodes, so this sets only the memory,
#: a 24 MB peak at 256 nodes
_KERNEL_ROWS = 8


def trapezoid_weights(n: int) -> np.ndarray:
    w = np.ones(n)
    w[0] = w[-1] = 0.5
    return w


@dataclass(frozen=True)
class QuadratureSpec:
    """Real-grid quadrature rule: the node count per axis.

    Every phase-space sum places each real axis at t (:meth:`grid`, t in
    [-extent, extent]) widths of its own integrand: phi's widths for the
    characteristic-function transform (:func:`q_from_char_fn`), marginal
    standard deviations about the peak for the superposition kernel
    (:func:`_kernel_axes`) and for the closed-form Q's normalization and
    moments (:func:`plane_sums`).  So ``extent`` is a constant: below about
    7.4 (kernel) or 5.3 (transform) every box is refused.  ``nodes`` is a
    count from 8 to ``array_cap(1)`` = 16,777,216, the longest complex axis
    within ARRAY_BYTES_CAP.  ``rtol`` is the kernel's expected agreement
    with the closed form.
    """

    nodes: int = 48
    extent: ClassVar[float] = 8.0
    rtol: ClassVar[float] = 1e-3

    def __post_init__(self):
        nodes = as_count("nodes", self.nodes, 8, array_cap(1))
        object.__setattr__(self, "nodes", nodes)

    def grid(self) -> tuple[np.ndarray, np.ndarray, float]:
        x = np.linspace(-self.extent, self.extent, self.nodes)
        return x, trapezoid_weights(self.nodes), x[1] - x[0]


def plane_sums(form: GaussianQ, spec: QuadratureSpec | None = None) -> tuple:
    """Trapezoid sums of Q, Q x, Q x^2 and Q y^2 times dx dy over the phase
    plane, alpha = x + iy, for a closed-form Q.  Q is fx(x) fy(y)
    (:meth:`GaussianQ.axis_factors`), so each is a product of 1-d sums; the
    axes are x = mean + sigma_x t and y = sigma_y t
    (:meth:`GaussianQ.marginals`) with t on :meth:`QuadratureSpec.grid`, so
    the narrow x axis stays resolved as b -> 1."""
    t, w, h = (spec or QuadratureSpec()).grid()
    mean, sigma_x, sigma_y = form.marginals()
    x, y = mean + sigma_x * t, sigma_y * t
    fx = form.axis_factors(x)[0] * w * (sigma_x * h)
    fy = form.axis_factors(y)[1] * w * (sigma_y * h)
    sx, sy = fx.sum(), fy.sum()
    sums = sx * sy, (fx * x).sum() * sy, (fx * x**2).sum() * sy, sx * (fy * y**2).sum()
    return tuple(map(float, sums))


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
    """Axis coefficients (px, py) of the squeezed characteristic function
    phi(x + iy) = exp(-px x^2 - py y^2): px = (2 - b)/(2(1 - b)) and
    py = (2 + b)/(2(1 + b)), written straight from b.  They are the Fourier
    partners of the Q's axis coefficients, cx py = cy px = 1
    (:func:`~qsuperpose.params.gaussian_form`), but derived apart from them,
    so that the transform check compares two independent writings."""
    b = params.b
    return (2 - b) / (2 * (1 - b)), (2 + b) / (2 * (1 + b))


def char_fn_antinormal(z, params: ScaledParams, kind: str):
    """Steady-state antinormally-ordered characteristic function.

    kind "coherent": exp(-|z|^2 + a(z - conj(z))).
    kind "squeezed": exp(-px x^2 - py y^2) with z = x + iy and (px, py) of
    :func:`_char_gauss_coeffs`.

    Accepts a complex scalar or array; always returns complex values (the
    coherent form is complex off the real z axis).  A non-finite or
    non-numeric z raises :class:`DomainError` (:func:`phase_points`).
    """
    if kind not in CHAR_KINDS:
        raise DomainError(f"kind must be one of {CHAR_KINDS}, got {kind!r}")
    z = phase_points("z", z)
    if kind == "coherent":
        out = np.exp(-(z.real**2 + z.imag**2) + params.a * (z - z.conj()))
    else:
        px, py = _char_gauss_coeffs(params)
        out = np.exp(-px * z.real**2 - py * z.imag**2).astype(complex)
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
    x = t/sqrt(px) and y = t/sqrt(py) with t on :meth:`QuadratureSpec.grid`
    and (px, py) of :func:`_char_gauss_coeffs` ((1, 1) for the coherent
    kind), so ``extent`` counts those units and the narrow axis stays
    resolved as b -> 1.  The kernel is purely oscillatory, so the box only
    needs to cover the Gaussian decay of phi; a box that clips it raises
    :class:`QuadratureError`, and a non-finite or non-numeric alpha a
    :class:`DomainError`.
    """
    alpha = phase_point("alpha", alpha)
    spec = quad_spec or QuadratureSpec()
    t, w, h = spec.grid()
    px, py = _char_gauss_coeffs(params) if kind == "squeezed" else (1.0, 1.0)
    total = 1 / np.pi**2
    for unit, width, wave in (
        (1, math.sqrt(px), 2 * alpha.imag),
        (1j, math.sqrt(py), -2 * alpha.real),
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


def _kernel_axes(t, u, v, a, alpha):
    """The superposition kernel's real axes (xb, yb, xg, yg), beta = xb + 1j*yb
    and gamma = xg + 1j*yg, for t on :meth:`QuadratureSpec.grid`.

    Every imaginary coupling of the exponent only turns the phase, so with
    c = u - 1 and alpha = p + iq the integrand's modulus is exp(X + Y) with

        X = -(1 - v/2)(xb^2 + xg^2) + c xb xg + (a + p(1 - v)) xb + (p(2 - u) - a) xg,
        Y = -(1 + v/2)(yb^2 + yg^2) + c yb yg + q(1 + v) yb + q(2 - u) yg.

    Each form peaks where its gradient vanishes, and both its axes have the
    marginal standard deviation sqrt(2d/(4d^2 - c^2)), d its diagonal; each
    axis is its peak plus t of those widths.
    """
    c = u - 1.0
    p, q = alpha.real, alpha.imag
    axes = []
    for d, lb, lg in (
        (1 - v / 2, a + p * (1 - v), p * (2 - u) - a),  # X
        (1 + v / 2, q * (1 + v), q * (2 - u)),  # Y
    ):
        det = 4 * d * d - c * c
        s = math.sqrt(2 * d / det) * t
        axes += [(2 * d * lb + c * lg) / det + s, (c * lb + 2 * d * lg) / det + s]
    return axes[0], axes[2], axes[1], axes[3]  # xb, yb, xg, yg


def _superposition_sum(xb, yb, xg, yg, w, u, v, a, alpha):
    """Weighted sum of exp(E - shift) over the 4-d grid beta = xb[i] + 1j*yb[j],
    gamma = xg[k] + 1j*yg[l], E the variable part of the kernel exponent, with
    shift = max Re(E) over the grid and gap = its max on the boundary - shift.

    E = E_beta + E_gamma + c*conj(gamma)*beta with c = u - 1: Re(E) is
    X[i, k] + Y[j, l] (:func:`_kernel_axes`), and Im(E) the phases of
    E_beta[i, j] and E_gamma[k, l] plus c*(yb[j]*xg[k] - xb[i]*yg[l]).  So
    the sum is sum_ijl T[i, j, l] b_plane[i, j] p_il[i, l] with T = rx @ H
    and H[k, j, l] = p_kj[k, j] g_plane[k, l] ry[j, l], all from O(n^2)
    exponentials.  rx is real, so T is one real product on H's float view:
    2n^4 real multiply-adds, half those of a complex product.  It runs over
    blocks of ``_KERNEL_ROWS`` j rows, each closed by one batched
    matrix-vector product with p_il, so no n^3 array is built: the memory is
    two reused blocks of _KERNEL_ROWS n^2 complex values.
    """
    c = u - 1.0
    ac = alpha.conjugate()

    def e_beta(z):
        return -z * z.conj() + a * z.conj() + 0.5 * v * z * z + (ac - v * alpha) * z

    def e_gamma(z):
        zc = z.conj()
        return -z * zc + (ac - a) * z + (1.0 - u) * alpha * zc + 0.5 * v * zc * zc

    re_x = e_beta(xb).real[:, None] + e_gamma(xg).real + c * np.outer(xb, xg)
    re_y = e_beta(1j * yb).real[:, None] + e_gamma(1j * yg).real + c * np.outer(yb, yg)
    # the 4-d boundary is where (i, k) or (j, l) is on its plane's border
    edge = [0, -1]
    gap = max(max(r[edge].max(), r[:, edge].max()) - r.max() for r in (re_x, re_y))
    ww = w[:, None] * w[None, :]
    b_plane = ww * np.exp(1j * e_beta(xb[:, None] + 1j * yb).imag)
    g_plane = ww * np.exp(1j * e_gamma(xg[:, None] + 1j * yg).imag)
    p_kj, p_il = np.exp(1j * c * np.outer(xg, yb)), np.exp(-1j * c * np.outer(xb, yg))
    rx, ry = np.exp(re_x - re_x.max()), np.exp(re_y - re_y.max())
    n = len(xb)
    h_buf, t_buf = np.empty((2, _KERNEL_ROWS * n * n), complex)
    total = 0j
    for j in range(0, n, _KERNEL_ROWS):
        jc, size = slice(j, j + _KERNEL_ROWS), min(_KERNEL_ROWS, n - j) * n * n
        h = h_buf[:size].reshape(n, -1, n)  # H[k, j, l]
        np.multiply(p_kj[:, jc, None], g_plane[:, None, :], out=h)
        h *= ry[jc]
        t = t_buf[:size].reshape(n, -1, n)  # T[i, j, l]
        np.matmul(rx, h.view(float).reshape(n, -1), out=t.view(float).reshape(n, -1))
        total += (b_plane[:, jc] * (t @ p_il[:, :, None])[..., 0]).sum()
    return complex(total), re_x.max() + re_y.max(), gap


def superpose_q_numeric(
    alpha: complex,
    params: ScaledParams,
    quad_spec: QuadratureSpec | None = None,
) -> float:
    """Brute-force superposed Q function via the raw 4-d composition integral.

    The coherent and squeezed Q functions are composed through a Gaussian
    kernel over two intermediate phase-space variables; this sums that
    integral term by term on a 4-d trapezoid grid (no completion of
    squares), as an independent check on :func:`q_superposed` to within
    ``quad_spec.rtol``.  Each real axis is centred on the integrand's peak
    and measured in its width (:func:`_kernel_axes`).  A box whose edge
    holds a non-negligible integrand raises :class:`QuadratureError`; a
    non-finite or non-numeric alpha, or a spec whose nodes^3 complex values
    per call would exceed ``ARRAY_BYTES_CAP`` (``array_cap(3)`` = 256
    nodes), :class:`DomainError` before anything is allocated.  Those values
    are streamed (:func:`_superposition_sum`), so the cap bounds the work;
    the memory is O(nodes^2): a 6.2 MB tracemalloc peak at 128 nodes and
    24 MB at 256.
    """
    alpha = phase_point("alpha", alpha)
    spec = quad_spec or QuadratureSpec()
    as_count("nodes", spec.nodes, 8, array_cap(3))
    u, v = squeeze_coeffs(params)
    sq = gaussian_form(params, "squeezed")  # sqrt(cx cy) = sqrt(u^2 - v^2)
    a = params.a
    t, w, _ = spec.grid()
    axes = _kernel_axes(t, u, v, a, alpha)
    total, shift, gap = _superposition_sum(*axes, w, u, v, a, alpha)
    if gap > math.log(BOUNDARY_RATIO):
        raise QuadratureError(
            f"superposition integrand not negligible at the box edge "
            f"(ratio {math.exp(gap):.2e}); increase extent"
        )
    # the alpha-only part of the exponent, and the peak taken out of the sum
    const = -abs(alpha) ** 2 + a * alpha - a * a + 0.5 * v * alpha * alpha + shift
    pref = math.sqrt(sq.cx * sq.cy) / np.pi**3 * math.prod(x[1] - x[0] for x in axes)
    return float((pref * np.exp(const) * total).real)
