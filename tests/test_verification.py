"""The phase-space quadratures behind ``verify``, the characteristic-function
transform among them: equal to the unfactorized 2-d sums over the whole
stable domain, and still able to fail; and what the Fock oracle's doubling
row reports."""

import cmath
import copy
import dataclasses
import math
import types
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsuperpose import (
    CavityConfig,
    DomainError,
    MomentSet,
    QuadratureError,
    QuadratureSpec,
    ScaledParams,
    TruncationError,
    char_fn_antinormal,
    gaussian_form,
    moments_via_qfunction,
    superpose_q_numeric,
    superposed_moments,
)
from qsuperpose import fock, qfunctions, superposed, verification
from qsuperpose.params import Q_KINDS
from qsuperpose.qfunctions import (
    BOUNDARY_RATIO,
    _char_gauss_coeffs,
    plane_sums,
    q_from_char_fn,
)
from qsuperpose.verification import (
    check_charfn_transform,
    check_pair_variance_quadrature,
    check_q_normalization,
    check_superposition_kernel,
)


def direct_sums(form, spec):
    """Sums of Q, Q x, Q x^2 and Q y^2 times dx dy, term by term, over the
    2-d trapezoid grid of the one rule: x = mean + sigma_x t, y = sigma_y t
    for t on the spec's grid, with the widths read off the exponent.  Q(x +
    iy) is written out from the form's three fields and its prefactor,
    uncentred as prefactor exp(-cx x^2 + 2 cx mean x - cy y^2); each axis
    keeps its own coefficient, so nothing cancels as b -> 1."""
    cx, cy = form.cx, form.cy
    t = np.linspace(-spec.extent, spec.extent, spec.nodes)
    w = np.ones(spec.nodes)
    w[0] = w[-1] = 0.5
    ax = form.mean + t / np.sqrt(2 * cx)
    ay = t / np.sqrt(2 * cy)
    x, y = ax[:, None], ay[None, :]
    q = form.prefactor * np.exp(-cx * x**2 + 2 * cx * form.mean * x - cy * y**2)
    terms = w[:, None] * w[None, :] * q * (ax[1] - ax[0]) * (ay[1] - ay[0])
    return terms.sum(), (terms * x).sum(), (terms * x**2).sum(), (terms * y**2).sum()


@settings(max_examples=25, deadline=None)
@given(
    a=st.floats(0.0, 20.0),
    b=st.floats(0.0, 1.0, exclude_max=True),
    nodes=st.sampled_from((16, 48, 64)),
)
def test_factorized_sums_equal_the_2d_sums(a, b, nodes):
    spec = QuadratureSpec(nodes)
    for kind in Q_KINDS:
        form = gaussian_form(ScaledParams(a, b), kind)
        q, qx, qx2, qy2 = direct_sums(form, spec)
        # sum Q x has terms of either sign, each below Q (1 + x^2)/2
        scales = (q, q + qx2, qx2, qy2)
        for got, want, scale in zip(plane_sums(form, spec), (q, qx, qx2, qy2), scales):
            assert abs(got - want) <= 1e-12 * scale


@settings(max_examples=300, deadline=None)
@given(a=st.floats(0.0, 20.0), b=st.floats(0.0, 1 - 1e-6))
# one square box took its spacing from the wide y axis and undersampled the
# narrow x axis: the normalization check read 1.7e-5, 5.8e-3 and 6.3 here
@example(a=0.0, b=0.9998)
@example(a=0.0, b=0.9999)
@example(a=0.0, b=1 - 1e-6)
def test_one_rule_holds_over_the_stable_domain(a, b):
    p = ScaledParams(a, b)
    assert check_q_normalization(p).max_deviation <= 1e-10
    closed, quad = superposed_moments(p), moments_via_qfunction(p)
    # each moment is a difference of sums of size <|alpha|^2> = <n> + 1
    tol = 1e-9 * (1.0 + closed.mean_photon)
    assert abs(quad.mean_amp - closed.mean_amp) <= tol
    assert abs(quad.mean_sq - closed.mean_sq) <= tol
    assert abs(quad.mean_photon - closed.mean_photon) <= tol


#: the phase points of verify's transform row
TRANSFORM_POINTS = [
    complex(re, im) for re in np.linspace(-1.2, 1.2, 5) for im in np.linspace(-1.2, 1.2, 5)
]


@settings(max_examples=40, deadline=None)
@given(a=st.floats(0.0, 20.0), b=st.floats(0.0, 1 - 1.1e-16))
# in the |alpha|^2, Re(alpha^2) basis u + v cancelled here: the moments and
# the normalization read 5.5e-10, 3.5e-6 and 3.2e-2 off, the transform
# 1.0e-9, 7.2e-6 and 3.7e-2 of Q(0)
@example(a=0.0, b=1 - 1e-8)
@example(a=5.0, b=1 - 1e-12)
@example(a=0.0, b=1 - 1.1e-16)
def test_every_phase_space_sum_holds_up_to_threshold(a, b):
    p = ScaledParams(a, b)
    # the uncentred factors carry exponents up to cx a^2 <= 4a^2/3, each
    # rounded to about eps of itself
    norm_tol = 1e-13 + 4 * np.finfo(float).eps * a * a
    for kind in Q_KINDS:
        assert abs(plane_sums(gaussian_form(p, kind))[0] - 1.0) <= norm_tol
    closed, quad = superposed_moments(p), moments_via_qfunction(p)
    gap = max(abs(x - y) for x, y in zip(dataclasses.astuple(closed), dataclasses.astuple(quad)))
    assert gap <= 1e-12 * (1.0 + closed.mean_photon)
    squeezed = gaussian_form(p, "squeezed")
    for alpha in TRANSFORM_POINTS:
        got = q_from_char_fn(alpha, p, "squeezed")
        assert abs(got - squeezed(alpha)) <= 1e-13 * squeezed(0j)
    superposed_q = gaussian_form(p, "superposed")
    for z in verification.KERNEL_POINTS:
        want = superposed_q(a + z)
        assert abs(superpose_q_numeric(a + z, p) - want) <= 1e-12 * want


@settings(max_examples=200, deadline=None)
@given(b=st.floats(0.0, 1 - 1.1e-16))
def test_char_fn_axes_are_the_fourier_partners_of_the_q_axes(b):
    # written apart, so the transform row compares two derivations
    p = ScaledParams(0.0, b)
    form, (px, py) = gaussian_form(p, "squeezed"), _char_gauss_coeffs(p)
    assert abs(form.cx * py - 1.0) <= 1e-15
    assert abs(form.cy * px - 1.0) <= 1e-15


def test_normalization_check_refuses_an_overflowing_drive():
    # a = 27: the x factor overflows at its peak; the check read inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="overflows .*a = 27"):
            check_q_normalization(ScaledParams(27.0, 0.0))


def test_kernel_check_refuses_an_underflowing_closed_form():
    # a = 27.1: the closed Q is evaluated uncentred, and its exponent
    # overflows at the probe points about its peak (from a ~ 26.6)
    with pytest.raises(DomainError, match="closed-form Q"):
        check_superposition_kernel(ScaledParams(27.1, 0.0))


def direct_transform(alpha, params, kind, spec):
    """The char-fn transform as one 2-d trapezoid sum of phi(z) exp(conj(z)
    alpha - z conj(alpha)) over z = x + iy, with x = t/sqrt(px) and
    y = t/sqrt(py) for t on the spec's grid, term by term; and the
    edge-to-peak ratio of |phi| on that box.  For the coherent kind
    (px, py) = (1, 1): the unscaled square box."""
    px, py = _char_gauss_coeffs(params) if kind == "squeezed" else (1.0, 1.0)
    t = np.linspace(-spec.extent, spec.extent, spec.nodes)
    w = np.ones(spec.nodes)
    w[0] = w[-1] = 0.5
    x, y = t / np.sqrt(px), t / np.sqrt(py)
    z = x[:, None] + 1j * y[None, :]
    phi = char_fn_antinormal(z, params, kind)
    kernel = np.exp(np.conj(z) * alpha - z * np.conj(alpha))
    terms = w[:, None] * w[None, :] * phi * kernel
    total = terms.sum() * (x[1] - x[0]) * (y[1] - y[0]) / np.pi**2
    mag = np.abs(phi)
    edge = max(mag[0].max(), mag[-1].max(), mag[:, 0].max(), mag[:, -1].max())
    return float(total.real), edge / mag.max()


@settings(max_examples=60, deadline=None)
@given(
    a=st.floats(0.0, 3.0),
    b=st.floats(0.0, 0.999, exclude_max=True),
    kind=st.sampled_from(("coherent", "squeezed")),
    nodes=st.sampled_from((16, 32, 64)),
    extent=st.floats(4.0, 10.0),
    r=st.floats(0.0, 2.0),
    angle=st.floats(-np.pi, np.pi),
)
def test_transform_equals_the_2d_sum(a, b, kind, nodes, extent, r, angle):
    p, spec = ScaledParams(a, b), QuadratureSpec(nodes)
    alpha = cmath.rect(r, angle)
    with mock.patch.object(QuadratureSpec, "extent", extent):
        want, ratio = direct_transform(alpha, p, kind, spec)
        if ratio > BOUNDARY_RATIO:
            with pytest.raises(QuadratureError, match="box edge"):
                q_from_char_fn(alpha, p, kind, spec)
        else:
            got = q_from_char_fn(alpha, p, kind, spec)
            assert abs(got - want) <= 1e-12 * abs(want) + 1e-15


@pytest.mark.parametrize("nodes", (16, 64))
@pytest.mark.parametrize("params", (ScaledParams(0.0, 0.0), ScaledParams(0.6, 0.4)))
def test_coherent_transform_is_the_square_box_sum(params, nodes):
    # the coherent axes are unscaled, so the 1-d product only reorders the
    # 2-d sum over the spec's square box, coarse grids included
    spec = QuadratureSpec(nodes=nodes)
    for alpha in verification.KERNEL_POINTS + (0.6 + 0j, -1.2 + 1.2j):
        want, _ = direct_transform(alpha, params, "coherent", spec)
        assert abs(q_from_char_fn(alpha, params, "coherent", spec) - want) <= 1e-14


def test_charfn_check_catches_a_wrong_imaginary_axis(monkeypatch, params_ref):
    # phi with its exponent along the imaginary axis 1% too large
    assert check_charfn_transform(params_ref).passed

    def wrong(z, params, kind):
        y = np.asarray(z, dtype=complex).imag
        return char_fn_antinormal(z, params, kind) * np.abs(
            char_fn_antinormal(1j * y, params, kind)
        ) ** 0.01

    monkeypatch.setattr(qfunctions, "char_fn_antinormal", wrong)
    assert not check_charfn_transform(params_ref).passed


def mutate_forms(monkeypatch, change):
    """Serve verify's quadratures the closed form that ``change`` makes of
    the true one."""

    def mutated(params, kind):
        return change(gaussian_form(params, kind))

    for module in (verification, superposed):
        monkeypatch.setattr(module, "gaussian_form", mutated)


def scaled_prefactor(form):
    """A copy of ``form`` whose derived prefactor is 1e-5 too large."""
    wrong = copy.copy(form)
    object.__setattr__(wrong, "prefactor", form.prefactor * (1 + 1e-5))
    return wrong


def test_normalization_check_catches_a_wrong_prefactor(monkeypatch, params_ref):
    assert check_q_normalization(params_ref).passed
    mutate_forms(monkeypatch, scaled_prefactor)
    res = check_q_normalization(params_ref)
    assert not res.passed
    assert res.max_deviation == pytest.approx(1e-5, rel=1e-3)


def test_pair_variance_check_catches_a_flipped_squeeze(monkeypatch, params_ref):
    # cx and cy swapped flips the squeeze: still normalized, but narrow
    # along y, not x
    mom = moments_via_qfunction(params_ref)
    assert check_pair_variance_quadrature(params_ref, mom).passed
    mutate_forms(monkeypatch, lambda f: dataclasses.replace(f, cx=f.cy, cy=f.cx))
    mom = moments_via_qfunction(params_ref)
    assert not check_pair_variance_quadrature(params_ref, mom).passed


@settings(max_examples=30, deadline=None)
@given(kappa=st.floats(0.5, 2.0), a=st.floats(0.0, 10.0), b=st.floats(0.0, 0.925))
@example(kappa=1.0, a=8.0, b=0.9)  # N = 163, frame 30
@example(kappa=2.0, a=10.0, b=0.0)  # N = 196
@example(kappa=1.0, a=10.0, b=0.925)  # asks 220
def test_every_row_passes_or_the_tail_refuses(kappa, a, b):
    # the Fock oracle's reach ends where the tail of a state it solves asks
    # more than TRUNC_CAP levels: inside it every row passes, with no numpy
    # warning, and outside it the refusal names the first such state's N
    eps1, eps2 = a * kappa / 2, b * kappa / 2
    config = CavityConfig(kappa, eps1, eps2)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = verification.run_verification(config)
    except TruncationError as exc:
        solved = (config, CavityConfig(kappa, 0.0, eps2), CavityConfig(kappa, eps1, 0.0))
        with pytest.MonkeyPatch.context() as uncapped:
            uncapped.setattr(fock, "TRUNC_CAP", math.inf)
            asks = [fock._tail_truncation(c) for c in solved]
        want = next(n for n in asks if n > fock.TRUNC_CAP)
        assert str(exc).startswith(f"automatic truncation {want} exceeds the cap 200")
    else:
        assert [r.name for r in results if not r.passed] == []


def test_doubling_row_names_what_it_doubled():
    # a = 2.2, b = 0.89: the corner of the oracle's reach; the solve
    # truncates in the frame, so both the lab N and n_f are doubled, from
    # the 130 lab levels that the state's tail asks
    config = CavityConfig(1.0, 1.1, 0.445)
    res = verification.check_truncation_doubling(config, fock.steady_state(config))
    assert res.passed
    assert res.note == "N 130/260, frame 29/58"


def test_doubling_row_at_the_truncation_cap():
    # an explicit trunc = TRUNC_CAP is accepted and doubled to 2 TRUNC_CAP
    config = CavityConfig(1.0, 0.3, 0.2)
    res = verification.check_truncation_doubling(config, fock.steady_state(config, 200))
    assert res.passed
    assert res.note == "N 200/400, frame 9/18"


def test_doubling_beyond_the_dense_solve_is_out_of_reach(monkeypatch):
    # b = 0.9945 asks for n_f = 131 frame levels, and the doubling check for
    # 262, beyond the 256 of the frame solve: the oracle's reach, not a bad
    # argument, refused before any frame system is built.  No lab state of
    # N <= 2 TRUNC_CAP passes its tail check at this b (1.8e-3 in the top
    # 40 levels of N = 400), so a stand-in gives the check its lab N
    config = CavityConfig(1.0, 0.1, 0.4972)
    assert fock.frame_truncation(config) == 131

    def refuse(config, dim):
        pytest.fail("the frame system was built")

    monkeypatch.setattr(fock, "frame_generator", refuse)
    lo = types.SimpleNamespace(dim=200)
    with pytest.raises(TruncationError, match="needs 262 frame levels"):
        verification.check_truncation_doubling(config, lo)


@pytest.mark.parametrize("field", ("mean_amp", "mean_sq", "mean_photon"))
def test_gap_reads_every_moment(field):
    zero = MomentSet(0.0, 0.0, 0.0)
    assert verification._gap(zero, dataclasses.replace(zero, **{field: 1e-3})) == 1e-3
    assert verification._gap(dataclasses.replace(zero, **{field: 1e-3}), zero) == 1e-3


def test_threeway_check_catches_a_wrong_mean_sq(monkeypatch):
    # the Fock oracle and the quadrature both disagree with a closed form
    # whose <a^2> is off by 1e-5; the other two moments stay exact
    p = ScaledParams(0.6, 0.4)
    quad = moments_via_qfunction(p)
    oracle = fock.superposition_oracle(CavityConfig(1.0, 0.3, 0.2))
    check = verification.check_superposed_moments_threeway
    assert check(p, quad, oracle, 1e-6).passed

    def wrong(params):
        closed = superposed_moments(params)
        return dataclasses.replace(closed, mean_sq=closed.mean_sq + 1e-5)

    monkeypatch.setattr(verification, "superposed_moments", wrong)
    res = check(p, quad, oracle, 1e-6)
    assert not res.passed
    assert res.max_deviation == pytest.approx(1e-5, rel=1e-6)


def test_verify_solves_each_oracle_state_once(monkeypatch):
    # the combined, squeezed-only and coherent-only states, the doubled
    # state and the quadrature moments: each is computed once and shared
    calls = []

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for name in ("steady_state", "steady_state_in_frame"):
        counted(fock, name)
    counted(verification, "moments_via_qfunction")
    results = verification.run_verification(CavityConfig(1.0, 0.3, 0.2))
    assert all(r.passed for r in results)
    assert sorted(calls) == sorted(
        ["steady_state"] * 3 + ["steady_state_in_frame", "moments_via_qfunction"]
    )
