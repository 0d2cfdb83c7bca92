import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsuperpose import (
    CavityConfig,
    DensityMatrix,
    DomainError,
    GaussianQ,
    QuadratureSpec,
    ScaledParams,
    StabilityError,
    evolve_moments,
    gaussian_form,
    moments_via_qfunction,
    propagate,
    q_grid,
    scale,
    squeeze_coeffs,
    steady_state,
    superpose_q_numeric,
    superposition_oracle,
)
from qsuperpose import fock, qgrid, superposed
from qsuperpose.params import ARRAY_BYTES_CAP, Q_KINDS, array_cap, as_count
from qsuperpose.verification import run_verification
from conftest import GRID_AB, phase_integral

# frozen expectations for (a, b) = (0.6, 0.4); u and v are exact rationals
# 23/24 and -5/24, A = pi * prefactor of the superposed Q was confirmed by
# the normalization quadrature below
U_REF = 0.9583333333333333
V_REF = -0.20833333333333334
A_REF = 0.6146110217043336


class TestScale:
    def test_zero_drive(self):
        assert scale(CavityConfig(1.0, 0.0, 0.0)) == ScaledParams(0.0, 0.0)

    def test_direct_ratio(self):
        p = scale(CavityConfig(1.0, 0.3, 0.2))
        assert p.a == pytest.approx(0.6, abs=1e-15)
        assert p.b == pytest.approx(0.4, abs=1e-15)

    def test_kappa_invariance(self):
        assert scale(CavityConfig(2.0, 0.6, 0.4)) == scale(CavityConfig(1.0, 0.3, 0.2))

    def test_threshold_rejected(self):
        with pytest.raises(StabilityError):
            scale(CavityConfig(1.0, 0.0, 0.5))

    def test_bad_kappa(self):
        with pytest.raises(DomainError):
            CavityConfig(0.0, 0.1, 0.1)
        with pytest.raises(DomainError):
            CavityConfig(-1.0, 0.0, 0.0)

    def test_negative_drives(self):
        with pytest.raises(DomainError):
            CavityConfig(1.0, -0.1, 0.0)
        with pytest.raises(DomainError):
            CavityConfig(1.0, 0.0, -0.1)

    def test_scaled_params_validation(self):
        with pytest.raises(StabilityError):
            ScaledParams(0.0, 1.0)
        with pytest.raises(DomainError):
            ScaledParams(-0.5, 0.0)


class TestNonRealInputs:
    """A str, None or complex where a real number belongs, or an int beyond
    the float range, is invalid input (DomainError, exit 2), never an untyped
    TypeError or OverflowError from a comparison or a conversion."""

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda: as_count("n", "12"), id="as_count-str"),
            pytest.param(
                lambda: steady_state(CavityConfig(1.0, 0.3, 0.2), trunc="40"),
                id="steady_state-trunc-str",
            ),
            pytest.param(lambda: QuadratureSpec(nodes="64"), id="QuadratureSpec-str"),
            pytest.param(
                lambda: q_grid("coherent", ScaledParams(0.6, 0.4), n="32"),
                id="q_grid-n-str",
            ),
            pytest.param(
                lambda: q_grid("coherent", ScaledParams(0.6, 0.4), extent="4"),
                id="q_grid-extent-str",
            ),
            pytest.param(lambda: CavityConfig("1"), id="CavityConfig-str"),
            pytest.param(lambda: ScaledParams(None, 0.1), id="ScaledParams-None"),
            pytest.param(lambda: CavityConfig(1.0, 0.3 + 0j), id="CavityConfig-complex"),
            pytest.param(
                lambda: ScaledParams(0.6, np.complex128(0.4)),
                id="ScaledParams-numpy-complex",
            ),
            pytest.param(lambda: as_count("n", 12 + 0j), id="as_count-complex"),
            pytest.param(
                lambda: evolve_moments(ScaledParams(0.1, 0.1), "1"),
                id="evolve_moments-t-str",
            ),
            pytest.param(
                lambda: propagate(CavityConfig(1.0, 0.3, 0.2), "1"),
                id="propagate-t-str",
            ),
            pytest.param(
                lambda: run_verification(CavityConfig(1.0, 0.3, 0.2), tol="1e-6"),
                id="run_verification-tol-str",
            ),
        ],
    )
    def test_refused_as_invalid_input(self, call):
        with pytest.raises(DomainError, match="must be a real number"):
            call()

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda: CavityConfig(10**400), id="CavityConfig"),
            pytest.param(lambda: ScaledParams(10**400, 0), id="ScaledParams"),
            pytest.param(
                lambda: steady_state(CavityConfig(1.0, 0.3, 0.2), trunc=10**400),
                id="steady_state-trunc",
            ),
            pytest.param(
                lambda: q_grid("coherent", ScaledParams(0.6, 0.4), n=10**400),
                id="q_grid-n",
            ),
        ],
    )
    def test_int_beyond_the_float_range_refused(self, call):
        with pytest.raises(DomainError, match="beyond the float range"):
            call()

    @pytest.mark.parametrize(
        "value", [1, 1.0, True, np.float32(1.0), np.float64(1.0), np.int64(1), np.True_]
    )
    def test_real_scalars_still_accepted(self, value):
        assert CavityConfig(value).kappa == value
        assert ScaledParams(value, 0.0).a == value
        assert as_count("n", value) == 1


P_REF = ScaledParams(0.6, 0.4)
C_REF = CavityConfig(1.0, 0.3, 0.2)


def _unchecked_spec(nodes):
    """A QuadratureSpec whose node count skipped the constructor's check, so
    that the kernel's own reading of it is what refuses it."""
    spec = QuadratureSpec()
    object.__setattr__(spec, "nodes", nodes)
    return spec


#: every entry point that takes a size: (call, the size's name in the
#: refusal, floor, cap, the first thing it builds as (owner, attribute))
SIZES = {
    "QuadratureSpec-nodes": (
        lambda n: QuadratureSpec(nodes=n), "nodes", 8, 2**24, None
    ),
    "superpose_q_numeric-nodes": (
        lambda n: superpose_q_numeric(0j, P_REF, _unchecked_spec(n)),
        "nodes", 8, 256, (QuadratureSpec, "grid"),
    ),
    "q_grid-n": (
        lambda n: q_grid("superposed", P_REF, n=n),
        "n", 16, 4096, (qgrid, "gaussian_form"),
    ),
    "moments_via_qfunction-n": (
        lambda n: moments_via_qfunction(P_REF, n=n),
        "n", 16, 2**24, (superposed, "gaussian_form"),
    ),
    "steady_state-trunc": (
        lambda n: steady_state(C_REF, n),
        "truncation", 8, 200, (fock, "frame_generator"),
    ),
    "propagate-trunc": (
        lambda n: propagate(C_REF, 1.0, n),
        "truncation", 8, 200, (fock, "lab_generator"),
    ),
    "superposition_oracle-trunc": (
        lambda n: superposition_oracle(C_REF, n),
        "truncation", 8, 200, (fock, "frame_generator"),
    ),
    "run_verification-trunc": (
        lambda n: run_verification(C_REF, n),
        "truncation", 8, 200, (fock, "frame_generator"),
    ),
    "steady_state_in_frame-dim": (
        lambda n: fock.steady_state_in_frame(C_REF, n, 32),
        "truncation", 8, 400, (fock, "frame_generator"),
    ),
    "steady_state_in_frame-frame_dim": (
        lambda n: fock.steady_state_in_frame(C_REF, 80, n),
        "frame truncation", 8, 256, (fock, "frame_generator"),
    ),
    "DensityMatrix-dim": (
        lambda n: DensityMatrix(n, np.identity(2)), "dim", 1, None, None
    ),
}


def _refusals():
    """Each entry point's non-integer, NaN, one below its floor and one above
    its cap."""
    for entry, (_, _, lo, hi, _) in SIZES.items():
        cases = {"non-integer": 12.5, "nan": math.nan}
        if lo is not None:
            cases["below-floor"] = lo - 1
        if hi is not None:
            cases["above-cap"] = hi + 1
        for case, value in cases.items():
            yield pytest.param(entry, value, id=f"{entry}-{case}")


class TestSizeRule:
    """Every size the package accepts is read by one rule, params.as_count:
    an integer from its floor to its cap, refused with DomainError (exit 2)
    before anything is built, in one wording."""

    @pytest.mark.parametrize("entry,value", list(_refusals()))
    def test_refused_before_anything_is_built(self, entry, value, monkeypatch):
        call, name, lo, hi, built = SIZES[entry]
        if built is not None:
            monkeypatch.setattr(*built, None)
        if isinstance(value, int):
            span = f"at least {lo}" if hi is None else f"from {lo} to {hi} (the cap)"
            want = f"{name} must be {span}, got {value}"
        else:
            want = f"{name} must be a finite integer, got {value}"
        with pytest.raises(DomainError) as refusal:
            call(value)
        assert str(refusal.value) == want

    def test_caps_come_from_the_byte_budget(self):
        # the largest n whose complex n^k array, 16 n^k bytes, fits
        for k, cap in ((1, 2**24), (2, 4096), (3, 256)):
            assert array_cap(k) == cap
            assert 16 * cap**k <= ARRAY_BYTES_CAP < 16 * (cap + 1) ** k
        assert fock.frame_cap() == array_cap(3)


class TestSqueezeCoeffs:
    def test_no_pump(self):
        assert squeeze_coeffs(ScaledParams(0.0, 0.0)) == (1.0, -0.0)

    def test_reference_point(self, params_ref):
        u, v = squeeze_coeffs(params_ref)
        assert u == pytest.approx(U_REF, abs=1e-15)
        assert v == pytest.approx(V_REF, abs=1e-15)
        assert u * u - v * v == pytest.approx(0.875, abs=1e-12)

    def test_normalization_oracle(self):
        # the closed-form prefactor sqrt(u^2-v^2)/pi must normalize the
        # squeezed Gaussian under d(Re)d(Im); integrate it by brute force
        for b in (0.0, 0.2, 0.4, 0.8):
            u, v = squeeze_coeffs(ScaledParams(0.0, b))
            pref = np.sqrt(u * u - v * v) / np.pi

            def q(alpha):
                return pref * np.exp(
                    -u * (alpha.real**2 + alpha.imag**2) + v * (alpha**2).real
                )

            sigma = np.sqrt(1 / (2 * (u - abs(v))))
            norm = phase_integral(q, extent=9 * max(1.0, sigma)).real
            assert norm == pytest.approx(1.0, abs=1e-6)

    def test_near_threshold_limits(self):
        u, v = squeeze_coeffs(ScaledParams(0.0, 1 - 1e-9))
        assert u == pytest.approx(2 / 3, abs=1e-8)
        assert v == pytest.approx(-2 / 3, abs=1e-8)
        assert 0 < u * u - v * v < 1e-8

    def test_mean_square_diverges_near_threshold(self):
        # int Q |alpha|^2 grows without bound as b -> 1
        values = []
        for b in (0.9, 0.99):
            u, v = squeeze_coeffs(ScaledParams(0.0, b))
            pref = np.sqrt(u * u - v * v) / np.pi

            def weighted(alpha):
                return (
                    pref
                    * np.exp(
                        -u * (alpha.real**2 + alpha.imag**2) + v * (alpha**2).real
                    )
                    * (alpha.real**2 + alpha.imag**2)
                )

            sigma = np.sqrt(1 / (2 * (u - abs(v))))
            values.append(phase_integral(weighted, extent=12 * sigma, n=1601).real)
        assert values[1] > 5 * values[0] > 1

    @pytest.mark.parametrize("b", np.linspace(0.0, 0.999, 97))
    def test_coefficient_ranges(self, b):
        u, v = squeeze_coeffs(ScaledParams(0.0, float(b)))
        assert 2 / 3 < u <= 1.0
        assert -2 / 3 < v <= 0.0
        assert u * u - v * v > 0


class TestSuperposedNorm:
    def test_vacuum(self):
        form = gaussian_form(ScaledParams(0.0, 0.0), "superposed")
        assert form.prefactor == 1 / np.pi

    def test_pure_coherent(self):
        form = gaussian_form(ScaledParams(1.0, 0.0), "superposed")
        assert form.prefactor * np.pi == pytest.approx(np.exp(-1.0), abs=1e-15)

    def test_reference_point(self, params_ref):
        form = gaussian_form(params_ref, "superposed")
        assert form.prefactor * np.pi == pytest.approx(A_REF, abs=1e-12)

    @pytest.mark.parametrize("a,b", GRID_AB)
    def test_normalizes_superposed_q(self, a, b):
        p = ScaledParams(a, b)
        form = gaussian_form(p, "superposed")
        sigma = form.marginals()[2]  # the wider y axis
        norm = phase_integral(form, extent=a + 9 * max(1.0, sigma)).real
        assert norm == pytest.approx(1.0, abs=1e-6)


class TestGaussianQ:
    def test_rejects_non_normalizable(self):
        with pytest.raises(DomainError, match="not normalizable"):
            GaussianQ(mean=0.0, cx=1.0, cy=-0.1)
        with pytest.raises(DomainError, match="not normalizable"):
            GaussianQ(mean=0.0, cx=-1.0, cy=1.0)
        with pytest.raises(DomainError, match="not normalizable"):
            GaussianQ(mean=0.0, cx=math.nan, cy=1.0)
        # the prefactor exp(-cx mean^2) underflows to zero
        with pytest.raises(DomainError, match=r"underflows .*\(a = 28\)"):
            GaussianQ(mean=28.0, cx=1.0, cy=1.0)
        with pytest.raises(DomainError, match="underflows"):
            GaussianQ(mean=1e200, cx=1.0, cy=1.0)

    def test_bad_kind(self):
        with pytest.raises(DomainError):
            gaussian_form(ScaledParams(0.0, 0.0), "wigner")

    @pytest.mark.parametrize("kind", ("coherent", "squeezed", "superposed"))
    @pytest.mark.parametrize("a,b", [(0.0, 0.0), (0.6, 0.4), (0.3, 0.8)])
    def test_prefactor_is_the_normalizing_one(self, kind, a, b):
        form = gaussian_form(ScaledParams(a, b), kind)
        # the Gaussian integral of exp(-u|alpha|^2 + v Re(alpha^2) + 2 l Re
        # alpha), l = mean (u - v), completed in x
        u, v = squeeze_coeffs(ScaledParams(a, 0.0 if kind == "coherent" else b))
        mean = 0.0 if kind == "squeezed" else a
        linear = mean * (u - v)
        normalizing = np.sqrt(u * u - v * v) / np.pi * np.exp(-(linear**2) / (u - v))
        assert form.prefactor == pytest.approx(normalizing, rel=1e-12)

    def test_vectorized_evaluation(self, params_ref):
        form = gaussian_form(params_ref, "superposed")
        pts = np.array([0.1 + 0.2j, -0.5j, 1.0])
        vec = form(pts)
        assert vec.shape == (3,)
        for alpha, val in zip(pts, vec):
            assert form(complex(alpha)) == pytest.approx(val, rel=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from(Q_KINDS),
        a=st.floats(0.0, 5.0),
        b=st.floats(0.0, 1.0, exclude_max=True),
        extent=st.floats(0.5, 10.0),
        nx=st.integers(1, 40),
        ny=st.integers(1, 40),
    )
    def test_axis_factors_outer_product_is_q(self, kind, a, b, extent, nx, ny):
        # the x axis also covers the displaced peak; on this box every
        # exponent term is below ~700 in size, so GaussianQ.__call__ itself
        # is accurate to ~1e-13: it groups the exponent by x and y, as the
        # factors do, so nothing cancels as b -> 1
        form = gaussian_form(ScaledParams(a, b), kind)
        x = np.linspace(-extent, extent + a, nx)
        y = np.linspace(-extent, extent, ny)
        fx, _ = form.axis_factors(x)
        _, fy = form.axis_factors(y)
        want = form(x[:, None] + 1j * y[None, :])
        np.testing.assert_allclose(fx[:, None] * fy[None, :], want, rtol=1e-12, atol=0)

    def test_marginals_at_the_reference_point(self, params_ref):
        # Q ~ exp(-(u - v)(x - a)^2 - (u + v) y^2)
        mean, sigma_x, sigma_y = gaussian_form(params_ref, "superposed").marginals()
        assert mean == pytest.approx(0.6, rel=1e-15)
        assert sigma_x == pytest.approx((2 * (U_REF - V_REF)) ** -0.5, rel=1e-15)
        assert sigma_y == pytest.approx((2 * (U_REF + V_REF)) ** -0.5, rel=1e-15)

    @settings(max_examples=100, deadline=None)
    @given(
        kind=st.sampled_from(Q_KINDS),
        a=st.floats(0.0, 20.0),
        b=st.floats(0.0, 1.0, exclude_max=True),
        sigmas=st.floats(1.0, 12.0),
    )
    def test_half_width_is_the_wider_axis_box(self, kind, a, b, sigmas):
        # q_grid's automatic extent, bit for bit: the wider of the two
        # origin-centred axis boxes, each at least vacuum-wide
        form = gaussian_form(ScaledParams(a, b), kind)
        mean, sigma_x, sigma_y = form.marginals()
        assert form.half_width(sigmas) == max(
            abs(mean) + sigmas * max(1.0, sigma_x),
            abs(mean) + sigmas * max(1.0, sigma_y),
        )
