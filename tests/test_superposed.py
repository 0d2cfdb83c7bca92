import dataclasses
import math
import warnings

import numpy as np
import pytest

from qsuperpose import (
    CavityConfig,
    DomainError,
    NumericsError,
    PAIR_BASELINE,
    SINGLE_BEAM_BASELINE,
    ScaledParams,
    SqueezingReport,
    coherent_term,
    moments_via_qfunction,
    output_pair_baseline,
    output_report,
    quad_variance_pair,
    quad_variance_single,
    quadrature_squeezing,
    scale,
    steady_moments_combined,
    superposed_moments,
)
from qsuperpose import superposed
from conftest import GRID_AB

# frozen closed-form values at (a, b) = (0.6, 0.4)
MEAN_PHOTON_REF = 0.4552380952380952
MEAN_SQ_REF = 0.12190476190476188
VAR_PLUS_REF = 1.7142857142857142  # 12/7
VAR_MINUS_REF = 2.666666666666667  # 8/3
SQUEEZING_REF = 0.14285714285714285  # 1/7

REPORT_KEYS = [
    "kappa",
    "eps1",
    "eps2",
    "a",
    "b",
    "mean_photon",
    "mean_photon_out",
    "var_plus",
    "var_minus",
    "var_plus_out",
    "var_minus_out",
    "squeezing",
    "squeezing_out",
]


class TestSuperposedMoments:
    def test_vacuum(self):
        mom = superposed_moments(ScaledParams(0.0, 0.0))
        assert (mom.mean_amp, mom.mean_sq, mom.mean_photon) == (0.0, 0.0, 0.0)

    def test_reference_point(self, params_ref):
        mom = superposed_moments(params_ref)
        assert mom.mean_amp == 0.6
        assert mom.mean_sq == pytest.approx(MEAN_SQ_REF, abs=1e-15)
        assert mom.mean_photon == pytest.approx(MEAN_PHOTON_REF, abs=1e-15)

    def test_rate_form(self):
        # 4 eps1^2/kappa^2 + 2 eps2^2/(kappa^2 - 4 eps2^2) for kappa=1
        kappa, eps1, eps2 = 1.0, 0.3, 0.2
        from qsuperpose import scale

        mom = superposed_moments(scale(CavityConfig(kappa, eps1, eps2)))
        want = 4 * eps1**2 / kappa**2 + 2 * eps2**2 / (kappa**2 - 4 * eps2**2)
        assert mom.mean_photon == pytest.approx(want, abs=1e-15)

    @pytest.mark.parametrize("a,b", GRID_AB)
    def test_additivity_of_independent_beams(self, a, b):
        # superposed moments = coherent-only + squeezed-only, component-wise
        total = superposed_moments(ScaledParams(a, b))
        coh = steady_moments_combined(ScaledParams(a, 0.0))
        sqz = steady_moments_combined(ScaledParams(0.0, b))
        assert total.mean_amp == pytest.approx(coh.mean_amp + sqz.mean_amp, abs=1e-15)
        assert total.mean_sq == pytest.approx(coh.mean_sq + sqz.mean_sq, abs=1e-15)
        assert total.mean_photon == pytest.approx(
            coh.mean_photon + sqz.mean_photon, abs=1e-15
        )

    @pytest.mark.parametrize("a,b", GRID_AB)
    def test_quadrature_path_agrees(self, a, b):
        p = ScaledParams(a, b)
        closed = superposed_moments(p)
        quad = moments_via_qfunction(p)
        assert quad.mean_amp == pytest.approx(closed.mean_amp, abs=1e-6)
        assert quad.mean_sq == pytest.approx(closed.mean_sq, abs=1e-6)
        assert quad.mean_photon == pytest.approx(closed.mean_photon, abs=1e-6)

    @pytest.mark.parametrize("a,b", [(0.3, 0.2), (0.6, 0.4), (0.6, 0.8)])
    def test_more_photons_than_combined_treatment(self, a, b):
        # a^2 > a^2/(1+b)^2 whenever both drives are on
        p = ScaledParams(a, b)
        assert (
            superposed_moments(p).mean_photon
            > steady_moments_combined(p).mean_photon
        )


class TestMomentsValidation:
    """moments_via_qfunction rejects a bad grid before evaluating anything."""

    @pytest.fixture(autouse=True)
    def no_evaluation(self, monkeypatch):
        monkeypatch.setattr(superposed, "gaussian_form", None)

    @pytest.mark.parametrize("n", (1, 15, float("nan"), float("inf"), 30.5))
    def test_bad_n(self, params_ref, n):
        want = "n must be a finite integer|n must be from 16 to 16777216 "
        with pytest.raises(DomainError, match=want):
            moments_via_qfunction(params_ref, n=n)


def test_moments_accept_an_integral_float_n(params_ref):
    assert moments_via_qfunction(params_ref, n=48.0) == moments_via_qfunction(
        params_ref
    )


def test_moments_refuse_an_overflowing_drive():
    # a = 27: the x factor exp(-(x - a)^2 + a^2) overflows at its peak
    # while the prefactor exp(-a^2) is still subnormal; the moments came
    # back as (inf, nan, inf) with a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="overflows .*a = 27"):
            moments_via_qfunction(ScaledParams(27.0, 0.0))


@pytest.mark.parametrize("a,b", ((0.0, 0.9999), (5.0, 0.999999)))
def test_default_moment_grid_resolves_b_near_one(a, b):
    # the y axis widens like (1 - b)^(-1/2) while x stays ~0.6 wide: one
    # shared axis gave <a^dag a> off by +348 at (0, 0.9999) and a negative
    # photon number at (5, 0.999999)
    p = ScaledParams(a, b)
    closed, quad = superposed_moments(p), moments_via_qfunction(p)
    assert quad.mean_amp == pytest.approx(closed.mean_amp, rel=1e-9, abs=1e-9)
    assert quad.mean_sq == pytest.approx(closed.mean_sq, rel=1e-9)
    assert quad.mean_photon == pytest.approx(closed.mean_photon, rel=1e-9)


class TestPairVariance:
    def test_coherent_pair_baseline(self):
        assert quad_variance_pair(ScaledParams(0.0, 0.0)) == (2.0, 2.0)
        assert quad_variance_pair(ScaledParams(0.9, 0.0)) == (2.0, 2.0)

    def test_reference_point(self, params_ref):
        vp, vm = quad_variance_pair(params_ref)
        assert vp == pytest.approx(VAR_PLUS_REF, abs=1e-15)
        assert vm == pytest.approx(VAR_MINUS_REF, abs=1e-15)

    def test_independent_of_coherent_drive(self):
        for b in (0.0, 0.4, 0.8):
            ref = quad_variance_pair(ScaledParams(0.0, b))
            for a in (0.3, 0.6, 1.5):
                assert quad_variance_pair(ScaledParams(a, b)) == ref

    @pytest.mark.parametrize("b", np.linspace(0.0, 0.99, 34))
    def test_uncertainty_product_floor(self, b):
        vp, vm = quad_variance_pair(ScaledParams(0.0, float(b)))
        assert vp * vm == pytest.approx((4 - b * b) / (1 - b * b), rel=1e-12)
        assert vp * vm >= 4.0 - 1e-12


    def test_disagreeing_moments_raise(self, monkeypatch, params_ref):
        good = superposed_moments(params_ref)
        bad = dataclasses.replace(good, mean_photon=good.mean_photon + 1e-6)
        monkeypatch.setattr(superposed, "superposed_moments", lambda params: bad)
        with pytest.raises(NumericsError):
            quad_variance_pair(params_ref)


class TestQuadratureSqueezing:
    def test_no_pump(self):
        assert quadrature_squeezing(ScaledParams(0.0, 0.0)) == 0.0
        assert quadrature_squeezing(ScaledParams(0.7, 0.0)) == 0.0

    def test_reference_point(self, params_ref):
        assert quadrature_squeezing(params_ref) == pytest.approx(
            SQUEEZING_REF, abs=1e-15
        )

    def test_approaches_quarter_ceiling(self):
        s = quadrature_squeezing(ScaledParams(0.0, 0.99))
        assert s == pytest.approx(0.24874371859296482, abs=1e-12)
        assert 0 < s < 0.25

    @pytest.mark.parametrize("b", np.linspace(0.0, 0.99, 100))
    def test_half_of_single_beam_squeezing(self, b):
        p = ScaledParams(0.0, float(b))
        single_plus, _ = quad_variance_single(p)
        halved = 0.5 * (SINGLE_BEAM_BASELINE - single_plus)
        assert abs(quadrature_squeezing(p) - halved) <= 1e-12


class TestFloatRange:
    """At a = 1e300, a^2 is past the float range: each closed form returns
    inf or refuses with a DomainError, never an untyped OverflowError."""

    CONFIG = CavityConfig(1e-300, 0.5, 0.0)

    def test_moments_overflow_to_inf(self):
        p = scale(self.CONFIG)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = (
                superposed_moments(p).mean_photon,
                steady_moments_combined(p).mean_photon,
                coherent_term(p),
            )
        assert got == (math.inf,) * 3

    @pytest.mark.parametrize(
        "closed_form, arg",
        (
            (quad_variance_pair, scale(CONFIG)),
            (quad_variance_single, scale(CONFIG)),
            (output_report, CONFIG),
        ),
        ids=("quad_variance_pair", "quad_variance_single", "output_report"),
    )
    def test_variances_are_refused(self, closed_form, arg):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="variance of the moments .* overflows"):
                closed_form(arg)

    def test_an_overflowing_expansion_is_refused(self):
        # a = 1e154: a^2 = 1e308 is finite, but 2<a^dag a> in the expansion is not
        with pytest.raises(DomainError, match="pair variance"):
            quad_variance_pair(ScaledParams(1e154, 0.0))


class TestOutputReport:
    def test_reference_config(self):
        rep = output_report(CavityConfig(1.0, 0.3, 0.2))
        assert rep.mean_photon_out == pytest.approx(MEAN_PHOTON_REF, abs=1e-15)
        assert rep.squeezing_out == pytest.approx(SQUEEZING_REF, abs=1e-15)

    def test_kappa_scaling(self):
        # same (a, b), doubled kappa: photon flux doubles, squeezing unchanged
        rep1 = output_report(CavityConfig(1.0, 0.3, 0.2))
        rep2 = output_report(CavityConfig(2.0, 0.6, 0.4))
        assert (rep2.a, rep2.b) == (rep1.a, rep1.b)
        assert rep2.mean_photon_out == pytest.approx(2 * rep1.mean_photon_out, rel=1e-15)
        assert rep2.squeezing_out == rep1.squeezing_out
        assert rep2.var_plus_out == pytest.approx(2 * rep1.var_plus_out, rel=1e-15)

    def test_vacuum(self):
        rep = output_report(CavityConfig(1.0, 0.0, 0.0))
        assert rep.mean_photon == rep.mean_photon_out == 0.0
        assert (rep.var_plus, rep.var_minus) == (2.0, 2.0)
        assert rep.squeezing == 0.0

    @pytest.mark.parametrize("kappa", (0.5, 1.0, 2.0))
    def test_exact_output_identities(self, kappa):
        rep = output_report(CavityConfig(kappa, 0.3 * kappa, 0.2 * kappa))
        assert rep.squeezing_out == rep.squeezing
        assert rep.mean_photon_out == kappa * rep.mean_photon
        assert rep.var_plus_out == kappa * rep.var_plus
        assert rep.var_minus_out == kappa * rep.var_minus

    def test_json_field_names(self):
        d = output_report(CavityConfig(1.0, 0.3, 0.2)).to_dict()
        assert list(d.keys()) == REPORT_KEYS

    def test_named_baselines(self):
        assert SINGLE_BEAM_BASELINE == 1.0
        assert PAIR_BASELINE == 2.0
        assert output_pair_baseline(2.5) == 5.0

    def test_report_invariants_enforced(self):
        good = output_report(CavityConfig(1.0, 0.3, 0.2))
        fields = good.to_dict()
        fields["squeezing_out"] = fields["squeezing"] + 1e-3
        with pytest.raises(DomainError):
            SqueezingReport(**fields)
        fields = good.to_dict()
        fields["var_plus"] = 0.5
        fields["var_plus_out"] = 0.5
        with pytest.raises(DomainError):
            SqueezingReport(**fields)
