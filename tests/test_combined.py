import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from qsuperpose import (
    DomainError,
    MomentSet,
    NumericsError,
    ScaledParams,
    StepError,
    coherent_term,
    evolve_moments,
    quad_variance_single,
    steady_mean_amp,
    steady_moments_combined,
)
from qsuperpose import combined
from qsuperpose.combined import _moment_system
from conftest import GRID_AB

# frozen closed-form values at (a, b) = (0.6, 0.4)
MEAN_AMP_REF = 0.4285714285714286  # 3/7
MEAN_SQ_REF = -0.054421768707483
MEAN_PHOTON_REF = 0.27891156462585037
TRANSIENT_KT2 = 0.3792723352971346  # 0.6 * (1 - e^-1)


class TestSteadyMoments:
    def test_no_coherent_drive(self):
        assert steady_mean_amp(ScaledParams(0.0, 0.4)) == 0.0

    def test_pure_coherent(self):
        assert steady_mean_amp(ScaledParams(0.6, 0.0)) == pytest.approx(0.6, abs=1e-15)

    def test_reference_point(self, params_ref):
        mom = steady_moments_combined(params_ref)
        assert mom.mean_amp == pytest.approx(MEAN_AMP_REF, abs=1e-15)
        assert mom.mean_sq == pytest.approx(MEAN_SQ_REF, abs=1e-15)
        assert mom.mean_photon == pytest.approx(MEAN_PHOTON_REF, abs=1e-15)

    def test_vacuum(self):
        assert steady_moments_combined(ScaledParams(0.0, 0.0)) == MomentSet(0, 0, 0)

    def test_squeezed_only(self):
        mom = steady_moments_combined(ScaledParams(0.0, 0.4))
        assert mom.mean_sq == pytest.approx(-0.2380952380952381, abs=1e-15)
        assert mom.mean_photon == pytest.approx(0.09523809523809526, abs=1e-15)

    def test_negative_photon_number_rejected(self):
        with pytest.raises(DomainError):
            MomentSet(mean_amp=0.0, mean_sq=0.0, mean_photon=-1e-3)


class TestCoherentTerm:
    def test_pump_contaminates_coherent_photon_number(self):
        # the combined treatment's defect: a^2/(1+b)^2 depends on the pump
        assert coherent_term(ScaledParams(0.6, 0.0)) == pytest.approx(0.36, abs=1e-15)
        assert coherent_term(ScaledParams(0.6, 0.4)) == pytest.approx(
            0.36 / 1.96, abs=1e-15
        )
        assert coherent_term(ScaledParams(0.6, 0.4)) < coherent_term(
            ScaledParams(0.6, 0.0)
        )

    def test_monotone_in_pump(self):
        values = [coherent_term(ScaledParams(0.6, b)) for b in np.linspace(0, 0.9, 19)]
        assert all(x > y for x, y in zip(values, values[1:]))


class TestEvolveMoments:
    def test_initial_vacuum(self, params_ref):
        assert evolve_moments(params_ref, 0.0) == MomentSet(0.0, 0.0, 0.0)

    def test_transient_mean_amp(self):
        # with the pump off, <a>(t) = a (1 - e^{-kt/2})
        mom = evolve_moments(ScaledParams(0.6, 0.0), 2.0)
        assert mom.mean_amp == pytest.approx(TRANSIENT_KT2, abs=1e-9)

    @pytest.mark.parametrize("kt", (0.5, 1.0, 2.0, 4.0))
    def test_transient_against_closed_solution(self, kt):
        a = 0.6
        mom = evolve_moments(ScaledParams(a, 0.0), kt)
        assert mom.mean_amp == pytest.approx(a * (1 - np.exp(-kt / 2)), abs=1e-9)

    @pytest.mark.parametrize("a,b", GRID_AB)
    def test_long_time_reaches_steady_state(self, a, b):
        p = ScaledParams(a, b)
        # the slowest transient decays at kappa(1-b)/2
        late = evolve_moments(p, 40.0 / (1.0 - b))
        steady = steady_moments_combined(p)
        assert late.mean_amp == pytest.approx(steady.mean_amp, abs=1e-8)
        assert late.mean_sq == pytest.approx(steady.mean_sq, abs=1e-8)
        assert late.mean_photon == pytest.approx(steady.mean_photon, abs=1e-8)

    def test_bad_step(self, params_ref):
        with pytest.raises(StepError):
            evolve_moments(params_ref, -1.0)
        with pytest.raises(StepError):
            evolve_moments(params_ref, float("inf"))
        # t |M|_1 beyond the float range: no finite count of sub-steps
        with pytest.raises(StepError, match="no finite count of sub-steps"):
            evolve_moments(params_ref, 1.7e308)
        # about 2^997 sub-steps, a finite count: the power reaches the steady state
        got = evolve_moments(params_ref, 1e300)
        want = steady_moments_combined(params_ref)
        for x, y in zip(dataclasses.astuple(got), dataclasses.astuple(want)):
            assert abs(x - y) <= 1e-12

    def test_the_sub_step_count(self):
        # the rotation exp(tM)(1, 0) = (cos t, -sin t) with t |M|_1 = 1.99 takes
        # ceil(1.99) = 2 sub-steps, to rounding (1.1e-16); one sub-step fewer
        # leaves the degree-18 Taylor error of h = 1.99, 3.9e-12
        t = 1.99
        got = combined.taylor_apply(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.array([1.0, 0.0]), t)
        assert np.abs(got - (math.cos(t), -math.sin(t))).max() <= 1e-14

    @settings(max_examples=50, deadline=None)
    @given(a=st.floats(0.0, 2.0), b=st.floats(0.0, 0.95), t=st.floats(0.0, 100.0))
    def test_matches_the_matrix_exponential(self, a, b, t):
        # scipy's expm of the augmented system [[M, c], [0, 0]] on (0, 1)
        m, c = _moment_system(ScaledParams(a, b))
        aug = np.zeros((6, 6))
        aug[:5, :5], aug[:5, 5] = m, c
        want = expm(t * aug)[:, 5]
        got = evolve_moments(ScaledParams(a, b), t)
        bound = 1e-13 * max(1.0, np.abs(want).max())
        assert abs(got.mean_amp - want[0]) <= bound
        assert abs(got.mean_sq - want[2]) <= bound
        assert abs(got.mean_photon - want[4]) <= bound


class TestQuadVarianceSingle:
    def test_vacuum_baseline(self):
        assert quad_variance_single(ScaledParams(0.0, 0.0)) == (1.0, 1.0)

    def test_reference_point(self, params_ref):
        vp, vm = quad_variance_single(params_ref)
        assert vp == pytest.approx(0.7142857142857142, abs=1e-15)
        assert vm == pytest.approx(1.6666666666666667, abs=1e-15)

    def test_near_threshold_floor(self):
        vp, _ = quad_variance_single(ScaledParams(0.0, 1 - 1e-9))
        assert vp == pytest.approx(0.5, abs=1e-8)

    @pytest.mark.parametrize("b", np.linspace(0.0, 0.99, 34))
    def test_uncertainty_product(self, b):
        vp, vm = quad_variance_single(ScaledParams(0.0, float(b)))
        assert vp * vm == pytest.approx(1 / (1 - b * b), abs=1e-9)
        assert vp * vm >= 1.0 - 1e-12

    def test_independent_of_coherent_drive(self):
        # only the pump enters the variance in this treatment
        for b in (0.0, 0.4, 0.8):
            reference = quad_variance_single(ScaledParams(0.0, b))
            for a in (0.3, 0.6, 2.0):
                assert quad_variance_single(ScaledParams(a, b)) == reference

    def test_disagreeing_moments_raise(self, monkeypatch, params_ref):
        good = steady_moments_combined(params_ref)
        bad = dataclasses.replace(good, mean_sq=good.mean_sq + 1e-6)
        monkeypatch.setattr(combined, "steady_moments_combined", lambda params: bad)
        with pytest.raises(NumericsError, match="closed-form variance$"):
            quad_variance_single(params_ref)
