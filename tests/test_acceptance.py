"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here; the numerical paths (Fock oracle, phase-space
quadrature, moment-ODE integration) are independent of the closed forms they
validate.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines.
"""

import time

import numpy as np
import pytest

from qsuperpose import (
    CavityConfig,
    ScaledParams,
    coherent_term,
    evolve_moments,
    expect,
    gaussian_form,
    moments_via_qfunction,
    output_report,
    q_superposed,
    quad_variance_pair,
    quad_variance_single,
    quadrature_squeezing,
    scale,
    steady_moments_combined,
    steady_state,
    superpose_q_numeric,
    superposed_moments,
    superposition_oracle,
)
from qsuperpose.cli import report_payload
from qsuperpose.verification import check_coherent_term_contrast
from conftest import GRID_AB, phase_integral

REF_CONFIG = CavityConfig(1.0, 0.3, 0.2)
REF_PARAMS = ScaledParams(0.6, 0.4)


def _report(num: int, desc: str, ok: bool, detail: str = "") -> bool:
    tail = f"  [{detail}]" if detail else ""
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {desc}{tail}")
    return ok


def test_c01_combined_mean_photon_vs_oracle():
    t0 = time.perf_counter()
    closed = steady_moments_combined(scale(REF_CONFIG)).mean_photon
    oracle = expect(steady_state(REF_CONFIG), "adag_a")
    elapsed = time.perf_counter() - t0
    ok = (
        abs(closed - 0.278911565) <= 1e-9
        and abs(oracle - closed) / closed <= 1e-6
        and elapsed < 10.0
    )
    assert _report(
        1,
        "combined mean photon number matches the Lindblad oracle",
        ok,
        f"closed={closed:.9f} dev={abs(oracle - closed) / closed:.2e} t={elapsed:.1f}s",
    )


@pytest.mark.parametrize("b", (0.2, 0.4, 0.8))
def test_c02_squeezed_variance_vs_oracle(b):
    config = CavityConfig(1.0, 0.0, b / 2)
    vp, vm = quad_variance_single(scale(config))
    rho = steady_state(config)
    dev = max(
        abs(expect(rho, "quad_var_plus") - vp),
        abs(expect(rho, "quad_var_minus") - vm),
    )
    product_dev = abs(vp * vm - 1 / (1 - b * b))
    ok = dev <= 1e-6 and product_dev <= 1e-9
    assert _report(
        2,
        f"squeezed-only variances match the oracle at b={b}",
        ok,
        f"dev={dev:.2e} product_dev={product_dev:.2e}",
    )


def test_c03_fifty_percent_ceiling():
    vp, _ = quad_variance_single(ScaledParams(0.0, 0.999))
    grid = [quad_variance_single(ScaledParams(0.0, float(b)))[0]
            for b in np.linspace(0.0, 0.999, 300)]
    monotone = all(x > y for x, y in zip(grid, grid[1:]))
    ok = 0.5 < vp < 0.5005 and monotone
    assert _report(
        3,
        "plus-quadrature variance approaches the 50% floor monotonically",
        ok,
        f"var_plus(0.999)={vp:.9f}",
    )


def test_c04_q_normalization():
    t0 = time.perf_counter()
    dev = 0.0
    for a, b in GRID_AB:
        p = ScaledParams(a, b)
        for kind in ("coherent", "squeezed", "superposed"):
            form = gaussian_form(p, kind)
            sigma = form.marginals()[2]  # the wider y axis
            extent = a + 9 * max(1.0, sigma)
            dev = max(dev, abs(phase_integral(form, extent).real - 1.0))
    elapsed = time.perf_counter() - t0
    ok = dev <= 1e-6 and elapsed < 5.0
    assert _report(
        4,
        "all three Q functions integrate to one over the drive grid",
        ok,
        f"max_dev={dev:.2e} t={elapsed:.1f}s",
    )


def test_c05_superposition_kernel():
    t0 = time.perf_counter()
    points = (0j, 0.5 + 0.2j, -0.3 + 0.4j, 0.25 - 0.35j, 0.1 + 0.6j)
    dev = 0.0
    for alpha in points:
        closed = q_superposed(alpha, REF_PARAMS)
        dev = max(dev, abs(superpose_q_numeric(alpha, REF_PARAMS) - closed) / closed)
    elapsed = time.perf_counter() - t0
    ok = dev <= 1e-3 and elapsed < 60.0
    assert _report(
        5,
        "4-d superposition integral reproduces the closed-form Q",
        ok,
        f"max_rel_dev={dev:.2e} at {len(points)} points, t={elapsed:.1f}s",
    )


def test_c06_transform_consistency():
    from qsuperpose import q_coherent, q_from_char_fn, q_squeezed

    points = [
        complex(re, im)
        for re in np.linspace(-1.2, 1.2, 5)
        for im in np.linspace(-1.2, 1.2, 5)
    ]
    dev = 0.0
    for kind, closed in (("coherent", q_coherent), ("squeezed", q_squeezed)):
        for alpha in points:
            dev = max(
                dev,
                abs(q_from_char_fn(alpha, REF_PARAMS, kind) - closed(alpha, REF_PARAMS)),
            )
    ok = dev <= 1e-4
    assert _report(
        6,
        "characteristic-function transform reproduces the closed-form Q",
        ok,
        f"max_abs_dev={dev:.2e} at 25 points x 2 kinds",
    )


def test_c07_superposed_moments_additivity():
    dev_quad = 0.0
    dev_oracle = 0.0
    for a, b in GRID_AB:
        p = ScaledParams(a, b)
        closed = superposed_moments(p)
        quad = moments_via_qfunction(p)
        oracle = superposition_oracle(CavityConfig(1.0, a / 2, b / 2))
        dev_quad = max(
            dev_quad,
            abs(closed.mean_amp - quad.mean_amp),
            abs(closed.mean_sq - quad.mean_sq),
            abs(closed.mean_photon - quad.mean_photon),
        )
        dev_oracle = max(
            dev_oracle,
            abs(closed.mean_amp - oracle.mean_amp),
            abs(closed.mean_sq - oracle.mean_sq),
            abs(closed.mean_photon - oracle.mean_photon),
        )
    ok = dev_quad <= 1e-6 and dev_oracle <= 1e-6
    assert _report(
        7,
        "superposed moments equal Q-quadrature and independent-beam oracle sums",
        ok,
        f"quad_dev={dev_quad:.2e} oracle_dev={dev_oracle:.2e}",
    )


def test_c08_pair_variance_and_squeezing():
    mom = superposed_moments(REF_PARAMS)
    expansion_plus = 2 + 2 * mom.mean_photon + 2 * mom.mean_sq - 4 * mom.mean_amp**2
    expansion_minus = 2 + 2 * mom.mean_photon - 2 * mom.mean_sq
    vp, vm = quad_variance_pair(REF_PARAMS)
    s = quadrature_squeezing(REF_PARAMS)
    dev = max(
        abs(expansion_plus - vp),
        abs(expansion_minus - vm),
        abs(vp - 1.714285714),
        abs(vm - 2.666666667),
        abs(s - 0.142857143),
    )
    halving_dev = 0.0
    for b in np.linspace(0.0, 0.99, 100):
        p = ScaledParams(0.0, float(b))
        halving_dev = max(
            halving_dev,
            abs(
                quadrature_squeezing(p)
                - 0.5 * (1 - quad_variance_single(p)[0])
            ),
        )
    ok = dev <= 1e-9 and halving_dev <= 1e-12
    assert _report(
        8,
        "pair variances and squeezing agree along both paths; halving holds",
        ok,
        f"dev={dev:.2e} halving_dev={halving_dev:.2e}",
    )


@pytest.mark.parametrize("kappa", (0.5, 1.0, 2.0))
def test_c09_output_relations_exact(kappa):
    # fixed (a, b) = (0.6, 0.4) at each kappa
    rep = output_report(CavityConfig(kappa, 0.3 * kappa, 0.2 * kappa))
    ok = (
        rep.mean_photon_out == kappa * rep.mean_photon
        and rep.squeezing_out == rep.squeezing
        and rep.var_plus_out == kappa * rep.var_plus
    )
    assert _report(
        9,
        f"output relations are exact identities at kappa={kappa}",
        ok,
    )


def test_c10_transient_mean_amplitude():
    dev = 0.0
    for kt in (0.5, 1.0, 2.0, 4.0):
        got = evolve_moments(ScaledParams(0.6, 0.0), kt).mean_amp
        dev = max(dev, abs(got - 0.6 * (1 - np.exp(-kt / 2))))
    ok = dev <= 1e-6
    assert _report(
        10,
        "moment-ODE transient matches the closed pump-free solution",
        ok,
        f"max_dev={dev:.2e}",
    )


def test_c11_combined_procedure_criticism_exhibited():
    with_pump = coherent_term(ScaledParams(0.6, 0.4))
    without = coherent_term(ScaledParams(0.6, 0.0))
    contrast = check_coherent_term_contrast()
    payload = report_payload(REF_CONFIG)
    ok = (
        abs(with_pump - 0.183673469) <= 1e-9
        and abs(without - 0.36) <= 1e-12
        and with_pump != without
        and contrast.passed
        and payload["combined_coherent_term"] == pytest.approx(0.183673469, abs=1e-9)
        and payload["coherent_mean_photon"] == pytest.approx(0.36, abs=1e-9)
    )
    assert _report(
        11,
        "pump contamination of the coherent photon number is exhibited",
        ok,
        f"coherent term {without:.6f} -> {with_pump:.6f} under the pump",
    )
