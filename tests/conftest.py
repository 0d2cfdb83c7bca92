"""Shared grids and independent quadrature helpers for the test suite.

The helpers here are deliberately primitive (plain trapezoid sums written out
by hand) so they stay independent of the package's own integration code.
"""

import warnings

import numpy as np
import pytest
from hypothesis import is_hypothesis_test

from qsuperpose import ScaledParams

# standard drive grid used by the cross-validation tests
A_VALUES = (0.0, 0.3, 0.6)
B_VALUES = (0.0, 0.2, 0.4, 0.8)
GRID_AB = [(a, b) for a in A_VALUES for b in B_VALUES]


def phase_integral(f, extent: float, n: int = 801) -> complex:
    """Trapezoid integral of f(alpha) over the square |Re|,|Im| <= extent."""
    ax = np.linspace(-extent, extent, n)
    h = ax[1] - ax[0]
    w = np.ones(n)
    w[0] = w[-1] = 0.5
    alpha = ax[:, None] + 1j * ax[None, :]
    vals = np.asarray(f(alpha), dtype=complex)
    return complex(np.einsum("i,j,ij->", w, w, vals) * h * h)


@pytest.fixture
def params_ref() -> ScaledParams:
    """The reference drive point used by most worked examples."""
    return ScaledParams(0.6, 0.4)


@pytest.hookimpl(hookwrapper=True, trylast=True)
def pytest_runtest_makereport(item, call):
    """Load hypothesis's patch writer, with its DeprecationWarnings ignored,
    once a hypothesis test's call has failed.

    hypothesis's own report hook imports ``hypothesis.extra._patching`` in
    that test's teardown to suggest a patch; the import pulls in libcst,
    whose use of ``mypy_extensions.TypedDict`` warns.  Under ``python -W
    error`` that warning ended the whole session as an INTERNALERROR after
    the first failing property test.  Imported here first, the module is
    already loaded when hypothesis asks for it; the package's own warnings
    stay errors."""
    report = (yield).get_result()
    if report.when == "call" and report.failed and is_hypothesis_test(item.obj):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            try:
                import hypothesis.extra._patching  # noqa: F401
            except ImportError:  # no libcst: hypothesis skips the patch too
                pass
