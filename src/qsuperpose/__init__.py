"""Statistics and squeezing of superposed coherent and squeezed cavity light.

A single cavity mode is driven coherently and pumped subharmonically; the
package computes its photon statistics and quadrature squeezing two ways (a
combined-Hamiltonian treatment and a Q-function superposition), together with
the numerical machinery to cross-validate every closed form: a truncated
Fock-space steady-state oracle, phase-space quadrature, and moment-ODE
integration.
"""

import importlib

from .combined import (
    MomentSet,
    coherent_term,
    evolve_moments,
    quad_variance_single,
    steady_mean_amp,
    steady_moments_combined,
)
from .errors import (
    DomainError,
    NormalizationWarning,
    NumericsError,
    QuadratureError,
    SolveError,
    StabilityError,
    StepError,
    TruncationError,
    ValidationError,
)
from .params import (
    CavityConfig,
    GaussianQ,
    ScaledParams,
    gaussian_form,
    scale,
    squeeze_coeffs,
)
from .superposed import (
    PAIR_BASELINE,
    SINGLE_BEAM_BASELINE,
    SqueezingReport,
    moments_via_qfunction,
    output_pair_baseline,
    output_report,
    quad_variance_pair,
    quadrature_squeezing,
    superposed_moments,
)

__version__ = "0.1.0"

#: names served lazily, with the module that defines them, so that a process
#: which never touches the Fock oracle or the phase-space quadratures never
#: imports them, nor numpy: the closed forms are plain float arithmetic, and
#: so is the Q grid, which loads only when it is sampled
_LAZY_NAMES = {
    "DensityMatrix": "fock",
    "expect": "fock",
    "propagate": "fock",
    "steady_state": "fock",
    "superposition_oracle": "fock",
    "QGrid": "qgrid",
    "QuadratureSpec": "qfunctions",
    "char_fn_antinormal": "qfunctions",
    "q_coherent": "qfunctions",
    "q_from_char_fn": "qfunctions",
    "q_grid": "qgrid",
    "q_squeezed": "qfunctions",
    "q_superposed": "qfunctions",
    "superpose_q_numeric": "qfunctions",
}


def __getattr__(name: str):
    if name in _LAZY_NAMES:
        module = importlib.import_module(f".{_LAZY_NAMES[name]}", __name__)
        value = getattr(module, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_LAZY_NAMES))


__all__ = [
    "CavityConfig",
    "DensityMatrix",
    "DomainError",
    "GaussianQ",
    "MomentSet",
    "NormalizationWarning",
    "NumericsError",
    "PAIR_BASELINE",
    "QGrid",
    "QuadratureError",
    "QuadratureSpec",
    "ScaledParams",
    "SINGLE_BEAM_BASELINE",
    "SolveError",
    "SqueezingReport",
    "StabilityError",
    "StepError",
    "TruncationError",
    "ValidationError",
    "char_fn_antinormal",
    "coherent_term",
    "evolve_moments",
    "expect",
    "gaussian_form",
    "moments_via_qfunction",
    "output_pair_baseline",
    "output_report",
    "propagate",
    "q_coherent",
    "q_from_char_fn",
    "q_grid",
    "q_squeezed",
    "q_superposed",
    "quad_variance_pair",
    "quad_variance_single",
    "quadrature_squeezing",
    "scale",
    "squeeze_coeffs",
    "steady_mean_amp",
    "steady_moments_combined",
    "steady_state",
    "superpose_q_numeric",
    "superposed_moments",
    "superposition_oracle",
]
