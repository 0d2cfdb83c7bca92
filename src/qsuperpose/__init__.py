"""Statistics and squeezing of superposed coherent and squeezed cavity light.

A single cavity mode is driven coherently and pumped subharmonically; the
package computes its photon statistics and quadrature squeezing two ways (a
combined-Hamiltonian treatment and a Q-function superposition), together with
the numerical machinery to cross-validate every closed form: a truncated
Fock-space steady-state oracle, phase-space quadrature, and moment-ODE
integration.
"""

import importlib

__version__ = "0.1.0"

#: every public name, with the module that defines it; each is served from
#: there on first use, so that a process which never touches the Fock oracle
#: or the phase-space quadratures never imports them, nor numpy: the closed
#: forms are plain float arithmetic, and so is the Q grid
_HOMES = {
    "CavityConfig": "params",
    "DensityMatrix": "fock",
    "DomainError": "errors",
    "GaussianQ": "params",
    "MomentSet": "combined",
    "NormalizationWarning": "errors",
    "NumericsError": "errors",
    "PAIR_BASELINE": "superposed",
    "QGrid": "qgrid",
    "QuadratureError": "errors",
    "QuadratureSpec": "qfunctions",
    "ScaledParams": "params",
    "SINGLE_BEAM_BASELINE": "superposed",
    "SolveError": "errors",
    "SqueezingReport": "superposed",
    "StabilityError": "errors",
    "StepError": "errors",
    "TruncationError": "errors",
    "ValidationError": "errors",
    "char_fn_antinormal": "qfunctions",
    "coherent_term": "combined",
    "evolve_moments": "combined",
    "expect": "fock",
    "gaussian_form": "params",
    "moments_via_qfunction": "superposed",
    "output_pair_baseline": "superposed",
    "output_report": "superposed",
    "propagate": "fock",
    "q_coherent": "qfunctions",
    "q_from_char_fn": "qfunctions",
    "q_grid": "qgrid",
    "q_squeezed": "qfunctions",
    "q_superposed": "qfunctions",
    "quad_variance_pair": "superposed",
    "quad_variance_single": "combined",
    "quadrature_squeezing": "superposed",
    "scale": "params",
    "squeeze_coeffs": "params",
    "steady_mean_amp": "combined",
    "steady_moments_combined": "combined",
    "steady_state": "fock",
    "superpose_q_numeric": "qfunctions",
    "superposed_moments": "superposed",
    "superposition_oracle": "fock",
}

__all__ = list(_HOMES)


def __getattr__(name: str):
    if name in _HOMES:
        module = importlib.import_module(f".{_HOMES[name]}", __name__)
        value = getattr(module, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_HOMES))
