"""Brute-force verification backend in a truncated Fock basis.

Ground truth for every closed form in the package: the driven damped cavity
is realized as a Lindblad master equation (vacuum-reservoir dissipator at
rate kappa plus the combined drive Hamiltonian), its steady state is found by
a direct sparse solve of the vectorized generator, and expectation values
are taken with explicit truncated ladder operators.  Nothing here reuses the
closed-form results it is meant to check.

Conventions: Fock levels 0..N-1, annihilation matrix entries
a[n-1, n] = sqrt(n), density matrices vectorized row-major so that
vec(A rho B) = kron(A, B.T) vec(rho).

Solver strategy: every drive is real, so the generator L is real and
commutes with transposition, L(rho^T) = (L rho)^T, and the unique steady
state is real symmetric.  One sparse LU factorization solves for its
N(N+1)/2 unknowns rho_mn, m <= n, with the redundant (0,0) equation replaced
by the trace constraint.  That matrix is nonsingular exactly when the steady
state is unique: an exactly singular factorization, a reciprocal condition
estimate below RCOND_FLOOR, or a probe solve that misses its own residual
raises SolveError.  So does a solution that misses |L x| <= 1e-9 max|x|
against the full generator after one step of iterative refinement.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .combined import MomentSet
from .errors import DomainError, SolveError, StepError, TruncationError
from .params import CavityConfig, scale

#: hard cap on the automatic truncation
TRUNC_CAP = 200
#: acceptable population in the top 10% of Fock levels
TAIL_TOL = 1e-8
#: tolerated missing norm of a truncated coherent vector
COHERENT_TAIL_TOL = 1e-10
#: smallest accepted reciprocal condition estimate of the trace-constrained
#: generator on the symmetric subspace: 1.2e-4..0.051 for unique steady states
#: (N = 16..200, kappa = 0.5..2, a <= 2.2, b <= 0.89), up to 1.5e-10 for kappa = 0
RCOND_FLOOR = 1e-10

_EXPECT_KINDS = (
    "a",
    "a2",
    "adag_a",
    "quad_var_plus",
    "quad_var_minus",
    "char_fn",
    "husimi",
)


def ladder(dim: int) -> np.ndarray:
    """Annihilation operator on the truncated Fock space."""
    return np.diag(np.sqrt(np.arange(1.0, dim)), 1)


def hamiltonian(config: CavityConfig, dim: int) -> np.ndarray:
    """Combined drive Hamiltonian i*eps1*(ad - a) + i*(eps2/2)*(a^2 - ad^2)."""
    am = ladder(dim)
    ad = am.T
    return 1j * config.eps1 * (ad - am) + 0.5j * config.eps2 * (am @ am - ad @ ad)


def liouvillian(config: CavityConfig, dim: int) -> sp.csr_matrix:
    """Vectorized Lindblad generator (row-major convention), sparse float64:
    H = iK with K real, so -i[H, rho] = K rho - rho K."""
    am = sp.csr_matrix(ladder(dim))
    ad = am.T.tocsr()
    k = config.eps1 * (ad - am) + 0.5 * config.eps2 * (am @ am - ad @ ad)
    nop = (ad @ am).tocsr()
    ident = sp.identity(dim, format="csr")
    lind = sp.kron(k, ident) - sp.kron(ident, k.T)
    lind = lind + config.kappa * (
        sp.kron(am, am) - 0.5 * sp.kron(nop, ident) - 0.5 * sp.kron(ident, nop.T)
    )
    return lind.tocsr()


def default_truncation(config: CavityConfig) -> int:
    """Automatic Fock cutoff: 40 for moderate drives (b < 0.7, a <= 1),
    growing as 40/(1-b^2) (or 40*a^2) beyond, capped at 200.

    The squeezed-state Fock tail is heavy: at b = 0.8 a cutoff of 40 leaves
    ~3e-8 in the top levels, violating the tail-mass requirement, and
    already above b ~ 0.72 the moments at N = 40 and N = 80 differ by more
    than 1e-8 (3.7e-8 at b = 0.74).  So the scaling branch starts at 0.7.
    """
    p = scale(config)
    if p.b < 0.7 and p.a <= 1.0:
        return 40
    n = math.ceil(40 * max(1.0 / ((1.0 - p.b) * (1.0 + p.b)), p.a**2))
    if n > TRUNC_CAP:
        raise TruncationError(
            f"automatic truncation {n} exceeds the cap {TRUNC_CAP} "
            f"for (a={p.a}, b={p.b}); this regime is out of the oracle's reach"
        )
    return n


@dataclass(frozen=True)
class DensityMatrix:
    """Validated density operator on the truncated Fock space.

    Construction enforces hermiticity (1e-12), unit trace (1e-10), positive
    semidefiniteness (eigenvalues above -1e-10), and truncation adequacy
    (population of the top 10% of levels below 1e-8, else
    :class:`TruncationError`).  The stored array is a read-only copy.
    """

    dim: int
    elements: np.ndarray

    def __post_init__(self):
        arr = np.array(self.elements, dtype=complex)
        if arr.shape != (self.dim, self.dim):
            raise DomainError(f"elements must be {self.dim}x{self.dim}")
        if np.abs(arr - arr.conj().T).max() > 1e-12:
            raise SolveError("density matrix is not Hermitian")
        if abs(np.trace(arr) - 1.0) > 1e-10:
            raise SolveError(f"trace {np.trace(arr)} is not 1")
        eigmin = np.linalg.eigvalsh(arr)[0]
        if eigmin < -1e-10:
            raise SolveError(f"negative eigenvalue {eigmin:.3e}")
        tail_levels = math.ceil(0.1 * self.dim)
        tail = float(np.real(np.diag(arr)[self.dim - tail_levels :].sum()))
        if tail >= TAIL_TOL:
            raise TruncationError(
                f"population {tail:.3e} in the top {tail_levels} Fock levels; "
                f"raise the truncation above {self.dim}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "elements", arr)


def _finalize(x: np.ndarray, dim: int) -> np.ndarray:
    rho = x.reshape(dim, dim)
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def _restrict(lind: sp.csr_matrix, dim: int) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """The generator on the symmetric subspace: its rows (m,n), m <= n, in
    row-major order ((0,0) first), with each column (n,m) folded onto (m,n)
    by the 0/1 expansion E, vec(rho) = E x.  Also returns E."""
    m, n = np.triu_indices(dim)
    k = np.arange(m.size)
    lower = m < n
    rows = np.concatenate([m * dim + n, (n * dim + m)[lower]])
    cols = np.concatenate([k, k[lower]])
    expand = sp.csr_matrix((np.ones(rows.size), (rows, cols)), (dim * dim, m.size))
    return lind[m * dim + n] @ expand, expand


def _solve_lu(lind: sp.csr_matrix, dim: int) -> np.ndarray:
    """Sparse LU solve on the symmetric subspace in the generator's dtype.
    SuperLU's symmetric mode pivots on the diagonal at any size, which suits
    a diagonal with no zero: 1 in the trace row, -kappa (m+n)/2 in each
    (m,n) equation (no term maps (n,m) to (m,n), so folding adds nothing).
    A fixed random probe r certifies uniqueness: max|r| / (max|A| max|y|)
    estimates the reciprocal condition of the system A, and the probe's
    solution y must meet |A y - r| <= 1e-8 max|r| (unique steady states give
    <= 1e-12, kappa = 0 generators >= 239)."""
    reduced, expand = _restrict(lind, dim)
    trace_row = sp.csr_matrix(np.eye(dim, dtype=lind.dtype).reshape(1, -1)) @ expand
    system = sp.vstack([trace_row, reduced[1:]], format="csc")
    try:
        lu = splu(
            system,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:  # exactly singular
        raise SolveError(f"steady state not unique: {exc}") from None
    probe = np.random.default_rng(0).standard_normal(system.shape[0])
    rhs = np.column_stack([np.zeros_like(probe), probe]).astype(lind.dtype)
    rhs[0, 0] = 1.0
    x, y = lu.solve(rhs).T
    rcond = np.abs(probe).max() / (np.abs(system.data).max() * np.abs(y).max())
    probe_residual = np.abs(system @ y - probe).max() / np.abs(probe).max()
    if not (rcond > RCOND_FLOOR and probe_residual <= 1e-8):
        raise SolveError(
            f"steady state not unique: reciprocal condition {rcond:.2e}, "
            f"probe residual {probe_residual:.2e}"
        )
    for refined in (False, True):
        full = expand @ x
        residual = np.abs(lind @ full).max()
        if np.all(np.isfinite(full)) and residual <= 1e-9 * np.abs(full).max():
            return _finalize(full, dim)
        if not refined:
            x = x + lu.solve(rhs[:, 0] - system @ x)  # one refinement step
    raise SolveError(
        "LU solution misses the residual bound |L x| <= 1e-9 max|x| "
        "after one step of iterative refinement"
    )


def _rk4_step(lind: sp.csr_matrix, x: np.ndarray, h: float) -> np.ndarray:
    k1 = lind @ x
    k2 = lind @ (x + 0.5 * h * k1)
    k3 = lind @ (x + 0.5 * h * k2)
    k4 = lind @ (x + h * k3)
    return x + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)


@lru_cache(maxsize=64)
def _solve_cached(kappa: float, eps1: float, eps2: float, dim: int) -> np.ndarray:
    return _solve_lu(liouvillian(CavityConfig(kappa, eps1, eps2), dim), dim)


def steady_state(config: CavityConfig, trunc: int | None = None) -> DensityMatrix:
    """Steady state of the driven damped cavity.

    trunc=None uses :func:`default_truncation`.  Solves by sparse LU on the
    symmetric subspace.  Raises :class:`SolveError` when the steady state is
    not unique or the solution misses the residual bound |L x| <= 1e-9
    max|x| against the full generator after one refinement step, and
    :class:`TruncationError` when the state still has significant population
    near the cutoff.
    """
    dim = default_truncation(config) if trunc is None else int(trunc)
    if dim < 8:
        raise DomainError(f"truncation must be at least 8, got {dim}")
    elements = _solve_cached(config.kappa, config.eps1, config.eps2, dim)
    return DensityMatrix(dim=dim, elements=elements)


def propagate(
    config: CavityConfig, t: float, trunc: int | None = None
) -> DensityMatrix:
    """Master-equation state at time t, starting from vacuum.

    Fixed-step RK4 with step dt = 0.2/(kappa*N), well inside the stability
    region of the fastest decaying coherence and small enough that the
    integration error cannot push the state's zero eigenvalues below the
    positivity tolerance.  The vacuum start is symmetric and the generator
    keeps it so: RK4 runs on the symmetric subspace.  t is in the same time
    units as 1/kappa.
    """
    if not np.isfinite(t) or t < 0:
        raise StepError(f"time must be non-negative, got {t}")
    dim = default_truncation(config) if trunc is None else int(trunc)
    if dim < 8:
        raise DomainError(f"truncation must be at least 8, got {dim}")
    dt = 0.2 / (config.kappa * dim)
    gen, expand = _restrict(liouvillian(config, dim), dim)
    x = np.zeros(gen.shape[0], dtype=gen.dtype)
    x[0] = 1.0
    n_full, rem = divmod(t, dt)
    for _ in range(int(n_full)):
        x = _rk4_step(gen, x, dt)
    if rem > 1e-15 * max(t, 1.0):
        x = _rk4_step(gen, x, rem)
    if not np.all(np.isfinite(x)):
        raise StepError(f"master-equation integration diverged (dt={dt})")
    return DensityMatrix(dim=dim, elements=_finalize(expand @ x, dim))


def coherent_vector(alpha: complex, dim: int) -> np.ndarray:
    """Truncated coherent-state vector; raises :class:`TruncationError` when
    the missing tail norm exceeds 1e-10."""
    c = np.zeros(dim, dtype=complex)
    c[0] = math.exp(-abs(alpha) ** 2 / 2)
    for n in range(1, dim):
        c[n] = c[n - 1] * alpha / math.sqrt(n)
    tail = 1.0 - float(np.vdot(c, c).real)
    if tail > COHERENT_TAIL_TOL:
        raise TruncationError(
            f"coherent amplitude |alpha|={abs(alpha):.3g} too large for "
            f"truncation {dim} (missing norm {tail:.2e})"
        )
    return c


def _exp_raising(z: complex, dim: int) -> np.ndarray:
    """exp(z a^dag) on the truncated space, from its finite series (a^dag is
    nilpotent there): entry [m, n] = z^k sqrt(m!/n!) / k! with k = m - n >= 0,
    built one subdiagonal at a time.  exp(z a) is its transpose."""
    out = np.identity(dim, dtype=complex)
    idx = np.arange(dim)
    sub = np.ones(dim, dtype=complex)
    for k in range(1, dim):
        sub = sub[:-1] * (z * np.sqrt(idx[k:]) / k)
        out[idx[k:], idx[:-k]] = sub
    return out


def expect(rho: DensityMatrix, which: str, arg: complex | None = None):
    """Expectation value against explicit truncated operators.

    which: "a", "a2", "adag_a", "quad_var_plus", "quad_var_minus",
    "char_fn" (requires arg z; antinormally-ordered <exp(-z* a) exp(z a^dag)>
    with both exponentials summed exactly on the truncated space), or
    "husimi" (requires arg alpha; <alpha|rho|alpha>/pi).  Moments come back
    complex, variances and the Husimi value as floats.
    """
    if which not in _EXPECT_KINDS:
        raise DomainError(f"which must be one of {_EXPECT_KINDS}, got {which!r}")
    mat = rho.elements
    am = ladder(rho.dim)
    if which == "a":
        return complex(np.einsum("ij,ji->", mat, am))
    if which == "a2":
        return complex(np.einsum("ij,ji->", mat, am @ am))
    if which == "adag_a":
        return float(np.einsum("ij,ji->", mat, am.T @ am).real)
    if which in ("quad_var_plus", "quad_var_minus"):
        quad = am.T + am if which == "quad_var_plus" else 1j * (am.T - am)
        mean = np.einsum("ij,ji->", mat, quad)
        mean_sq = np.einsum("ij,ji->", mat, quad @ quad)
        return float((mean_sq - mean**2).real)
    if arg is None:
        raise DomainError(f"{which} requires a complex argument")
    arg = complex(arg)
    if which == "husimi":
        c = coherent_vector(arg, rho.dim)
        return float(np.real(c.conj() @ mat @ c) / np.pi)
    # char_fn; the coherent-tail criterion bounds how far exp(z a^dag)
    # pushes weight toward the cutoff
    coherent_vector(arg, rho.dim)
    op = _exp_raising(-np.conj(arg), rho.dim).T @ _exp_raising(arg, rho.dim)
    return complex(np.einsum("ij,ji->", mat, op))


def superposition_oracle(config: CavityConfig, trunc: int | None = None) -> MomentSet:
    """Component-wise sums of the coherent-only and squeezed-only steady-state
    moments, the Fock-space realization of what Q-function superposition
    predicts for the combined light."""
    coh = steady_state(CavityConfig(config.kappa, config.eps1, 0.0), trunc)
    sqz = steady_state(CavityConfig(config.kappa, 0.0, config.eps2), trunc)
    mean_amp = expect(coh, "a") + expect(sqz, "a")
    mean_sq = expect(coh, "a2") + expect(sqz, "a2")
    if not (abs(mean_amp.imag) < 1e-10 and abs(mean_sq.imag) < 1e-10):
        raise SolveError("moments acquired an imaginary part for real drives")
    return MomentSet(
        mean_amp=mean_amp.real,
        mean_sq=mean_sq.real,
        mean_photon=expect(coh, "adag_a") + expect(sqz, "adag_a"),
    )
