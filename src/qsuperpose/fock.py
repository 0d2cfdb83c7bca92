"""Brute-force verification backend in a truncated Fock basis.

Ground truth for every closed form in the package: the driven damped cavity
is realized as a Lindblad master equation (vacuum-reservoir dissipator at
rate kappa plus the combined drive Hamiltonian), its steady state is found by
a direct block LU solve, and expectation values are taken with explicit
truncated ladder operators.  Nothing here reuses the closed-form results it
is meant to check, and nothing here needs more than numpy.

Conventions: Fock levels 0..N-1, annihilation matrix entries
a[n-1, n] = sqrt(n).  The master equation is written once, as a
:class:`Generator` of the drive K (H = iK), a jump matrix A in place of a,
and kappa: L rho = K rho - rho K + kappa (A rho A^T - {A^T A, rho}/2).  A is
tridiagonal, so :func:`generator` writes the diagonals of A^2, A^T A and K
as formulas of its three diagonals, in O(N), and fills the four N x N
operators at once.  Its matrix action,
four dense products, gives the frame solve's residuals and certifies its
solution, and it builds the Krylov space on which :func:`propagate` applies
its RK4 steps as one polynomial; the lab certificate takes the same
operators to the factors of the mapped state (:meth:`Generator.factored`),
and the steady-state solve builds its system from a separate COO assembly
on the symmetric subspace.

Solver strategy: the steady state is solved in the frame D(delta) S(r) of
:func:`frame`, where it is thermal with nbar depending on b only, so
n_f = 16..29 frame levels hold it where the lab basis needs N = 40..194.
There A = cosh r b - sinh r b^dag + delta; every drive is real, so L is real
and commutes with transposition, L(rho^T) = (L rho)^T, and the unique steady
state is real symmetric: one certified block LU solve on its n_f(n_f+1)/2
unknowns rho_mn, m <= n, finds it (:func:`_solve_lu`).  Ordered row-major
by m, an unknown couples only to those of m - 2..m + 2, so the rows of two
consecutive m form a block tridiagonal system; it is eliminated block row by
block row, each built from the generator's triples when it is needed, and
only the eliminated upper blocks are kept.  Mapped to the lab basis,
rho = U rho_f U^T with U[n, k] = <n|D S|k>, it must pass the lab tail check
and an independent certificate: |(L_lab rho)_mn| <= 1e-9 max|rho| on the
interior rows m, n <= N-3, exact rows of the untruncated master equation,
computed from U and rho_f in O(N^2 n_f).
Any (delta, r) gives the same state once n_f is adequate, so the frame is
no input to the answer; a wrong frame or too small an n_f misses that bound
and raises SolveError.  Sizes follow the package's one rule
(:func:`~qsuperpose.params.as_count`): an explicit lab truncation is an
integer from 8 to TRUNC_CAP (2 TRUNC_CAP for the doubling check's solve) and
an explicit frame truncation one from 8 to :func:`frame_cap`, the largest
whose block solve fits ARRAY_BYTES_CAP; anything else is a DomainError
before anything is allocated.  An automatic frame truncation above the cap
is a TruncationError: that regime is out of the oracle's reach.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import LinAlgError, solve

from .combined import MomentSet, rk4_apply, rk4_split
from .errors import DomainError, SolveError, StepError, TruncationError
from .params import CavityConfig, array_cap, as_count, phase_point, scale

#: cap on the lab truncation, automatic or explicit
TRUNC_CAP = 200
#: acceptable population in the top 10% of Fock levels
TAIL_TOL = 1e-8
#: tolerated distance of a density matrix's trace from 1
TRACE_TOL = 1e-10
#: tolerated missing norm of a truncated coherent vector
COHERENT_TAIL_TOL = 1e-10
#: smallest frame truncation
FRAME_MIN = 16
#: population ratio q^n_f of the frame's thermal state at its cutoff n_f
FRAME_TAIL_TOL = 1e-12
#: bound on |(L rho)_mn| / max|rho| over the interior rows m, n <= N-3 of the
#: lab generator, for the lab-basis state mapped back from the frame
INTERIOR_TOL = 1e-9
#: smallest accepted reciprocal condition estimate of the pinned generator on
#: the symmetric subspace, from the block solve and its fixed probe:
#: 9.6e-4..0.012 for the frame systems of the lab reach (n_f and 2 n_f =
#: 16..58, kappa = 0.5..2, a <= 2.2, b <= 0.89), 1.1e-6..3.1e-3 on the n_f =
#: 30..219 levels of b = 0.9..0.998, 1.4e-20..1.6e-13 for the singular
#: kappa = 0 generators on 8..58 levels, where the zero matrix leaves a block
#: exactly singular to LAPACK
RCOND_FLOOR = 1e-10
#: most Arnoldi vectors in one leg of :func:`propagate`; 120 lab states of
#: N = TRUNC_CAP levels take 38 MB, far inside ARRAY_BYTES_CAP
KRYLOV_CAP = 120
#: vectors between two checks of a leg's error estimate
KRYLOV_CHECK = 10
#: largest accepted error estimate of a leg of :func:`propagate`
KRYLOV_TOL = 1e-13

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


def _fold_index(dim: int) -> np.ndarray:
    """index[m, n] = index[n, m]: where (min, max) stands among the row-major
    upper-triangle unknowns x of the symmetric subspace; x[index] is rho."""
    m, n = np.triu_indices(dim)
    index = np.empty((dim, dim), dtype=int)
    index[n, m] = index[m, n] = np.arange(m.size)
    return index


def _entries(x: np.ndarray):
    """(row, col, value) of the nonzero entries of x."""
    row, col = np.nonzero(x)
    return row, col, x[row, col]


def _folded_kron(x, y, index: np.ndarray):
    """Entries (row, col, value) of kron(x, y), the vectorized rho -> x rho y^T,
    for x and y given by their entries, in rows (i,j), i <= j, column (k,l)
    folded onto index[k, l], unsummed."""
    (i, k, u), (j, l, v) = x, y
    i, k, u = i[:, None], k[:, None], u[:, None]
    keep = np.broadcast_to(i <= j, (i.size, j.size))
    return index[i, j][keep], index[k, l][keep], (u * v)[keep]


@dataclass(frozen=True)
class Generator:
    """L rho = (K - kappa A^T A/2) rho - rho (K + kappa A^T A/2)
    + kappa A rho A^T for the drive K (H = iK) and the real jump matrix A,
    both square numpy arrays.  The two side operators, left = K - kappa
    A^T A/2 and right = K + kappa A^T A/2, are formed at construction
    unless both are given, as :func:`generator` gives them."""

    drive: np.ndarray
    jump: np.ndarray
    kappa: float
    left: np.ndarray | None = field(default=None, repr=False)
    right: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.left is None or self.right is None:
            half = 0.5 * self.kappa * (self.jump.T @ self.jump)
            object.__setattr__(self, "left", self.drive - half)
            object.__setattr__(self, "right", self.drive + half)

    def __call__(self, rho: np.ndarray) -> np.ndarray:
        a = self.jump
        return self.left @ rho - rho @ self.right + self.kappa * (a @ rho @ a.T)

    def factored(self, basis: np.ndarray, core: np.ndarray) -> np.ndarray:
        """L(U C U^T) for U = basis (N x k) and C = core (k x k), from the
        factors in O(N^2 k): one product of [left U, U, A U] with
        [C U^T; -C (right^T U)^T; kappa C (A U)^T], never forming U C U^T."""
        jumped = self.jump.dot(basis)
        outer = np.concatenate((self.left.dot(basis), basis, jumped), axis=1)
        inner = np.concatenate(
            (
                core.dot(basis.T),
                (-core).dot(self.right.T.dot(basis).T),
                (self.kappa * core).dot(jumped.T),
            )
        )
        return outer.dot(inner)

    def symmetric(self):
        """L on the symmetric subspace as COO triples (rows, cols, vals),
        unsummed: rows (m,n), m <= n, and columns folded by
        :func:`_fold_index`, from its terms left rho, -rho right and
        kappa A rho A^T."""
        a = self.jump
        index = _fold_index(len(a))
        ident = _entries(np.identity(len(a)))
        terms = (
            _folded_kron(_entries(self.left), ident, index),
            _folded_kron(ident, _entries(-self.right.T), index),
            _folded_kron(_entries(self.kappa * a), _entries(a), index),
        )
        return tuple(np.concatenate(parts) for parts in zip(*terms))


def _pentadiagonal(band: np.ndarray) -> np.ndarray:
    """The n x n matrices whose diagonals 2, 1, 0, -1, -2 are the rows of
    band[k] (k, 5, n): entry i of diagonal p at [i, i+p] for p >= 0 and at
    [i-p, i] for p < 0, zero past the corner.  In the flat matrix diagonal p
    runs in steps of n + 1 from [0, p] or [-p, 0]; its entries past the
    corner fall beyond the matrix or, for p = 2, on [n-1, 0], which a lower
    diagonal written later overwrites where it lies in the band (n <= 3)."""
    k, _, n = band.shape
    out = np.zeros((k, n * (n + 2)))
    for row, start in enumerate((2, 1, 0, n, 2 * n)):
        out[:, start : start + n * (n + 1) : n + 1] = band[:, row]
    return out[:, : n * n].reshape(k, n, n)


def generator(config: CavityConfig, lower, main, upper) -> Generator:
    """The generator of config whose real tridiagonal jump A has the lower,
    main and upper diagonals lower, main (an array or one number) and upper,
    in place of a: K = eps1 (A^T - A) + (eps2/2) (A^2 - A^T^2).  With l, d
    and u the entries of those diagonals at [i+1, i], [i, i] and [i, i+1],
    zero past the corner, A^2 - A^T^2 and A^T A are pentadiagonal.  Entry i
    of diagonals 2 and 1 of A^2 - A^T^2 is u_i u_{i+1} - l_i l_{i+1} and
    u_i m_i - l_i m_i with m_i = d_i + d_{i+1}; A^T A has l_i u_{i+1},
    d_i u_i + l_i d_{i+1} and u_{i-1}^2 + d_i^2 + l_i^2 on its diagonals
    2, 1 and 0, summed in this order, as the dense product sums them.  K is
    antisymmetric and A^T A symmetric, so A, K and the side operators
    K -/+ (kappa/2) A^T A are filled from their diagonals at once in O(N),
    with no N^3 product."""
    n = len(upper) + 1
    pad = np.zeros((3, n + 2))  # l, d and u with a zero on either end
    pad[0, 1:n], pad[1, 1:-1], pad[2, 1:n] = lower, main, upper
    (l, d, u), (l1, d1, u1), up = pad[:, 1:-1], pad[:, 2:], pad[2, :-2]
    e1, e2, h = config.eps1, 0.5 * config.eps2, 0.5 * config.kappa
    m = d + d1
    band = np.zeros((4, 5, n))  # diagonals 2, 1, 0, -1, -2 of A, K, left, right
    band[0, 1:4] = u, d, l
    band[1, 0] = e2 * (u * u1 - l * l1)
    band[1, 1] = e1 * (l - u) + e2 * (u * m - l * m)
    band[1, 3:] = -band[1, 1::-1]
    ata = np.array([l * u1, d * u + l * d1, up * up + d * d + l * l])
    half = h * ata[[0, 1, 2, 1, 0]]
    band[2], band[3] = band[1] - half, band[1] + half
    jump, drive, left, right = _pentadiagonal(band)
    return Generator(drive, jump, config.kappa, left, right)


def lab_generator(config: CavityConfig, dim: int) -> Generator:
    """The generator of config on dim lab Fock levels, whose jump is a."""
    return generator(config, 0.0, 0.0, np.sqrt(np.arange(1.0, dim)))


def frame(config: CavityConfig) -> tuple[float, float]:
    """(delta, r) of the frame D(delta) S(r) in which the steady state is
    thermal: delta = a/(1+b), r = atanh(b)/2 = ln((1+b)/(1-b))/4."""
    p = scale(config)
    return p.a / (1.0 + p.b), 0.5 * math.atanh(p.b)


def frame_generator(config: CavityConfig, dim: int) -> Generator:
    """The generator in the frame of :func:`frame` on dim levels: a replaced by
    A = cosh r b - sinh r b^dag + delta, with b the frame's ladder matrix."""
    delta, r = frame(config)
    root = np.sqrt(np.arange(1.0, dim))
    return generator(config, -math.sinh(r) * root, delta, math.cosh(r) * root)


def frame_basis(delta: float, r: float, dim: int, frame_dim: int) -> np.ndarray:
    """Lab Fock coefficients U[n, k] = <n| D(delta) S(r) |k> for n < dim and
    k < frame_dim: column k is the frame's level k.

    a U = U (cosh r b - sinh r b^dag + delta) and a^dag U = U (cosh r b^dag -
    sinh r b + delta) give two recurrences, with t = tanh r and mu =
    delta (1 + t):

        sqrt(n+1) U[n+1, k] = mu U[n, k] - t sqrt(n) U[n-1, k]
                              + sqrt(k)/cosh r U[n, k-1]
        sqrt(k+1) U[n, k+1] = -delta/cosh r U[n, k] + t sqrt(k) U[n, k-1]
                              + sqrt(n)/cosh r U[n-1, k]

    from U[0, 0] = exp(-delta mu / 2) / sqrt(cosh r).  Without its last term
    the first is the three-term recurrence of the frame vacuum, column 0.
    Each runs only where its last term shrinks what it carries: the first
    fills the rows on and below the diagonal (n >= k), the second the columns
    above it, shell by shell in s = max(n, k).  Each takes its first two
    terms as one product with a constant step: mu I + diag(sqrt(k)/cosh r,
    -1) times row s-1, -delta/cosh r I + diag(sqrt(n)/cosh r, -1) times
    column s-1 (diag(v, -1) the subdiagonal).  One loop over s < max(N, n_f)
    fills column s while s < n_f and row s while s < N, each from a leading
    slice of its step.
    Against scipy's expm of the padded generators the columns agree to
    1.4e-14 at a = 2.2, b = 0.89, N = 194, n_f = 29.  Run over the whole
    matrix, the second loses 8e-12 there and 2e-8 at n_f = 40; raising
    column 0 by B^dag = cosh r (a^dag - delta) + sinh r (a - delta), one
    column at a time, loses 3e-3 there."""
    ch, t = math.cosh(r), math.tanh(r)
    mu = delta * (1.0 + t)
    root = np.sqrt(np.arange(max(dim, frame_dim) + 1.0))
    out = np.zeros((dim, frame_dim))
    out[0, 0] = math.exp(-0.5 * delta * mu) / math.sqrt(ch)
    step = mu * np.identity(frame_dim)
    step.flat[frame_dim :: frame_dim + 1] = root[1:frame_dim] / ch
    m = min(dim, frame_dim)
    col_step = -delta / ch * np.identity(m)
    col_step.flat[m :: m + 1] = root[1:m] / ch
    # each slice stops at the end of its axis: column s has min(s, N) rows
    # above the diagonal, row s min(s + 1, n_f) entries on and left of it
    for s in range(1, max(dim, frame_dim)):
        if s < frame_dim:
            col = col_step[:s, :s].dot(out[:s, s - 1])
            if s > 1:
                col += t * root[s - 1] * out[:s, s - 2]
            out[:s, s] = col / root[s]
        if s < dim:
            row = step[: s + 1, : s + 1].dot(out[s - 1, : s + 1])
            if s > 1:
                row -= t * root[s - 1] * out[s - 2, : s + 1]
            out[s, : s + 1] = row / root[s]
    return out


def default_truncation(config: CavityConfig) -> int:
    """Automatic Fock cutoff: 40 for moderate drives (b < 0.7, a <= 1),
    growing as 40/(1-b^2) (or 40*a^2) beyond, capped at 200.

    The squeezed-state Fock tail is heavy.  Measured with the frame solver
    (lab N and frame n_f doubled together): at b = 0.8 a cutoff of 40 leaves
    5.6e-8 in the top 4 levels, violating the tail-mass requirement, and the
    moments at N = 40 and N = 80 differ by 5.0e-9 at b = 0.74 and 2.7e-8 at
    b = 0.76, against the 1e-8 of the doubling check.  So the scaling branch
    starts at 0.7.
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


def frame_truncation(config: CavityConfig) -> int:
    """Fock cutoff n_f in the frame of :func:`frame`, from b alone.

    There the steady state is thermal, nbar = (1/sqrt(1-b^2) - 1)/2, with
    populations falling by q = nbar/(1+nbar) per level; n_f is the first
    level with q^n_f <= FRAME_TAIL_TOL, and at least FRAME_MIN (16..29 for
    b <= 0.89), else :class:`TruncationError` above :func:`frame_cap`."""
    p = scale(config)
    root = math.sqrt((1.0 - p.b) * (1.0 + p.b))
    q = (1.0 - root) / (1.0 + root)
    if q == 0.0:
        return FRAME_MIN
    n = max(FRAME_MIN, math.ceil(math.log(FRAME_TAIL_TOL) / math.log(q)))
    if n > frame_cap():
        raise TruncationError(
            f"frame truncation {n} exceeds the cap {frame_cap()} of the frame "
            f"solve for b={p.b}; this regime is out of the oracle's reach"
        )
    return n


def frame_cap() -> int:
    """The largest frame truncation n whose block solve fits ARRAY_BYTES_CAP
    at 16 n^3 bytes, ``array_cap(3)`` = 256.  The kept blocks C_j of n
    levels take (2/3) 8 n^3 bytes in float64 (twice that complex), the block
    rows built on the way O(n^2)."""
    return array_cap(3)


def _check_tail(diag: np.ndarray) -> None:
    """TruncationError when the top 10% of the levels hold TAIL_TOL or more."""
    dim = diag.size
    tail_levels = math.ceil(0.1 * dim)
    tail = float(np.real(diag[dim - tail_levels :].sum()))
    if tail >= TAIL_TOL:
        raise TruncationError(
            f"population {tail:.3e} in the top {tail_levels} Fock levels; "
            f"raise the truncation above {dim}"
        )


@dataclass(frozen=True)
class DensityMatrix:
    """Validated density operator on the truncated Fock space.

    Construction reads dim as an integer of at least 1 and the elements as
    finite numbers (else :class:`DomainError`, before any other check) and
    enforces hermiticity (1e-12), unit trace (TRACE_TOL = 1e-10), positive
    semidefiniteness (eigenvalues above -1e-10), and truncation adequacy
    (population of the top 10% of levels below 1e-8, else
    :class:`TruncationError`).  Positivity is proved by one Cholesky
    factorization (:func:`_proved_positive`); where that proves nothing, the
    smallest eigenvalue from eigvalsh must be at least -1e-10.  The stored
    array is a read-only copy, of at least float64: the oracle's states stay
    real, complex input complex.
    """

    dim: int
    elements: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dim", as_count("dim", self.dim, 1))
        arr = np.array(self.elements)
        if arr.dtype.kind not in "biufc":
            raise DomainError(f"elements must be numbers, got dtype {arr.dtype}")
        arr = arr.astype(np.result_type(arr, float), copy=False)
        if arr.shape != (self.dim, self.dim):
            raise DomainError(f"elements must be {self.dim}x{self.dim}")
        if not np.isfinite(arr).all():
            raise DomainError("elements must be finite numbers")
        if np.abs(arr - arr.conj().T).max() > 1e-12:
            raise SolveError("density matrix is not Hermitian")
        if abs(np.trace(arr) - 1.0) > TRACE_TOL:
            raise SolveError(f"trace {np.trace(arr)} is not 1")
        if not _proved_positive(arr):
            eigmin = np.linalg.eigvalsh(arr)[0]
            if eigmin < -1e-10:
                raise SolveError(f"negative eigenvalue {eigmin:.3e}")
        _check_tail(np.diag(arr))
        arr.setflags(write=False)
        object.__setattr__(self, "elements", arr)


def _proved_positive(arr: np.ndarray) -> bool:
    """True when one Cholesky factorization proves every eigenvalue of the
    Hermitian arr (its lower triangle, which eigvalsh reads too) above
    -1e-10; False proves nothing.  A Cholesky factorization of an n x n M
    that runs to completion is exact for some M + E with ||E||_2 <= (n+1)
    sqrt(n) (eps/2) ||M||_F (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., Thm 10.3, and tr M <= sqrt(n) ||M||_F), and m =
    2 (n+1) n eps ||arr||_F is more than 4 sqrt(n) times that.  So a
    completed factorization of arr + (1e-10 - m) I proves lambda_min(arr) >
    -m - (1e-10 - m) = -1e-10; where m >= 1e-10 none is tried."""
    dim = len(arr)
    margin = 2 * (dim + 1) * dim * np.finfo(float).eps * np.linalg.norm(arr)
    if not margin < 1e-10:
        return False
    shifted = arr.copy()
    shifted.flat[:: dim + 1] += 1e-10 - margin
    try:
        np.linalg.cholesky(shifted)
    except LinAlgError:
        return False
    return True


def _finalize(rho: np.ndarray) -> np.ndarray:
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


@dataclass(frozen=True)
class _Pinned:
    """The system of the frame solve: :meth:`Generator.symmetric` with its
    (0,0) row replaced by x_00 = 1, as COO triples (duplicates summed,
    sorted by row, then column) cut into block rows.

    With the unknowns row-major by m, row (m,n) couples only to the
    unknowns (k,l) with |k - m| <= span, the band of the side operators and
    of A (2 for the oracle's generators, whose drive holds A^2), even after
    (l,k) is folded onto (k,l).  So the rows of span consecutive m form a
    block row coupled only to its two neighbours: bounds[j] is the first
    unknown of block row j, and cuts[j] its first triple."""

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    bounds: np.ndarray
    cuts: np.ndarray

    @classmethod
    def of(cls, gen: Generator) -> "_Pinned":
        dim = len(gen.jump)
        rows, cols, vals = gen.symmetric()
        keep = rows > 0
        rows = np.concatenate([[0], rows[keep]])
        cols = np.concatenate([[0], cols[keep]])
        vals = np.concatenate([np.ones(1, vals.dtype), vals[keep]])
        # first[m] is the unknown (m,m); first[dim] their number
        first = np.concatenate([[0], np.cumsum(np.arange(dim, 0, -1))])
        key = rows * first[-1] + cols
        order = np.argsort(key, kind="stable")
        key = key[order]
        heads = np.flatnonzero(np.diff(key, prepend=-1))
        rows, cols = np.divmod(key[heads], first[-1])
        vals = np.add.reduceat(vals[order], heads)
        level = np.repeat(np.arange(dim), np.arange(dim, 0, -1))  # m of each
        span = max(1, np.abs(level[rows] - level[cols]).max())
        bounds = first[np.r_[0:dim:span, dim]]
        return cls(rows, cols, vals, bounds, np.searchsorted(rows, bounds))

    def band(self, j: int):
        """Block row j, dense, as (L_j, D_j, U_j): its couplings to the
        unknowns of block rows j-1, j and j+1."""
        start, stop = self.bounds[j], self.bounds[j + 1]
        left = self.bounds[max(j - 1, 0)]
        right = self.bounds[min(j + 2, len(self.bounds) - 1)]
        part = slice(self.cuts[j], self.cuts[j + 1])
        band = np.zeros((stop - start, right - left), self.vals.dtype)
        band[self.rows[part] - start, self.cols[part] - left] = self.vals[part]
        return np.split(band, [start - left, stop - left], axis=1)


def _schur(diag: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """D'_j = D_j - L_j C_{j-1}: block row j's diagonal block once block row
    j-1 is eliminated."""
    return diag - lower @ upper


def _sweep(system: _Pinned, rhs: np.ndarray):
    """(x, g): x solves system x = rhs by block LU, the block Thomas
    algorithm (Golub & Van Loan, Matrix Computations, ch. 4), and g is
    rhs after forward elimination; rhs is one right-hand side, or several
    as columns.

    Forward elimination builds each block row j from the triples when it
    needs it and takes C_j = D'_j^-1 U_j and g_j = D'_j^-1 (r_j - L_j
    g_{j-1}), with D'_j from :func:`_schur`, in one LAPACK solve with
    partial pivoting; back substitution gives x_j = g_j - C_j x_{j+1}.  The
    C_j are kept for that back substitution only: each call eliminates
    afresh."""
    uppers, parts = [], []
    for j in range(len(system.bounds) - 1):
        lower, diag, upper = system.band(j)
        r = rhs[system.bounds[j] : system.bounds[j + 1]]
        if j:
            diag = _schur(diag, lower, uppers[j - 1])
            r = r - lower @ parts[-1]
        both = solve(diag, np.column_stack([upper, r]))
        uppers.append(both[:, : upper.shape[1]])
        parts.append(both[:, upper.shape[1] :].reshape(r.shape))
    forward = np.concatenate(parts)
    for j in range(len(parts) - 2, -1, -1):
        parts[j] = parts[j] - uppers[j] @ parts[j + 1]
    return np.concatenate(parts), forward


def _probe(size: int) -> np.ndarray:
    """The fixed uniqueness probe r_k = cos(k^2), k = 1..size: a chirp,
    deterministic and with no structure that a generator's rows share."""
    k = np.arange(1.0, size + 1.0)
    return np.cos(k * k)


def _solve_lu(gen: Generator) -> np.ndarray:
    """Steady state of gen, in its dtype, by block LU on the symmetric subspace.

    :func:`_sweep` solves the system A of :class:`_Pinned` for the state and
    the fixed probe r of :func:`_probe` together; an exactly singular block
    is refused.  Pinning x_00 = 1 in place of the trace row keeps A block
    tridiagonal and holds while rho_00 > 0: the frame's thermal state has
    its largest population there.  max|r| / (max|A| max|y, g|) estimates the
    reciprocal condition of A from the probe's solution y and its forward
    elimination g (a nearly singular block blows up g, and back substitution
    can cancel that in y), and y must meet |A y - r| <= 1e-8 max|r|
    (unique steady states give <= 1e-10).  Then gen applied to the solution
    x[index] must meet |L x| <= 1e-9 max|x|, at once or after one step of
    iterative refinement, a fresh sweep on the pinned residual; the state
    comes back normalized.  Both residuals take A x from gen's matrix action, rows
    m <= n of gen(x[index]) with row (0,0) read as x_00, independent of the
    triples that the elimination reads."""
    system, index = _Pinned.of(gen), _fold_index(len(gen.jump))
    rows = np.triu_indices(len(gen.jump))

    def pinned(x):  # A x
        out = gen(x[index])[rows]
        out[0] = x[0]
        return out

    probe = _probe(system.bounds[-1])
    rhs = np.zeros((probe.size, 2), system.vals.dtype)
    rhs[0, 0], rhs[:, 1] = 1.0, probe
    # the probe's solution overflows on a singular system that the
    # elimination still carried through; the certificate then refuses it
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            solution, forward = _sweep(system, rhs)
        except LinAlgError as exc:  # an exactly singular block
            raise SolveError(f"steady state not unique: {exc}") from None
        x, y = solution.T
        peak = max(np.abs(y).max(), np.abs(forward[:, 1]).max())
        rcond = np.abs(probe).max() / (np.abs(system.vals).max() * peak)
        probe_residual = np.abs(pinned(y) - probe).max() / np.abs(probe).max()
    if not (rcond > RCOND_FLOOR and probe_residual <= 1e-8):
        raise SolveError(
            f"steady state not unique: reciprocal condition {rcond:.2e}, "
            f"probe residual {probe_residual:.2e}"
        )
    for refined in (False, True):
        rho = x[index]
        residual = np.abs(gen(rho)).max()
        if np.all(np.isfinite(rho)) and residual <= 1e-9 * np.abs(rho).max():
            return _finalize(rho)
        if not refined:  # one refinement step
            x = x + _sweep(system, rhs[:, 0] - pinned(x))[0]
    raise SolveError(
        "LU solution misses the residual bound |L x| <= 1e-9 max|x| "
        "after one step of iterative refinement"
    )


def _krylov_leg(gen: Generator, rho: np.ndarray, dt: float, steps: int, rem: float):
    """(state, steps', rem'): RK4's steps of size dt, then one of size rem,
    applied to rho as beta V p(H) e1 on the Krylov space of rho, with
    nothing left, (steps', rem') = (0, 0); or, where KRYLOV_CAP vectors do
    not certify them all, only the first k full steps, the largest of steps
    (if rem > 0), steps // 2, steps // 4, ... that they certify, with
    (steps - k, rem) left.

    Arnoldi builds the orthonormal basis V of rho, L rho, L^2 rho, ... with
    the generator's action, by classical Gram-Schmidt reorthogonalized once,
    and the Hessenberg matrix H = V^T L V; p(H) e1 is
    :func:`~qsuperpose.combined.rk4_apply` on H and e1, and beta = |rho|.
    Every KRYLOV_CHECK vectors and at the cap, Saad's estimate beta
    h_{m+1,m} |e_m^T p(H) e1| of the error (Saad, SIAM J. Numer. Anal. 29,
    1992) must be at most KRYLOV_TOL; a basis that breaks down, h_{m+1,m} =
    0, spans an invariant space and is exact.  The state must also keep
    rho's trace within TRACE_TOL, as RK4 on the trace-preserving L does:
    far past the relaxation time T(dt H)^steps annihilates a small space
    that lacks the steady state, and Saad's estimate of that zero is zero
    too.  The basis is allocated once, for KRYLOV_CAP vectors.  A leg whose
    basis certifies not even one step is a :class:`StepError`."""
    cap = KRYLOV_CAP
    beta, trace = np.linalg.norm(rho), np.trace(rho)
    basis = np.empty((cap, rho.size))  # pages never written take no memory
    basis[0] = rho.ravel() / beta
    hess = np.zeros((cap + 1, cap))

    def certified(m, steps, rem):
        p = rk4_apply(hess[:m, :m], np.eye(1, m)[0], dt, steps, rem)
        out = beta * (p @ basis[:m]).reshape(rho.shape)
        # a non-finite p passes, and propagate refuses it as diverged
        error = beta * hess[m, m - 1] * abs(p[-1])
        if not (error > KRYLOV_TOL or abs(np.trace(out) - trace) > TRACE_TOL):
            return out
        return None

    for j in range(cap):
        w = gen(basis[j].reshape(rho.shape)).ravel()
        for _ in range(2):
            coef = basis[: j + 1] @ w
            w -= coef @ basis[: j + 1]
            hess[: j + 1, j] += coef
        m = j + 1
        hess[m, j] = np.linalg.norm(w)
        if hess[m, j] == 0.0 or m % KRYLOV_CHECK == 0 or m == cap:
            out = certified(m, steps, rem)
            if out is not None:
                return out, 0, 0.0
        if m < cap:
            basis[m] = w / hess[m, j]
    first = steps if rem else steps // 2
    while first:
        out = certified(cap, first, 0.0)
        if out is not None:
            return out, steps - first, rem
        first //= 2
    raise StepError(
        f"one RK4 step (dt={dt}) misses the Krylov error bound {KRYLOV_TOL} "
        f"on {cap} vectors"
    )


def _lab_truncation(config: CavityConfig, trunc) -> int:
    """The lab Fock cutoff N for ``trunc``: :func:`default_truncation` for
    None, else ``trunc`` as a count from 8 to TRUNC_CAP."""
    if trunc is None:
        return default_truncation(config)
    return as_count("truncation", trunc, 8, TRUNC_CAP)


def steady_state(config: CavityConfig, trunc: int | None = None) -> DensityMatrix:
    """Steady state of the driven damped cavity on trunc lab Fock levels.

    trunc=None uses :func:`default_truncation`; any other trunc must be an
    integer from 8 to TRUNC_CAP, else :class:`DomainError`.  The solve runs on
    :func:`frame_truncation` levels of the frame (see
    :func:`steady_state_in_frame`).  Every call solves: the oracle keeps no
    state between calls.  Raises :class:`SolveError` when the steady state is
    not unique or misses a residual bound, and :class:`TruncationError` when
    it still has significant population near the cutoff.
    """
    dim = _lab_truncation(config, trunc)
    return _frame_solve(config, dim, frame_truncation(config))


def steady_state_in_frame(
    config: CavityConfig, dim: int, frame_dim: int
) -> DensityMatrix:
    """Steady state on dim lab Fock levels, solved by :func:`_solve_lu` on
    frame_dim levels of the frame of :func:`frame` and mapped back as
    rho = U rho_f U^T with U = :func:`frame_basis`; it must pass the lab tail
    check, the interior residual bound INTERIOR_TOL of the lab generator,
    taken from U and rho_f by :meth:`Generator.factored` in O(N^2 n_f), and
    the :class:`DensityMatrix` checks.  dim is a count from 8 to 2 TRUNC_CAP,
    room for the doubling check, and frame_dim a count from 8 to the
    :func:`frame_cap` of the frame solve, else :class:`DomainError`."""
    dim = as_count("truncation", dim, 8, 2 * TRUNC_CAP)
    frame_dim = as_count("frame truncation", frame_dim, 8, frame_cap())
    return _frame_solve(config, dim, frame_dim)


def _frame_solve(config: CavityConfig, dim: int, frame_dim: int) -> DensityMatrix:
    rho_f = _solve_lu(frame_generator(config, frame_dim))
    basis = frame_basis(*frame(config), dim, frame_dim)
    rho = basis @ rho_f @ basis.T
    core = rho_f / np.trace(rho)  # rho = U core U^T once normalized
    rho = _finalize(rho)
    _check_tail(np.diag(rho))  # a lab cutoff too low is a TruncationError
    # rows m, n <= N-3 are exact rows of the untruncated master equation
    image = lab_generator(config, dim).factored(basis, core)[: dim - 2, : dim - 2]
    residual = np.abs(image).max() / np.abs(rho).max()
    if not residual <= INTERIOR_TOL:
        raise SolveError(
            f"lab-basis state misses the interior residual bound: "
            f"|L rho| = {residual:.2e} max|rho| on rows m, n <= {dim - 3} "
            f"(lab N = {dim}, frame n_f = {frame_dim}); n_f is too small for this frame"
        )
    return DensityMatrix(dim=dim, elements=rho)


def propagate(
    config: CavityConfig, t: float, trunc: int | None = None
) -> DensityMatrix:
    """Master-equation state at time t, starting from vacuum.

    Fixed-step RK4 with step dt = 0.2/(kappa max(N, 40)), well inside the
    stability region of the fastest decaying coherence, and one last step
    for the remainder of t, as :func:`~qsuperpose.combined.rk4_split` counts
    them.  For the linear, time-independent lab :class:`Generator` each RK4
    step is the polynomial T(dt L) of :func:`~qsuperpose.combined.rk4_apply`,
    so all steps are one polynomial in L applied to the vacuum.
    :func:`_krylov_leg` applies it on the vacuum's Krylov space,
    built with the action that certifies the frame solution; where that space
    reaches its cap, it applies the first part of the steps, and the next
    leg builds its space from the state they reach.  A leg's state keeps
    its input's trace within TRACE_TOL, and the final state must still
    pass the :class:`DensityMatrix` checks.  Below N = 40 the step stays
    that of N = 40: 0.2/(kappa N) pushed an eigenvalue below the -1e-10
    positivity floor (kappa = 1, trunc = 12, a = 0.8, b = 0, t = 0.2 reached
    -2.7e-10; now -2.2e-12).  t is in the same time units as 1/kappa.
    """
    dim = _lab_truncation(config, trunc)
    dt = 0.2 / (config.kappa * max(dim, 40))
    steps, rem = rk4_split(t, dt)
    gen = lab_generator(config, dim)
    rho = np.zeros((dim, dim))
    rho[0, 0] = 1.0
    while steps or rem:
        rho, steps, rem = _krylov_leg(gen, rho, dt, steps, rem)
    if not np.all(np.isfinite(rho)):
        raise StepError(f"master-equation integration diverged (dt={dt})")
    return DensityMatrix(dim=dim, elements=_finalize(rho))


def coherent_vector(alpha: complex, dim: int) -> np.ndarray:
    """Truncated coherent-state vector; raises :class:`DomainError` for an
    alpha that is no finite number and :class:`TruncationError` when the
    missing tail norm exceeds 1e-10."""
    alpha = phase_point("alpha", alpha)
    c = np.zeros(dim, dtype=complex)
    c[0] = math.exp(-abs(alpha) ** 2 / 2)
    for n in range(1, dim):
        c[n] = c[n - 1] * alpha / math.sqrt(n)
    tail = 1.0 - float(np.vdot(c, c).real)
    if not tail <= COHERENT_TAIL_TOL:
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
    "husimi" (requires arg alpha; <alpha|rho|alpha>/pi); an arg that is no
    finite number is a :class:`DomainError`.  Moments come back complex,
    variances and the Husimi value as floats; :func:`moments` reads all three.
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
    if which == "husimi":
        c = coherent_vector(arg, rho.dim)
        return float(np.real(c.conj() @ mat @ c) / np.pi)
    # char_fn; the coherent-tail criterion bounds how far exp(z a^dag)
    # pushes weight toward the cutoff
    coherent_vector(arg, rho.dim)
    op = _exp_raising(-np.conj(arg), rho.dim).T @ _exp_raising(arg, rho.dim)
    return complex(np.einsum("ij,ji->", mat, op))


def moments(rho: DensityMatrix) -> MomentSet:
    """<a>, <a^2> and <a^dag a> of rho by :func:`expect`, the one place the
    oracle reads them.  Real drives give real moments: an imaginary part
    above 1e-10 in <a> or <a^2> raises :class:`SolveError`."""
    mean_amp, mean_sq = expect(rho, "a"), expect(rho, "a2")
    if not (abs(mean_amp.imag) < 1e-10 and abs(mean_sq.imag) < 1e-10):
        raise SolveError("moments acquired an imaginary part for real drives")
    return MomentSet(mean_amp.real, mean_sq.real, expect(rho, "adag_a"))


def superposition_oracle(config: CavityConfig, trunc: int | None = None) -> MomentSet:
    """Component-wise sums of the coherent-only and squeezed-only steady-state
    :func:`moments`, the Fock-space realization of what Q-function
    superposition predicts for the combined light."""
    coh = moments(steady_state(CavityConfig(config.kappa, config.eps1, 0.0), trunc))
    sqz = moments(steady_state(CavityConfig(config.kappa, 0.0, config.eps2), trunc))
    return coh + sqz
