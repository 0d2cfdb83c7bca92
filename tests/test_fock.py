import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import splu

from qsuperpose import (
    CavityConfig,
    DensityMatrix,
    DomainError,
    ScaledParams,
    SolveError,
    StepError,
    TruncationError,
    default_truncation,
    expect,
    propagate,
    q_coherent,
    q_squeezed,
    char_fn_antinormal,
    quad_variance_single,
    steady_moments_combined,
    steady_state,
    superposed_moments,
    superposition_oracle,
)
from qsuperpose import fock
from qsuperpose.fock import Generator, frame_truncation, ladder
from qsuperpose.params import ARRAY_BYTES_CAP
from qsuperpose.verification import run_verification
from conftest import GRID_AB

REF_CONFIG = CavityConfig(1.0, 0.3, 0.2)
COMBINED_PHOTON_REF = 0.27891156462585037

HUSIMI_POINTS = [
    complex(re, im)
    for re in np.linspace(-1.0, 1.4, 5)
    for im in np.linspace(-1.2, 1.2, 5)
]


def recording_solve(solves, spoil=0.0):
    """A stand-in for the block solve ``fock._sweep`` that appends the number
    of dimensions of each right-hand side it solves to ``solves``: 2 for the
    steady state solved beside the uniqueness probe, 1 for a refinement
    step.  With ``spoil``, that steady state comes back off by noise of that
    size."""
    sweep = fock._sweep

    def solve(system, rhs):
        solves.append(rhs.ndim)
        x, forward = sweep(system, rhs)
        if rhs.ndim == 2:
            x[:, 0] += spoil * np.random.default_rng(1).standard_normal(len(x))
        return x, forward

    return solve


def sparse_steady_state(gen):
    """The steady state of gen, in its dtype, by scipy's sparse LU of its
    symmetric-subspace triples, the (0,0) row replaced by the trace row: a
    reference for the block solve and for lab systems far beyond it (18915
    unknowns at N = 194)."""
    dim = len(gen.jump)
    index = fock._fold_index(dim)
    rows, cols, vals = gen.symmetric()
    keep = rows > 0
    rows = np.concatenate([np.zeros(dim, dtype=int), rows[keep]])
    cols = np.concatenate([np.diag(index), cols[keep]])
    vals = np.concatenate([np.ones(dim), vals[keep]])
    size = index[-1, -1] + 1
    rhs = np.zeros(size, vals.dtype)
    rhs[0] = 1.0
    x = splu(sp.csc_matrix((vals, (rows, cols)), shape=(size, size))).solve(rhs)
    rho = x[index]
    assert np.abs(gen(rho)).max() <= 1e-9 * np.abs(rho).max()
    return rho / np.trace(rho)


def rk4_reference(config, t, dim):
    """The fixed-step RK4 loop that :func:`propagate`'s Krylov legs
    reproduce: from vacuum, floor(t/dt) steps of dt = 0.2/(kappa max(N, 40))
    and one step of the remainder above 1e-15 max(t, 1), each with the lab
    generator's action, then made Hermitian and of unit trace."""
    gen = fock.lab_generator(config, dim)
    dt = 0.2 / (config.kappa * max(dim, 40))
    rho = np.zeros((dim, dim))
    rho[0, 0] = 1.0

    def step(rho, h):
        k1 = gen(rho)
        k2 = gen(rho + 0.5 * h * k1)
        k3 = gen(rho + 0.5 * h * k2)
        k4 = gen(rho + h * k3)
        return rho + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)

    n_full, rem = divmod(t, dt)
    for _ in range(int(n_full)):
        rho = step(rho, dt)
    if rem > 1e-15 * max(t, 1.0):
        rho = step(rho, rem)
    rho = 0.5 * (rho + rho.T)
    return rho / np.trace(rho)


def diagonals(am):
    """The lower, main and upper diagonals of the tridiagonal matrix am."""
    return am.diagonal(-1), am.diagonal(), am.diagonal(1)


def hamiltonian(config, am):
    """The combined drive Hamiltonian i eps1 (a^dag - a) + i (eps2/2)
    (a^2 - a^dag^2), with the real matrix am in place of a."""
    return 1j * config.eps1 * (am.T - am) + 0.5j * config.eps2 * (am @ am - am.T @ am.T)


def dense_generator(config, am):
    """The generator of config with the real jump am, its drive and side
    operators formed from dense products."""
    square = am @ am
    drive = config.eps1 * (am.T - am) + 0.5 * config.eps2 * (square - square.T)
    return Generator(drive, am, config.kappa)


def kron_generator(h, am, kappa):
    """The dense vectorized Lindblad generator of h and the real jump am,
    row-major, vec(X rho Y) = kron(X, Y^T) vec(rho): -i[h, rho] + kappa
    (am rho am^T - {am^T am, rho}/2)."""
    ident = np.eye(len(am))
    nop = am.T @ am
    return -1j * (np.kron(h, ident) - np.kron(ident, h.T)) + kappa * (
        np.kron(am, am) - 0.5 * np.kron(nop, ident) - 0.5 * np.kron(ident, nop.T)
    )


def lab_kron(config, dim):
    return kron_generator(hamiltonian(config, ladder(dim)), ladder(dim), config.kappa)


def hamiltonian_only(drive, dim, dtype=float):
    """The kappa = 0 generator of ``drive``, -i[H, rho] = K rho - rho K, over
    the reals or the complex numbers: every function of H is stationary."""
    k = -1j * hamiltonian(drive, ladder(dim))
    k = k.real if dtype is float else k
    return Generator(k, np.zeros((dim, dim)), 0.0)


class TestOperators:
    def test_ladder_convention(self):
        am = ladder(4)
        want = np.zeros((4, 4))
        want[0, 1] = 1.0
        want[1, 2] = np.sqrt(2.0)
        want[2, 3] = np.sqrt(3.0)
        np.testing.assert_allclose(am, want)

    def test_commutator(self):
        am = ladder(30)
        comm = am @ am.T - am.T @ am
        # exact identity except in the truncation corner
        np.testing.assert_allclose(comm[:29, :29], np.eye(29)[:29, :29], atol=1e-12)

    def test_liouvillian_is_real(self):
        # real drives: H = iK with K real, so the generator is float64 and
        # its drive equals, entry for entry, -iH written out from H
        config, dim = CavityConfig(0.7, 0.3, 0.2), 12
        gen = fock.lab_generator(config, dim)
        assert gen.drive.dtype == gen.jump.dtype == np.float64
        assert gen.kappa == config.kappa
        want = -1j * hamiltonian(config, ladder(dim))
        assert np.abs(gen.drive - want).max() == 0.0
        assert np.array_equal(gen.jump, ladder(dim))

    @settings(max_examples=30, deadline=None)
    @given(
        kappa=st.floats(0.5, 2.0),
        a=st.floats(0.0, 2.2),
        b=st.floats(0.0, 0.89),
        dim=st.integers(8, 388),
        jump=st.sampled_from(("lab", "frame", "flipped_frame")),
    )
    @example(kappa=1.0, a=2.2, b=0.89, dim=388, jump="lab")
    @example(kappa=0.5, a=2.2, b=0.89, dim=388, jump="flipped_frame")
    def test_generator_matches_the_dense_construction(self, kappa, a, b, dim, jump):
        # the band algebra of A^2 and A^T A against dense products: within
        # 1e-15 of each operator's largest entry, and bit for bit on the lab
        # ladder, whose every entry is a single product
        config = CavityConfig(kappa, a * kappa / 2, b * kappa / 2)
        am = ladder(dim)
        if jump != "lab":
            delta, r = fock.frame(config)
            r = -r if jump == "flipped_frame" else r
            am = np.cosh(r) * am - np.sinh(r) * am.T + delta * np.eye(dim)
        want = dense_generator(config, am)
        got = fock.generator(config, *diagonals(am))
        for name in ("drive", "jump", "left", "right"):
            x, y = getattr(got, name), getattr(want, name)
            if jump == "lab":
                assert np.array_equal(x, y)
            assert np.abs(x - y).max() <= 1e-15 * np.abs(y).max()
        if jump == "lab":
            lab = fock.lab_generator(config, dim)
            assert all(
                np.array_equal(getattr(lab, name), getattr(want, name))
                for name in ("drive", "jump", "left", "right")
            )

    @settings(max_examples=40, deadline=None)
    @given(dim=st.integers(1, 100), seed=st.integers(0, 2**32 - 1))
    @example(dim=1, seed=0)
    @example(dim=100, seed=0)
    def test_random_bands_match_the_dense_construction(self, dim, seed):
        # any three diagonals, the main one not constant as in the lab and
        # the frame.  Entries of A^2 - A^T^2 may cancel to far below the
        # products they sum (at n = 2 one read 2.8e-3 with an error of
        # 4.3e-18), so the scale is the largest entry of the dense products
        # A^2 and A^T A, or of the operator where that is larger
        rng = np.random.default_rng(seed)
        kappa = rng.uniform(0.5, 2.0)
        config = CavityConfig(
            kappa, rng.uniform(0.0, 1.1) * kappa, rng.uniform(0.0, 0.445) * kappa
        )
        lower, main, upper = rng.standard_normal((3, dim))
        am = np.diag(lower[1:], -1) + np.diag(main) + np.diag(upper[1:], 1)
        products = max(np.abs(am @ am).max(), np.abs(am.T @ am).max())
        want = dense_generator(config, am)
        got = fock.generator(config, lower[1:], main, upper[1:])
        for name in ("drive", "jump", "left", "right"):
            x, y = getattr(got, name), getattr(want, name)
            assert np.abs(x - y).max() <= 1e-15 * max(products, np.abs(y).max())

    @pytest.mark.parametrize("dim", (1, 2, 3, 4, 5, 9))
    def test_pentadiagonal_fill_at_every_size(self, dim):
        # entries past the corner land beyond the matrix or are overwritten,
        # down to the sizes where the band covers the whole matrix
        band = np.random.default_rng(dim).standard_normal((2, 5, dim))
        want = np.zeros((2, dim, dim))
        for row, p in enumerate((2, 1, 0, -1, -2)):
            band[:, row, dim - abs(p) :] = 0.0
            for i in range(dim - abs(p)):
                want[:, i + max(-p, 0), i + max(p, 0)] = band[:, row, i]
        assert np.array_equal(fock._pentadiagonal(band), want)


class TestSymmetricSubspace:
    """Every drive is real, so the generator commutes with transposition and
    the steady state and the vacuum-started transient are real symmetric:
    the solver and the integrator work on the unknowns rho_mn, m <= n."""

    @settings(max_examples=25, deadline=None)
    @given(
        kappa=st.floats(0.5, 2.0),
        a=st.floats(0.0, 2.2),
        b=st.floats(0.0, 0.89),
        dim=st.integers(8, 16),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_reduced_solve_rests_on_transpose_symmetry(self, kappa, a, b, dim, seed):
        config = CavityConfig(kappa, a * kappa / 2, b * kappa / 2)
        gen = fock.lab_generator(config, dim)
        rho = np.random.default_rng(seed).standard_normal((dim, dim))
        image = gen(rho)
        assert np.abs(gen(rho.T) - image.T).max() <= 1e-12 * np.abs(image).max()
        # the reduced solve against the dense generator's null space
        null = sla.null_space(lab_kron(config, dim))
        assert null.shape[1] == 1
        ref = null[:, 0].reshape(dim, dim)
        ref = ref / np.trace(ref)
        assert np.abs(fock._solve_lu(gen) - ref).max() <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        kappa=st.floats(0.5, 2.0),
        a=st.floats(0.05, 2.2),
        b=st.floats(0.0, 0.89),
        dim=st.integers(8, 24),
        jump=st.sampled_from(("lab", "frame", "flipped_frame", "dense")),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_generator_matches_the_dense_kron_generator(
        self, kappa, a, b, dim, jump, seed
    ):
        # the lab ladder, the frame's jump A = cosh r b - sinh r b^dag +
        # delta with delta != 0 and either sign of r, and a dense real K and
        # A with no band at all
        config = CavityConfig(kappa, a * kappa / 2, b * kappa / 2)
        rng = np.random.default_rng(seed)
        if jump == "dense":
            drive, am = rng.standard_normal((2, dim, dim))
            gen, h = Generator(drive, am, kappa), 1j * drive
        else:
            am = ladder(dim)
            if jump != "lab":
                delta, r = fock.frame(config)
                r = -r if jump == "flipped_frame" else r
                am = np.cosh(r) * am - np.sinh(r) * am.T + delta * np.eye(dim)
            gen, h = fock.generator(config, *diagonals(am)), hamiltonian(config, am)
        lind = kron_generator(h, am, kappa)
        # the matrix action on a complex, non-symmetric rho
        rho = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        want = (lind @ rho.ravel()).reshape(dim, dim)
        assert np.abs(gen(rho) - want).max() <= 1e-13 * np.abs(want).max()
        # the assembly: rows (m,n), m <= n, of the dense generator with each
        # column (n,m) folded onto (m,n) by the 0/1 expansion E
        m, n = np.triu_indices(dim)
        expand = np.zeros((dim * dim, m.size))
        expand[m * dim + n, np.arange(m.size)] = 1.0
        expand[n * dim + m, np.arange(m.size)] = 1.0
        want = lind[m * dim + n] @ expand
        rows, cols, vals = gen.symmetric()
        got = sp.coo_matrix((vals, (rows, cols)), shape=want.shape).toarray()
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_propagate_matches_full_vector_rk4(self):
        config, dim, t = REF_CONFIG, 16, 1.3
        lind = lab_kron(config, dim)
        dt = 0.2 / (config.kappa * max(dim, 40))
        x = np.zeros(dim * dim, dtype=complex)
        x[0] = 1.0
        n_full, rem = divmod(t, dt)
        assert rem > 0
        for h in [dt] * int(n_full) + [rem]:
            k1 = lind @ x
            k2 = lind @ (x + 0.5 * h * k1)
            k3 = lind @ (x + 0.5 * h * k2)
            k4 = lind @ (x + h * k3)
            x = x + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        want = x.reshape(dim, dim)
        want = want / np.trace(want)
        got = propagate(config, t, trunc=dim).elements
        assert np.abs(got - want).max() <= 1e-12


class TestBlockSolve:
    """_solve_lu eliminates the pinned symmetric-subspace system block row
    by block row, building each from the generator's triples: its answer
    must be the sparse reference's, and a broken elimination is refused,
    never returned."""

    # a = 2.2, b = 0.89: the corner of the lab reach, whose doubling check
    # solves on 58 frame levels
    CORNER = CavityConfig(1.0, 1.1, 0.445)

    @settings(max_examples=30, deadline=None)
    @given(
        kappa=st.floats(0.5, 2.0),
        a=st.floats(0.0, 2.2),
        b=st.floats(0.0, 0.89),
        dim=st.integers(8, 64),
        basis=st.sampled_from(("frame", "lab")),
        dtype=st.sampled_from((float, complex)),
    )
    def test_matches_the_sparse_reference(self, kappa, a, b, dim, basis, dtype):
        config = CavityConfig(kappa, a * kappa / 2, b * kappa / 2)
        if basis == "frame":
            gen = fock.frame_generator(config, dim)
        else:
            gen = fock.lab_generator(config, dim)
        gen = Generator(gen.drive.astype(dtype), gen.jump.astype(dtype), kappa)
        rho = fock._solve_lu(gen)
        assert rho.dtype == np.dtype(dtype)
        assert np.abs(rho - sparse_steady_state(gen)).max() <= 1e-12

    @pytest.mark.parametrize("dim", (16, 29, 58))
    @pytest.mark.parametrize(
        "mutation", ("no_schur_update", "shifted_lower", "shifted_upper")
    )
    def test_broken_elimination_is_refused(self, mutation, dim, monkeypatch):
        # dropping L_j C_{j-1} from D_j, or moving one coupling block of
        # block row 1 a column over, solves another system: the probe
        # residual, from the generator's action, or the residual bound of the
        # generator refuses what comes out
        gen = fock.frame_generator(self.CORNER, dim)
        fock._solve_lu(gen)
        if mutation == "no_schur_update":
            monkeypatch.setattr(fock, "_schur", lambda diag, lower, upper: diag)
        else:
            band = fock._Pinned.band
            which = 0 if mutation == "shifted_lower" else 2

            def shifted(system, j):
                blocks = band(system, j)
                if j == 1:
                    blocks[which] = np.roll(blocks[which], 1, axis=1)
                return blocks

            monkeypatch.setattr(fock._Pinned, "band", shifted)
        with pytest.raises(SolveError):
            fock._solve_lu(gen)

    def test_memory_at_the_doubled_corner_frame(self):
        # the dense system of these 1711 unknowns and LAPACK's copy of it
        # took a 44.8 MB peak; the block solve keeps only its C_j
        gen = fock.frame_generator(self.CORNER, 58)
        tracemalloc.start()
        try:
            fock._solve_lu(gen)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8e6


def frame_reference(delta, r, dim, frame_dim, pad=100):
    """<n| D(delta) S(r) |k>, n < dim, k < frame_dim, from scipy's expm of
    the displacement and squeeze generators truncated pad levels further."""
    am = ladder(dim + frame_dim + pad)
    disp = sla.expm(delta * (am.T - am))
    sqz = sla.expm(0.5 * r * (am @ am - am.T @ am.T))
    return (disp @ sqz)[:dim, :frame_dim]


class TestFrame:
    """steady_state solves in the frame D(delta) S(r), where the state is
    thermal, and maps the frame state back to the lab basis; an interior
    residual of the lab generator certifies the mapped state."""

    # a = 1, b = 0.884: default N = 184, frame n_f = 28
    EDGE = CavityConfig(1.0, 0.5, 0.442)

    @pytest.mark.parametrize(
        "a,b",
        ((0.0, 0.0), (2.2, 0.0), (0.0, 0.89), (2.2, 0.89), (0.6, 0.4), (1.0, 0.85)),
    )
    def test_basis_matches_matrix_exponentials(self, a, b):
        config = CavityConfig(1.0, a / 2, b / 2)
        dim, frame_dim = default_truncation(config), frame_truncation(config)
        delta, r = fock.frame(config)
        # the flipped frame of the mutation guard too, and a lab basis
        # smaller than the frame's
        for sign, n in ((1, dim), (-1, dim), (1, 12)):
            got = fock.frame_basis(delta, sign * r, n, frame_dim)
            want = frame_reference(delta, sign * r, n, frame_dim)
            assert np.abs(got - want).max() <= 1e-12

    @pytest.mark.parametrize(
        "kappa,a,b", ((0.5, 0.0, 0.3), (1.0, 2.2, 0.89), (2.0, 1.0, 0.0))
    )
    def test_frame_state_is_thermal(self, kappa, a, b):
        config = CavityConfig(kappa, a * kappa / 2, b * kappa / 2)
        dim = frame_truncation(config)
        rho = fock._solve_lu(fock.frame_generator(config, dim))
        nbar = (1 / np.sqrt(1 - b * b) - 1) / 2
        levels = np.arange(dim)
        want = np.diag(nbar**levels / (1 + nbar) ** (levels + 1))
        assert np.abs(rho - want).max() <= 1e-11

    @pytest.mark.parametrize(
        "kappa,a,b",
        ((0.5, 0.0, 0.3), (1.0, 2.2, 0.89), (2.0, 1.0, 0.5), (1.3, 0.4, 0.884)),
    )
    def test_system_diagonal_never_vanishes(self, kappa, a, b):
        # 1 in the pinned row x_00 = 1, then -kappa/2 [cosh^2 r (m+n) +
        # sinh^2 r (m+n+2)], an index at the edge N-1 losing its sinh^2 r N,
        # and -kappa cosh r sinh r (m+1) where the fold lands, n = m+1
        config = CavityConfig(kappa, a * kappa / 2, b * kappa / 2)
        dim = frame_truncation(config)
        delta, r = fock.frame(config)
        m, n = np.triu_indices(dim)
        for sign in (1, -1):
            c, s = np.cosh(sign * r), np.sinh(sign * r)
            am = c * ladder(dim) - s * ladder(dim).T + delta * np.eye(dim)
            system = fock._Pinned.of(fock.generator(config, *diagonals(am)))
            blocks = range(len(system.bounds) - 1)
            got = np.concatenate([system.band(j)[1].diagonal() for j in blocks])
            edge = (m == dim - 1).astype(float) + (n == dim - 1)
            want = -kappa / 2 * (c * c * (m + n) + s * s * (m + n + 2 - dim * edge))
            want -= kappa * c * s * (m + 1) * (n == m + 1)
            want[0] = 1.0
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
            assert got[1:].max() < 0

    @pytest.mark.parametrize("mutation", ("flipped_r", "scaled_by_0.8", "half_frame"))
    def test_wrong_frame_is_refused(self, mutation, monkeypatch):
        # any frame gives the same state once n_f is adequate; these leave
        # 28 levels (14 for half_frame) too few for the frame state
        assert steady_state(self.EDGE).dim == 184
        true_frame, true_trunc = fock.frame, fock.frame_truncation

        def wrong_frame(config):
            delta, r = true_frame(config)
            return (delta, -r) if mutation == "flipped_r" else (0.8 * delta, 0.8 * r)

        if mutation == "half_frame":
            monkeypatch.setattr(fock, "frame_truncation", lambda c: true_trunc(c) // 2)
        else:
            monkeypatch.setattr(fock, "frame", wrong_frame)
        with pytest.raises(SolveError, match="interior residual") as err:
            steady_state(self.EDGE)
        n_f = 14 if mutation == "half_frame" else 28
        assert f"lab N = 184, frame n_f = {n_f}" in str(err.value)

    def test_low_lab_truncation_is_a_truncation_error(self, monkeypatch):
        # a = 2.2, b = 0: <n> = 4.84 leaves 3e-4 in the top levels of 16
        with pytest.raises(TruncationError):
            steady_state(CavityConfig(1.0, 1.1, 0.0), trunc=16)
        # the tail check runs before the interior certificate, which a frame
        # too small would fail as well
        true_trunc = fock.frame_truncation
        monkeypatch.setattr(fock, "frame_truncation", lambda c: true_trunc(c) // 2)
        with pytest.raises(TruncationError):
            steady_state(self.EDGE, trunc=40)

    @pytest.mark.parametrize(
        "kappa,a,b",
        ((1.0, 2.2, 0.89), (0.5, 0.3, 0.85), (2.0, 1.9, 0.4), (1.3, 0.0, 0.8)),
    )
    def test_factored_certificate_is_the_dense_action(self, kappa, a, b):
        # L(U C U^T) from the factors against the lab generator applied to
        # U C U^T, for the solved core (|L rho| at the certificate's scale)
        # and for a core that is no steady state
        config = CavityConfig(kappa, a * kappa / 2, b * kappa / 2)
        dim, frame_dim = default_truncation(config), frame_truncation(config)
        basis = fock.frame_basis(*fock.frame(config), dim, frame_dim)
        solved = fock._solve_lu(fock.frame_generator(config, frame_dim))
        other = np.random.default_rng(5).standard_normal((frame_dim, frame_dim))
        lab = fock.lab_generator(config, dim)
        for core in (solved, other + other.T):
            rho = basis @ core @ basis.T
            want = lab(rho)[: dim - 2, : dim - 2]
            got = lab.factored(basis, core)
            scale = np.abs(lab.left).max() * np.abs(rho).max()
            assert np.abs(got[: dim - 2, : dim - 2] - want).max() <= 1e-14 * scale

    @pytest.mark.parametrize("mutation", ("no_jump_block", "column_0", "column_1"))
    def test_a_broken_certificate_is_refused(self, mutation, monkeypatch):
        # the factored certificate must read every block and every column:
        # dropping its kappa A U block, or scaling one basis column by
        # 1 + 1e-6, leaves a state that misses the interior bound
        config = TestBlockSolve.CORNER
        steady_state(config)
        if mutation == "no_jump_block":
            factored = Generator.factored

            def without_jump(gen, basis, core):
                zero = np.zeros_like(gen.jump)
                bare = Generator(gen.drive, zero, gen.kappa, gen.left, gen.right)
                return factored(bare, basis, core)

            monkeypatch.setattr(Generator, "factored", without_jump)
        else:
            true_basis, column = fock.frame_basis, int(mutation[-1])

            def scaled(*args):
                basis = true_basis(*args)
                basis[:, column] *= 1 + 1e-6
                return basis

            monkeypatch.setattr(fock, "frame_basis", scaled)
        with pytest.raises(SolveError, match="interior residual"):
            steady_state(config)

    @settings(max_examples=15, deadline=None)
    @given(kappa=st.floats(0.5, 2.0), a=st.floats(0.0, 2.2), b=st.floats(0.0, 0.89))
    def test_moments_match_the_lab_solve(self, kappa, a, b):
        config = CavityConfig(kappa, a * kappa / 2, b * kappa / 2)
        dim = default_truncation(config)
        lab = DensityMatrix(dim, sparse_steady_state(fock.lab_generator(config, dim)))
        rho = steady_state(config)
        for which in ("a", "a2", "adag_a"):
            assert abs(expect(rho, which) - expect(lab, which)) <= 1e-8


class TestSteadyState:
    def test_undriven_cavity_is_vacuum(self):
        rho = steady_state(CavityConfig(1.0, 0.0, 0.0), trunc=12)
        want = np.zeros((12, 12))
        want[0, 0] = 1.0
        np.testing.assert_allclose(rho.elements, want, atol=1e-12)

    def test_coherent_self_check(self):
        # pump off: the steady state is the coherent state with amplitude a
        rho = steady_state(CavityConfig(1.0, 0.3, 0.0), trunc=30)
        assert expect(rho, "a") == pytest.approx(0.6, abs=1e-8)
        assert expect(rho, "adag_a") == pytest.approx(0.36, abs=1e-8)
        assert expect(rho, "a2") == pytest.approx(0.36, abs=1e-8)

    def test_combined_closed_form_cross_validation(self):
        rho = steady_state(REF_CONFIG, trunc=40)
        assert expect(rho, "adag_a") == pytest.approx(
            COMBINED_PHOTON_REF, rel=1e-6
        )
        closed = steady_moments_combined(ScaledParams(0.6, 0.4))
        assert expect(rho, "a").real == pytest.approx(closed.mean_amp, abs=1e-8)
        assert expect(rho, "a2").real == pytest.approx(closed.mean_sq, abs=1e-8)

    def test_truncation_doubling(self):
        lo = steady_state(REF_CONFIG, trunc=40)
        hi = steady_state(REF_CONFIG, trunc=80)
        for which in ("a", "a2", "adag_a"):
            assert abs(expect(lo, which) - expect(hi, which)) < 1e-8

    def test_truncation_doubling_at_default_cutoff(self):
        # b = 0.75: a cutoff of 40 leaves moments off by ~1e-7
        config = CavityConfig(1.0, 0.0, 0.375)
        dim = default_truncation(config)
        lo = steady_state(config, trunc=dim)
        hi = steady_state(config, trunc=2 * dim)
        for which in ("a", "a2", "adag_a"):
            assert abs(expect(lo, which) - expect(hi, which)) < 1e-8

    @pytest.mark.parametrize("a,b", GRID_AB)
    def test_oracle_equivalence_over_drive_grid(self, a, b):
        closed = steady_moments_combined(ScaledParams(a, b))
        rho = steady_state(CavityConfig(1.0, a / 2, b / 2))
        assert expect(rho, "a").real == pytest.approx(closed.mean_amp, abs=1e-6)
        assert expect(rho, "a2").real == pytest.approx(closed.mean_sq, abs=1e-6)
        assert expect(rho, "adag_a") == pytest.approx(closed.mean_photon, abs=1e-6)

    def test_solver_paths_agree(self, monkeypatch):
        # independent reference: the null space of the dense generator, which
        # the block LU solve of the same truncated generator must reproduce
        # (steady_state solves in the frame: its state is the untruncated
        # one, 8.6e-10 from this truncated generator's)
        config = CavityConfig(1.0, 0.3, 0.1)
        null = sla.null_space(lab_kron(config, 16))
        assert null.shape[1] == 1
        ref = null[:, 0].reshape(16, 16)
        ref = ref / np.trace(ref)
        gen = fock.lab_generator(config, 16)
        direct = fock._solve_lu(gen)

        # a first LU solution that misses the residual bound goes through
        # one step of iterative refinement, a fresh sweep on its residual
        solves = []
        monkeypatch.setattr(fock, "_sweep", recording_solve(solves, spoil=1e-6))
        via_refinement = fock._solve_lu(gen)
        assert solves == [2, 1]
        for rho in (direct, via_refinement):
            np.testing.assert_allclose(rho, ref, rtol=0, atol=1e-12)

    def test_residual_miss_raises(self, monkeypatch):
        # a complex drive phase breaks L(rho^T) = (L rho)^T, so no symmetric
        # state solves the full generator: the reduced solution misses the
        # residual bound, refinement on the reduced system cannot mend it,
        # and the solve is refused instead of returning a wrong state
        dim = 16
        am = ladder(dim)
        k = 0.3 * (np.exp(0.5j) * am.T - np.exp(-0.5j) * am)
        gen = Generator(k, am, 1.0)
        # steady_state factorizes the frame generator, here on 16 levels
        assert fock.frame_truncation(REF_CONFIG) == dim
        monkeypatch.setattr(fock, "frame_generator", lambda config, n: gen)
        with pytest.raises(SolveError, match="residual bound"):
            steady_state(REF_CONFIG, trunc=dim)

    def test_tiny_truncation_rejected(self):
        with pytest.raises(DomainError):
            steady_state(REF_CONFIG, trunc=4)

    @pytest.mark.parametrize(
        "generator",
        (
            "hamiltonian_only",
            "hamiltonian_only_real",
            "hamiltonian_only_real_rcond_above_floor",
            "zero",
        ),
    )
    def test_non_unique_steady_state_raises(self, generator, monkeypatch):
        # kappa = 0 leaves every function of H stationary; the zero matrix
        # makes every state stationary.  The solve must refuse each one
        # rather than return one of many steady states.  At (0.1, 0.4) the
        # generator is singular (smallest singular value 4e-18); in the
        # block solve the reduced system's reciprocal condition estimate
        # reads 3.6e-16, far below RCOND_FLOOR, and its probe residual 2.5e3,
        # so both refuse it.  The zero matrix leaves a block exactly
        # singular to LAPACK.  test_non_unique_at_every_frame_size widens
        # these cases.
        dim = 16
        if generator == "zero":
            zero = np.zeros((dim, dim), dtype=complex)
            gen = Generator(zero, zero, 0.0)
        elif generator == "hamiltonian_only":
            gen = hamiltonian_only(REF_CONFIG, dim, complex)
        else:  # the same generator over the reals
            drive = (
                CavityConfig(1.0, 0.1, 0.4)
                if generator.endswith("rcond_above_floor")
                else REF_CONFIG
            )
            gen = hamiltonian_only(drive, dim)
        # steady_state factorizes the frame generator, here on 16 levels
        assert fock.frame_truncation(REF_CONFIG) == dim
        monkeypatch.setattr(fock, "frame_generator", lambda config, n: gen)
        with pytest.raises(SolveError, match="not unique"):
            steady_state(REF_CONFIG, trunc=dim)

    @settings(max_examples=30, deadline=None)
    @given(
        kind=st.sampled_from(("zero", "complex", "real")),
        eps1=st.floats(0.0, 1.5),
        eps2=st.floats(0.0, 1.0),
        dim=st.integers(8, 58),
    )
    # drives of 1e-300 overflow the probe's solution (inf and nan in A y)
    @example(kind="real", eps1=1e-300, eps2=1e-300, dim=28)
    @example(kind="complex", eps1=1.5, eps2=1e-300, dim=50)
    def test_non_unique_at_every_frame_size(self, kind, eps1, eps2, dim):
        # every frame size the solver meets, n_f and the doubling check's
        # 2 n_f: on these kappa = 0 generators the block solve's rcond
        # estimate reads 1.4e-20..1.6e-13 and the probe residual 1.9..7.7e11
        # (2297 draws over these ranges), both are NaN at the overflowing
        # drives of the examples, or the zero matrix and the zero drive are
        # exactly singular; no case relies on the probe residual alone
        if kind == "zero":
            zero = np.zeros((dim, dim), dtype=complex)
            gen = Generator(zero, zero, 0.0)
        else:
            drive = CavityConfig(2.5, eps1, eps2)  # kappa plays no part
            gen = hamiltonian_only(drive, dim, complex if kind == "complex" else float)
        with pytest.raises(SolveError, match="not unique"):
            fock._solve_lu(gen)

    def test_every_call_solves(self, monkeypatch):
        # the oracle keeps no state: two calls give equal, separate states,
        # and a call after the generator changes solves the new one
        first = steady_state(REF_CONFIG, trunc=16)
        second = steady_state(REF_CONFIG, trunc=16)
        assert np.array_equal(first.elements, second.elements)
        assert first.elements is not second.elements
        assert fock.frame_truncation(REF_CONFIG) == 16
        gen = hamiltonian_only(REF_CONFIG, 16)
        monkeypatch.setattr(fock, "frame_generator", lambda config, n: gen)
        with pytest.raises(SolveError, match="not unique"):
            steady_state(REF_CONFIG, trunc=16)

    @pytest.mark.parametrize(
        "a,b", ((0.0, 0.89), (2.2, 0.0), (2.2, 0.89), (1.0, 0.85))
    )
    def test_lu_at_the_corners_of_reach(self, a, b, monkeypatch):
        # default truncations up to N = 194 (frame sizes up to 29), where the
        # block elimination pivots only within each diagonal block: the LU
        # solution itself must meet the residual bound, with no refinement
        # step behind it
        solves = []
        monkeypatch.setattr(fock, "_sweep", recording_solve(solves))
        rho = steady_state(CavityConfig(1.0, a / 2, b / 2))
        assert solves == [2]
        closed = steady_moments_combined(ScaledParams(a, b))
        assert abs(expect(rho, "a") - closed.mean_amp) < 1e-8
        assert abs(expect(rho, "a2") - closed.mean_sq) < 1e-8
        assert abs(expect(rho, "adag_a") - closed.mean_photon) < 1e-8

    def test_elements_are_immutable(self):
        rho = steady_state(REF_CONFIG, trunc=40)
        with pytest.raises(ValueError):
            rho.elements[0, 0] = 0.5


class TestTruncationRule:
    """Every entry point reads trunc by one rule: None is the default
    truncation, anything else must be an integer from 8 to TRUNC_CAP."""

    CALLS = {
        "steady_state": lambda trunc: steady_state(REF_CONFIG, trunc),
        "propagate": lambda trunc: propagate(REF_CONFIG, 1.0, trunc),
        "superposition_oracle": lambda trunc: superposition_oracle(REF_CONFIG, trunc),
        "run_verification": lambda trunc: run_verification(REF_CONFIG, trunc),
    }

    @pytest.mark.parametrize(
        "trunc", (np.nan, np.inf, 40.7, 7, fock.TRUNC_CAP + 1, 100000)
    )
    @pytest.mark.parametrize("entry", sorted(CALLS))
    def test_bad_truncation_is_a_domain_error(self, entry, trunc):
        with pytest.raises(DomainError, match="truncation"):
            self.CALLS[entry](trunc)

    def test_doubled_truncations_reach_twice_the_cap(self):
        # the doubling check solves at 2N and 2 n_f: steady_state_in_frame
        # takes them up to 2 TRUNC_CAP (test_verification runs it there) and
        # refuses more before solving
        cap = 2 * fock.TRUNC_CAP
        with pytest.raises(DomainError, match="truncation must be from 8 to 400"):
            fock.steady_state_in_frame(REF_CONFIG, cap + 1, 32)
        with pytest.raises(DomainError, match="frame truncation"):
            fock.steady_state_in_frame(REF_CONFIG, 80, cap + 1)

    def test_dense_frame_system_is_bounded_before_it_is_built(self, monkeypatch):
        # the block solve keeps its eliminated blocks, about 16 n^3 bytes at
        # most, so ARRAY_BYTES_CAP bounds n_f by 256, above the 58 of the
        # doubling check at the corner of the lab reach
        cap = fock.frame_cap()
        assert cap == 256
        assert 16 * cap**3 <= ARRAY_BYTES_CAP < 16 * (cap + 1) ** 3
        assert 2 * frame_truncation(CavityConfig(1.0, 1.1, 0.445)) == 58

        def refuse(config, dim):
            pytest.fail("the frame system was built")

        monkeypatch.setattr(fock, "frame_generator", refuse)
        # b = 0.9986 asks for n_f = 261: refused, as the oracle's reach
        edge = CavityConfig(1.0, 0.1, 0.4993)
        with pytest.raises(TruncationError, match="261 exceeds the cap 256"):
            frame_truncation(edge)
        with pytest.raises(TruncationError, match="exceeds the cap 256"):
            steady_state(edge, trunc=fock.TRUNC_CAP)
        # an explicit frame size above the cap is a bad argument
        with pytest.raises(DomainError, match="frame truncation must be from 8 to 256"):
            fock.steady_state_in_frame(REF_CONFIG, 80, cap + 1)

    def test_frame_solve_reaches_beyond_90_levels(self):
        # 92 frame levels at b = 0.9548, beyond the 90 that a dense system of
        # the frame fitted in ARRAY_BYTES_CAP, on twice the lab cap
        config = CavityConfig(1.0, 0.1, 0.4774)
        rho = fock.steady_state_in_frame(config, 2 * fock.TRUNC_CAP, 92)
        mom = fock.moments(rho)
        closed = steady_moments_combined(ScaledParams(0.2, 0.9548))
        assert abs(mom.mean_amp - closed.mean_amp) <= 1e-12
        assert abs(mom.mean_sq - closed.mean_sq) <= 1e-12
        assert abs(mom.mean_photon - closed.mean_photon) <= 1e-12

    def test_numpy_integer_accepted(self):
        rho = steady_state(REF_CONFIG, np.int64(40))
        assert type(rho.dim) is int and rho.dim == 40
        assert np.array_equal(rho.elements, steady_state(REF_CONFIG, 40).elements)
        assert propagate(REF_CONFIG, 0.0, np.int64(12)).dim == 12


class TestDefaultTruncation:
    def test_moderate_drive(self):
        assert default_truncation(REF_CONFIG) == 40

    def test_scales_near_threshold(self):
        # b = 0.85: ceil(40 / (1 - 0.7225)) = 145
        assert default_truncation(CavityConfig(1.0, 0.0, 0.425)) == 145

    def test_scales_from_b_07(self):
        # b = 0.75: ceil(40 / (1 - 0.5625)) = 92
        assert default_truncation(CavityConfig(1.0, 0.0, 0.375)) == 92

    def test_cap_exceeded(self):
        with pytest.raises(TruncationError):
            default_truncation(CavityConfig(1.0, 0.0, 0.45))  # b = 0.9 -> 211


class TestDensityMatrixValidation:
    def test_non_hermitian_rejected(self):
        bad = np.zeros((8, 8), dtype=complex)
        bad[0, 0] = 1.0
        bad[0, 1] = 0.1
        with pytest.raises(SolveError):
            DensityMatrix(8, bad)

    def test_bad_trace_rejected(self):
        bad = np.zeros((8, 8), dtype=complex)
        bad[0, 0] = 0.9
        with pytest.raises(SolveError):
            DensityMatrix(8, bad)

    def test_negative_eigenvalue_rejected(self):
        bad = np.zeros((8, 8), dtype=complex)
        bad[0, 0] = 1.5
        bad[1, 1] = -0.5
        with pytest.raises(SolveError):
            DensityMatrix(8, bad)

    @settings(max_examples=120, deadline=None)
    @given(
        dim=st.integers(1, 60),
        kind=st.sampled_from((float, complex)),
        eigmin=st.sampled_from((0.0, 1e-12, -1e-12, -0.99e-10, -1.01e-10, -1e-8)),
        seed=st.integers(0, 2**32 - 1),
    )
    # a Frobenius norm of about 1400: the Cholesky margin 2 (n+1) n eps
    # ||rho||_F reaches 2.3e-9, so nothing is factorized
    @example(dim=60, kind=float, eigmin=-999.0, seed=0)
    def test_positivity_is_the_eigenvalue_rule(self, dim, kind, eigmin, seed):
        # a unit-trace Hermitian matrix with its smallest eigenvalue set:
        # refused exactly when eigvalsh reads below -1e-10, with eigvalsh's
        # value in the message; an accepted one may still fail the tail check
        rng = np.random.default_rng(seed)
        rest = rng.uniform(0.1, 1.0, dim - 1)
        values = np.concatenate([[eigmin], rest * (1 - eigmin) / rest.sum()])
        if dim == 1:
            values = np.ones(1)
        shape = (dim, dim)
        z = rng.standard_normal(shape)
        if kind is complex:
            z = z + 1j * rng.standard_normal(shape)
        q = np.linalg.qr(z)[0]
        arr = (q * values) @ q.conj().T
        arr = 0.5 * (arr + arr.conj().T)
        margin = 2 * (dim + 1) * dim * np.finfo(float).eps * np.linalg.norm(arr)
        assert (margin >= 1e-10) == (eigmin == -999.0)
        low = np.linalg.eigvalsh(arr)[0]
        if low < -1e-10:
            with pytest.raises(SolveError) as err:
                DensityMatrix(dim, arr)
            assert str(err.value) == f"negative eigenvalue {low:.3e}"
        else:
            try:
                DensityMatrix(dim, arr)
            except TruncationError:
                pass

    def test_oracle_states_are_proved_positive_by_cholesky(self, monkeypatch):
        # every state the oracle returns is certified by the factorization
        # alone: eigvalsh never runs
        def refuse(arr):
            pytest.fail("eigvalsh ran")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        steady_state(REF_CONFIG)
        steady_state(TestBlockSolve.CORNER)
        fock.steady_state_in_frame(TestBlockSolve.CORNER, 388, 58)
        propagate(REF_CONFIG, 1.0)
        propagate(CavityConfig(1.0, 0.4, 0.15), 0.05, trunc=8)

    def test_tail_mass_rejected(self):
        bad = np.zeros((10, 10), dtype=complex)
        bad[0, 0] = 0.5
        bad[9, 9] = 0.5
        with pytest.raises(TruncationError):
            DensityMatrix(10, bad)

    def test_wrong_shape_rejected(self):
        with pytest.raises(DomainError):
            DensityMatrix(8, np.eye(4, dtype=complex))

    @pytest.mark.parametrize("dim", (12.5, np.nan, np.inf))
    def test_non_integer_dim_rejected(self, dim):
        with pytest.raises(DomainError, match="dim must be a finite integer"):
            DensityMatrix(dim, np.eye(12, dtype=complex) / 12)

    def test_integral_float_dim_is_read_as_an_int(self):
        c = fock.coherent_vector(0.3 - 0.2j, 12)
        rho = DensityMatrix(dim=12.0, elements=np.outer(c, c.conj()))
        assert type(rho.dim) is int and rho.dim == 12
        want = DensityMatrix(dim=12, elements=rho.elements)
        for which in ("husimi", "char_fn"):
            assert expect(rho, which, 0.4 + 0.1j) == expect(want, which, 0.4 + 0.1j)

    @pytest.mark.parametrize("bad", (np.nan, np.inf))
    @pytest.mark.parametrize("where", ((0, 0), (1, 1), (0, 1)))
    @pytest.mark.parametrize("dim", (2, 20))
    @pytest.mark.parametrize("dtype", (float, complex))
    def test_non_finite_elements_rejected(self, bad, where, dim, dtype):
        # refused before any check: NaN passes every comparison, and inf
        # makes the checks' own arithmetic warn or fail
        arr = np.zeros((dim, dim), dtype)
        arr[0, 0] = 1.0
        arr[where] = arr[where[::-1]] = bad
        with pytest.raises(DomainError, match="elements must be finite numbers"):
            DensityMatrix(dim, arr)

    def test_non_numeric_elements_rejected(self):
        with pytest.raises(DomainError, match="elements must be numbers"):
            DensityMatrix(2, [["a", "b"], ["c", "d"]])
        with pytest.raises(DomainError, match="elements must be numbers"):
            DensityMatrix(2, [[None, 0.0], [0.0, 1.0]])

    def test_oracle_states_are_real(self):
        # solved, mapped and certified in float64, and stored so
        states = (
            steady_state(REF_CONFIG),
            fock.steady_state_in_frame(REF_CONFIG, 80, 32),
            propagate(REF_CONFIG, 1.0, trunc=12),
        )
        for rho in states:
            assert rho.elements.dtype == np.float64

    @pytest.mark.parametrize(
        "dtype, stored",
        (
            (np.complex128, np.complex128),
            (np.complex64, np.complex128),
            (np.float32, np.float64),
            (np.int64, np.float64),
            (bool, np.float64),
        ),
    )
    def test_dtype_is_kept_at_least_float64(self, dtype, stored):
        vacuum = np.zeros((8, 8), dtype=dtype)
        vacuum[0, 0] = 1
        rho = DensityMatrix(8, vacuum)
        assert rho.elements.dtype == stored
        assert np.array_equal(rho.elements, vacuum)


class TestMoments:
    @pytest.mark.parametrize("trunc", (None, 64))
    def test_equal_the_three_expectations(self, trunc):
        rho = steady_state(REF_CONFIG, trunc)
        mom = fock.moments(rho)
        assert mom.mean_amp == expect(rho, "a")
        assert mom.mean_sq == expect(rho, "a2")
        assert mom.mean_photon == expect(rho, "adag_a")

    def test_complex_moments_refused(self):
        # a coherent state of imaginary amplitude is no real-drive state
        c = fock.coherent_vector(0.3j, 12)
        rho = DensityMatrix(12, np.outer(c, c.conj()))
        assert rho.elements.dtype == np.complex128
        assert expect(rho, "a") == pytest.approx(0.3j, abs=1e-12)
        with pytest.raises(SolveError, match="imaginary part"):
            fock.moments(rho)

    def test_oracle_adds_two_moment_sets(self):
        coh = fock.moments(steady_state(CavityConfig(1.0, 0.3, 0.0)))
        sqz = fock.moments(steady_state(CavityConfig(1.0, 0.0, 0.2)))
        mom = superposition_oracle(REF_CONFIG)
        assert mom.mean_amp == coh.mean_amp + sqz.mean_amp
        assert mom.mean_sq == coh.mean_sq + sqz.mean_sq
        assert mom.mean_photon == coh.mean_photon + sqz.mean_photon


class TestExpectations:
    def test_vacuum_values(self):
        rho = steady_state(CavityConfig(1.0, 0.0, 0.0), trunc=12)
        assert expect(rho, "adag_a") == pytest.approx(0.0, abs=1e-12)
        assert expect(rho, "quad_var_plus") == pytest.approx(1.0, abs=1e-12)
        assert expect(rho, "quad_var_minus") == pytest.approx(1.0, abs=1e-12)

    def test_squeezed_variances(self):
        rho = steady_state(CavityConfig(1.0, 0.0, 0.2), trunc=40)
        vp, vm = quad_variance_single(ScaledParams(0.0, 0.4))
        assert expect(rho, "quad_var_plus") == pytest.approx(vp, abs=1e-6)
        assert expect(rho, "quad_var_minus") == pytest.approx(vm, abs=1e-6)

    def test_husimi_matches_coherent_q(self):
        rho = steady_state(CavityConfig(1.0, 0.3, 0.0), trunc=40)
        p = ScaledParams(0.6, 0.0)
        for alpha in HUSIMI_POINTS:
            assert expect(rho, "husimi", alpha) == pytest.approx(
                q_coherent(alpha, p), abs=1e-6
            )

    def test_husimi_matches_squeezed_q(self):
        rho = steady_state(CavityConfig(1.0, 0.0, 0.2), trunc=40)
        p = ScaledParams(0.0, 0.4)
        for alpha in HUSIMI_POINTS:
            assert expect(rho, "husimi", alpha) == pytest.approx(
                q_squeezed(alpha, p), abs=1e-6
            )

    @pytest.mark.parametrize("z", (0.5 + 0j, 0.5j, 0.3 - 0.4j))
    def test_char_fn_matches_closed_forms(self, z):
        coh = steady_state(CavityConfig(1.0, 0.3, 0.0), trunc=40)
        sqz = steady_state(CavityConfig(1.0, 0.0, 0.2), trunc=40)
        want_coh = char_fn_antinormal(z, ScaledParams(0.6, 0.0), "coherent")
        want_sqz = char_fn_antinormal(z, ScaledParams(0.0, 0.4), "squeezed")
        assert expect(coh, "char_fn", z) == pytest.approx(want_coh, abs=1e-6)
        assert expect(sqz, "char_fn", z) == pytest.approx(want_sqz, abs=1e-6)

    @pytest.mark.parametrize(
        "dim, z",
        ((12, 0.5 + 0j), (12, 0.3 - 0.4j), (40, -0.8 + 1.1j), (60, 1.5j), (100, 2.0 - 1.0j)),
    )
    def test_char_fn_matches_matrix_exponentials(self, dim, z):
        # scipy's Pade expm of the truncated ladder operators against the
        # finite series, operator by operator and in the expectation value
        am = ladder(dim)
        raise_op, lower_op = sla.expm(z * am.T), sla.expm(-np.conj(z) * am)
        scale = np.abs(raise_op).max()
        assert np.abs(fock._exp_raising(z, dim) - raise_op).max() <= 1e-11 * scale
        scale = np.abs(lower_op).max()
        got = fock._exp_raising(-np.conj(z), dim).T
        assert np.abs(got - lower_op).max() <= 1e-11 * scale
        c = fock.coherent_vector(0.2 + 0.1j, dim)
        rho = DensityMatrix(dim=dim, elements=np.outer(c, c.conj()))
        op = lower_op @ raise_op
        want = np.einsum("ij,ji->", rho.elements, op)
        assert abs(expect(rho, "char_fn", z) - want) <= 1e-11 * np.abs(op).max()

    def test_husimi_amplitude_beyond_truncation(self):
        rho = steady_state(CavityConfig(1.0, 0.0, 0.0), trunc=12)
        with pytest.raises(TruncationError):
            expect(rho, "husimi", 8.0 + 0j)

    @pytest.mark.parametrize("which", ("husimi", "char_fn"))
    @pytest.mark.parametrize(
        "arg",
        (
            complex(np.nan, 0.0),
            complex(0.0, np.nan),
            complex(np.inf, 0.0),
            complex(0.0, -np.inf),
            "x",
            "0.5",
            [0.5],
        ),
    )
    def test_non_finite_argument_rejected(self, which, arg):
        rho = steady_state(CavityConfig(1.0, 0.0, 0.0), trunc=12)
        with pytest.raises(DomainError, match="finite"):
            expect(rho, which, arg)
        with pytest.raises(DomainError, match="finite"):
            fock.coherent_vector(arg, 12)

    def test_argument_required(self):
        rho = steady_state(CavityConfig(1.0, 0.0, 0.0), trunc=12)
        with pytest.raises(DomainError):
            expect(rho, "char_fn")
        with pytest.raises(DomainError):
            expect(rho, "hussimi")


class TestPropagation:
    @pytest.mark.parametrize("kt", (0.5, 1.0, 2.0, 4.0))
    def test_transient_mean_amplitude(self, kt):
        # pump off: <a>(t) = a (1 - e^{-kappa t / 2})
        rho = propagate(CavityConfig(1.0, 0.3, 0.0), kt, trunc=24)
        want = 0.6 * (1 - np.exp(-kt / 2))
        assert expect(rho, "a").real == pytest.approx(want, abs=1e-6)

    def test_zero_time_is_vacuum(self):
        rho = propagate(REF_CONFIG, 0.0, trunc=12)
        assert rho.elements[0, 0] == pytest.approx(1.0, abs=1e-14)

    def test_long_time_matches_steady_state(self):
        rho = propagate(REF_CONFIG, 40.0, trunc=24)
        direct = steady_state(REF_CONFIG, trunc=24)
        for which in ("a", "a2", "adag_a"):
            assert abs(expect(rho, which) - expect(direct, which)) < 1e-8

    @pytest.mark.parametrize("kt", (1e3, 1e4, 1e6))
    def test_far_past_the_relaxation_time_is_the_steady_state(self, kt):
        # there T(dt H)^steps annihilates a small Krylov space that lacks the
        # steady state, and Saad's error estimate with it; that state has
        # lost its trace, so a leg must also keep its input's trace
        rho = propagate(REF_CONFIG, kt)
        direct = steady_state(REF_CONFIG)
        for which in ("a", "a2", "adag_a"):
            assert abs(expect(rho, which) - expect(direct, which)) < 1e-10


class TestKrylovPropagation:
    """propagate applies all its RK4 steps as one polynomial on the Krylov
    space of the vacuum; the step-by-step loop of rk4_reference is the
    reference."""

    @settings(max_examples=40, deadline=None)
    @given(
        kappa=st.floats(0.5, 2.0),
        a=st.floats(0.0, 1.5),
        b=st.floats(0.0, 0.7),
        dim=st.integers(8, 40),
        when=st.sampled_from(("zero", "within_one_step", "whole_steps", "any")),
        frac=st.floats(0.0, 1.0),
    )
    def test_matches_the_step_by_step_loop(self, kappa, a, b, dim, when, frac):
        config = CavityConfig(kappa, a * kappa / 2, b * kappa / 2)
        dt = 0.2 / (kappa * max(dim, 40))
        t = {
            "zero": 0.0,
            "within_one_step": frac * dt,
            "whole_steps": int(frac * 8 / (kappa * dt)) * dt,
            "any": frac * 8 / kappa,
        }[when]
        want = rk4_reference(config, t, dim)
        try:
            got = propagate(config, t, trunc=dim).elements
        except SolveError:
            # refused only where the loop's state is not positive either
            assert np.linalg.eigvalsh(want)[0] < -1e-10
            return
        except TruncationError:
            with pytest.raises(TruncationError):
                DensityMatrix(dim, want)
            return
        assert np.abs(got - want).max() <= 1e-12

    @pytest.mark.parametrize(
        "eps1, eps2, dim, t", ((0.4, 0.0, 12, 0.2), (0.4, 0.15, 8, 0.05))
    )
    def test_small_truncations_take_the_default_step(self, eps1, eps2, dim, t):
        # a step of 0.2/(kappa N) pushed these states' smallest eigenvalues
        # to -2.7e-10 and -2.2e-10, below the positivity floor; steps no
        # longer than at N = 40 leave -2.2e-12 and -8.5e-14
        config = CavityConfig(1.0, eps1, eps2)
        want = rk4_reference(config, t, dim)
        assert np.linalg.eigvalsh(want)[0] > -1e-11
        got = propagate(config, t, trunc=dim).elements
        assert np.abs(got - want).max() <= 1e-12

    def test_one_krylov_space_at_the_default_truncation(self, monkeypatch):
        # kappa t = 4 at N = 40 is 800 RK4 steps, 3200 generator actions
        # one step at a time, and one leg of at most KRYLOV_CAP vectors
        calls = []
        action = Generator.__call__
        monkeypatch.setattr(
            Generator, "__call__", lambda gen, rho: calls.append(1) or action(gen, rho)
        )
        rho = propagate(REF_CONFIG, 4.0)
        assert rho.dim == 40 and len(calls) <= fock.KRYLOV_CAP
        monkeypatch.undo()
        assert np.abs(rho.elements - rk4_reference(REF_CONFIG, 4.0, 40)).max() <= 1e-12

    def test_legs_split_at_the_cap_give_the_same_state(self, monkeypatch):
        legs = []
        leg = fock._krylov_leg

        def counted(gen, rho, dt, steps, rem):
            legs.append(steps)
            return leg(gen, rho, dt, steps, rem)

        monkeypatch.setattr(fock, "KRYLOV_CAP", 12)
        monkeypatch.setattr(fock, "_krylov_leg", counted)
        got = propagate(REF_CONFIG, 0.7, trunc=16).elements
        assert len(legs) > 2
        assert np.abs(got - rk4_reference(REF_CONFIG, 0.7, 16)).max() <= 1e-12

    @pytest.mark.parametrize("t", (0.7, 0.01))
    def test_a_cap_that_misses_one_step_is_a_step_error(self, t, monkeypatch):
        # three vectors cannot hold one step, a polynomial of degree 4
        monkeypatch.setattr(fock, "KRYLOV_CAP", 3)
        with pytest.raises(StepError, match="one RK4 step"):
            propagate(REF_CONFIG, t, trunc=16)


class TestSuperpositionOracle:
    def test_vacuum(self):
        mom = superposition_oracle(CavityConfig(1.0, 0.0, 0.0), trunc=12)
        assert mom.mean_amp == pytest.approx(0.0, abs=1e-12)
        assert mom.mean_photon == pytest.approx(0.0, abs=1e-12)

    def test_matches_closed_form(self):
        mom = superposition_oracle(REF_CONFIG)
        want = superposed_moments(ScaledParams(0.6, 0.4))
        assert mom.mean_amp == pytest.approx(want.mean_amp, abs=1e-6)
        assert mom.mean_sq == pytest.approx(want.mean_sq, abs=1e-6)
        assert mom.mean_photon == pytest.approx(want.mean_photon, abs=1e-6)

    def test_pump_off_reduces_to_coherent_beam(self):
        mom = superposition_oracle(CavityConfig(1.0, 0.3, 0.0), trunc=30)
        assert mom.mean_amp == pytest.approx(0.6, abs=1e-8)
        assert mom.mean_photon == pytest.approx(0.36, abs=1e-8)
