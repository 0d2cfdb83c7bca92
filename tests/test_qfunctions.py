import csv
import io
import itertools
import json
import math
import tracemalloc
import warnings
from array import array

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsuperpose import (
    DomainError,
    NormalizationWarning,
    QuadratureError,
    QuadratureSpec,
    ScaledParams,
    char_fn_antinormal,
    q_coherent,
    q_from_char_fn,
    q_grid,
    q_squeezed,
    q_superposed,
    superpose_q_numeric,
)
from qsuperpose import qfunctions, qgrid, verification
from qsuperpose.params import ARRAY_BYTES_CAP, gaussian_form, squeeze_coeffs
from qsuperpose.qfunctions import _superposition_sum, trapezoid_weights

INV_PI = 0.3183098861837907
Q_COH_ORIGIN = 0.22207727194479512  # exp(-0.36)/pi at a=0.6
Q_SQ_ORIGIN = 0.29775163423068823  # sqrt(0.875)/pi at b=0.4
Q_SUP_ORIGIN = 0.1956367643660097  # A(0.6,0.4)/pi
PHI_SQ_HALF = 0.7165313105737893  # squeezed char fn at z=0.5, b=0.4

SAMPLE_POINTS = [
    complex(re, im) for re in np.linspace(-1.2, 1.2, 5) for im in np.linspace(-1.2, 1.2, 5)
]


def coherent_x_factor(x, params):
    """fx of the coherent Q on the real axis x (:meth:`GaussianQ.axis_factors`)."""
    return gaussian_form(params, "coherent").axis_factors(x)[0]


class TestClosedForms:
    def test_vacuum_peak(self):
        assert q_coherent(0j, ScaledParams(0.0, 0.0)) == pytest.approx(INV_PI, abs=1e-15)

    def test_coherent_peak_at_displacement(self):
        assert q_coherent(0.6 + 0j, ScaledParams(0.6, 0.0)) == pytest.approx(
            INV_PI, abs=1e-15
        )

    def test_coherent_origin_value(self):
        assert q_coherent(0j, ScaledParams(0.6, 0.0)) == pytest.approx(
            Q_COH_ORIGIN, abs=1e-15
        )

    def test_squeezed_reduces_to_vacuum(self):
        assert q_squeezed(0j, ScaledParams(0.0, 0.0)) == pytest.approx(INV_PI, abs=1e-15)

    def test_squeezed_origin_value(self):
        assert q_squeezed(0j, ScaledParams(0.0, 0.4)) == pytest.approx(
            Q_SQ_ORIGIN, abs=1e-13
        )

    def test_squeeze_orientation(self):
        # v < 0 narrows the distribution along the real axis
        p = ScaledParams(0.0, 0.4)
        for r in (0.3, 0.7, 1.5):
            assert q_squeezed(r + 0j, p) < q_squeezed(1j * r, p)

    def test_superposed_origin_value(self, params_ref):
        assert q_superposed(0j, params_ref) == pytest.approx(Q_SUP_ORIGIN, abs=1e-13)

    def test_positivity(self, params_ref):
        pts = np.array(SAMPLE_POINTS + [4 + 4j, -5 - 2j])
        assert np.all(q_superposed(pts, params_ref) > 0)
        assert np.all(q_coherent(pts, params_ref) > 0)
        assert np.all(q_squeezed(pts, params_ref) > 0)

    def test_superposed_reduces_to_coherent(self):
        no_pump = ScaledParams(0.6, 0.0)
        pts = np.array(SAMPLE_POINTS)
        np.testing.assert_allclose(
            q_superposed(pts, no_pump), q_coherent(pts, no_pump), rtol=1e-14
        )

    def test_superposed_reduces_to_squeezed(self):
        no_drive = ScaledParams(0.0, 0.4)
        pts = np.array(SAMPLE_POINTS)
        np.testing.assert_allclose(
            q_superposed(pts, no_drive), q_squeezed(pts, no_drive), rtol=1e-14
        )

    @pytest.mark.parametrize(
        "closed_form, alpha, params",
        (
            (q_superposed, 25 + 0.1j, ScaledParams(25.0, 0.4)),
            (q_coherent, 26.8, ScaledParams(26.8, 0.0)),
            (q_coherent, np.array([0.0, 26.8]), ScaledParams(26.8, 0.0)),
            # exp(a^2) at its peak while the prefactor exp(-a^2) is subnormal
            (coherent_x_factor, np.array([0.0, 27.0]), ScaledParams(27.0, 0.0)),
        ),
    )
    def test_overflow_at_its_peak_rejected(self, closed_form, alpha, params):
        # the Q or its x factor at its own peak came back as inf with a
        # RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=f"overflows .*a = {params.a:g}"):
                closed_form(alpha, params)


class TestCharFn:
    def test_unity_at_origin(self, params_ref):
        assert char_fn_antinormal(0j, params_ref, "coherent") == 1.0
        assert char_fn_antinormal(0j, params_ref, "squeezed") == 1.0

    def test_coherent_real_argument(self):
        # the linear term vanishes for real z
        p = ScaledParams(0.6, 0.0)
        assert char_fn_antinormal(1.0 + 0j, p, "coherent") == pytest.approx(
            np.exp(-1.0), abs=1e-15
        )

    def test_squeezed_frozen_value(self, params_ref):
        val = char_fn_antinormal(0.5 + 0j, params_ref, "squeezed")
        assert val.imag == 0.0
        assert val.real == pytest.approx(PHI_SQ_HALF, abs=1e-13)

    def test_magnitude_bounded_by_one(self, params_ref):
        zs = np.array(SAMPLE_POINTS)
        for kind in ("coherent", "squeezed"):
            vals = char_fn_antinormal(zs, params_ref, kind)
            assert np.all(np.abs(vals) <= 1.0 + 1e-15)
            # complex for both kinds, from an array or a scalar
            assert vals.dtype == np.complex128
            assert np.asarray(char_fn_antinormal(zs[1], params_ref, kind)).dtype == np.complex128

    def test_bad_kind(self, params_ref):
        with pytest.raises(DomainError):
            char_fn_antinormal(0j, params_ref, "superposed")


class TestTransform:
    def test_vacuum(self):
        val = q_from_char_fn(0j, ScaledParams(0.0, 0.0), "coherent")
        assert val == pytest.approx(INV_PI, abs=1e-10)

    def test_coherent_peak(self):
        p = ScaledParams(0.6, 0.0)
        assert q_from_char_fn(0.6 + 0j, p, "coherent") == pytest.approx(INV_PI, abs=1e-4)

    def test_squeezed_origin(self, params_ref):
        assert q_from_char_fn(0j, params_ref, "squeezed") == pytest.approx(
            Q_SQ_ORIGIN, abs=1e-4
        )

    @pytest.mark.parametrize("kind", ("coherent", "squeezed"))
    def test_matches_closed_form_at_25_points(self, kind, params_ref):
        closed = q_coherent if kind == "coherent" else q_squeezed
        for alpha in SAMPLE_POINTS:
            got = q_from_char_fn(alpha, params_ref, kind)
            assert got == pytest.approx(closed(alpha, params_ref), abs=1e-4)

    def test_clipped_box_rejected(self, params_ref, monkeypatch):
        # the squeezed axes are measured in phi's own widths, so a box one
        # width wide clips phi at every b
        monkeypatch.setattr(QuadratureSpec, "extent", 1.0)
        for kind, p in (
            ("coherent", params_ref),
            ("squeezed", params_ref),
            ("squeezed", ScaledParams(0.6, 0.9)),
        ):
            with pytest.raises(QuadratureError, match="box edge"):
                q_from_char_fn(0j, p, kind)

    @pytest.mark.parametrize("b", (0.95, 0.99, 0.997))
    def test_near_threshold(self, b):
        # phi's narrow axis has width (2 px)^-1/2, 0.0995 at b = 0.99:
        # one square box of spacing 0.254 missed it by up to 2e-2
        p = ScaledParams(1.0, b)
        for alpha in SAMPLE_POINTS:
            got = q_from_char_fn(alpha, p, "squeezed")
            assert abs(got - q_squeezed(alpha, p)) <= 1e-12


class TestSuperpositionIntegral:
    def test_vacuum(self):
        val = superpose_q_numeric(0j, ScaledParams(0.0, 0.0))
        assert val == pytest.approx(INV_PI, rel=1e-6)

    @pytest.mark.parametrize(
        "alpha", (0j, 0.5 + 0.2j, -0.3 + 0.4j, 0.25 - 0.35j, 0.1 + 0.6j, 0.8 + 0j)
    )
    def test_matches_closed_form(self, alpha, params_ref):
        spec = QuadratureSpec()
        got = superpose_q_numeric(alpha, params_ref, spec)
        want = q_superposed(alpha, params_ref)
        assert got == pytest.approx(want, rel=spec.rtol)

    def test_clipped_box_rejected(self, params_ref, monkeypatch):
        monkeypatch.setattr(QuadratureSpec, "extent", 1.5)
        with pytest.raises(QuadratureError, match="box edge"):
            superpose_q_numeric(0j, params_ref, QuadratureSpec(nodes=16))

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            QuadratureSpec(nodes=4)
        for nodes in (math.nan, math.inf, 32.5):
            with pytest.raises(DomainError, match="nodes must be a finite integer"):
                QuadratureSpec(nodes=nodes)
        assert isinstance(QuadratureSpec(nodes=32.0).nodes, int)

    def test_memory_at_128_nodes(self, params_ref):
        # one complex nodes^3 array alone is 33.6 MB here; the streamed sum
        # holds two blocks of _KERNEL_ROWS * nodes^2 values (6.2 MB peak)
        spec = QuadratureSpec(nodes=128)
        tracemalloc.start()
        try:
            superpose_q_numeric(0.5 + 0.2j, params_ref, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16e6

    def test_kernel_refuses_an_over_cap_spec(self, params_ref, monkeypatch):
        # the smallest node count whose nodes^3 complex values per call
        # exceed the byte cap: the kernel refuses it before it places a grid,
        # while the transform, which builds only 1-d arrays, runs on it
        nodes = next(n for n in itertools.count(8) if 16 * n**3 > ARRAY_BYTES_CAP)
        spec = QuadratureSpec(nodes=nodes)
        want = q_coherent(0.1, params_ref)
        assert q_from_char_fn(0.1, params_ref, "coherent", spec) == pytest.approx(
            want, rel=1e-12
        )
        with monkeypatch.context() as m:
            m.setattr(QuadratureSpec, "grid", None)
            with pytest.raises(DomainError, match=rf"nodes must be from 8 to 256 \(the cap\), got {nodes}"):
                superpose_q_numeric(0j, params_ref, spec)


@pytest.mark.parametrize(
    "oracle",
    (
        lambda alpha, p: q_from_char_fn(alpha, p, "coherent"),
        lambda alpha, p: superpose_q_numeric(alpha, p),
    ),
    ids=("q_from_char_fn", "superpose_q_numeric"),
)
@pytest.mark.parametrize(
    "alpha", (complex(math.nan, 0.0), math.nan, complex(0.0, math.inf), "x", "0.5", None)
)
def test_bad_phase_point_rejected(oracle, alpha, params_ref):
    # a NaN came back as NaN, a str as an untyped UFuncTypeError
    with pytest.raises(DomainError, match="alpha must be a finite complex number"):
        oracle(alpha, params_ref)


@pytest.mark.parametrize(
    "closed_form",
    (
        q_coherent,
        q_squeezed,
        q_superposed,
        lambda z, p: char_fn_antinormal(z, p, "coherent"),
        lambda z, p: char_fn_antinormal(z, p, "squeezed"),
    ),
    ids=("q_coherent", "q_squeezed", "q_superposed", "phi_coherent", "phi_squeezed"),
)
@pytest.mark.parametrize(
    "point",
    (
        math.nan,
        complex(0.0, math.inf),
        "x",
        "0.5",
        None,
        np.array([0.1, math.nan, 0.3j]),
        [0.1, None],
        [[0.1, 0.2], [0.3]],
    ),
    ids=("nan", "infj", "x", "str-number", "None", "array-nan", "list-None", "ragged"),
)
def test_closed_form_bad_phase_point_rejected(closed_form, point, params_ref):
    # a NaN came back as NaN with a RuntimeWarning, a str as a ValueError
    with pytest.raises(DomainError, match="must hold finite complex numbers"):
        closed_form(point, params_ref)


def kernel_exponent(beta, gam, u, v, a, alpha):
    """The variable part E of the superposition kernel exponent, term by term."""
    ac = np.conj(alpha)
    return (
        -abs(beta) ** 2
        + a * np.conj(beta)
        + 0.5 * v * beta**2
        + (ac - v * alpha) * beta
        - abs(gam) ** 2
        + (ac - a) * gam
        + (1 - u) * alpha * np.conj(gam)
        + 0.5 * v * np.conj(gam) ** 2
        + (u - 1) * np.conj(gam) * beta
    )


def mesh4(xb, yb, xg, yg):
    """beta and gamma broadcast over the 4-d grid (i, j, k, l)."""
    beta = xb[:, None, None, None] + 1j * yb[None, :, None, None]
    return beta, xg[None, None, :, None] + 1j * yg[None, None, None, :]


class TestSuperpositionSum:
    """The factorized kernel against the 4-d sum written out term by term."""

    @staticmethod
    def direct_sum(axes, w, u, v, a, alpha):
        """Weighted sum of exp(E) over every grid point (i, j, k, l), the max
        of Re(E), its max on the grid boundary, and the sum of |w exp(E)|."""
        n = len(w)
        e = kernel_exponent(*mesh4(*axes), u, v, a, alpha)
        wt = np.einsum("i,j,k,l->ijkl", w, w, w, w)
        terms = wt * np.exp(e)
        boundary = np.ones((n,) * 4, dtype=bool)
        boundary[1:-1, 1:-1, 1:-1, 1:-1] = False
        return terms.sum(), e.real.max(), e.real[boundary].max(), abs(terms).sum()

    # n crosses two block boundaries of the streamed sum and ends in a
    # partial block
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(8, 2 * qfunctions._KERNEL_ROWS + 3),
        a=st.floats(0.0, 3.0),
        b=st.floats(0.0, 0.95),
        centres=st.lists(st.floats(-3.0, 4.0), min_size=4, max_size=4),
        halves=st.lists(st.floats(0.5, 10.0), min_size=4, max_size=4),
        d_re=st.floats(-2.0, 2.0),
        d_im=st.floats(-2.0, 2.0),
    )
    @example(
        n=2 * qfunctions._KERNEL_ROWS + 3,
        a=0.6,
        b=0.4,
        centres=[0.5, 0.0, -0.2, 0.3],
        halves=[4.0] * 4,
        d_re=0.1,
        d_im=0.2,
    )
    def test_any_axes_match_direct_sum(self, n, a, b, centres, halves, d_re, d_im):
        u, v = squeeze_coeffs(ScaledParams(a, b))
        axes = [c + h * np.linspace(-1.0, 1.0, n) for c, h in zip(centres, halves)]
        w = trapezoid_weights(n)
        alpha = complex(a + d_re, d_im)
        total, shift, gap = _superposition_sum(*axes, w, u, v, a, alpha)
        want, want_peak, want_bnd, scale = self.direct_sum(axes, w, u, v, a, alpha)
        assert abs(total * np.exp(shift) - want) <= 1e-10 * scale
        assert shift == pytest.approx(want_peak, abs=1e-12)
        assert gap == pytest.approx(want_bnd - want_peak, abs=1e-12)

    @pytest.mark.parametrize(
        "a, b, alpha",
        (
            (0.0, 0.0, 0j),
            (0.6, 0.4, 0.5 + 0.2j),
            (2.2, 0.89, -0.7 + 1.1j),
            (6.0, 0.9999, 6.3 - 0.4j),
        ),
    )
    def test_axes_centred_on_the_peak(self, a, b, alpha):
        # zoom a brute-force argmax of |integrand| = exp(Re E) onto its peak:
        # each round keeps two spacings around the best of 21^4 grid points
        u, v = squeeze_coeffs(ScaledParams(a, b))
        centre, half = np.zeros(4), 3.0 + a + abs(alpha)
        for _ in range(12):
            axes = [c + half * np.linspace(-1.0, 1.0, 21) for c in centre]
            re = kernel_exponent(*mesh4(*axes), u, v, a, alpha).real
            idx = np.unravel_index(re.argmax(), re.shape)
            centre = np.array([ax[i] for ax, i in zip(axes, idx)])
            half /= 5
        got = [ax[0] for ax in qfunctions._kernel_axes(np.zeros(1), u, v, a, alpha)]
        assert got == pytest.approx(centre, abs=1e-6)
        # each axis is in marginal standard deviations, so the box border
        # holds exp(-extent^2/2) of the peak, less the grid's miss of the peak
        t, w, _ = QuadratureSpec().grid()
        axes = qfunctions._kernel_axes(t, u, v, a, alpha)
        gap = _superposition_sum(*axes, w, u, v, a, alpha)[2]
        assert 0 < gap + QuadratureSpec.extent**2 / 2 < 0.1

    @pytest.mark.parametrize("b", (0.0, 0.4, 0.9, 0.9999))
    @pytest.mark.parametrize("a", (5.0, 6.0, 8.0, 20.0))
    def test_reaches_large_drive(self, a, b):
        # an origin-centred box of half-width 8 clipped the beta integrand,
        # which peaks near a, from a = 5
        p = ScaledParams(a, b)
        for point in verification.KERNEL_POINTS:
            alpha = a + point
            want = q_superposed(alpha, p)
            assert abs(superpose_q_numeric(alpha, p) - want) <= 1e-12 * want

    @pytest.mark.parametrize("axis", range(4))
    @pytest.mark.parametrize("params", (ScaledParams(0.6, 0.4), ScaledParams(6.0, 0.9)))
    def test_off_centre_axis_rejected(self, axis, params, monkeypatch):
        # one axis moved by one width leaves exp(-7^2/2) of the peak at its edge
        place = qfunctions._kernel_axes

        def shifted(t, *args):
            axes = list(place(t, *args))
            axes[axis] = axes[axis] + (axes[axis][1] - axes[axis][0]) / (t[1] - t[0])
            return tuple(axes)

        alpha = params.a + 0.2j
        superpose_q_numeric(alpha, params)
        monkeypatch.setattr(qfunctions, "_kernel_axes", shifted)
        with pytest.raises(QuadratureError, match="box edge"):
            superpose_q_numeric(alpha, params)

    def test_coarse_warm_up_specs_accepted(self):
        # the smallest specs a caller may warm up on still place a valid box
        p = ScaledParams(0.2, 0.1)
        assert superpose_q_numeric(0.1, p, QuadratureSpec(nodes=8)) > 0
        assert q_from_char_fn(0.1, p, "coherent", QuadratureSpec(nodes=16)) > 0


def _per_cell_csv(grid) -> str:
    """The grid CSV as written one csv.writer row at a time, from numpy
    scalars: the reference for the package's faster writer."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["re", "im", "q"])
    ax = grid.axis()
    for i in range(grid.n):
        for j in range(grid.n):
            writer.writerow([f"{ax[i]:.9g}", f"{ax[j]:.9g}", f"{grid.values[i, j]:.9g}"])
    return buf.getvalue()


def _per_cell_json(grid) -> str:
    """The JSON envelope with each value rounded from its numpy scalar."""
    env = {
        "kind": grid.kind,
        "params": {"a": float(f"{grid.params.a:.9g}"), "b": float(f"{grid.params.b:.9g}")},
        "extent": float(f"{grid.extent:.9g}"),
        "n": grid.n,
        "dx": float(f"{grid.dx:.9g}"),
        "normalization": float(f"{grid.normalization:.9g}"),
        "values": [float(f"{v:.9g}") for v in grid.values.ravel()],
    }
    return json.dumps(env)


def _written(write) -> str:
    """The text a grid writer writes."""
    buf = io.StringIO()
    write(buf)
    return buf.getvalue()


def _assert_same_text(got: str, want: str) -> None:
    """Equality of long texts, reporting only the first difference (pytest's
    own diff of two long strings takes minutes)."""
    same = got == want
    at = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), None)
    if at is None:
        at = min(len(got), len(want))
    lo, hi = max(at - 20, 0), at + 20
    assert same, f"first difference at {at}: {got[lo:hi]!r} != {want[lo:hi]!r}"


class TestQGrid:
    @pytest.mark.parametrize(
        "kind, a, b, n, extent",
        (
            ("coherent", 0.6, 0.0, 33, None),
            ("squeezed", 0.0, 0.8, 48, None),
            ("superposed", 0.6, 0.4, 47, 5.0),
            ("superposed", 3.7, 0.3, 64, None),
        ),
    )
    def test_writers_match_per_cell_formatting(self, kind, a, b, n, extent):
        grid = q_grid(kind, ScaledParams(a, b), n=n, extent=extent)
        want = _per_cell_csv(grid)
        assert "e-" in want  # the tails print in exponent form
        _assert_same_text(_written(grid.write_csv), want)
        _assert_same_text(_written(grid.write_json), _per_cell_json(grid) + "\n")

    #: cells of a row: Q's range, with 0.0 and subnormals, whose JSON texts
    #: are no %.9g text
    cell = st.floats(0.0, 0.5) | st.sampled_from((0.0, 5e-324, 1e-310, 2.2e-308))

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(2, 6), data=st.data())
    def test_row_formats_match_per_cell_formatting(self, n, data):
        cells = data.draw(st.lists(self.cell, min_size=n * n, max_size=n * n))
        grid = qgrid.QGrid(
            "superposed", ScaledParams(0.6, 0.4), 4.0, n, 8 / (n - 1), 1.0, array("d", cells)
        )
        labels = [f"{x:.9g}" for x in grid.axis()]
        rows = [cells[i : i + n] for i in range(0, n * n, n)]
        want_csv = "re,im,q\r\n" + "".join(
            f"{re},{im},{q:.9g}\r\n"
            for re, row in zip(labels, rows)
            for im, q in zip(labels, row)
        )
        assert _written(grid.write_csv) == want_csv
        json_rows = [json.dumps([float(f"{v:.9g}") for v in row])[1:-1] for row in rows]
        values = _written(grid.write_json).partition('"values": [')[2]
        assert values == ", ".join(json_rows) + "]}\n"

    def test_vacuum_normalization(self):
        grid = q_grid("coherent", ScaledParams(0.0, 0.0), n=128, extent=6.0)
        assert abs(grid.normalization - 1.0) < 1e-6
        assert grid.dx == pytest.approx(12.0 / 127)

    def test_superposed_auto_extent(self, params_ref):
        grid = q_grid("superposed", params_ref, n=256)
        assert abs(grid.normalization - 1.0) < 1e-6
        assert np.all(grid.values >= 0)

    def test_auto_extent_tracks_antisqueezing(self):
        # the anti-squeezed axis widens like 1/sqrt(1-b^2) near threshold
        wide = q_grid("superposed", ScaledParams(0.6, 0.99), n=256)
        narrow = q_grid("superposed", ScaledParams(0.6, 0.4), n=256)
        assert wide.extent > 3 * narrow.extent > 0
        assert abs(wide.normalization - 1.0) < 1e-6

    def test_non_finite_size_and_extent_rejected(self, params_ref, monkeypatch):
        # rejected before the closed form is built or anything allocated
        monkeypatch.setattr(qgrid, "gaussian_form", None)
        for n in (math.nan, math.inf, 32.5):
            with pytest.raises(DomainError, match="n must be a finite integer"):
                q_grid("superposed", params_ref, n=n)
        for extent in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match="extent must be finite"):
                q_grid("superposed", params_ref, n=16, extent=extent)

    def test_oversized_grid_rejected(self, params_ref, monkeypatch):
        # the smallest n whose complex n x n grid exceeds the byte cap; with
        # the closed form removed, a missing cap fails at once instead of
        # allocating the grid
        monkeypatch.setattr(qgrid, "gaussian_form", None)
        n = math.isqrt(ARRAY_BYTES_CAP // 16) + 1
        with pytest.raises(DomainError, match="cap"):
            q_grid("superposed", params_ref, n=n)

    def test_bad_kind_rejected(self, params_ref):
        with pytest.raises(DomainError):
            q_grid("husimi", params_ref)

    def test_non_finite_values_rejected(self):
        # exp(a^2) overflows while exp(-a^2) is still subnormal: the closed
        # form is at fault, not the grid, so no warning blames the grid
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"overflows .*a = 27"):
                q_grid("coherent", ScaledParams(27.0, 0.0), n=16)

    def test_coarse_grid_warns_and_records_deficit(self, params_ref):
        with pytest.warns(NormalizationWarning):
            grid = q_grid("superposed", params_ref, n=64, extent=1.5)
        assert abs(grid.normalization - 1.0) > 1e-4

    def test_csv_serialization(self, params_ref):
        grid = q_grid("superposed", params_ref, n=16, extent=4.0)
        rows = list(csv.reader(io.StringIO(_written(grid.write_csv))))
        assert rows[0] == ["re", "im", "q"]
        assert len(rows) == 16 * 16 + 1
        re, im, q = (float(v) for v in rows[1])
        assert (re, im) == (-4.0, -4.0)
        assert q == pytest.approx(grid.values[0, 0], rel=1e-8)

    def test_json_envelope(self, params_ref):
        grid = q_grid("superposed", params_ref, n=16, extent=4.0)
        env = json.loads(_written(grid.write_json))
        assert env["kind"] == "superposed"
        assert env["params"] == {"a": 0.6, "b": 0.4}
        assert env["n"] == 16
        assert len(env["values"]) == 256
        np.testing.assert_allclose(
            np.array(env["values"]).reshape(16, 16), grid.values, rtol=1e-8
        )
