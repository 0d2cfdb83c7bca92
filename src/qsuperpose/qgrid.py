"""A closed-form Husimi Q function sampled on a centred square grid, and the
grid's CSV and JSON writers, in plain float arithmetic.

Each cell is the Gaussian of :func:`~qsuperpose.params.gaussian_form`,
prefactor * exp(-cx*x^2 - cy*y^2 + 2*cx*mean*x), in the expression and the
operation order of :meth:`~qsuperpose.params.GaussianQ.__call__`, with
``math.exp`` for numpy's exp; the axis is
:func:`~qsuperpose.params.linspace`, numpy's linspace bit for bit.  So the
``qgrid`` command never imports numpy: only :attr:`QGrid.values`, read by a
library caller, builds an array.  Q is never split into axis factors here:
with the prefactor on the y factor, that factor underflows where Q does not
(a = 20, b = 0: the cell (20, 19i) would be 0.0, where Q is 5.3e-158).

The writers emit one grid row at a time, each formatted by one ``%``
operation, so no command holds the whole output text.
"""

import json
import math
import sys
import warnings
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Iterator, TextIO

from .errors import DomainError, NormalizationWarning
from .params import ScaledParams, array_cap, as_count, finite, gaussian_form, linspace

if TYPE_CHECKING:
    import numpy as np

#: the smallest positive normal float: a row holding a cell below it (0.0 or
#: a subnormal) is written to JSON cell by cell
_TINY = sys.float_info.min


@dataclass(frozen=True)
class QGrid:
    """A Q function sampled on a centred square grid.

    ``cells`` holds the n*n floats row-major: row i, cell j is
    Q(axis[i] + 1j*axis[j]) with axis = linspace(-extent, extent, n) (see
    :meth:`axis`); dx is the spacing.  ``normalization`` is the discrete
    integral sum(cells) * dx**2, which should be 1 for an adequate grid.
    :func:`q_grid` builds every cell finite and non-negative.
    """

    kind: str
    params: ScaledParams
    extent: float
    n: int
    dx: float
    normalization: float
    cells: array = field(repr=False)

    def __post_init__(self):
        if len(self.cells) != self.n * self.n:
            raise DomainError(f"cells must hold {self.n}x{self.n} values")
        if not math.isfinite(self.normalization):
            raise DomainError("Q values must be finite")

    def axis(self) -> list[float]:
        return linspace(-self.extent, self.extent, self.n)

    def _rows(self) -> Iterator[tuple[float, ...]]:
        """The grid's rows in order, each a tuple of its n cells."""
        n, cells = self.n, self.cells
        for start in range(0, n * n, n):
            yield tuple(cells[start : start + n])

    @cached_property
    def values(self) -> "np.ndarray":
        """The cells as an n x n float array, values[i, j] = Q(axis[i] +
        1j*axis[j]); numpy is imported, and the array built, on first read."""
        import numpy as np

        return np.array(self.cells, dtype=float).reshape(self.n, self.n)

    def write_csv(self, fh: TextIO) -> None:
        """Rows of (re, im, q), row-major over the grid, 9 significant digits,
        with the CRLF terminator of the csv module's default dialect (no cell
        is ever quoted: every cell is a finite number).  A grid row's n lines
        are one ``%`` operation on a template of its im columns."""
        labels = [f"{x:.9g}" for x in self.axis()]
        lines = [f",{im},%.9g\r\n" for im in labels]  # each line after its re
        fh.write("re,im,q\r\n")
        for re, row in zip(labels, self._rows()):
            fh.write((re + re.join(lines)) % row)

    def write_json(self, fh: TextIO) -> None:
        """One compact JSON envelope with the values flattened row-major, each
        rounded to 9 significant digits, and a newline.

        A row is one ``%`` operation of ``%.9g`` per cell: for a normal float
        that is the text json.dumps gives the rounded cell, since every cell
        is below sqrt(cx*cy)/pi < 0.37, where %g and repr both print fixed
        point from 1e-4 and exponents below it.  A row holding 0.0 or a
        subnormal, whose texts differ, is written cell by cell as
        ``repr(float(f"{v:.9g}"))``."""
        head = json.dumps(
            {
                "kind": self.kind,
                "params": {
                    "a": float(f"{self.params.a:.9g}"),
                    "b": float(f"{self.params.b:.9g}"),
                },
                "extent": float(f"{self.extent:.9g}"),
                "n": self.n,
                "dx": float(f"{self.dx:.9g}"),
                "normalization": float(f"{self.normalization:.9g}"),
                "values": [],
            }
        )
        fh.write(head[:-2])  # open the values list: drop its "]}"
        template = ", ".join(["%.9g"] * self.n)
        sep = ""
        for row in self._rows():
            if min(row) < _TINY:
                text = ", ".join([repr(float(f"{v:.9g}")) for v in row])
            else:
                text = template % row
            fh.write(sep + text)
            sep = ", "
        fh.write("]}\n")


def q_grid(
    kind: str,
    params: ScaledParams,
    n: int = 128,
    extent: float | None = None,
) -> QGrid:
    """Sample a closed-form Q function on a centred square grid.

    extent=None covers the peak plus six standard deviations
    (:meth:`GaussianQ.half_width`).  n is a count from 16 to ``array_cap(2)``
    = 4096, the cap that bounds the float n x n :attr:`QGrid.values` a
    library caller builds and the n^2 rows a writer emits, and extent is
    finite and positive, and leaves every axis point finite; anything else,
    or an unknown kind, raises :class:`DomainError` before anything is
    allocated, and so does a closed form that underflows at this drive.  One
    that overflows on the grid raises it once the cells are evaluated.
    If the discrete normalization deviates from one by more than 1e-4 a
    :class:`NormalizationWarning` is issued and the deviation is left
    visible in ``normalization``.
    """
    n = as_count("n", n, 16, array_cap(2))
    if extent is not None and not finite("extent", extent):
        raise DomainError(f"extent must be finite, got {extent}")
    if extent is not None and extent <= 0:
        raise DomainError(f"extent must be positive, got {extent}")
    form = gaussian_form(params, kind)
    extent = form.half_width(6) if extent is None else float(extent)
    ax = linspace(-extent, extent, n)
    if not math.isfinite(ax[1] - ax[0]):
        raise DomainError(f"extent {extent:.6g} spans beyond the float range")
    # the terms of GaussianQ.__call__'s exponent, in its order:
    # (-cx*x^2 - cy*y^2) + (2*cx*mean)*x
    pref, cx, cx2_mean = form.prefactor, form.cx, 2 * form.cx * form.mean
    cy_y2 = [form.cy * (y * y) for y in ax]
    exp = math.exp
    cells, row_sums = array("d"), []
    try:
        for x in ax:
            ex, kx = -cx * (x * x), cx2_mean * x
            row = [pref * exp(ex - c + kx) for c in cy_y2]
            cells.extend(row)
            row_sums.append(sum(row))
    except OverflowError:
        total = math.inf
    else:
        total = math.fsum(row_sums)
    # every cell is below 0.37, so only a non-finite cell makes this so
    if not math.isfinite(total):
        raise DomainError(f"closed-form Q overflows at this drive (a = {form.mean:.6g})")
    dx = ax[1] - ax[0]
    norm = total * dx * dx
    if abs(norm - 1) > 1e-4:
        warnings.warn(
            NormalizationWarning(
                f"discrete Q normalization {norm:.6g} deviates from 1; "
                f"grid (n={n}, extent={extent:.3g}) is too coarse or too small"
            )
        )
    return QGrid(
        kind=kind,
        params=params,
        extent=extent,
        n=n,
        dx=dx,
        normalization=norm,
        cells=cells,
    )
