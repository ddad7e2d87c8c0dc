"""Periodic sampling grid, Fourier transform conventions, the spectral
derivative (``partial_derivative``, one multi-index at a time, from the
field's cached ``Field.spectrum``), and the norms used throughout the
package.

Transform normalization
-----------------------
``forward_transform`` approximates the continuum transform
``F(xi) = int f(x) exp(-i xi.x) dx`` by the Riemann sum
``h^d sum_j f(x_j) exp(-i xi.x_j)`` over the box ``[-L/2, L/2)^d``, so the
coefficients carry the box geometry (including the ``-L/2`` offset, which for
the lattice frequencies reduces to an alternating sign per axis).  The inverse
is ``f(x_j) = L^-d sum_k F(xi_k) exp(+i xi_k.x_j)`` and Parseval reads

    h^d sum_j |f_j|^2  =  L^-d sum_k |F_k|^2.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GridMismatchError

@dataclass(frozen=True)
class Grid:
    """Uniform periodic lattice on the box [-L/2, L/2)^d.

    Parameters
    ----------
    dim : int
        Spatial dimension d >= 1.
    points_per_axis : int
        Samples per axis N; must be a power of two.
    box_length : float
        Physical box extent L; spacing is h = L/N so N*h = L exactly.

    Each instance builds its coordinate and frequency arrays on first read
    and keeps them; callers must not write into them.  Equal instances share
    none, so a run builds each grid once (``RunConfig.grid``).
    """

    dim: int
    points_per_axis: int
    box_length: float

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        n = self.points_per_axis
        if n < 2 or (n & (n - 1)) != 0:
            raise ValueError(f"points_per_axis must be a power of two, got {n}")
        if not self.box_length > 0:
            raise ValueError(f"box_length must be positive, got {self.box_length}")

    @property
    def spacing(self) -> float:
        return self.box_length / self.points_per_axis

    @property
    def shape(self) -> tuple:
        return (self.points_per_axis,) * self.dim

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dim

    @property
    def nyquist(self) -> float:
        """Largest resolved frequency magnitude per axis, pi/h."""
        return np.pi / self.spacing

    @cached_property
    def axis_coordinates(self) -> np.ndarray:
        return -0.5 * self.box_length + self.spacing * np.arange(self.points_per_axis)

    @cached_property
    def axis_frequencies(self) -> np.ndarray:
        """Dual lattice xi_j = 2*pi*j/L in FFT layout; it lists j = -N/2 but not +N/2."""
        return 2.0 * np.pi * np.fft.fftfreq(self.points_per_axis, d=self.spacing)

    def coordinate_arrays(self) -> list:
        """Meshgrid coordinate component arrays, 'ij' indexing."""
        return list(np.meshgrid(*([self.axis_coordinates] * self.dim), indexing="ij"))

    def lattice_points(self) -> np.ndarray:
        """The lattice points as rows, shape (N^d, d), in flat lattice order."""
        return np.stack([x.ravel() for x in self.coordinate_arrays()], axis=-1)

    def frequency_arrays(self) -> list:
        return list(np.meshgrid(*([self.axis_frequencies] * self.dim), indexing="ij"))

    @cached_property
    def frequency_norm(self) -> np.ndarray:
        """|xi| on the full frequency lattice."""
        out = np.zeros(self.shape)
        for xi in self.frequency_arrays():
            out += xi**2
        return np.sqrt(out)

    @cached_property
    def alternating_phase(self) -> np.ndarray:
        # exp(i xi_k L/2) = (-1)^k per axis; real +-1 array absorbing the box offset
        sign = (-1.0) ** np.arange(self.points_per_axis)
        out = sign
        for _ in range(self.dim - 1):
            out = np.multiply.outer(out, sign)
        return out


@dataclass(frozen=True)
class Field:
    """Real scalar samples on a grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.grid.shape:
            raise GridMismatchError(
                f"field shape {v.shape} does not match grid shape {self.grid.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", v)

    @cached_property
    def spectrum(self) -> SpectralField:
        """``forward_transform`` of the field, computed once; read-only."""
        F = forward_transform(self)
        F.coefficients.setflags(write=False)
        return F

    def _binary(self, other, op):
        if isinstance(other, Field):
            if other.grid != self.grid:
                raise GridMismatchError("fields live on different grids")
            return Field(self.grid, op(self.values, other.values))
        return Field(self.grid, op(self.values, other))

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __mul__(self, other):
        return self._binary(other, np.multiply)

    __radd__ = __add__
    __rmul__ = __mul__

    def __neg__(self):
        return Field(self.grid, -self.values)


@dataclass(frozen=True)
class SpectralField:
    """Complex Fourier coefficients on a grid's dual lattice (FFT layout)."""

    grid: Grid
    coefficients: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=complex)
        if c.shape != self.grid.shape:
            raise GridMismatchError(
                f"coefficient shape {c.shape} does not match grid shape {self.grid.shape}"
            )
        if not np.all(np.isfinite(c)):
            raise ValueError("spectral coefficients must be finite")
        object.__setattr__(self, "coefficients", c)


def sobolev_order(dim: int) -> int:
    """floor(d/2) + 1."""
    return dim // 2 + 1


def forward_transform(f: Field) -> SpectralField:
    g = f.grid
    coeff = np.fft.fftn(f.values) * (g.cell_volume * g.alternating_phase)
    return SpectralField(g, coeff)


def inverse_transform(F: SpectralField) -> Field:
    """Inverse of :func:`forward_transform`; assumes Hermitian coefficients."""
    g = F.grid
    vals = np.fft.ifftn(F.coefficients * g.alternating_phase) / g.cell_volume
    # a contiguous copy, so the field does not keep the complex buffer alive
    return Field(g, np.ascontiguousarray(vals.real))


def derivative_multiplier(grid: Grid, axis: int, order: int) -> np.ndarray:
    """(i xi_axis)^order, broadcastable over the grid's spectral layout.

    The Nyquist mode is zeroed for odd orders: a real field has a real
    coefficient there and no consistent real derivative representative.
    """
    xi = grid.axis_frequencies.copy()
    if order % 2 == 1:
        xi[grid.points_per_axis // 2] = 0.0
    shape = [1] * grid.dim
    shape[axis] = grid.points_per_axis
    return (1j * xi.reshape(shape)) ** order


def partial_derivative(f: Field, alpha) -> Field:
    """Spectral mixed derivative for a multi-index alpha (one entry per axis)."""
    alpha = tuple(alpha)
    if len(alpha) != f.grid.dim:
        raise ValueError(f"multi-index length {len(alpha)} does not match dim {f.grid.dim}")
    if all(a == 0 for a in alpha):
        return f
    coeff = f.spectrum.coefficients.copy()
    for axis, order in enumerate(alpha):
        if order:
            coeff *= derivative_multiplier(f.grid, axis, order)
    return inverse_transform(SpectralField(f.grid, coeff))


def signed_modes(grid: Grid, modes) -> np.ndarray:
    """The signed multi-indices k of the lattice ``modes`` (flat indices),
    shape (M, d), each component in [-N/2, N/2)."""
    n = grid.points_per_axis
    signed = np.stack(np.unravel_index(modes, grid.shape), axis=-1)
    signed[signed >= n // 2] -= n
    return signed


class FoldPlan:
    """Where ``upsample_values`` writes the coefficients of the lattice
    ``modes`` (flat indices) to sample them on the lattice of m points per
    axis in the grid's box.  Mode k lands at bin k mod m and its conjugate
    image at -k mod m; for each image, ``images`` holds the flat bins in the
    half spectrum, shape ``half``, the modes kept there (those whose
    last-axis bin is at most m / 2) and their scale, the box phase over
    twice the lattice cell volume.  It depends on the modes and m alone, so
    a sweep over many coefficients builds it once."""

    def __init__(self, grid: Grid, modes, m: int):
        d, signed = grid.dim, signed_modes(grid, modes).T
        self.m, self.half = m, (m,) * (d - 1) + (m // 2 + 1,)
        scale = grid.alternating_phase.ravel()[modes] * (0.5 * (m / grid.box_length) ** d)
        self.images = []
        for k in (signed % m, -signed % m):
            keep = np.flatnonzero(k[-1] <= m // 2)
            bins = np.ravel_multi_index(tuple(k[:, keep]), self.half)
            self.images.append((bins, keep, scale[keep]))


def upsample_values(fold: FoldPlan, coefficients) -> np.ndarray:
    """Real parts of the trigonometric interpolants of C spectra, given at the
    lattice modes of ``fold`` as ``coefficients`` of shape (C, M), on its
    lattice of m points per axis in the same box: shape (C,) + (m,) * d,
    point i at -L/2 + i L / m.

    Mode k lands at bin k mod m, so the spectra are folded when m < N and
    zero-padded when m > N.  That is exact while every |k_a| <= m / 2 and no
    two modes meet mod m, which holds for any modes when m >= N.  The
    Hermitian part (X_k + conj X_-k) / 2 is written into one half spectrum,
    each image where ``fold`` keeps it, and one real inverse FFT gives the
    values.
    """
    m, d = fold.m, len(fold.half)
    half = np.zeros((len(coefficients), int(np.prod(fold.half))), dtype=complex)
    for (bins, keep, scale), image in zip(fold.images, (np.positive, np.conj)):
        half[:, bins] += image(coefficients[:, keep]) * scale
    half = half.reshape((len(coefficients),) + fold.half)
    return np.fft.irfftn(half, s=(m,) * d, axes=tuple(range(1, d + 1)))


def multi_indices(dim: int, max_order: int) -> list:
    """All derivative multi-indices alpha with |alpha| <= max_order."""
    return [
        a
        for a in itertools.product(range(max_order + 1), repeat=dim)
        if sum(a) <= max_order
    ]


def l1_norm(f: Field) -> float:
    return float(f.grid.cell_volume * np.sum(np.abs(f.values)))


def l2_norm(f: Field) -> float:
    return float(np.sqrt(f.grid.cell_volume * np.sum(f.values**2)))


def linf_norm(f: Field) -> float:
    return float(np.max(np.abs(f.values)))


def sobolev_h_norm(f: Field, s: float) -> float:
    """H^s norm via frequency weights (1 + |xi|^2)^(s/2)."""
    if s < 0:
        raise ValueError(f"sobolev order s must be >= 0, got {s}")
    g = f.grid
    F = f.spectrum.coefficients
    weights = (1.0 + g.frequency_norm**2) ** s
    return float(np.sqrt(np.sum(weights * np.abs(F) ** 2) / g.box_length**g.dim))


def sobolev_w_k1_norm(f: Field, k: int) -> float:
    """W^{k,1} norm: sum of L^1 norms of all derivatives of order <= k."""
    d = f.grid.dim
    if not 0 <= k <= d + 2:
        raise ValueError(f"W^(k,1) order must satisfy 0 <= k <= d+2 = {d + 2}, got {k}")
    return sum(l1_norm(partial_derivative(f, alpha)) for alpha in multi_indices(d, k))

