"""Periodic sampling grid, Fourier transform conventions, spectral
derivatives, and the norms used throughout the package.

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
from functools import cached_property, lru_cache

import numpy as np

from .errors import GridMismatchError

# fine points per spectrum in one block of `upsample_values` sub-grids, which
# sizes the plan's reused buffers (0.75 MB each of half spectra and of values
# for the three spectra of a d = 1 curve); 2**16 ran no faster and raised the
# peak RSS of highfreq by 4 MB
UPSAMPLE_BLOCK_POINTS = 2**15


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

    @classmethod
    @lru_cache(maxsize=16)
    def shared(cls, dim: int, points_per_axis: int, box_length: float) -> "Grid":
        """One instance per grid value, so its cached arrays are built once.
        Callers must not write into those arrays."""
        return cls(dim, points_per_axis, box_length)

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


def coordinate_field(grid: Grid, axis: int) -> Field:
    """The centered coordinate x^axis sampled on the grid."""
    if not 0 <= axis < grid.dim:
        raise IndexError(f"axis {axis} out of range for dim {grid.dim}")
    return Field(grid, grid.coordinate_arrays()[axis])


def forward_transform(f: Field) -> SpectralField:
    g = f.grid
    coeff = np.fft.fftn(f.values) * (g.cell_volume * g.alternating_phase)
    return SpectralField(g, coeff)


def inverse_transform(F: SpectralField) -> Field:
    """Inverse of :func:`forward_transform`; assumes Hermitian coefficients."""
    g = F.grid
    vals = np.fft.ifftn(F.coefficients * g.alternating_phase) / g.cell_volume
    return Field(g, vals.real)


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


def spatial_derivative(f: Field, axis: int) -> Field:
    """Spectral partial derivative along one axis."""
    if not 0 <= axis < f.grid.dim:
        raise IndexError(f"axis {axis} out of range for dim {f.grid.dim}")
    F = forward_transform(f)
    return inverse_transform(
        SpectralField(f.grid, F.coefficients * derivative_multiplier(f.grid, axis, 1))
    )


def partial_derivative(f: Field, alpha) -> Field:
    """Spectral mixed derivative for a multi-index alpha (one entry per axis)."""
    alpha = tuple(alpha)
    if len(alpha) != f.grid.dim:
        raise ValueError(f"multi-index length {len(alpha)} does not match dim {f.grid.dim}")
    if all(a == 0 for a in alpha):
        return f
    coeff = forward_transform(f).coefficients.copy()
    for axis, order in enumerate(alpha):
        if order:
            coeff *= derivative_multiplier(f.grid, axis, order)
    return inverse_transform(SpectralField(f.grid, coeff))


def laplacian(f: Field) -> Field:
    F = forward_transform(f)
    return inverse_transform(SpectralField(f.grid, -(f.grid.frequency_norm**2) * F.coefficients))


class UpsamplePlan:
    """How spectra that vanish off the lattice ``modes`` are sampled on the
    ``factor``-times finer grid of the same box, in blocks of sub-grids.

    Along the last axis the fine grid of F N points is the union of
    q = F N / m shifted sub-grids of m points, sub-grid r holding the fine
    points q j + r (decimation in time, Cooley and Tukey 1965), with m the
    smallest power of two >= 2 max |k_d| over the modes (at least 2).  On
    sub-grid r a mode k is the lattice mode k_d mod m times the twiddle
    exp(2 pi i k_d r / (F N)), so its Hermitian part puts X_k at bin
    k_d mod m and conj X_k at bin -k_d mod m, each where that bin is
    <= m / 2 (both images of the modes +-m/2 and, at m = N, of the coarse
    Nyquist mode -N/2).  The first d - 1 axes keep the fine size and wrap.

    The fold of the box phase, the fine normalization and the twiddles,
    shape (q, M), is kept in ``scatter`` groups: the modes of one image
    whose bins are distinct, their destinations in the half spectrum (a
    slice where they are a run), their columns of the fold and whether the
    image is conjugated.  ``block`` sub-grids of ``spectra`` spectra are
    transformed at a time, in two buffers allocated here and reused by every
    call of :func:`upsample_values`: the half spectra ``half`` and the
    real ``values``, which each call overwrites.
    """

    def __init__(self, grid: Grid, modes, factor: int, spectra: int):
        if factor < 2:
            raise ValueError("upsampling factor must be >= 2")
        d, n = grid.dim, grid.points_per_axis
        fine = n * factor
        signed = np.stack(np.unravel_index(modes, grid.shape))
        signed[signed >= n // 2] -= n
        top = int(np.max(np.abs(signed[-1]), initial=1))
        sub = 1 << (2 * top - 1).bit_length()
        self.grid, self.factor, self.sub, self.subgrids = grid, factor, sub, fine // sub
        # the box phase times 1 / (fine cell volume), halved
        base = grid.alternating_phase.ravel()[modes] * (
            0.5 * (fine / grid.box_length) ** (d - 1) * sub / grid.box_length
        )
        shape = (fine,) * (d - 1) + (sub // 2 + 1,)
        self.scatter = []
        for sign in (1, -1):
            k = sign * signed
            last = np.mod(k[-1], sub)
            # the bins k_d in [0, m/2], then the wrapped -m/2 onto m/2
            for wrapped in (False, True):
                keep = np.flatnonzero((last <= sub // 2) & ((k[-1] < 0) == wrapped))
                if not len(keep):
                    continue
                dest = np.ravel_multi_index((*np.mod(k[:-1, keep], fine), last[keep]), shape)
                order = np.argsort(dest)
                keep, dest = keep[order], dest[order]
                # a band in d = 1 fills a run of bins, written as a slice
                if dest[-1] - dest[0] == len(dest) - 1:
                    dest = slice(dest[0], dest[-1] + 1)
                # the twiddles, their turns k_d r reduced exactly mod F N
                turns = np.outer(np.arange(self.subgrids), signed[-1, keep]) % fine
                fold = np.exp(1j * (2 * np.pi / fine) * turns)
                fold *= base[keep]
                self.scatter.append((keep, dest, fold, sign < 0))
        self.block = max(1, min(self.subgrids, UPSAMPLE_BLOCK_POINTS // (fine ** (d - 1) * sub)))
        self.half = np.empty((spectra, self.block) + shape, dtype=complex)
        self.values = np.empty((spectra, self.block) + shape[:-1] + (sub,))


def upsample_values(plan: UpsamplePlan, coefficients, start: int) -> np.ndarray:
    """Real parts of the trigonometric interpolants of C spectra, given at the
    plan's modes as ``coefficients`` of shape (C, M), on the ``plan.block``
    sub-grids from ``start`` on (fewer at the last block); returns
    (C, b) + (F N,) * (d - 1) + (m,), sub-grid-major.

    Each image is scattered into the plan's half-spectrum buffer, the complex
    axes are transformed in place in d >= 2, and one real inverse FFT of
    length m per row gives the values.  ``np.moveaxis(v, 1, -1)`` of the
    values of all q sub-grids, reshaped to (C,) + (F N,) * d, is the fine
    grid in natural order.

    The values are a view of ``plan.values``, which the next call with the
    same plan overwrites: a caller that keeps them across calls copies them.
    """
    rows = slice(start, start + plan.block)
    count = min(plan.block, plan.subgrids - start)
    half = plan.half[:, :count]
    half.fill(0.0)
    flat = half.reshape(half.shape[:2] + (-1,))
    for source, dest, fold, conj in plan.scatter:
        part = np.take(coefficients, source, axis=-1)[:, None] * fold[rows]
        if conj:
            np.conj(part, out=part)
        flat[..., dest] += part
        del part  # freed before the next group's product is made
    d = plan.grid.dim
    if d > 1:
        np.fft.ifftn(half, axes=tuple(range(-d, -1)), out=half)
    return np.fft.irfft(half, n=plan.sub, axis=-1, out=plan.values[:, :count])


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
    F = forward_transform(f).coefficients
    weights = (1.0 + g.frequency_norm**2) ** s
    return float(np.sqrt(np.sum(weights * np.abs(F) ** 2) / g.box_length**g.dim))


def sobolev_w_k1_norm(f: Field, k: int) -> float:
    """W^{k,1} norm: sum of L^1 norms of all derivatives of order <= k."""
    d = f.grid.dim
    if not 0 <= k <= d + 2:
        raise ValueError(f"W^(k,1) order must satisfy 0 <= k <= d+2 = {d + 2}, got {k}")
    return sum(l1_norm(partial_derivative(f, alpha)) for alpha in multi_indices(d, k))

