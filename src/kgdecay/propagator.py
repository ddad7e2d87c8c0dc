"""Exact Klein-Gordon evolution by Fourier multipliers.

For Cauchy data (f, g) at time t0 and mass m >= 0, each mode with frequency
xi evolves as a harmonic oscillator with omega = sqrt(|xi|^2 + m^2):

    phi_hat(t)   = cos(dt*omega) f_hat + (sin(dt*omega)/omega) g_hat
    d/dt phi_hat = -omega sin(dt*omega) f_hat + cos(dt*omega) g_hat

with dt = t - t0 and sin(dt*omega)/omega -> dt as omega -> 0.  The same
multipliers drive both the grid propagator and the pointwise space-time
evaluator used for sampling on curved slices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, GridMismatchError
from .grid import (
    EVAL_CHUNK_ENTRIES,
    Field,
    Grid,
    SpectralField,
    coordinate_field,
    forward_transform,
    gradient,
    inverse_transform,
    l2_norm,
    laplacian,
    spatial_derivative,
    spectral_index_map,
)


@dataclass(frozen=True)
class CauchyData:
    """Position/velocity data (f, g) prescribed at time t0 with mass m."""

    f: Field
    g: Field
    t0: float = 2.0
    mass: float = 0.0

    def __post_init__(self):
        if self.f.grid != self.g.grid:
            raise GridMismatchError("f and g must share one grid")
        if self.mass < 0:
            raise ValueError(f"mass must be nonnegative, got {self.mass}")

    @property
    def grid(self) -> Grid:
        return self.f.grid

    @classmethod
    def from_spectra(
        cls, f_hat: SpectralField, g_hat: SpectralField, t0: float, mass: float
    ) -> CauchyData:
        """Data whose fields are the inverse transforms of ``f_hat`` and
        ``g_hat``, which become its ``spectra`` as they are, so modes that are
        exactly zero stay exactly zero."""
        data = cls(inverse_transform(f_hat), inverse_transform(g_hat), t0, mass)
        data._keep_spectra(f_hat.coefficients, g_hat.coefficients)
        return data

    @property
    def spectra(self) -> tuple:
        """(f_hat, g_hat), transformed once per data; read-only."""
        kept = self.__dict__.get("_spectra")
        if kept is None:
            kept = self._keep_spectra(
                forward_transform(self.f).coefficients, forward_transform(self.g).coefficients
            )
        return kept

    def _keep_spectra(self, f_hat: np.ndarray, g_hat: np.ndarray) -> tuple:
        for c in (f_hat, g_hat):
            c.setflags(write=False)
        self.__dict__["_spectra"] = f_hat, g_hat
        return f_hat, g_hat


@dataclass(frozen=True)
class EvolvedState:
    """Solution snapshot: phi, its time derivative, and its gradient."""

    data: CauchyData
    t: float
    phi: Field
    dphi_dt: Field
    grad_phi: tuple


def _omega(grid: Grid, mass: float) -> np.ndarray:
    return np.sqrt(grid.frequency_norm**2 + mass**2)


def _multipliers(dt, omega) -> tuple:
    """cos(dt*omega), sin(dt*omega) and sin(dt*omega)/omega, the last with its
    limit dt at omega = 0; ``dt`` is a scalar or broadcasts against ``omega``'s
    last axes."""
    angles = dt * omega
    sin_ = np.sin(angles)
    zero = omega == 0.0
    sinc = sin_ / np.where(zero, 1.0, omega)
    if np.any(zero):
        sinc[..., zero] = dt
    return np.cos(angles), sin_, sinc


def evolve_spectra(data: CauchyData, t: float) -> tuple:
    """(phi_hat, dphi_hat) at time t as spectral fields."""
    g = data.grid
    dt = t - data.t0
    omega = _omega(g, data.mass)
    fh, gh = data.spectra
    cos_, sin_, sinc = _multipliers(dt, omega)
    phi_hat = cos_ * fh + sinc * gh
    dphi_hat = -omega * sin_ * fh + cos_ * gh
    return SpectralField(g, phi_hat), SpectralField(g, dphi_hat)


def evolve(data: CauchyData, t: float) -> EvolvedState:
    """Propagate the data to time t on its own grid."""
    phi_hat, dphi_hat = evolve_spectra(data, t)
    phi = inverse_transform(phi_hat)
    dphi = inverse_transform(dphi_hat)
    grad = tuple(gradient(phi))
    return EvolvedState(data, t, phi, dphi, grad)


def evaluate_at_points(data: CauchyData, times, points):
    """Evaluate (phi, dphi_dt, grad phi) at arbitrary space-time points.

    ``times`` has shape (P,), ``points`` shape (P, d).  Uses direct Fourier
    summation with the same multipliers as :func:`evolve`; cost is one
    points-by-modes block per quantity, processed in chunks.

    Returns (phi, dphi_dt, grad) with shapes (P,), (P,), (P, d).
    """
    g = data.grid
    times = np.atleast_1d(np.asarray(times, dtype=float))
    points = np.asarray(points, dtype=float).reshape(len(times), g.dim)
    n = len(times)
    phi = np.empty(n)
    dphi = np.empty(n)
    grad = np.empty((n, g.dim))
    if n == 0:
        return phi, dphi, grad

    xi = g.flat_frequency_lattice()  # (M, d)
    m_modes = xi.shape[0]
    omega = np.sqrt(np.sum(xi**2, axis=-1) + data.mass**2)
    fh, gh = (c.ravel() for c in data.spectra)
    inv_vol = 1.0 / g.box_length**g.dim

    chunk = max(1, EVAL_CHUNK_ENTRIES // m_modes)
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        dt = (times[lo:hi] - data.t0)[:, None]  # (p, 1)
        phase = np.exp(1j * points[lo:hi] @ xi.T)  # (p, M)
        cos_, sin_, sinc = _multipliers(dt, omega)
        amp = cos_ * fh + sinc * gh
        phi[lo:hi] = inv_vol * np.real(np.sum(phase * amp, axis=1))
        damp = -omega * sin_ * fh + cos_ * gh
        dphi[lo:hi] = inv_vol * np.real(np.sum(phase * damp, axis=1))
        for a in range(g.dim):
            grad[lo:hi, a] = inv_vol * np.real(
                np.sum(phase * (1j * xi[None, :, a] * amp), axis=1)
            )
    return phi, dphi, grad


def support_radius(field: Field, rel_threshold: float = 1e-5) -> float:
    """Largest |x| where |field| exceeds rel_threshold * max; 0 for zero fields.

    The default threshold sits above typical spectral-leakage floors, so the
    result tracks the effective support of sampled compactly supported data
    even after spectral differentiation.
    """
    v = np.abs(field.values)
    peak = np.max(v)
    if peak == 0.0:
        return 0.0
    r2 = np.zeros(field.grid.shape)
    for x in field.grid.coordinate_arrays():
        r2 += x**2
    mask = v > rel_threshold * peak
    return float(np.sqrt(np.max(r2[mask])))


def data_support_radius(data: CauchyData, rel_threshold: float = 1e-5) -> float:
    return max(
        support_radius(data.f, rel_threshold), support_radius(data.g, rel_threshold)
    )


def boost_commuted_data(data: CauchyData, axis: int) -> CauchyData:
    """Cauchy data at t0 for the boosted solution (x^i d_t + t d_i) phi.

    The coefficients below hard-code the prescription time t0 = 2; iterating
    the map yields data for repeated boosts.  The product with the centered
    coordinate requires the data support to stay one unit inside the box.
    """
    if data.t0 != 2.0:
        raise ConfigurationError(
            f"commuted-data coefficients assume prescription time 2, got t0={data.t0}"
        )
    g = data.grid
    if not 0 <= axis < g.dim:
        raise IndexError(f"axis {axis} out of range for dim {g.dim}")
    x = coordinate_field(g, axis)
    df = spatial_derivative(data.f, axis)
    dg = spatial_derivative(data.g, axis)
    f_new = df * 2.0 + x * data.g
    g_new = df + dg * 2.0 + x * laplacian(data.f) - x * data.f * data.mass**2
    out = CauchyData(f_new, g_new, data.t0, data.mass)
    margin = g.box_length / 2.0 - data_support_radius(out)
    if margin < 1.0:
        raise ConfigurationError(
            f"commuted data reaches within {margin:.3f} of the box edge; "
            "the centered-coordinate product needs a margin of at least 1"
        )
    return out


def iterated_boost_data(data: CauchyData, axes) -> CauchyData:
    """Data for L^{i_1} ... L^{i_k} phi, applied left to right."""
    out = data
    for axis in reversed(tuple(axes)):
        out = boost_commuted_data(out, axis)
    return out


def flat_energy(data: CauchyData) -> float:
    """The constant-time energy integral g^2 + |grad f|^2 + m^2 f^2."""
    total = l2_norm(data.g) ** 2 + (data.mass * l2_norm(data.f)) ** 2
    for a in range(data.grid.dim):
        total += l2_norm(spatial_derivative(data.f, a)) ** 2
    return total


def flat_energy_at(state: EvolvedState) -> float:
    total = l2_norm(state.dphi_dt) ** 2 + (state.data.mass * l2_norm(state.phi)) ** 2
    for df in state.grad_phi:
        total += l2_norm(df) ** 2
    return total


def _band_limit_defect(coeff: np.ndarray, grid: Grid, band: int) -> float:
    lo, hi = 2.0 ** (band - 1), 2.0 ** (band + 1)
    r = grid.frequency_norm
    outside = (r < lo * (1 - 1e-9)) | (r > hi * (1 + 1e-9))
    scale = np.max(np.abs(coeff))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(coeff[outside])) / scale)


def rescale_high_frequency(
    data: CauchyData, band: int, target_grid: Grid | None = None
) -> CauchyData:
    """Zoom band-k data to unit frequency scale: f(x) -> f(2^-k x), g scaled
    by an extra 2^-k, mass by 2^-k, on a grid with the same spacing and a
    2^k larger box.

    The map is an exact spectral index assignment: the target coefficient at
    xi equals 2^(k d) times the source coefficient at 2^k xi, which lands on
    the source lattice because the boxes are dyadically related.
    """
    if band < 0:
        raise ValueError(f"band must be >= 0, got {band}")
    g = data.grid
    scale = 2**band
    if target_grid is None:
        # the dyadic target box scales with the data, so the dilation maps
        # the source box onto the target box exactly; no support check needed
        target_grid = Grid(g.dim, g.points_per_axis * scale, g.box_length * scale)
    elif target_grid.box_length / 2.0 < scale * data_support_radius(data) + 1.0:
        raise ConfigurationError(
            "rescaled field does not fit the target box with a unit margin"
        )

    fh, gh = data.spectra
    for name, coeff in (("f", fh), ("g", gh)):
        defect = _band_limit_defect(coeff, g, band)
        if defect > 1e-8:
            raise ConfigurationError(
                f"{name} is not band-limited to band {band} "
                f"(relative out-of-band amplitude {defect:.2e})"
            )

    pos = spectral_index_map(g.points_per_axis, target_grid.points_per_axis)
    sel = np.ix_(*([pos] * g.dim))
    amp = float(scale**g.dim)

    f_coeff = np.zeros(target_grid.shape, dtype=complex)
    f_coeff[sel] = amp * fh
    g_coeff = np.zeros(target_grid.shape, dtype=complex)
    g_coeff[sel] = (amp / scale) * gh

    return CauchyData(
        inverse_transform(SpectralField(target_grid, f_coeff)),
        inverse_transform(SpectralField(target_grid, g_coeff)),
        data.t0,
        data.mass / scale,
    )
