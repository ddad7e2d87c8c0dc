"""Independent oracles used by the test suite.

These deliberately avoid the library's multiplier/quadrature code paths:
RK4 time integration per mode, complex direct Fourier summation at points
and on lattices, complex zero-padded upsampling, centered finite
differences, adaptive quadrature of closed-form profiles, and closed-form
single-mode solutions.  ``evolve`` is not an oracle: it turns the library's
``evolve_spectra`` into a snapshot of phi, d_t phi and grad phi on the grid,
for the tests to read.
Nor is ``data_slice_samples``: it samples data on a slice as the run plan
does, for the slice checks to read.
The partition oracles are the direct forms that the library's partition
shortens: cutoffs over the full denominator, the cutoff derivative bound
from a private lattice sum, and one ball's restricted norm with its own
derivatives.
``tensor_bump_values`` is the per-axis product the radial bump fields
replaced; in 1-D the two agree bit for bit.
"""

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from kgdecay.bumps import bump_profile, mollifier
from kgdecay.grid import (
    Field,
    Grid,
    SpectralField,
    forward_transform,
    inverse_transform,
    l2_norm,
    multi_indices,
    partial_derivative,
)
from kgdecay.hyperboloid import build_slice, slice_samples
from kgdecay.propagator import CauchyData, data_support_radius, evolve_spectra, jet_columns


@dataclass(frozen=True)
class EvolvedState:
    """Solution snapshot: phi, its time derivative, and its gradient."""

    data: CauchyData
    t: float
    phi: Field
    dphi_dt: Field
    grad_phi: tuple


def evolve(data: CauchyData, t: float) -> EvolvedState:
    """Propagate the data to time t on its own grid."""
    phi_hat, dphi_hat = evolve_spectra(data, t)
    phi = inverse_transform(phi_hat)
    grad = tuple(partial_derivative(phi, e) for e in np.eye(phi.grid.dim, dtype=int).tolist())
    return EvolvedState(data, t, phi, inverse_transform(dphi_hat), grad)


def data_slice_samples(data: CauchyData, tau: float, order: int = 0) -> list:
    """The samples of the data and its boosts up to ``order`` on the tau-slice
    reaching past the data's support cone, as ``RunPlan.samples`` takes them."""
    slc = build_slice(tau, data.grid, data_support_radius(data), data.t0)
    return slice_samples(data, slc, order)


def flat_energy_at(state: EvolvedState) -> float:
    """The constant-time energy integral of a snapshot."""
    total = l2_norm(state.dphi_dt) ** 2 + (state.data.mass * l2_norm(state.phi)) ** 2
    for df in state.grad_phi:
        total += l2_norm(df) ** 2
    return total


def rk4_mode_oracle(data: CauchyData, t: float, target_local_error: float = 1e-9):
    """Evolve every Fourier mode of the data with classic RK4 on
    y'' = -omega^2 y and return the resulting field.

    The step is chosen so the local truncation error (~ (omega h)^5 / 120
    per step) stays below ``target_local_error`` relative to the mode
    amplitude.
    """
    g = data.grid
    omega = np.sqrt(g.frequency_norm**2 + data.mass**2)
    span = t - data.t0
    w_max = float(np.max(omega))
    if span == 0.0 or w_max == 0.0:
        return Field(g, data.f.values.copy())
    h = (120.0 * target_local_error / w_max**5) ** 0.2
    n_steps = max(1, int(np.ceil(abs(span) / h)))
    h = span / n_steps

    y = forward_transform(data.f).coefficients.astype(complex)
    v = forward_transform(data.g).coefficients.astype(complex)
    w2 = omega**2

    for _ in range(n_steps):
        k1y, k1v = v, -w2 * y
        y2, v2 = y + 0.5 * h * k1y, v + 0.5 * h * k1v
        k2y, k2v = v2, -w2 * y2
        y3, v3 = y + 0.5 * h * k2y, v + 0.5 * h * k2v
        k3y, k3v = v3, -w2 * y3
        y4, v4 = y + h * k3y, v + h * k3v
        k4y, k4v = v4, -w2 * y4
        y = y + (h / 6.0) * (k1y + 2 * k2y + 2 * k3y + k4y)
        v = v + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)

    return inverse_transform(SpectralField(g, y)), inverse_transform(SpectralField(g, v))


def direct_sum_oracle(data: CauchyData, times, points, order: int = 0, block: int = 2**18):
    """The columns d_x^alpha d_t^j phi, keyed (alpha, j) by ``jet_columns(d,
    order)``, at space-time points by complex direct summation of ``L^-d Re
    sum_k exp(i xi_k.x) (i xi_k)^alpha d_t^j m_k(t) F_k`` over every lattice
    mode, with the multipliers cos(dt w), sin(dt w)/w (through ``np.sinc``)
    and their t-derivatives formed per point and mode.  ``times`` has shape
    (P,), ``points`` (P, d); returns an array (C, P)."""
    g = data.grid
    times = np.atleast_1d(np.asarray(times, dtype=float))
    points = np.asarray(points, dtype=float).reshape(len(times), g.dim)
    xi = np.stack([x.ravel() for x in g.frequency_arrays()], axis=-1)
    omega = np.sqrt(np.sum(xi**2, axis=-1) + data.mass**2)
    fh, gh = (c.ravel() for c in data.spectra)
    columns = jet_columns(g.dim, order)
    n = len(times)
    out = np.empty((n, len(columns)))
    rows = max(1, block // len(xi))
    for lo in range(0, n, rows):
        dt = (times[lo : lo + rows] - data.t0)[:, None]
        phase = np.exp(1j * points[lo : lo + rows] @ xi.T)
        amp = np.cos(dt * omega) * fh + dt * np.sinc(dt * omega / np.pi) * gh
        damp = -omega * np.sin(dt * omega) * fh + np.cos(dt * omega) * gh
        cols = [np.prod((1j * xi) ** k[:-1], axis=-1) * (amp, damp)[k[-1]] for k in columns]
        out[lo : lo + rows] = np.stack([np.sum(phase * c, axis=1).real for c in cols], -1)
    out /= g.box_length**g.dim
    return out.T


def lattice_sum_oracle(data: CauchyData, t: float, q: int):
    """(phi, dphi_dt, grad phi) at time t on the lattice of q points per axis
    in the data's box, x = -L/2 + j L / q, by complex direct summation of
    ``L^-d Re sum_k exp(i xi_k.x) m_k(t) F_k`` over every lattice mode, one
    axis at a time: shapes (q,) * d, (q,) * d and (d,) + (q,) * d."""
    g = data.grid
    x = -0.5 * g.box_length + g.box_length / q * np.arange(q)
    waves = np.exp(1j * np.outer(x, g.axis_frequencies))
    xi = g.frequency_arrays()
    omega = np.sqrt(sum(k**2 for k in xi) + data.mass**2)
    dt = t - data.t0
    fh, gh = data.spectra
    amp = np.cos(dt * omega) * fh + dt * np.sinc(dt * omega / np.pi) * gh
    damp = -omega * np.sin(dt * omega) * fh + np.cos(dt * omega) * gh
    out = []
    for c in [amp, damp] + [1j * k * amp for k in xi]:
        for axis in range(g.dim):
            c = np.moveaxis(np.tensordot(waves, c, axes=([1], [axis])), 0, axis)
        out.append(c.real / g.box_length**g.dim)
    return out[0], out[1], np.stack(out[2:])


def complex_upsample_oracle(spectrum: SpectralField, m: int) -> np.ndarray:
    """Real part of the trigonometric interpolant of ``spectrum`` on the
    lattice of m points per axis in the same box: the coefficients are
    placed at their signed frequencies in a zero complex array of q points
    per axis, q = max(m, N) (the Nyquist mode at -N/2 only), inverse-
    transformed on that grid, and every (q / m)-th point is kept."""
    g = spectrum.grid
    q = max(m, g.points_per_axis)
    fine = Grid(g.dim, q, g.box_length)
    signed = np.fft.fftfreq(g.points_per_axis, d=1.0 / g.points_per_axis).astype(int)
    pos = np.mod(signed, q)
    padded = np.zeros(fine.shape, dtype=complex)
    padded[np.ix_(*([pos] * g.dim))] = spectrum.coefficients
    values = inverse_transform(SpectralField(fine, padded)).values
    return values[(slice(None, None, q // m),) * g.dim]


def centered_difference(values: np.ndarray, spacing: float, axis: int) -> np.ndarray:
    """Second-order centered difference on a periodic lattice."""
    return (np.roll(values, -1, axis=axis) - np.roll(values, 1, axis=axis)) / (
        2.0 * spacing
    )


def bump_mass_1d(width: float, amplitude: float = 1.0, sharpness: float = 1.0) -> float:
    """Adaptive-quadrature mass of the closed-form 1d bump profile."""

    def profile(x):
        u = x / width
        if abs(u) >= 1.0:
            return 0.0
        return amplitude * np.exp(-sharpness * u**2 / (1.0 - u**2))

    val, _ = quad(profile, -width, width, epsabs=1e-13, epsrel=1e-13, limit=200)
    return val


def tensor_bump_values(grid, center=None, width=1.0, amplitude=1.0, sharpness=1.0, axis=None):
    """The tensor-product bump prod_a p(u_a), u_a = (x_a - c_a) / w_a and
    p = bump_profile, supported in the box |u_a| < 1; with ``axis``, its
    closed-form partial derivative along that axis."""
    center = np.zeros(grid.dim) if center is None else np.atleast_1d(np.asarray(center, float))
    width = np.broadcast_to(np.asarray(width, dtype=float), (grid.dim,))
    vals = np.ones(grid.shape)
    for a, x in enumerate(grid.coordinate_arrays()):
        u = (x - center[a]) / width[a]
        p = bump_profile(u, sharpness)
        if a == axis:
            inside = np.abs(u) < 1.0
            ui = u[inside]
            p[inside] *= -2.0 * sharpness * ui / (1.0 - ui**2) ** 2
            vals = vals * p / width[a]
        else:
            vals = vals * p
    return amplitude * vals


def slice_integral_radial_oracle(tau: float, profile, radius: float, dim: int) -> float:
    """High-resolution radial quadrature of int profile(|x|) (tau/t) dx over
    the tau-slice, for radially symmetric profiles supported in |x| < radius."""

    if dim == 1:
        def integrand(r):
            return 2.0 * profile(r) * tau / np.sqrt(tau**2 + r**2)
    elif dim == 2:
        def integrand(r):
            return 2.0 * np.pi * r * profile(r) * tau / np.sqrt(tau**2 + r**2)
    else:
        raise NotImplementedError("oracle implemented for d <= 2")
    val, _ = quad(integrand, 0.0, radius, epsabs=1e-12, epsrel=1e-12, limit=400)
    return val


def single_mode_solution(xi0: float, mass: float, amp_f: float, amp_g: float):
    """Closed-form solution with data f = amp_f cos(xi0 x), g = amp_g cos(xi0 x).

    Returns callables (phi, dphi_dt, dphi_dx) of (t_elapsed, x).
    """
    omega = np.sqrt(xi0**2 + mass**2)

    def phi(dt, x):
        osc = amp_f * np.cos(dt * omega)
        if omega > 0:
            osc = osc + amp_g * np.sin(dt * omega) / omega
        else:
            osc = osc + amp_g * dt
        return osc * np.cos(xi0 * x)

    def dphi_dt(dt, x):
        return (-amp_f * omega * np.sin(dt * omega) + amp_g * np.cos(dt * omega)) * np.cos(
            xi0 * x
        )

    def dphi_dx(dt, x):
        osc = amp_f * np.cos(dt * omega)
        if omega > 0:
            osc = osc + amp_g * np.sin(dt * omega) / omega
        else:
            osc = osc + amp_g * dt
        return -xi0 * osc * np.sin(xi0 * x)

    return phi, dphi_dt, dphi_dx


def full_sum_cutoff_values(part, i: int, points) -> np.ndarray:
    """chi_i of a ``UnitBallPartition`` at points, its denominator summed over
    every center of the partition in index order."""
    points = np.asarray(points, dtype=float)
    num = mollifier(np.linalg.norm(points - part.centers[i], axis=-1))
    out = np.zeros_like(num)
    mask = num > 0.0
    if np.any(mask):
        den = np.zeros(points[mask].shape[:-1])
        for c in part.centers:
            den += mollifier(np.linalg.norm(points[mask] - c, axis=-1))
        out[mask] = num[mask] / den
    return out


def full_sum_partition_sum(part, points) -> np.ndarray:
    """sum_i chi_i from :func:`full_sum_cutoff_values`, added in index order."""
    points = np.asarray(points, dtype=float)
    total = np.zeros(points.shape[:-1])
    for i in range(part.n_cutoffs):
        total += full_sum_cutoff_values(part, i, points)
    return total


def lattice_cutoff_derivative_bound(dim: int, max_order: int) -> float:
    """Sup over all derivatives of order <= max_order of the origin cutoff,
    sampled on the periodic patch [-2, 2)^d with a lattice sum over every
    center within reach of the patch, and differentiated spectrally."""
    patch = Grid(dim, 256 if dim == 1 else 128, 4.0)
    coords = patch.coordinate_arrays()
    spacing = 1.0 / np.sqrt(dim)
    reach = int(np.ceil(2.0 / spacing))
    den = np.zeros(patch.shape)
    for steps in itertools.product(range(-reach, reach + 1), repeat=dim):
        r2 = np.zeros(patch.shape)
        for a in range(dim):
            r2 += (coords[a] - steps[a] * spacing) ** 2
        den += mollifier(np.sqrt(r2))
    r2 = np.zeros(patch.shape)
    for a in range(dim):
        r2 += coords[a] ** 2
    chi = Field(patch, mollifier(np.sqrt(r2)) / den)
    bound = 0.0
    for alpha in multi_indices(dim, max_order):
        bound = max(bound, float(np.max(np.abs(partial_derivative(chi, alpha).values))))
    return bound


def ball_restricted_w_k1(f: Field, center, k: int) -> float:
    """W^{k,1} norm of f with integrals restricted to the unit ball at
    center, each derivative of f taken afresh."""
    g = f.grid
    r = np.linalg.norm(g.lattice_points() - np.asarray(center, float), axis=-1)
    mask = (r < 1.0).reshape(g.shape)
    total = 0.0
    for alpha in multi_indices(g.dim, k):
        total += g.cell_volume * np.sum(np.abs(partial_derivative(f, alpha).values[mask]))
    return total
