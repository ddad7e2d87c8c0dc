"""Smooth compactly supported profiles: the standard mollifier (used by the
frequency-band and partition constructions), smooth steps built from it, and
the radial bump fields used as test data.

Test-data bumps take a ``sharpness`` parameter: the profile
exp(-s r^2 / (1 - r^2)) keeps unit-ball support for every s but its spectrum
decays like exp(-2 sqrt(s xi)), so larger s makes the sampled data effectively
band-limited on coarse grids (s = 4 reaches ~1e-12 relative at |xi| = 50)."""

from __future__ import annotations

import numpy as np

from .grid import Field, Grid


def mollifier(r) -> np.ndarray:
    """exp(-1/(1-r^2)) for |r| < 1, zero outside; C-infinity on the line."""
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    inside = np.abs(r) < 1.0
    with np.errstate(divide="ignore", over="ignore"):
        out[inside] = np.exp(-1.0 / (1.0 - r[inside] ** 2))
    return out


def smoothstep(t) -> np.ndarray:
    """Monotone C-infinity step: 0 for t <= 0, 1 for t >= 1."""
    t = np.asarray(t, dtype=float)
    lo = np.clip(t, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        qa = np.where(lo > 0.0, np.exp(-1.0 / np.where(lo > 0.0, lo, 1.0)), 0.0)
        qb = np.where(lo < 1.0, np.exp(-1.0 / np.where(lo < 1.0, 1.0 - lo, 1.0)), 0.0)
    return qa / (qa + qb)


def bump_profile(r, sharpness: float = 1.0) -> np.ndarray:
    """exp(-s r^2/(1-r^2)) on |r| < 1, zero outside; peak value 1 at r = 0."""
    if sharpness <= 0:
        raise ValueError("sharpness must be positive")
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    inside = np.abs(r) < 1.0
    ri = r[inside]
    with np.errstate(divide="ignore", over="ignore"):
        out[inside] = np.exp(-sharpness * ri**2 / (1.0 - ri**2))
    return out


def _scaled_offsets(grid: Grid, center, width):
    """u_a = (x_a - c_a) / w_a on the grid, one array per axis, r = |u| and
    the widths; in 1-D r == |u_0| bit for bit, as sqrt(u^2) == |u| in binary64."""
    center = np.broadcast_to(np.asarray(0.0 if center is None else center, float), (grid.dim,))
    width = np.broadcast_to(np.asarray(width, dtype=float), (grid.dim,))
    if np.any(width <= 0):
        raise ValueError("bump width must be positive")
    u = [(x - c) / w for x, c, w in zip(grid.coordinate_arrays(), center, width)]
    r = sum(a * a for a in u)
    return u, np.sqrt(r, out=r), width


def bump_field(
    grid: Grid, center=None, width=1.0, amplitude: float = 1.0, sharpness: float = 1.0
) -> Field:
    """Radial bump amplitude * bump_profile(|u|), u_a = (x_a - c_a) / w_a:
    supported in the ellipsoid |u| < 1, the ball B(c, w) for a scalar width."""
    _, r, _ = _scaled_offsets(grid, center, width)
    return Field(grid, amplitude * bump_profile(r, sharpness))


def bump_derivative_field(
    grid: Grid, axis: int = 0, center=None, width=1.0, amplitude: float = 1.0,
    sharpness: float = 1.0,
) -> Field:
    """Closed-form partial derivative of :func:`bump_field` along one axis:
    the profile times -2 s u_a / ((1 - r^2)^2 w_a) on r = |u| < 1.

    Unlike a spectral derivative of the sampled bump, this is exactly zero
    outside the bump's support.
    """
    if not 0 <= axis < grid.dim:
        raise IndexError(f"axis {axis} out of range for dim {grid.dim}")
    u, r, width = _scaled_offsets(grid, center, width)
    vals = bump_profile(r, sharpness)
    inside = r < 1.0
    ri = r[inside]
    vals[inside] *= -2.0 * sharpness * u[axis][inside] / (1.0 - ri**2) ** 2
    return Field(grid, amplitude * (vals / width[axis]))
