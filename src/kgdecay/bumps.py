"""Smooth compactly supported profiles: the standard mollifier (used by the
frequency-band and partition constructions), smooth steps built from it, and
tensor-product bump fields used as test data.

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


def radial_transition(r, inner: float, outer: float) -> np.ndarray:
    """Smooth radial cutoff: 1 for r <= inner, 0 for r >= outer."""
    if not 0.0 <= inner < outer:
        raise ValueError(f"need 0 <= inner < outer, got ({inner}, {outer})")
    return smoothstep((outer - np.asarray(r, dtype=float)) / (outer - inner))


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


def bump_profile_derivative(r, sharpness: float = 1.0) -> np.ndarray:
    """Closed-form d/dr of :func:`bump_profile`: the profile times
    -2 s r / (1 - r^2)^2 on |r| < 1, exactly supported there."""
    r = np.asarray(r, dtype=float)
    out = bump_profile(r, sharpness)
    inside = np.abs(r) < 1.0
    ri = r[inside]
    out[inside] *= -2.0 * sharpness * ri / (1.0 - ri**2) ** 2
    return out


def _bump_factors(grid: Grid, center, width):
    center = np.zeros(grid.dim) if center is None else np.atleast_1d(np.asarray(center, float))
    width = np.broadcast_to(np.asarray(width, dtype=float), (grid.dim,)).copy()
    if np.any(width <= 0):
        raise ValueError("bump width must be positive")
    return center, width


def bump_field(
    grid: Grid, center=None, width=1.0, amplitude: float = 1.0, sharpness: float = 1.0
) -> Field:
    """Tensor-product bump supported in the product of |x_a - c_a| < w_a."""
    center, width = _bump_factors(grid, center, width)
    vals = np.ones(grid.shape)
    for a, x in enumerate(grid.coordinate_arrays()):
        vals = vals * bump_profile((x - center[a]) / width[a], sharpness)
    return Field(grid, amplitude * vals)


def bump_derivative_field(
    grid: Grid, axis: int = 0, center=None, width=1.0, amplitude: float = 1.0,
    sharpness: float = 1.0,
) -> Field:
    """Closed-form partial derivative of :func:`bump_field` along one axis.

    Unlike a spectral derivative of the sampled bump, this is exactly zero
    outside the bump's support.
    """
    if not 0 <= axis < grid.dim:
        raise IndexError(f"axis {axis} out of range for dim {grid.dim}")
    center, width = _bump_factors(grid, center, width)
    vals = np.ones(grid.shape)
    for a, x in enumerate(grid.coordinate_arrays()):
        u = (x - center[a]) / width[a]
        if a == axis:
            vals = vals * bump_profile_derivative(u, sharpness) / width[a]
        else:
            vals = vals * bump_profile(u, sharpness)
    return Field(grid, amplitude * vals)

