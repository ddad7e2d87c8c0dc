"""Smooth partition of unity subordinate to unit balls on the lattice
(1/sqrt(d)) Z^d, and the W^{k,1} comparability diagnostics it supports.

Construction: chi_i(x) = eta(x - c_i) / sum_j eta(x - c_j) with eta the
standard mollifier scaled to the unit ball.  The lattice spacing 1/sqrt(d)
puts every point within distance 1/2 of a center, where eta is bounded
below, so the quotient is smooth and the pieces sum to 1 identically.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bumps import mollifier
from .errors import ConfigurationError
from .grid import Field, Grid, multi_indices, partial_derivative, sobolev_w_k1_norm


def overlap_bound(dim: int) -> int:
    """Upper bound (16 d)^(d/2) on how many unit balls share a point."""
    return int(round((16.0 * dim) ** (dim / 2.0)))


def _mother_cutoff_derivative_bound(dim: int, max_order: int) -> float:
    """Sup-norm bound over all derivatives of order <= max_order of one cutoff.

    The interior cutoffs are all translates of a single profile, evaluated
    here on a fine periodic patch with a locally complete lattice sum and
    differentiated spectrally.
    """
    n = 256 if dim == 1 else 128
    half = 2.0
    patch = Grid(dim, n, 2.0 * half)
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


@dataclass(frozen=True)
class UnitBallPartition:
    """Cutoffs chi_i subordinate to unit balls around lattice centers.

    ``active_radius`` is the half-width of the region on which the pieces
    are guaranteed to sum to one; centers extend one ball beyond it.
    """

    dim: int
    active_radius: float
    centers: np.ndarray

    @classmethod
    def build(cls, dim: int, active_radius: float) -> "UnitBallPartition":
        if active_radius <= 0:
            raise ConfigurationError("active_radius must be positive")
        spacing = 1.0 / np.sqrt(dim)
        reach = int(np.floor((active_radius + 1.0) / spacing)) + 1
        pts = [
            np.array(steps, dtype=float) * spacing
            for steps in itertools.product(range(-reach, reach + 1), repeat=dim)
        ]
        centers = np.array([c for c in pts if np.max(np.abs(c)) <= active_radius + 1.0 + spacing])
        return cls(dim, active_radius, centers)

    @property
    def n_cutoffs(self) -> int:
        return len(self.centers)

    @cached_property
    def derivative_bound(self) -> float:
        """Uniform sup bound on the first d+2 derivatives of the family."""
        return _mother_cutoff_derivative_bound(self.dim, self.dim + 2)

    def _bump_values(self, i: int, points: np.ndarray) -> np.ndarray:
        d = np.linalg.norm(points - self.centers[i], axis=-1)
        return mollifier(d)

    def _denominator(self, points: np.ndarray) -> np.ndarray:
        den = np.zeros(points.shape[:-1])
        for i in range(self.n_cutoffs):
            den += self._bump_values(i, points)
        return den

    def cutoff_values(self, i: int, points) -> np.ndarray:
        """chi_i evaluated at arbitrary points (shape (..., dim))."""
        points = np.asarray(points, dtype=float)
        num = self._bump_values(i, points)
        out = np.zeros_like(num)
        mask = num > 0.0
        if np.any(mask):
            out[mask] = num[mask] / self._denominator(points[mask])
        return out

    def partition_sum(self, points) -> np.ndarray:
        """sum_i chi_i at arbitrary points; 1 wherever the lattice covers."""
        points = np.asarray(points, dtype=float)
        total = np.zeros(points.shape[:-1])
        for i in range(self.n_cutoffs):
            total += self.cutoff_values(i, points)
        return total

    def overlap_counts(self, points) -> np.ndarray:
        """Number of balls strictly containing each point."""
        points = np.asarray(points, dtype=float)
        counts = np.zeros(points.shape[:-1], dtype=int)
        for c in self.centers:
            counts += np.linalg.norm(points - c, axis=-1) < 1.0
        return counts

    def _check_grid(self, grid: Grid):
        if grid.box_length / 2.0 < self.active_radius:
            raise ConfigurationError(
                f"grid half-width {grid.box_length / 2.0} smaller than the "
                f"partition's active radius {self.active_radius}"
            )

    def cutoff_field(self, i: int, grid: Grid) -> Field:
        self._check_grid(grid)
        vals = self.cutoff_values(i, grid.lattice_points())
        return Field(grid, vals.reshape(grid.shape))

    def apply_cutoff(self, i: int, f: Field) -> Field:
        """The localized piece chi_i * f, supported in B(c_i, 1)."""
        return self.cutoff_field(i, f.grid) * f

    def touching(self, f: Field) -> list:
        """Indices whose ball meets the essential support of f, the points
        where |f| exceeds 1e-14 of its max."""
        cut = 1e-14 * np.max(np.abs(f.values))
        pts = f.grid.lattice_points()[np.abs(f.values).ravel() > cut]
        out = []
        for i, c in enumerate(self.centers):
            if len(pts) and np.min(np.linalg.norm(pts - c, axis=-1)) < 1.0:
                out.append(i)
        return out


def ball_restricted_w_k1(f: Field, center: np.ndarray, k: int) -> float:
    """W^{k,1} norm of f with integrals restricted to the unit ball at center."""
    g = f.grid
    r = np.linalg.norm(g.lattice_points() - np.asarray(center, float), axis=-1)
    mask = (r < 1.0).reshape(g.shape)
    total = 0.0
    for alpha in multi_indices(g.dim, k):
        total += g.cell_volume * np.sum(np.abs(partial_derivative(f, alpha).values[mask]))
    return total


@dataclass(frozen=True)
class ComparabilityReport:
    """The three W^{k,1} quantities of the localization inequality chain."""

    order: int
    whole: float          # ||f||_{W^{k,1}}
    localized_sum: float  # sum_i ||chi_i f||_{W^{k,1}}
    ball_sum: float       # sum_i ||f||_{W^{k,1}(B_i)}

    @property
    def ratio_localized(self) -> float:
        return self.localized_sum / self.whole if self.whole else 0.0

    @property
    def ratio_balls(self) -> float:
        return self.ball_sum / self.whole if self.whole else 0.0


def w_k1_comparability(p: UnitBallPartition, f: Field, k: int) -> ComparabilityReport:
    """Evaluate ||f||_{W^{k,1}} <= sum ||chi_i f|| <~ sum ||f||_{W^{k,1}(B_i)} <~ ||f||.

    Only cutoffs whose ball meets the support of f contribute; the two
    reported ratios are bounded by dimension-dependent constants.
    """
    d = f.grid.dim
    if not 0 <= k <= d + 2:
        raise ValueError(f"comparability order must satisfy 0 <= k <= d+2, got {k}")
    whole = sobolev_w_k1_norm(f, k)
    localized = 0.0
    balls = 0.0
    for i in p.touching(f):
        localized += sobolev_w_k1_norm(p.apply_cutoff(i, f), k)
        balls += ball_restricted_w_k1(f, p.centers[i], k)
    return ComparabilityReport(k, whole, localized, balls)
