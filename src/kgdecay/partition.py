"""Smooth partition of unity subordinate to unit balls on the lattice
(1/sqrt(d)) Z^d, and the W^{k,1} comparability diagnostics it supports.

Construction: chi_i(x) = eta(x - c_i) / sum_j eta(x - c_j) with eta the
standard mollifier scaled to the unit ball.  The lattice spacing 1/sqrt(d)
puts every point within distance 1/2 of a center, where eta is bounded
below, so the quotient is smooth and the pieces sum to 1 identically.

The denominator of chi_i sums only the neighbours |c_j - c_i| < 2, and only
where eta(x - c_i) > 0: the full sum bit for bit, since eta underflows to 0
beyond |x - c| > 0.9993, so every other center adds an exact 0.0 there.
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
        """Uniform sup bound on the first d+2 derivatives of the family, whose
        interior cutoffs are translates of one profile: the origin cutoff of
        the partition with active radius 2, which holds every neighbour of the
        origin, sampled on [-2, 2)^d and differentiated spectrally."""
        mother = UnitBallPartition.build(self.dim, active_radius=2.0)
        origin = int(np.argmin(np.linalg.norm(mother.centers, axis=-1)))
        chi = mother.cutoff_field(origin, Grid(self.dim, 256 if self.dim == 1 else 128, 4.0))
        return max(
            float(np.max(np.abs(partial_derivative(chi, alpha).values)))
            for alpha in multi_indices(self.dim, self.dim + 2)
        )

    def cutoff_values(self, i: int, points) -> np.ndarray:
        """chi_i evaluated at arbitrary points (shape (..., dim)), with the
        denominator summed over the neighbours of c_i in index order."""
        points = np.asarray(points, dtype=float)
        num = mollifier(np.linalg.norm(points - self.centers[i], axis=-1))
        mask = num > 0.0
        inside = points[mask]
        den = np.zeros(len(inside))
        for c in self.centers[np.linalg.norm(self.centers - self.centers[i], axis=-1) < 2.0]:
            den += mollifier(np.linalg.norm(inside - c, axis=-1))
        num[mask] /= den
        return num

    def partition_sum(self, points) -> np.ndarray:
        """sum_i chi_i at arbitrary points, added in index order; 1 wherever
        the lattice covers."""
        return sum(self.cutoff_values(i, points) for i in range(self.n_cutoffs))

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
        """chi_i on the lattice, evaluated only on the box of lattice points
        within 1 of c_i along every axis and 0 elsewhere, outside B(c_i, 1)."""
        self._check_grid(grid)
        x = grid.axis_coordinates
        box = tuple(
            slice(np.searchsorted(x, c - 1.0), np.searchsorted(x, c + 1.0, side="right"))
            for c in self.centers[i]
        )
        axes = np.meshgrid(*(x[s] for s in box), indexing="ij")
        inside = self.cutoff_values(i, np.stack([a.ravel() for a in axes], axis=-1))
        vals = np.zeros(grid.shape)
        vals[box] = inside.reshape(axes[0].shape)
        return Field(grid, vals)

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
    reported ratios are bounded by dimension-dependent constants.  Each
    |d^alpha f| is taken once, and the whole norm and every ball's
    restricted norm sum those arrays.
    """
    g = f.grid
    if not 0 <= k <= g.dim + 2:
        raise ValueError(f"comparability order must satisfy 0 <= k <= d+2, got {k}")
    derivatives = [np.abs(partial_derivative(f, alpha).values) for alpha in multi_indices(g.dim, k)]
    whole = sum(float(g.cell_volume * np.sum(a)) for a in derivatives)
    localized = balls = 0.0
    points = g.lattice_points()
    for i in p.touching(f):
        localized += sobolev_w_k1_norm(p.apply_cutoff(i, f), k)
        ball = (np.linalg.norm(points - p.centers[i], axis=-1) < 1.0).reshape(g.shape)
        balls += sum(g.cell_volume * np.sum(a[ball]) for a in derivatives)
    return ComparabilityReport(k, whole, localized, balls)
