"""Dyadic Littlewood-Paley projector bank on a periodic grid.

The bank is built telescopically from one smooth radial low-pass profile
theta (1 for r <= 1/2, 0 for r >= 1): the mother bump is
psi(r) = theta(r/2) - theta(r), supported in the annulus [1/2, 2], and band
k >= 0 carries the symbol psi(2^-k |xi|).  By telescoping,

    theta(|xi|) + sum_{k=0..K} psi(2^-k |xi|) = theta(2^-(K+1) |xi|),

which equals 1 identically on the grid's frequency lattice once
2^K >= max |xi|; completeness is exact by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bumps import smoothstep
from .grid import Field, Grid, SpectralField, inverse_transform

LOW_PASS_BAND = -1


def low_pass_profile(r) -> np.ndarray:
    """Radial symbol of the low-frequency projector: 1 below 1/2, 0 above 1."""
    return smoothstep((1.0 - np.asarray(r, dtype=float)) / (1.0 - 0.5))


def mother_bump(r) -> np.ndarray:
    """Radial band profile psi(r) = theta(r/2) - theta(r), supported in [1/2, 2]."""
    r = np.asarray(r, dtype=float)
    return low_pass_profile(r / 2.0) - low_pass_profile(r)


@dataclass(frozen=True)
class LittlewoodPaleyBank:
    """Projectors P_{-1}, P_0, ..., P_{k_max} on a grid's dual lattice.  Each
    band's symbol is evaluated when that band is first asked for, and kept."""

    grid: Grid
    k_max: int
    _symbols: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def for_grid(cls, grid: Grid) -> "LittlewoodPaleyBank":
        """A new bank closing on ``grid``, with no symbol evaluated yet."""
        # smallest K with 2^K >= max |xi| closes the telescoped sum exactly
        xi_max = float(np.max(grid.frequency_norm))
        return cls(grid, max(0, math.ceil(math.log2(xi_max))))

    @property
    def bands(self) -> list:
        return [LOW_PASS_BAND] + list(range(self.k_max + 1))

    def symbol(self, k: int) -> np.ndarray:
        if k not in self._symbols:
            if k not in self.bands:
                raise ValueError(f"band {k} out of range [-1, {self.k_max}]")
            r = self.grid.frequency_norm
            low = k == LOW_PASS_BAND
            self._symbols[k] = low_pass_profile(r) if low else mother_bump(r / 2.0**k)
        return self._symbols[k]

    def project(self, f: Field, k: int) -> Field:
        """Apply the band-k projector; real in, real out."""
        return inverse_transform(self.project_spectrum(f.spectrum, k))

    def project_spectrum(self, F: SpectralField, k: int) -> SpectralField:
        return SpectralField(self.grid, self.symbol(k) * F.coefficients)

    def decompose(self, f: Field) -> dict:
        """All band pieces keyed by k; their sum reproduces f."""
        return {k: inverse_transform(self.project_spectrum(f.spectrum, k)) for k in self.bands}

    def completeness_residual(self) -> float:
        """max |1 - sum of all band symbols| over the frequency lattice."""
        total = np.zeros(self.grid.shape)
        for k in self.bands:
            total += self.symbol(k)
        return float(np.max(np.abs(total - 1.0)))

    def band_support_bounds(self, k: int) -> tuple:
        """(lower, upper) radial support bounds of the band-k symbol."""
        if k == LOW_PASS_BAND:
            return (0.0, 1.0)
        return (2.0 ** (k - 1), 2.0 ** (k + 1))
