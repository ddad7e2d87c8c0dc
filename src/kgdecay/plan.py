"""The run plan of one configuration: every grid, time set and horizon it
derives, the slice data, its slice per tau and its samples there (the data's
and its boosts' up to the Sobolev order, from one evaluator pass per tau)
and the localized data, each built once per plan.  ``validate()`` checks the
configuration against them, and the CLI hands the same plan to the suites,
which read them."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bumps import bump_derivative_field, bump_field
from .config import (
    FIT_WINDOW, HIGHFREQ_LATE_TIMES, HIGHFREQ_WIDE_FACTOR, MIN_FIT_SAMPLES,
    PARTITION_ACTIVE_RADIUS, SLICE_SUITES, SUITES, TIME_SUITES, RunConfig,
)
from .errors import ConfigurationError
from .grid import Grid, sobolev_order
from .propagator import CauchyData, data_support_radius

# slice suites need steeper data: the jet they sample differentiates it up to
# one order past the Sobolev order, which weights its spectral tail by |xi|
# to that power
SLICE_DATA_SHARPNESS = 8.0
# localized's bump: low-frequency dominated, so its sup reaches the t^(-d/2)
# rate inside the fit window (wide-spectrum data has late-dispersing parts)
LOCALIZED_DATA_SHARPNESS = 1.0
# largest top-octave tail of the slice data or the localized data that the
# suites accept: energy, sobolev and pointwise pass at tails up to 0.17
# (N = 1024, L = 160), and energy fails (gaps > 1e-4) from 0.88 (d = 2,
# N = 128, L = 32); localized passes at 0.51 (N = 1024, L = 320) and fails at
# 0.998 (N = 512, L = 256)
MAX_NYQUIST_TAIL = 0.7
# the slice data's limit for taus below SMALL_TAU, whose slices pass near the
# vertex t = tau: energy's tau = 0.5 gap is 3.8e-3 at tail 4.6e-2 (N = 2048,
# L = 256), 1.2e-4 at 8.6e-3 (N = 128, L = 12) and 4.5e-7 at 1.1e-3 (defaults)
SMALL_TAU = 2.0
SMALL_TAU_NYQUIST_TAIL = 3e-3
# the most points of a grid the plan builds: 32 MB per float64 array, where
# one bump's coordinate arrays and spectra already take several; the largest
# grids tier-1, perfbench and the README run hold 2^18 points (2-D) and
# 2^15 (highfreq's wide 1-D grid)
MAX_GRID_POINTS = 2**22


def mass_commensurate_times(m0: float) -> np.ndarray:
    """Times t = pi k / m0 inside FIT_WINDOW.

    The low-frequency part of a mass-m0 solution carries a coherent
    oscillation at frequency ~ m0 until stationary-phase spreading
    decoheres it; sampling at the oscillation extrema measures the decay
    envelope instead of the phase, which is what the sup-norm bounds
    control.
    """
    lo, hi = FIT_WINDOW
    k = np.arange(int(np.ceil(lo * m0 / np.pi)), int(np.floor(hi * m0 / np.pi)) + 1)
    return np.pi * k / m0


def bump_pair_data(config: RunConfig, sharpness: float) -> CauchyData:
    """Deterministic bump pair supported in B(0, support_radius) at t0 = 2."""
    w = config.support_radius
    f = bump_field(config.grid, width=w, sharpness=sharpness)
    g = bump_derivative_field(config.grid, 0, width=w, sharpness=sharpness) * 0.5 + f * 0.25
    return CauchyData(f, g, 2.0, config.mass)


def nyquist_tail(data: CauchyData) -> float:
    """Largest |f_hat| or |g_hat| over the top octave below Nyquist (modes
    with some |xi_a| >= pi / (2 h)), relative to the peak of the same
    spectrum.  Doubling N at fixed L moves the octave up by one, over the
    decaying spectrum of resolved data."""
    g = data.grid
    top = np.max(np.abs(g.frequency_arrays()), axis=0) >= g.nyquist / 2
    tails = (np.max(c[top]) / np.max(c) for c in map(np.abs, data.spectra) if c.any())
    return float(max(tails, default=0.0))


@dataclass(frozen=True)
class RunPlan:
    config: RunConfig

    @cached_property
    def fit_times(self) -> dict:
        """mass -> the times localized and lowfreq sample the fit window at,
        for the configured mass and its half (localized's mass halving)."""
        m = self.config.mass
        return {mass: mass_commensurate_times(mass) for mass in (m, m / 2.0)}

    @property
    def highfreq_scale(self) -> int:
        """How many times wider and finer than the configured box highfreq's
        band sweep runs.  The phi bounds saturate only once stationary-phase
        spreading covers the band (t ~ 2^k / m0^2 with a sizable safety
        factor), so in d = 1 the sweep runs at HIGHFREQ_LATE_TIMES on a
        correspondingly longer box; in higher d at the configured times."""
        return HIGHFREQ_WIDE_FACTOR if self.config.dim == 1 else 1

    @cached_property
    def highfreq_grid(self) -> Grid:
        """The grid highfreq's band sweep runs on: the configured one, or a
        new wide one when the scale is above 1."""
        c, s = self.config, self.highfreq_scale
        return c.grid if s == 1 else Grid(c.dim, c.grid_n * s, c.box_length * s)

    @property
    def highfreq_times(self) -> tuple:
        return HIGHFREQ_LATE_TIMES if self.highfreq_scale > 1 else self.config.times

    @cached_property
    def horizons(self) -> list:
        """(box label, box length, horizon label, latest time) of each box the
        selected time-series suites evolve on; localized and lowfreq sample
        up to the fit window's end whatever `times` is."""
        c = self.config
        horizon, t_max = "max(times)", max(c.times, default=0.0)
        fixed = [s for s in ("localized", "lowfreq") if s in c.selected_suites]
        if fixed and FIT_WINDOW[1] > t_max:
            t_max = FIT_WINDOW[1]
            horizon = f"{t_max:g} (the fit window's end, sampled by {' and '.join(fixed)})"
        out = [("box_length", c.box_length, horizon, t_max)]
        if "highfreq" in c.selected_suites and self.highfreq_scale > 1:
            wide, t_late = c.box_length * self.highfreq_scale, max(self.highfreq_times)
            out.append(("highfreq's internal box_length", wide, "max(times)", t_late))
        return out

    @cached_property
    def slice_data(self) -> CauchyData:
        return bump_pair_data(self.config, SLICE_DATA_SHARPNESS)

    @cached_property
    def localized_data(self) -> CauchyData:
        """The localized suite's bump pair."""
        return bump_pair_data(self.config, LOCALIZED_DATA_SHARPNESS)

    def _unresolved(self, what: str, data: CauchyData, limit: float, at: str = "") -> list:
        """Why ``data`` leaves ``what`` unresolved: its tail above ``limit``."""
        c, tail = self.config, nyquist_tail(data)
        if tail <= limit:
            return []
        return [
            f"grid_n {c.grid_n} at box_length {c.box_length} leaves the {what} "
            f"unresolved{at} (Nyquist tail {tail:.1e} > {limit:g})"
        ]

    def localized_problems(self) -> list:
        """Why localized cannot run on this plan: unresolved data.  The data
        lie in B(0, support_radius), which validate() keeps in the unit ball."""
        return self._unresolved("localized data", self.localized_data, MAX_NYQUIST_TAIL)

    @cached_property
    def slices(self) -> dict:
        """tau -> the slice reaching past the slice data's support cone."""
        from .hyperboloid import build_slice  # only the slice suites load it

        data, r0 = self.slice_data, data_support_radius(self.slice_data)
        return {tau: build_slice(tau, data.grid, r0, data.t0) for tau in self.config.taus}

    @cached_property
    def samples(self) -> dict:
        """tau -> the samples on the tau-slice of the slice data and its
        iterated boosts up to the Sobolev order, whichever slice suites run
        (energy reads only the first, the data's)."""
        from .hyperboloid import slice_samples

        order = sobolev_order(self.config.dim)
        return {tau: slice_samples(self.slice_data, slc, order) for tau, slc in self.slices.items()}

    def slice_problems(self) -> list:
        """Why the selected slice suites cannot run on this plan: a slice
        meeting the box, or unresolved slice data."""
        c = self.config
        small = min(c.taus) < SMALL_TAU
        limit = SMALL_TAU_NYQUIST_TAIL if small else MAX_NYQUIST_TAIL
        at = f" for tau {min(c.taus):g}" if small else ""
        problems = []
        try:
            self.slices
        except ConfigurationError as exc:
            problems.append(f"support_radius {c.support_radius} and taus {list(c.taus)}: {exc}")
        return problems + self._unresolved("slice data", self.slice_data, limit, at)

    def validate(self) -> None:
        """Raise ConfigurationError listing every violated constraint of the
        config.  The horizons, slices and slice data checked are this plan's,
        which the suites then read."""
        c, problems = self.config, []
        if c.dim < 1:
            problems.append(f"dim must be >= 1 (got {c.dim})")
        n = c.grid_n
        if n < 2 or (n & (n - 1)) != 0:
            problems.append(f"grid_n must be a power of two (got {n})")
        if c.box_length <= 0:
            problems.append(f"box_length must be positive (got {c.box_length})")
        if not 0.0 <= c.mass <= c.max_mass:
            problems.append(f"mass must lie in [0, max_mass={c.max_mass}] (got {c.mass})")
        if c.suite != "all" and c.suite not in SUITES:
            problems.append(f"unknown suite {c.suite!r}; choose from {SUITES} or 'all'")
        if any(t <= 0 for t in c.times) or np.any(np.diff(c.times) <= 0):
            problems.append("times must be positive and strictly increasing")
        if any(tau <= 0 for tau in c.taus):
            problems.append("taus must be positive")
        # a repeated tau (by the label that names its checks) or band would be
        # sampled and reported twice
        labels = [f"{tau:g}" for tau in c.taus]
        if len(set(labels)) < len(labels):
            problems.append(f"taus must not repeat (labels {', '.join(labels)})")
        if len(set(c.bands)) < len(c.bands):
            problems.append(f"bands must not repeat (got {list(c.bands)})")
        if c.seed < 0:
            problems.append(f"seed must be non-negative (got {c.seed})")
        if not c.support_radius > 0:
            problems.append(f"support_radius must be positive (got {c.support_radius})")
        active = c.selected_suites
        if c.dim >= 1 and n >= 2:
            wide = self.highfreq_scale if "highfreq" in active else 1
            points = (n * wide) ** c.dim
            if points > MAX_GRID_POINTS:
                scale = f" (x{wide} per axis for highfreq's wide grid)" if wide > 1 else ""
                problems.append(
                    f"grid_n {n}{scale} in dim {c.dim} makes {points} grid points, "
                    f"above the {MAX_GRID_POINTS} a run may build"
                )
        # the plan's data and slices can only be built from valid values
        buildable = not problems

        if c.dim >= 1 and n >= 2 and c.box_length > 0:
            nyquist = np.pi * n / c.box_length
            for k in c.bands:
                if k < 0:
                    problems.append(f"band {k} must be >= 0")
                elif 2.0 ** (k + 1) > nyquist and any(
                    s in active for s in ("highfreq", "interpolation")
                ):
                    problems.append(
                        f"band {k} extends to |xi| = {2.0 ** (k + 1):.1f}, above "
                        f"the grid Nyquist frequency {nyquist:.1f}"
                    )
        if any(s in active for s in TIME_SUITES):
            fitted = [s for s in ("localized", "lowfreq") if s in active]
            n_fit = len(self.fit_times[c.mass]) if fitted and c.mass > 0.0 else None
            if c.mass == 0.0:
                problems.append(
                    f"mass must be positive for the time-series suites {TIME_SUITES} "
                    "(sample times pi k / m0, mass-weighted constants)"
                )
            elif n_fit is not None and n_fit < MIN_FIT_SAMPLES:
                problems.append(
                    f"mass {c.mass} puts {n_fit} sample times pi k / mass in the fit "
                    f"window {FIT_WINDOW}, fewer than the {MIN_FIT_SAMPLES} the "
                    f"decay-exponent fit of {' and '.join(fitted)} needs"
                )
            if not c.times:
                problems.append(f"times is empty; the time-series suites {TIME_SUITES} need times")
            if "localized" in active and c.support_radius > 1.0:
                problems.append(
                    f"support_radius must be at most 1 for localized, whose data lie "
                    f"in the unit ball (got {c.support_radius})"
                )
            if "localized" in active and buildable:
                problems.extend(self.localized_problems())
            for label, box, horizon, t_max in self.horizons:
                needed = 2.0 * (c.support_radius + t_max + 2.0)
                if box < needed:
                    problems.append(
                        f"{label} {box} below the anti-wraparound bound "
                        f"2*(support_radius + {horizon} + 2) = {needed}"
                    )
        if "partition" in active and 0.0 < c.box_length < 2.0 * PARTITION_ACTIVE_RADIUS:
            problems.append(
                f"box_length {c.box_length} below twice the partition's active "
                f"radius {PARTITION_ACTIVE_RADIUS:g}, whose cutoff fields the box must hold"
            )
        if any(s in active for s in SLICE_SUITES) and c.taus and buildable:
            problems.extend(self.slice_problems())
        # the uniformity checks compare constants across taus and across bands
        uniform = [s for s in ("sobolev", "pointwise") if s in active]
        if uniform and len(set(c.taus)) < 2:
            problems.append(
                f"the tau-uniformity checks of {' and '.join(uniform)} need at "
                f"least two distinct taus (got {list(c.taus)})"
            )
        if "highfreq" in active and len(set(c.bands)) < 2:
            problems.append(
                "the band-scaling checks of highfreq need at least two distinct "
                f"bands (got {list(c.bands)})"
            )
        if problems:
            raise ConfigurationError("invalid configuration:\n  - " + "\n  - ".join(problems))
