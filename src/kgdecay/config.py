"""Run configuration: a declarative key=value file plus flag overrides,
validated as a whole so an invalid config reports every violation at once."""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .grid import Grid

SLICE_SUITES = ("energy", "sobolev", "pointwise")
TIME_SUITES = ("localized", "lowfreq", "highfreq", "interpolation")
SUITES = SLICE_SUITES + TIME_SUITES + ("lp", "partition")

# In d = 1 the highfreq band-scaling sweep runs at these late times on a box
# this many times wider (and finer) than the configured one (see RunPlan).
HIGHFREQ_WIDE_FACTOR = 8
HIGHFREQ_LATE_TIMES = tuple(np.geomspace(64.0, 960.0, 13))
# decay exponents are fitted on t in this window; localized and lowfreq's
# canonical run sample it at mass-commensurate times whatever `times` says
FIT_WINDOW = (8.0, 64.0)
MIN_FIT_SAMPLES = 5  # fewest times in the fit window a decay exponent is fitted on
# the partition suite's cutoffs sum to one on [-4, 4]^d, which the box must hold
PARTITION_ACTIVE_RADIUS = 4.0


def _finite(raw: str) -> float:
    value = float(raw)
    if not np.isfinite(value):
        raise ValueError("not a finite number")
    return value


def parse_times(spec: str) -> tuple:
    """Either a comma list of floats or 'lo:hi:n' for n log-spaced points."""
    spec = spec.strip()
    try:
        if ":" in spec:
            lo, hi, n = spec.split(":")
            ends = _finite(lo), _finite(hi)
            if min(ends) <= 0.0:
                raise ValueError("lo and hi must be positive")
            return tuple(np.geomspace(*ends, int(n)))
        return tuple(_finite(s) for s in spec.split(","))
    except ValueError as exc:
        raise ConfigurationError(f"not a comma list of numbers or lo:hi:n ({exc})") from None


@dataclass(frozen=True)
class RunConfig:
    dim: int = 1
    grid_n: int = 4096
    box_length: float = 256.0
    mass: float = 1.0
    max_mass: float = 1.0
    bands: tuple = (0, 1, 2, 3, 4)
    taus: tuple = (2.0, 4.0, 8.0, 16.0)
    times: tuple = tuple(np.geomspace(8.0, 64.0, 15))
    support_radius: float = 1.0
    seed: int = 7
    suite: str = "all"
    out_dir: str = "out"

    @property
    def grid(self) -> Grid:
        return Grid.shared(self.dim, self.grid_n, self.box_length)

    @property
    def selected_suites(self) -> tuple:
        return SUITES if self.suite == "all" else (self.suite,)

    def validate(self) -> None:
        """Raise ConfigurationError listing every violated constraint.  The
        horizons, slices and slice data checked are the run plan's, which the
        suites then read."""
        from .plan import RunPlan  # the plan is built on this module

        plan = RunPlan.of(self)
        problems = []
        if self.dim < 1:
            problems.append(f"dim must be >= 1 (got {self.dim})")
        n = self.grid_n
        if n < 2 or (n & (n - 1)) != 0:
            problems.append(f"grid_n must be a power of two (got {n})")
        if self.box_length <= 0:
            problems.append(f"box_length must be positive (got {self.box_length})")
        if not 0.0 <= self.mass <= self.max_mass:
            problems.append(
                f"mass must lie in [0, max_mass={self.max_mass}] (got {self.mass})"
            )
        if self.suite != "all" and self.suite not in SUITES:
            problems.append(f"unknown suite {self.suite!r}; choose from {SUITES} or 'all'")
        if any(t <= 0 for t in self.times) or np.any(np.diff(self.times) <= 0):
            problems.append("times must be positive and strictly increasing")
        if any(tau <= 0 for tau in self.taus):
            problems.append("taus must be positive")
        # a repeated tau (by the label that names its checks) or band would be
        # sampled and reported twice
        labels = [f"{tau:g}" for tau in self.taus]
        if len(set(labels)) < len(labels):
            problems.append(f"taus must not repeat (labels {', '.join(labels)})")
        if len(set(self.bands)) < len(self.bands):
            problems.append(f"bands must not repeat (got {list(self.bands)})")
        if self.seed < 0:
            problems.append(f"seed must be non-negative (got {self.seed})")
        if not self.support_radius > 0:
            problems.append(f"support_radius must be positive (got {self.support_radius})")
        # the plan's data and slices can only be built from valid values
        buildable = not problems

        active = self.selected_suites
        if self.dim >= 1 and n >= 2 and self.box_length > 0:
            nyquist = np.pi * n / self.box_length
            for k in self.bands:
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
            n_fit = len(plan.fit_times[self.mass]) if fitted and self.mass > 0.0 else None
            if self.mass == 0.0:
                problems.append(
                    f"mass must be positive for the time-series suites {TIME_SUITES} "
                    "(sample times pi k / m0, mass-weighted constants)"
                )
            elif n_fit is not None and n_fit < MIN_FIT_SAMPLES:
                problems.append(
                    f"mass {self.mass} puts {n_fit} sample times pi k / mass in the fit "
                    f"window {FIT_WINDOW}, fewer than the {MIN_FIT_SAMPLES} the "
                    f"decay-exponent fit of {' and '.join(fitted)} needs"
                )
            if not self.times:
                problems.append(f"times is empty; the time-series suites {TIME_SUITES} need times")
            if "localized" in active and self.support_radius > 1.0:
                problems.append(
                    f"support_radius must be at most 1 for localized, whose data lie "
                    f"in the unit ball (got {self.support_radius})"
                )
            if "localized" in active and buildable:
                problems.extend(plan.localized_problems())
            for label, box, horizon, t_max in plan.horizons:
                needed = 2.0 * (self.support_radius + t_max + 2.0)
                if box < needed:
                    problems.append(
                        f"{label} {box} below the anti-wraparound bound "
                        f"2*(support_radius + {horizon} + 2) = {needed}"
                    )
        if "partition" in active and 0.0 < self.box_length < 2.0 * PARTITION_ACTIVE_RADIUS:
            problems.append(
                f"box_length {self.box_length} below twice the partition's active "
                f"radius {PARTITION_ACTIVE_RADIUS:g}, whose cutoff fields the box must hold"
            )
        if any(s in active for s in SLICE_SUITES) and self.taus and buildable:
            problems.extend(plan.slice_problems())
        # the uniformity checks compare constants across taus and across bands
        uniform = [s for s in ("sobolev", "pointwise") if s in active]
        if uniform and len(set(self.taus)) < 2:
            problems.append(
                f"the tau-uniformity checks of {' and '.join(uniform)} need at "
                f"least two distinct taus (got {list(self.taus)})"
            )
        if "highfreq" in active and len(set(self.bands)) < 2:
            problems.append(
                "the band-scaling checks of highfreq need at least two distinct "
                f"bands (got {list(self.bands)})"
            )
        if problems:
            raise ConfigurationError(
                "invalid configuration:\n  - " + "\n  - ".join(problems)
            )

    def summary_dict(self) -> dict:
        out = {k: v for k, v in vars(self).items() if k != "out_dir"}
        times = [float(t) for t in self.times]
        return {**out, "bands": list(self.bands), "taus": list(self.taus), "times": times}


def _comma_list(convert):
    return lambda raw: tuple(convert(s) for s in raw.split(","))


_PARSERS = {
    **dict.fromkeys(("dim", "grid_n", "seed"), int),
    **dict.fromkeys(("box_length", "mass", "max_mass", "support_radius"), _finite),
    "bands": _comma_list(int),
    "taus": _comma_list(_finite),
    "times": parse_times,
    **dict.fromkeys(("suite", "out_dir"), str.strip),
}


def _assign(cfg: RunConfig, key: str, raw: str) -> RunConfig:
    key = key.replace("-", "_")
    parse = _PARSERS.get(key)
    if parse is None:
        raise ConfigurationError(f"unknown configuration key {key!r}")
    try:
        value = parse(raw)
    except ValueError as exc:
        raise ConfigurationError(f"invalid {key} value {raw!r}: {exc}") from None
    return replace(cfg, **{key: value})


def load_config(path=None, overrides: dict | None = None) -> RunConfig:
    """Build a RunConfig from an optional INI-style file plus overrides; a
    file that cannot be read or parsed is a ConfigurationError."""
    cfg = RunConfig()
    if path is not None:
        import configparser  # only a run with a config file reads INI

        parser = configparser.ConfigParser()
        try:
            parser.read_string(Path(path).read_text(), source=str(path))
            entries = [item for section in parser.sections() for item in parser.items(section)]
        except (OSError, UnicodeDecodeError, configparser.Error) as exc:
            raise ConfigurationError(f"cannot read config file {path}: {exc}") from None
        for key, raw in entries:
            cfg = _assign(cfg, key, raw)
    for key, raw in (overrides or {}).items():
        if raw is not None:
            cfg = _assign(cfg, key, raw)
    return cfg
