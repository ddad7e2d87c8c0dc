"""Run configuration: a declarative key=value file plus flag overrides,
parsed into a RunConfig.  The run plan built on it (plan.py) validates it as
a whole, so an invalid config reports every violation at once."""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import cached_property
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

    @cached_property
    def grid(self) -> Grid:
        """The configured grid, built once per config object."""
        return Grid(self.dim, self.grid_n, self.box_length)

    @property
    def selected_suites(self) -> tuple:
        return SUITES if self.suite == "all" else (self.suite,)

    def summary_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "out_dir"}
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
