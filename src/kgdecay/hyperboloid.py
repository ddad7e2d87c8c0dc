"""Hyperboloidal slices tau = sqrt(t^2 - |x|^2), the boost fields tangent to
them (read on a slice from the data's derivative jet), the weighted slice
energy, and the pointwise Sobolev-type bounds it controls.

A slice is parametrized by its spatial projection: t(x) = sqrt(tau^2 + |x|^2)
and the induced volume element in that chart is (tau / t(x)) dx, so slice
integrals are plain lattice sums against per-point weights.

Each slice inequality is a row of ``SLICE_ROWS``: lhs terms read on the
data's sample, and rhs terms summed over the samples of the data and its
boosts up to the Sobolev order (the energy's rhs is the flat energy).  A
term squares a sample column (phi, m phi, d_t phi, each L^i phi or their
sum), weights it in (t, tau) and reduces it by a max over the slice points
or a slice integral.  One reader turns a row into a ``SliceBound``.  The
checks read only the data and its samples on one slice, which the caller
takes with ``slice_samples(data, slc, order)``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InvariantError
from .grid import Grid, multi_indices, sobolev_order
from .propagator import CauchyData, evaluate_at_points, flat_energy, jet_columns

SLICE_PADDING = 2.0  # sampling margin beyond the solution support radius
SOBOLEV_ELLS = (0.0, 1.0)  # the weights (t/tau)^ell of the global Sobolev check
SOBOLEV_CONSTANTS_1D = {0.0: 0.5, 1.0: 1.0}  # its d = 1 constants (suites.suite_sobolev)


@dataclass(frozen=True, eq=False)
class HyperboloidSlice:
    """Sample points of one tau-slice with induced volume weights."""

    tau: float
    grid: Grid
    points: np.ndarray            # (M, d) spatial positions
    t: np.ndarray                 # (M,) heights sqrt(tau^2 + |x|^2)
    weights: np.ndarray           # (M,) (tau/t) h^d quadrature weights
    truncation_radius: float

    @property
    def n_points(self) -> int:
        return len(self.t)


def support_edge_radius(tau: float, t0: float, support_radius_at_t0: float) -> float:
    """Spatial radius where the slice meets the solution's support cone.

    Unit propagation speed puts the support inside |x| <= r0 + |t - t0|.  On
    the slice the forward cone reaches |x| = (tau^2 - a^2)/(2a), a = t0 - r0,
    when tau > a, and the backward cone |x| = (b^2 - tau^2)/(2b), b = t0 + r0,
    when tau < b; the edge is the larger (the forward one for tau^2 >= ab).
    """
    a, b = t0 - support_radius_at_t0, t0 + support_radius_at_t0
    if a <= 0:
        raise ConfigurationError(
            f"support radius {support_radius_at_t0:g} must stay below the "
            f"prescription time {t0:g} for a well-defined support cone on the slice"
        )
    return max((tau**2 - a**2) / (2.0 * a), (b**2 - tau**2) / (2.0 * b))


def build_slice(
    tau: float,
    grid: Grid,
    support_radius_at_t0: float = 1.0,
    t0: float = 2.0,
    truncation_radius: float | None = None,
) -> HyperboloidSlice:
    """Sample the tau-slice over {|x| <= R} with R past the support edge."""
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    edge = support_edge_radius(tau, t0, support_radius_at_t0)
    half = grid.box_length / 2.0 - grid.spacing
    if truncation_radius is None:
        truncation_radius = min(half, edge + SLICE_PADDING)
    if truncation_radius < edge:
        raise ConfigurationError(
            f"tau {tau:g} puts the solution support edge at |x| = {edge:.1f}, "
            f"beyond the slice's truncation radius {truncation_radius:g}"
        )
    pts = grid.lattice_points()
    r = np.linalg.norm(pts, axis=-1)
    keep = r <= truncation_radius
    pts = pts[keep]
    t = np.sqrt(tau**2 + r[keep] ** 2)
    weights = (tau / t) * grid.cell_volume
    return HyperboloidSlice(tau, grid, pts, t, weights, truncation_radius)


@dataclass(frozen=True)
class SliceSample:
    """Solution values on a slice: phi, time derivative, spatial gradient."""

    slice: HyperboloidSlice
    phi: np.ndarray
    dphi_dt: np.ndarray
    grad: np.ndarray  # (M, d)


def sample_on_slice(data: CauchyData, slc: HyperboloidSlice) -> SliceSample:
    """The data's own sample on the slice."""
    return slice_samples(data, slc)[0]


def boost_values(sample: SliceSample, axis: int) -> np.ndarray:
    """(x^i d_t + t d_i) phi per slice point, from first-order samples."""
    slc = sample.slice
    return slc.points[:, axis] * sample.dphi_dt + slc.t * sample.grad[:, axis]


def slice_integral(slc: HyperboloidSlice, values: np.ndarray) -> float:
    return float(np.sum(slc.weights * values))


@dataclass(frozen=True)
class SliceBound:
    """One slice inequality at one tau: lhs = sum(lhs_terms) against rhs."""

    tau: float
    lhs_terms: tuple
    rhs: float

    def __post_init__(self):
        if min(self.lhs_terms) < -1e-14 or (self.rhs == 0.0 and self.lhs > 0.0):
            raise InvariantError("negative term or positive lhs over zero rhs: slice sampling bug")

    @property
    def lhs(self) -> float:
        return sum(self.lhs_terms)

    @property
    def ratio(self) -> float:
        return self.lhs / self.rhs if self.rhs != 0.0 else 0.0

    @property
    def relative_gap(self) -> float:
        return (self.lhs - self.rhs) / self.rhs if self.rhs != 0.0 else 0.0


def _sup(slc: HyperboloidSlice, values: np.ndarray) -> float:
    return float(np.max(values))


# squared sample columns; "L^i phi" is one per axis, each reduced on its own
COLUMNS = {
    "phi": lambda s, m: [s.phi**2],
    "m phi": lambda s, m: [(m * s.phi) ** 2],
    "d_t phi": lambda s, m: [s.dphi_dt**2],
    "L^i phi": lambda s, m: [boost_values(s, a) ** 2 for a in range(s.slice.grid.dim)],
    "L phi": lambda s, m: [sum(boost_values(s, a) ** 2 for a in range(s.slice.grid.dim))],
}

# row terms (column, weight, reduction): the weight maps (column, t, tau, d)
# to the weighted column, in the formulas' arithmetic order
ENERGY_DENSITY = (
    ("L phi", lambda c, t, tau, d: c / (t * tau), slice_integral),
    ("d_t phi", lambda c, t, tau, d: (tau / t) * c, slice_integral),
    ("m phi", lambda c, t, tau, d: (t / tau) * c, slice_integral),
)
POINTWISE_SUPS = (
    ("m phi", lambda c, t, tau, d: t**d * c, _sup),
    ("d_t phi", lambda c, t, tau, d: tau**2 * t ** (d - 2.0) * c, _sup),
    ("L^i phi", lambda c, t, tau, d: t ** (d - 2.0) * c, _sup),
)


def _sobolev_row(ell: float) -> tuple:
    return (
        (("phi", lambda c, t, tau, d: tau ** (1.0 - ell) * t ** (d + ell - 1.0) * c, _sup),),
        (("phi", lambda c, t, tau, d: (t / tau) ** ell * c, slice_integral),),
    )


# inequality -> (lhs terms, rhs terms or None for the flat energy E(phi))
SLICE_ROWS = {
    "energy": (ENERGY_DENSITY, None),
    **{f"sobolev_ell_{ell:g}": _sobolev_row(ell) for ell in SOBOLEV_ELLS},
    "pointwise": (POINTWISE_SUPS, ENERGY_DENSITY),
}


def _shift(k: tuple, axis: int, n: int = 1) -> tuple:
    return k[:axis] + (k[axis] + n,) + k[axis + 1 :]


def slice_samples(data: CauchyData, slc: HyperboloidSlice, order: int = 0) -> list:
    """A ``SliceSample`` of each L^{i_1}..L^{i_k} phi, k <= order, on ``slc``:
    the data's first, then by k and axes.  phi's jet u[alpha, j] = d_x^alpha
    d_t^j phi, j + |alpha| <= order + 1, keyed (alpha_0, .., j), comes from
    one ``evaluate_at_points`` pass for j <= 1 and from d_t^2 = Lap - m^2 for
    j >= 2; L_i = x_i d_t + t d_i lowers a jet's order by one by the rule

        (L_i u)[alpha, j] = x_i u[alpha, j + 1] + alpha_i u[alpha - e_i, j + 1]
                            + t u[alpha + e_i, j] + j u[alpha + e_i, j - 1]
    """
    d, m2 = slc.grid.dim, data.mass**2
    u = dict(zip(jet_columns(d, order), evaluate_at_points(data, slc.t, slc.points, order)))
    for k in sorted(multi_indices(d + 1, order + 1), key=lambda k: k[d]):
        if k[d] >= 2:
            lap = sum(u[_shift(_shift(k, a, 2), d, -2)] for a in range(d))
            u[k] = lap - m2 * u[_shift(k, d, -2)]
    jets = {(): u}
    for axes in (a for n in range(1, order + 1) for a in itertools.product(range(d), repeat=n)):
        v, i, x = jets[axes[1:]], axes[0], slc.points[:, axes[0]]
        jets[axes] = {  # L_i applied to L^{axes[1:]} phi
            k: x * v[_shift(k, d)] + k[i] * v.get(_shift(_shift(k, i, -1), d), 0.0)
            + slc.t * v[_shift(k, i)] + k[d] * v.get(_shift(_shift(k, i), d, -1), 0.0)
            for k in multi_indices(d + 1, order + 1 - len(axes))
        }
    zero, e = (0,) * (d + 1), [_shift((0,) * (d + 1), a) for a in range(d + 1)]
    return [
        SliceSample(slc, v[zero], v[e[d]], np.stack([v[k] for k in e[:d]], -1))
        for v in jets.values()
    ]


def _terms(table: tuple, s: SliceSample, mass: float) -> tuple:
    slc = s.slice
    return tuple(
        sum(reduce(slc, weight(c, slc.t, slc.tau, slc.grid.dim)) for c in COLUMNS[name](s, mass))
        for name, weight, reduce in table
    )


def _read_row(data: CauchyData, samples: list, row: str) -> SliceBound:
    """The row's SliceBound on the slice of ``samples``: the data's sample,
    then, if the row sums them, its boosts' up to the Sobolev order in
    ``slice_samples`` order."""
    lhs, rhs = SLICE_ROWS[row]
    d, order = data.grid.dim, sobolev_order(data.grid.dim)
    if rhs and len(samples) != sum(d**k for k in range(order + 1)):
        raise ValueError(f"row {row} reads the data and its boosts up to order {order}")
    total = sum(sum(_terms(rhs, s, data.mass)) for s in samples) if rhs else flat_energy(data)
    return SliceBound(samples[0].slice.tau, _terms(lhs, samples[0], data.mass), total)


def energy(data: CauchyData, samples: list) -> SliceBound:
    """The weighted slice energy, ENERGY_DENSITY's (boost, time-derivative,
    mass) terms on the data's sample, against E(phi): equal for compact data."""
    return _read_row(data, samples, "energy")


def global_sobolev_check(data: CauchyData, samples: list) -> dict:
    """Per ell in SOBOLEV_ELLS: sup tau^(1-ell) t^(d+ell-1) phi^2 against the
    summed integrals of (t/tau)^ell |L^{i_1}..L^{i_k} phi|^2, k <= floor(d/2)+1."""
    return {ell: _read_row(data, samples, f"sobolev_ell_{ell:g}") for ell in SOBOLEV_ELLS}


def pointwise_energy_check(data: CauchyData, samples: list) -> SliceBound:
    """(m^2 sup t^d phi^2, sup tau^2 t^(d-2) (d_t phi)^2, sum_i sup t^(d-2)
    (L^i phi)^2) against the summed slice energies of the boosts, as above."""
    return _read_row(data, samples, "pointwise")
