"""Hyperboloidal slices tau = sqrt(t^2 - |x|^2), the boost fields tangent to
them, the weighted slice energy, and the pointwise Sobolev-type bounds it
controls.

A slice is parametrized by its spatial projection: t(x) = sqrt(tau^2 + |x|^2)
and the induced volume element in that chart is (tau / t(x)) dx, so slice
integrals are plain lattice sums against per-point weights.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InvariantError
from .grid import Grid, sobolev_order
from .propagator import (
    CauchyData,
    data_support_radius,
    evaluate_at_points,
    flat_energy,
    iterated_boost_data,
)

SLICE_PADDING = 2.0  # sampling margin beyond the solution support radius
SOBOLEV_ELLS = (0.0, 1.0)  # the weights (t/tau)^ell of the global Sobolev check


@dataclass(frozen=True, eq=False)
class HyperboloidSlice:
    """Sample points of one tau-slice with induced volume weights; hashed by
    identity, so samples can be kept per slice."""

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

    Unit propagation speed puts the support inside |x| <= r0 + (t - t0); on
    the slice this means |x| <= (tau^2 - a^2)/(2a) with a = t0 - r0.
    """
    a = t0 - support_radius_at_t0
    if a <= 0:
        raise ConfigurationError(
            f"support radius {support_radius_at_t0:g} must stay below the "
            f"prescription time {t0:g} for a well-defined support cone on the slice"
        )
    if tau <= a:
        return 0.0
    return (tau**2 - a**2) / (2.0 * a)


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
    phi, dphi, grad = evaluate_at_points(data, slc.t, slc.points)
    return SliceSample(slc, phi, dphi, grad)


def boost_values(sample: SliceSample, axis: int) -> np.ndarray:
    """(x^i d_t + t d_i) phi per slice point, from first-order samples."""
    slc = sample.slice
    return slc.points[:, axis] * sample.dphi_dt + slc.t * sample.grad[:, axis]


def slice_integral(slc: HyperboloidSlice, values: np.ndarray) -> float:
    return float(np.sum(slc.weights * values))


@dataclass(frozen=True)
class EnergyReport:
    """Weighted slice energy next to its flat-slice counterpart.

    components = (boost term, time-derivative term, mass term); the energy is
    their sum and is bounded by (equal to, for compactly supported data) the
    flat integral of g^2 + |grad f|^2 + m^2 f^2.
    """

    tau: float
    energy: float
    flat_energy: float
    components: tuple

    def __post_init__(self):
        if min(self.components) < -1e-14:
            raise InvariantError("energy components must be nonnegative")

    @property
    def relative_gap(self) -> float:
        if self.flat_energy == 0.0:
            return 0.0
        return (self.energy - self.flat_energy) / self.flat_energy


def _energy_components(s: SliceSample, mass: float) -> tuple:
    """(boost, time-derivative, mass) terms of the weighted slice energy."""
    slc = s.slice
    t, tau = slc.t, slc.tau
    boost_sq = np.zeros_like(t)
    for a in range(slc.grid.dim):
        boost_sq += boost_values(s, a) ** 2
    return (
        slice_integral(slc, boost_sq / (t * tau)),
        slice_integral(slc, (tau / t) * s.dphi_dt**2),
        slice_integral(slc, (t / tau) * (mass * s.phi) ** 2),
    )


def energy(
    data: CauchyData, tau: float, slc: HyperboloidSlice | None = None
) -> EnergyReport:
    """Quadrature of the weighted energy density on the tau-slice.

    Density: (1/(t tau)) sum_i (L^i phi)^2 + (tau/t) (d_t phi)^2
    + (t/tau) m^2 phi^2, integrated against the induced volume weights.
    """
    (sample,) = _boost_samples(data, tau, slc, 0)
    comp = _energy_components(sample, data.mass)
    return EnergyReport(tau, sum(comp), flat_energy(data), comp)


def boost_tuples(dim: int, max_order: int) -> list:
    """All ordered boost index tuples of length 0..max_order."""
    out = []
    for k in range(max_order + 1):
        out.extend(itertools.product(range(dim), repeat=k))
    return out


def _ratio(lhs: float, rhs: float) -> float:
    if rhs == 0.0:
        if lhs > 0.0:
            raise InvariantError("zero right-hand side with positive sup: slice sampling bug")
        return 0.0
    return lhs / rhs


@dataclass(frozen=True)
class SupBoundReport:
    """One weighted sup-norm against an iterated-boost integral sum."""

    tau: float
    lhs: float
    rhs: float

    @property
    def ratio(self) -> float:
        return _ratio(self.lhs, self.rhs)


def _kept(data: CauchyData, key, build):
    """build() once per key, kept on the data object as its spectra are."""
    kept = data.__dict__.setdefault("_slice_work", {})
    if key not in kept:
        kept[key] = build()
    return kept[key]


def data_slice(data: CauchyData, tau: float) -> HyperboloidSlice:
    """The tau-slice reaching past the data's support cone, built once."""
    return _kept(
        data, tau, lambda: build_slice(tau, data.grid, data_support_radius(data), data.t0)
    )


def boosted_data(data: CauchyData, max_order: int) -> list:
    """The data and its iterated boosts of order <= max_order, in
    boost_tuples order; each is built once, from the one below it."""
    out = {(): data}
    for axes in boost_tuples(data.grid.dim, max_order)[1:]:
        out[axes] = _kept(data, axes, lambda: iterated_boost_data(out[axes[1:]], axes[:1]))
    return list(out.values())


def _boost_samples(
    data: CauchyData, tau: float, slc: HyperboloidSlice | None, max_order: int
) -> list:
    """Samples on the tau-slice of the data and of each iterated boost of
    order <= max_order, in boost_tuples order, each taken once per slice.
    The slice defaults to one reaching past the data's support cone."""
    if slc is None:
        slc = data_slice(data, tau)
    elif slc.tau != tau:
        raise ValueError("slice tau does not match requested tau")
    return [
        _kept(b, slc, lambda: sample_on_slice(b, slc))
        for b in boosted_data(data, max_order)
    ]


def global_sobolev_check(
    data: CauchyData, tau: float, slc: HyperboloidSlice | None = None
) -> dict:
    """Weighted sup of phi^2 against iterated-boost slice integrals, for
    each ell in SOBOLEV_ELLS (the dict keys).

    lhs = sup tau^(1-ell) t^(d+ell-1) phi^2; rhs sums the integrals
    (t/tau)^ell |L^{i_1}..L^{i_k} phi|^2 over all boost tuples with
    k <= floor(d/2)+1.  The ratio should be bounded uniformly in tau.
    """
    d = data.grid.dim
    samples = _boost_samples(data, tau, slc, sobolev_order(d))
    slc = samples[0].slice
    reports = {}
    for ell in SOBOLEV_ELLS:
        lhs = float(np.max(tau ** (1.0 - ell) * slc.t ** (d + ell - 1.0) * samples[0].phi**2))
        weight = (slc.t / tau) ** ell
        rhs = sum(slice_integral(slc, weight * s.phi**2) for s in samples)
        reports[ell] = SupBoundReport(tau, lhs, rhs)
    return reports


@dataclass(frozen=True)
class PointwiseEnergyReport:
    """The three weighted sup-norms against the summed boost energies."""

    tau: float
    lhs_terms: tuple  # (mass term, time-derivative term, boost term)
    rhs_energy_sum: float

    @property
    def lhs_total(self) -> float:
        return sum(self.lhs_terms)

    @property
    def ratio(self) -> float:
        return _ratio(self.lhs_total, self.rhs_energy_sum)


def pointwise_energy_check(
    data: CauchyData, tau: float, slc: HyperboloidSlice | None = None
) -> PointwiseEnergyReport:
    """sup-norm decay terms controlled by energies of iterated boosts.

    lhs = (m^2 sup t^d phi^2, sup tau^2 t^(d-2) (d_t phi)^2,
    sum_i sup t^(d-2) (L^i phi)^2); rhs = sum of slice energies of
    L^{i_1}..L^{i_k} phi over tuples with k <= floor(d/2)+1.
    """
    d = data.grid.dim
    samples = _boost_samples(data, tau, slc, sobolev_order(d))
    s = samples[0]
    t = s.slice.t
    lhs_mass = data.mass**2 * float(np.max(t**d * s.phi**2))
    lhs_time = float(np.max(tau**2 * t ** (d - 2.0) * s.dphi_dt**2))
    lhs_boost = 0.0
    for a in range(d):
        lhs_boost += float(np.max(t ** (d - 2.0) * boost_values(s, a) ** 2))
    rhs = sum(sum(_energy_components(b, data.mass)) for b in samples)
    return PointwiseEnergyReport(tau, (lhs_mass, lhs_time, lhs_boost), rhs)
