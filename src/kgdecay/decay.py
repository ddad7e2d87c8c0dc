"""Decay-estimate harness: evolves (projected) data over a time grid,
extracts weighted sup-norms, fits decay exponents, and reports empirical
constants for each dispersive inequality.

Inequalities covered (d = dimension, k = dyadic band, m0 = mass):

    lowfreq       m0 (1+t)^(d/2) |P_-1 phi|        <= C (||P_-1 f||_1 + ||P_-1 g||_1)
                  (1+t)^((d-1)/2) |d P_-1 phi|     <= C (same right side)
    highfreq      m0 t^(d/2) |P_k phi|             <= C 2^(kd/2) (2^k ||P_k f||_1 + ||P_k g||_1)
    wavedecay     t^((d-1)/2) |d P_k phi|          <= C 2^(k(d-1)/2) (2^(2k) ||P_k f||_1 + 2^k ||P_k g||_1)
    interpolation t^s |P_k phi|                    <= C 2^(ks) (2^k ||P_k f||_1 + ||P_k g||_1),  s in [(d-1)/2, d/2]
    localized         m^2 t^d |phi|^2 + t^(d-1)(|d_t phi|^2 + |grad phi|^2)
                                                   <= C (||f||^2_{H^(floor(d/2)+2)} + ||g||^2_{H^(floor(d/2)+1)})

Each check computes the sup curve of its data once and reads every
inequality from it as one row of a table.  The band checks place the
projected data at t = 0 ("origin" in the reports); their spectra are the
projected spectra themselves, exactly zero off the band.  The localized check
takes its data at t = 2 ("data2"), in the unit ball, and weights by plain t.

A sup curve is one sweep over the folded mode table of its data
(``FoldedModes``), the nonzero modes with each mode -k folded into its
partner k, and holds nothing else: the band checks fold their pieces and
free the full-grid spectra and fields before the sweep.  What depends on the
modes alone (the lattice, its fold plan, its phase tables) is built once
per curve.  Each sup is a certified bracket: below, the maximum over the
points sampled; above, that maximum over the cosine of Szegő's bound for
functions of exponential type at the data's top frequency (van der Corput
and Schaake 1935; Boas, Entire Functions, 1954).  The candidate cells are marked on squares, and each
field is refined only in its own candidate cells.  The reports read the
upper ends.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bands import LOW_PASS_BAND, LittlewoodPaleyBank
from .config import MIN_FIT_SAMPLES
from .errors import ConfigurationError
from .grid import (
    Field, FoldPlan, Grid, inverse_transform, l1_norm, signed_modes, sobolev_h_norm,
    upsample_values,
)
from .propagator import CauchyData, _evolved, fold_modes

DEGENERATE_NORM = 1e-12
# the largest relative width (upper / lower - 1) of a sup bracket
BRACKET_WIDTH = 1e-2
# modes x cells in one block of the refinement product when the rows are
# kept: built once, they gain nothing from larger blocks of cells, which
# would only enlarge each block's phases and product (the rebuilt rows take
# REFINE_BLOCK_ENTRIES // modes cells, so each rebuild serves more of them)
REFINE_CHUNK_ENTRIES = 2**16
# fields x offsets x modes in one block of the refinement rows
REFINE_BLOCK_ENTRIES = 2**18

# the largest share of localized data's |f| + |g| mass outside the unit ball
MAX_MASS_OUTSIDE = 1e-8

SUP_FIELDS = ("phi", "dphi_dt", "grad", "partial")


def widths(upper, lower) -> np.ndarray:
    """The relative widths upper / lower - 1 of sup brackets; 0 where both
    ends are 0, inf where only the lower end is."""
    empty = np.where(upper == 0.0, 1.0, np.inf)
    return np.divide(upper, lower, out=empty, where=lower != 0.0) - 1.0


def _derivative_squares(values) -> np.ndarray:
    """(d_t phi)^2, |grad phi|^2 and |d phi|^2 as rows from sampled d_t phi
    and grad phi, shape (1 + d, P)."""
    dphi, *grad = values
    out = np.empty((3, dphi.size))
    np.square(dphi, out=out[0])
    np.sum(np.square(grad), axis=0, out=out[1])
    np.add(out[0], out[1], out=out[2])
    return out


def _quantities(values) -> np.ndarray:
    """|phi|^2, (d_t phi)^2, |grad phi|^2 and |d phi|^2 as rows, in
    ``SUP_FIELDS`` order, from sampled phi, d_t phi and grad phi, shape
    (2 + d, P)."""
    return np.concatenate([np.square(values[:1]), _derivative_squares(values[1:])])


class _Lattice:
    """The coarse lattice of a sup curve, m points per axis: the smallest
    power of two with ``reach`` = sigma_max delta0 <= 1 for the top frequency
    sigma_max and the cells' half-diagonal delta0 = L sqrt(d) / (2 m).  As
    sigma_max >= 2 pi max |k_a| / L over the modes, m >= pi sqrt(d) max |k_a|
    > 2 max |k_a|, so its samples determine the fields; its ``fold`` plan
    samples them there at every time of the curve.
    Cell i is the cube of half-side L / (2 m) around -L/2 + i L / m; at
    resolution R it is sampled at the R^d centres of its sub-cells, within
    delta0 / R of each of its points.  The lattice's ``resolution`` is the
    first R of 2, 4, 8, ... with 1 / cos(reach / R) - 1 <= ``BRACKET_WIDTH``.
    Mode k's phase at a centre is the cell's factor exp(2 pi i (k.i mod m) / m),
    from the m roots of unity, times the offset's, from a table built once."""

    def __init__(self, grid: Grid, modes, xi):
        self.grid, self.xi, self.signed, self.m = grid, xi, signed_modes(grid, modes), 2
        sigma_max = np.sqrt(np.max(np.sum(xi**2, axis=-1)))
        while self.m < sigma_max * grid.box_length * np.sqrt(grid.dim) / 2:
            self.m *= 2
        self.fold = FoldPlan(grid, modes, self.m)
        self.delta0 = grid.box_length * np.sqrt(grid.dim) / (2 * self.m)
        self.reach, self.resolution = sigma_max * self.delta0, 2
        while 1.0 / np.cos(self.reach / self.resolution) - 1.0 > BRACKET_WIDTH:
            self.resolution *= 2
        self.roots = np.exp(2j * np.pi / self.m * np.arange(self.m))
        self.phase = grid.alternating_phase.ravel()[modes] / grid.box_length**grid.dim
        # exp(i xi.o) for the R^d sub-cell centres o, shape (R^d, M)
        steps = (2 * np.arange(self.resolution) + 1 - self.resolution) / (2 * self.resolution)
        o = np.stack(np.meshgrid(*[steps * (grid.box_length / self.m)] * grid.dim, indexing="ij"))
        self.offsets = np.exp(1j * (o.reshape(grid.dim, -1).T @ xi.T))

    def _phases(self, index) -> np.ndarray:
        """exp(2 pi i k.i / m) for the modes k and the lattice indices i of
        some cells, shape (M, cells), from integer turns built in place."""
        turns = np.multiply.outer(self.signed[:, 0], index[0])
        for k, i in zip(self.signed.T[1:], index[1:]):
            turns += np.multiply.outer(k, i)
        turns &= self.m - 1
        return np.take(self.roots, turns)

    def candidates(self, coefficients) -> tuple:
        """The maxima M0^2 of ``_quantities`` on the lattice, sampled by one
        ``upsample_values`` pass, and the cells to refine: a pair of flat
        lattice indices, those where |phi|^2 >= M0^2 cos^2(reach) for phi's
        M0, then those where another field's square is at least its own
        bound.  Nothing of the pass outlives the call."""
        coarse = upsample_values(self.fold, coefficients)
        squares = _quantities(coarse.reshape(len(coarse), -1))
        del coarse
        top = np.max(squares, axis=-1)
        threshold = np.where(top > 0.0, top * np.cos(self.reach) ** 2, np.inf)
        marked = squares >= threshold[:, None]
        return top, (np.flatnonzero(marked[0]), np.flatnonzero(np.any(marked[1:], axis=0)))

    def maxima(self, coefficients, cells) -> np.ndarray:
        """The maxima of ``_quantities`` over the sub-cell centres of
        ``cells``, a pair of flat lattice indices: |phi|^2 over the first,
        from the phi row alone, and the squares of d_t phi, grad phi and
        d phi over the second, from the other rows."""
        best, weighted = np.zeros(len(SUP_FIELDS)), coefficients * self.phase
        self._refine(weighted[:1], cells[0], np.square, best[:1])
        self._refine(weighted[1:], cells[1], _derivative_squares, best[1:])
        return best

    def _refine(self, weighted, cells, squares, best) -> None:
        """Raises ``best`` to the maxima of ``squares`` of the rows that the
        ``weighted`` coefficients (rows, M) take at the sub-cell centres of
        the ``cells``: one product (rows x offsets, M) @ (M, cells) per
        block of cells and block of offsets, so that the product's rows stay
        bounded whatever R^d is.  Rows that fit in one block are built once;
        otherwise each block of rows is rebuilt for every block of cells,
        which then holds as many entries."""
        count, offsets = len(self.signed), self.offsets
        weighted = weighted[:, None, :]
        step = max(1, REFINE_BLOCK_ENTRIES // weighted.size)
        kept = (weighted * offsets).reshape(-1, count) if step >= len(offsets) else None

        def rows(start: int) -> np.ndarray:
            # called inside the product, so a rebuilt block is freed once used
            if kept is not None:
                return kept
            return (weighted * offsets[start : start + step]).reshape(-1, count)

        chunk = max(1, (REFINE_BLOCK_ENTRIES if kept is None else REFINE_CHUNK_ENTRIES) // count)
        index = np.unravel_index(cells, (self.m,) * self.grid.dim)
        for lo in range(0, len(cells), chunk):
            phases = self._phases([i[lo : lo + chunk] for i in index])
            for start in range(0, len(offsets), step):
                values = (rows(start) @ phases).real
                values = squares(values.reshape(len(weighted), -1))
                np.maximum(best, np.max(values, axis=-1), out=best)
            del phases  # freed before the next block of cells builds its own


def sup_norms(data, times) -> tuple:
    """Brackets of the sups of |phi|, |d_t phi|, |grad phi| and |d phi|:
    arrays (upper, lower) of shape (T, 4), columns in ``SUP_FIELDS`` order,
    from one sweep over the folded mode table ``data`` (``FoldedModes``), or
    over that of the ``CauchyData`` ``data`` (``fold_modes``): the table is
    all the sweep holds.

    At each time one ``upsample_values`` pass samples the fields on the
    curve's coarse ``_Lattice``, maxima M0.  The fields have exponential type
    sigma_max along every line, and a vector field projected on its
    direction at its maximizer x* is scalar, so Szegő's inequality
    f'^2 + sigma_max^2 f^2 <= sigma_max^2 ||f||^2 gives
    f >= ||f|| cos(sigma_max |x - x*|) within pi / (2 sigma_max) of x*.  So
    x* lies in a cell whose lattice point holds at least
    M0 cos(sigma_max delta0), and a field that is 0 on the lattice is 0
    everywhere (sigma_max delta0 <= 1 < pi / 2).  The squares are compared,
    against M0^2 cos^2(sigma_max delta0), and a square root is taken of the
    maxima alone.  Each field's cells are sampled once at the lattice's
    resolution R, within delta0 / R of x*: phi's from the phi row, and the
    cells of d_t phi, grad phi and d phi together from the other rows.
    With M the larger of M0 and their maximum, the sup lies in
    [M, M / cos(sigma_max delta0 / R)], of relative width at most
    ``BRACKET_WIDTH``.
    """
    if isinstance(data, CauchyData):
        data = fold_modes(data.grid, *data.spectra, data.t0, data.mass)
    xi, omega, f_hat, g_hat = data.xi, data.omega, data.f_hat, data.g_hat
    upper, lower = np.zeros((len(times), 4)), np.zeros((len(times), 4))
    if not len(data.modes):
        return upper, lower
    lattice = _Lattice(data.grid, data.modes, xi)
    for i, t in enumerate(times):
        phi_hat, dphi_hat = _evolved(t - data.t0, omega, f_hat, g_hat)
        coefficients = np.stack([phi_hat, dphi_hat, *(1j * x * phi_hat for x in xi.T)])
        del phi_hat, dphi_hat
        top, cells = lattice.candidates(coefficients)
        lower[i] = np.sqrt(np.maximum(top, lattice.maxima(coefficients, cells)))
        upper[i] = lower[i] / np.cos(lattice.reach / lattice.resolution)
    return upper, lower


def increasing_times(times) -> np.ndarray:
    """``times`` as a float array; ValueError unless strictly increasing."""
    t = np.asarray(list(times), dtype=float)
    if len(t) and np.any(np.diff(t) <= 0):
        raise ValueError("times must be strictly increasing")
    return t


@dataclass(frozen=True)
class DecayCurve:
    """Time series of one weighted sup-norm and its raw counterpart."""

    times: np.ndarray
    weighted_sup: np.ndarray
    raw_sup: np.ndarray
    data_norms: dict

    def __post_init__(self):
        object.__setattr__(self, "times", increasing_times(self.times))
        for name in ("weighted_sup", "raw_sup"):
            v = np.asarray(getattr(self, name), dtype=float)
            if not np.all(np.isfinite(v)) or np.any(v < 0):
                raise ValueError(f"{name} must be finite and nonnegative")
            object.__setattr__(self, name, v)


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    residual: float


def fit_exponent(curve: DecayCurve, window) -> FitResult:
    """Least-squares power-law fit log(raw_sup) ~ slope * log(t) on a window."""
    values = curve.raw_sup
    lo, hi = window
    mask = (curve.times >= lo) & (curve.times <= hi)
    if np.count_nonzero(mask) < MIN_FIT_SAMPLES:
        raise ValueError(f"need at least {MIN_FIT_SAMPLES} samples in the fit window {window}")
    if np.any(values[mask] <= 0):
        raise ValueError("nonpositive values in fit window")
    x = np.log(curve.times[mask])
    y = np.log(values[mask])
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((slope * x + intercept - y) ** 2)))
    return FitResult(float(slope), float(intercept), resid)


@dataclass(frozen=True)
class DecayReport:
    """Empirical record for one inequality term.

    ``empirical_constant`` is max over times of weighted_sup / rhs_norm with
    the inequality's full dyadic normalization; ``unnormalized_constant``
    divides by the plain data norms instead (used for band-scaling fits).
    Both read the upper ends of the sup brackets.
    """

    inequality_id: str
    quantity: str
    dim: int
    mass: float
    band: int | None
    empirical_constant: float
    unnormalized_constant: float
    curve: DecayCurve
    fit: FitResult | None
    status: str = "ok"
    mode: str = "origin"
    extras: dict = field(default_factory=dict)
    sup_bracket_width: float = 0.0  # largest relative width of the sups read


def _max_ratio(weighted: np.ndarray, rhs: float) -> float:
    if rhs < DEGENERATE_NORM:
        return 0.0
    return float(np.max(weighted)) / rhs if len(weighted) else 0.0


def _try_fit(curve: DecayCurve, window) -> FitResult | None:
    try:
        return fit_exponent(curve, window)
    except ValueError:
        return None


@dataclass(frozen=True)
class _Row:
    """One inequality: the weighted series is the sum over ``terms`` of
    m0^q w(t)^e sup^p, with w the check's time weight; the right-hand side
    is 2^(ks) (2^(ka) n_f + 2^(kb) n_g) with (s, a, b) = ``rhs_exponents``."""

    inequality_id: str
    quantity: str
    terms: tuple  # ((SUP_FIELDS name, q, e, p), ...)
    rhs_exponents: tuple = (0, 0, 0)
    extras: dict = field(default_factory=dict)


def _decay_reports(data, times, fit_window, rows, n_f, n_g, norms, band) -> list:
    """One sup_norms sweep of ``data`` (``CauchyData`` or ``FoldedModes``)
    over the time grid, one DecayReport per row."""
    t = increasing_times(times)
    window = fit_window or ((t[0], t[-1]) if len(t) else (1.0, 2.0))
    upper, lower = sup_norms(data, t)
    series, width = dict(zip(SUP_FIELDS, upper.T)), widths(upper, lower)
    weight = 1.0 + t if band == LOW_PASS_BAND else t
    k = band or 0
    plain = n_f + n_g
    status = "ok" if plain >= DEGENERATE_NORM else "skipped"
    mode = "origin" if data.t0 == 0.0 else "data2"
    reports = []
    for row in rows:
        weighted = sum(data.mass**q * weight**e * series[n] ** p for n, q, e, p in row.terms)
        # the raw series drops the time weight; squared terms report the plain sup
        raw = sum(data.mass**q * series[n] if p == 1 else series[n] for n, q, _, p in row.terms)
        s, a, b = row.rhs_exponents
        rhs = 2.0 ** (k * s) * (2.0 ** (k * a) * n_f + 2.0 ** (k * b) * n_g)
        curve = DecayCurve(t, weighted, raw, norms)
        constants = (_max_ratio(weighted, rhs), _max_ratio(weighted, plain))
        fit = _try_fit(curve, window)
        columns = [SUP_FIELDS.index(n) for n, *_ in row.terms]
        reports.append(
            DecayReport(row.inequality_id, row.quantity, data.grid.dim, data.mass, band,
                        *constants, curve, fit, status, mode, row.extras,
                        float(max(width[:, columns].flat, default=0.0)))
        )
    return reports


def mass_outside_fraction(data: CauchyData) -> float:
    """Fraction of the combined |f|+|g| mass lying outside the unit ball."""
    r2 = np.sum(data.grid.lattice_points() ** 2, axis=-1).reshape(data.grid.shape)
    combined = np.abs(data.f.values) + np.abs(data.g.values)
    total = np.sum(combined)
    if total == 0.0:
        return 0.0
    return float(np.sum(combined[r2 > 1.0]) / total)


def localized_decay_check(data: CauchyData, times, fit_window=None) -> list:
    """Localized-data decay: weighted squared sups against Sobolev data norms.

    Requires data supported in the unit ball at t0 = 2 (checked to 1e-8
    relative mass) and positive mass.
    """
    if data.t0 != 2.0:
        raise ConfigurationError("localized decay check prescribes data at t0 = 2")
    if mass_outside_fraction(data) > MAX_MASS_OUTSIDE:
        raise ConfigurationError(f"data mass outside the unit ball exceeds {MAX_MASS_OUTSIDE:g}")
    d = data.grid.dim
    n_f = sobolev_h_norm(data.f, d // 2 + 2) ** 2
    n_g = sobolev_h_norm(data.g, d // 2 + 1) ** 2
    terms = (("phi", 2, d, 2), ("dphi_dt", 0, d - 1.0, 2), ("grad", 0, d - 1.0, 2))
    rows = (
        _Row("localized", "m2_td_phi_sq", terms[:1]),
        _Row("localized", "td1_dt_phi_sq", terms[1:2]),
        _Row("localized", "td1_grad_phi_sq", terms[2:]),
        _Row("localized", "combined", terms),
    )
    norms = {"h_f_sq_plus_h_g_sq": n_f + n_g}
    return _decay_reports(data, times, fit_window, rows, n_f, n_g, norms, None)


def _band_data(f: Field, g: Field, m0: float, band: int) -> tuple:
    """The band-``band`` pieces of (f, g) at t = 0 as a sup curve holds
    them, (table, n_f, n_g): the ``FoldedModes`` of the projected spectra,
    exactly zero off the band's support, and the l1 norms of the pieces'
    fields, the ``LittlewoodPaleyBank.project`` values.  Each field is
    transformed once (``Field.spectrum``), whatever its bands, and a field
    whose values are all zero never: its piece is zero, of norm 0.  Nothing
    of the full grid outlives the call."""
    bank = LittlewoodPaleyBank.for_grid(f.grid)
    spectra, norms = [], []
    for h in (f, g):
        if h.values.any():
            F = bank.project_spectrum(h.spectrum, band)
            spectra.append(F.coefficients)
            norms.append(l1_norm(inverse_transform(F)))
        else:
            spectra.append(np.zeros(h.grid.shape, dtype=complex))
            norms.append(0.0)
    return fold_modes(f.grid, *spectra, 0.0, m0), *norms


def _projected_reports(f: Field, g: Field, m0: float, band: int, times, fit_window, rows) -> list:
    """The rows for the band-``band`` pieces of (f, g), evolved from t = 0."""
    table, n_f, n_g = _band_data(f, g, m0, band)
    norms = {"l1_p_f": n_f, "l1_p_g": n_g}
    return _decay_reports(table, times, fit_window, rows, n_f, n_g, norms, band)


def lowfreq_check(f: Field, g: Field, m0: float, times, fit_window=None) -> list:
    """Low-frequency dispersive bound for P_-1 data evolved with mass m0."""
    d = f.grid.dim
    rows = (
        _Row("lowfreq", "m0_phi", (("phi", 1, d / 2.0, 1),)),
        _Row("lowfreq", "partial_phi", (("partial", 0, (d - 1.0) / 2.0, 1),)),
    )
    return _projected_reports(f, g, m0, LOW_PASS_BAND, times, fit_window, rows)


def _band_reports(f: Field, g: Field, m0: float, band: int, times, fit_window, rows=()) -> list:
    """``rows`` followed by the highfreq and wavedecay rows, for band k >= 0."""
    if band < 0:
        raise ValueError(f"band must be >= 0, got {band}")
    if 2.0 ** (band + 1) > f.grid.nyquist:
        raise ConfigurationError(
            f"band {band} extends to |xi| = {2.0 ** (band + 1)}, above the "
            f"grid Nyquist frequency {f.grid.nyquist:.2f}"
        )
    d = f.grid.dim
    rows = tuple(rows) + (
        _Row("highfreq", "m0_phi", (("phi", 1, d / 2.0, 1),), (d / 2.0, 1, 0)),
        _Row(
            "wavedecay",
            "partial_phi",
            (("partial", 0, (d - 1.0) / 2.0, 1),),
            ((d - 1.0) / 2.0, 2, 1),
        ),
    )
    return _projected_reports(f, g, m0, band, times, fit_window, rows)


def highfreq_check(f: Field, g: Field, m0: float, band: int, times, fit_window=None) -> list:
    """Band-k dispersive bounds: the mass-weighted phi estimate ("highfreq")
    and the wave-type derivative estimate ("wavedecay"), with empirical
    constants normalized by the predicted dyadic factors so they should be
    uniform in k."""
    return _band_reports(f, g, m0, band, times, fit_window)


def interpolation_check(
    f: Field, g: Field, m0: float, band: int, s_values, times, fit_window=None
) -> list:
    """Regularity/decay trade-off: t^s |P_k phi| against 2^(ks) dyadic norms
    for each s between the wave and Klein-Gordon endpoints, followed by the
    highfreq and wavedecay endpoint reports of the same sup curve."""
    d = f.grid.dim
    lo, hi = (d - 1.0) / 2.0, d / 2.0
    for s in s_values:
        if not lo <= s <= hi:
            raise ValueError(f"s must lie in [{lo}, {hi}], got {s}")
    rows = tuple(
        _Row("interpolation", "phi", (("phi", 0, s, 1),), (s, 1, 0), {"s": s})
        for s in s_values
    )
    return _band_reports(f, g, m0, band, times, fit_window, rows)
