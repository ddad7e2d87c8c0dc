"""Exact Klein-Gordon evolution by Fourier multipliers.

For Cauchy data (f, g) at time t0 and mass m >= 0, each mode with frequency
xi evolves as a harmonic oscillator with omega = sqrt(|xi|^2 + m^2):

    phi_hat(t)   = cos(dt*omega) f_hat + (sin(dt*omega)/omega) g_hat
    d/dt phi_hat = -omega sin(dt*omega) f_hat + cos(dt*omega) g_hat

with dt = t - t0 and sin(dt*omega)/omega -> dt as omega -> 0.  The grid
propagator applies these multipliers.  The pointwise evaluator used for
sampling on curved slices splits each nonzero mode into its two half-waves
exp(+-i dt omega) and sums them directly at space-time points.  Real data
have Hermitian spectra, so the sum runs over the + half-waves, doubled.
omega is even in xi, and a slice has the same t at x and -x, so a mode and
its negation, and a point and its mirror, share exp(i dt omega): each pair
of modes at each pair of points costs one cos and one sin.  A derivative
d_x^alpha d_t^j phi multiplies each half-wave's coefficient by
(i xi)^alpha (+-i w)^j and keeps its phase, so one pass sums all of them.

The run plan's measure of the data's support in space (``data_support_radius``)
lives here, so the plan does not load ``decay``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, GridMismatchError
from .grid import (
    Field,
    Grid,
    SpectralField,
    inverse_transform,
    l2_norm,
    multi_indices,
    partial_derivative,
    signed_modes,
)

# cap on point pairs x mode pairs per block of a direct Fourier evaluation
# at arbitrary points, sized by bytes: a block's temporaries (the angles,
# their cos and sin, the complex phase, one product) are 7 float64 per
# entry, under 2 MB; more columns widen a block
EVAL_CHUNK_ENTRIES = 2**15


@dataclass(frozen=True)
class CauchyData:
    """Position/velocity data (f, g) prescribed at time t0 with mass m."""

    f: Field
    g: Field
    t0: float = 2.0
    mass: float = 0.0

    def __post_init__(self):
        if self.f.grid != self.g.grid:
            raise GridMismatchError("f and g must share one grid")
        if self.mass < 0:
            raise ValueError(f"mass must be nonnegative, got {self.mass}")

    @property
    def grid(self) -> Grid:
        return self.f.grid

    @classmethod
    def from_spectra(
        cls, f_hat: SpectralField, g_hat: SpectralField, t0: float, mass: float
    ) -> CauchyData:
        """Data whose fields are the inverse transforms of ``f_hat`` and
        ``g_hat``, which become the fields' ``Field.spectrum`` as they are
        (read-only), so modes that are exactly zero stay exactly zero."""
        data = cls(inverse_transform(f_hat), inverse_transform(g_hat), t0, mass)
        for h, F in ((data.f, f_hat), (data.g, g_hat)):
            F.coefficients.setflags(write=False)
            h.__dict__["spectrum"] = F
        return data

    @property
    def spectra(self) -> tuple:
        """(f_hat, g_hat), the coefficients of the fields' ``Field.spectrum``;
        read-only."""
        return self.f.spectrum.coefficients, self.g.spectrum.coefficients


def _omega(grid: Grid, mass: float) -> np.ndarray:
    return np.sqrt(grid.frequency_norm**2 + mass**2)


def _multipliers(dt: float, omega) -> tuple:
    """cos(dt*omega), sin(dt*omega) and sin(dt*omega)/omega, the last with its
    limit dt at omega = 0."""
    angles = dt * omega
    sin_ = np.sin(angles)
    zero = omega == 0.0
    sinc = sin_ / np.where(zero, 1.0, omega)
    sinc[zero] = dt
    return np.cos(angles), sin_, sinc


def _evolved(dt: float, omega, f_hat, g_hat) -> tuple:
    """phi_hat and d_t phi_hat a time dt after the data (f_hat, g_hat), at
    modes of the given omega."""
    cos_, sin_, sinc = _multipliers(dt, omega)
    return cos_ * f_hat + sinc * g_hat, -omega * sin_ * f_hat + cos_ * g_hat


def evolve_spectra(data: CauchyData, t: float) -> tuple:
    """(phi_hat, dphi_hat) at time t as spectral fields."""
    g = data.grid
    phi_hat, dphi_hat = _evolved(t - data.t0, _omega(g, data.mass), *data.spectra)
    return SpectralField(g, phi_hat), SpectralField(g, dphi_hat)


def nonzero_modes(data: CauchyData) -> tuple:
    """The flat indices of the lattice modes where f_hat or g_hat is nonzero,
    in lattice order, with their xi, shape (M, d), omega, f_hat and g_hat."""
    g = data.grid
    f_hat, g_hat = (c.ravel() for c in data.spectra)
    modes = np.flatnonzero((f_hat != 0) | (g_hat != 0))
    xi = g.axis_frequencies[np.stack(np.unravel_index(modes, g.shape), axis=-1)]
    omega = _omega(g, data.mass).ravel()[modes]
    return modes, xi, omega, f_hat[modes], g_hat[modes]


def jet_columns(dim: int, order: int) -> list:
    """The keys (alpha_0, .., alpha_{d-1}, j) of the columns d_x^alpha d_t^j
    phi that ``evaluate_at_points`` returns: j <= 1 and j + |alpha| <= order
    + 1, by total order, and within one d_t first and alpha = e_0 before e_1,
    so that order 0 gives phi, d_t phi and the gradient."""
    columns = [k for k in multi_indices(dim + 1, order + 1) if k[-1] <= 1]
    return sorted(columns, key=lambda k: (sum(k), -k[-1], [-a for a in k]))


def hermitian_pairs(grid: Grid, modes, spectra) -> tuple:
    """Each of the lattice ``modes`` (flat indices) once with its partner -k:
    (lead, weight, minus), ``lead`` marking the first mode of each pair and
    ``minus`` the ``spectra`` (S, M) at their partners.  A mode is its own
    partner where -k is not listed or k lies on a Nyquist plane (a component
    -N/2, whose negation the lattice does not list); there ``minus`` is the
    conjugate of its own spectra, as real data have F_-k = conj F_k, and
    ``weight`` is 0.5, so weight (F + conj minus) is F_k + conj F_-k for a
    pair and F for a mode on its own."""
    n, count, signed = grid.points_per_axis, np.arange(len(modes)), signed_modes(grid, modes)
    position = np.full(n**grid.dim, -1)
    position[modes] = count
    partner = position[np.ravel_multi_index(tuple((-signed % n).T), grid.shape)]
    partner = np.where((partner < 0) | np.any(signed == -n // 2, axis=-1), count, partner)
    lead = partner >= count
    own = partner[lead] == count[lead]
    minus = np.where(own, np.conj(spectra[:, lead]), spectra[:, partner[lead]])
    weight = np.where(own, 0.5, 1.0)
    return lead, weight, minus


def _jet_coefficients(columns, xi, omega, f_hat, g_hat) -> np.ndarray:
    """The doubled + half-wave coefficient of each jet column at each mode,
    shape (C, M): (i xi)^alpha times c = f_hat - i g_hat / w (f_hat at w = 0),
    or times its d_t coefficient g_hat + i w f_hat."""
    g_over_w = np.divide(g_hat, omega, out=np.zeros_like(g_hat), where=omega != 0.0)
    c, dc = f_hat - 1j * g_over_w, g_hat + 1j * omega * f_hat
    ixi = 1j * xi
    return np.stack([np.prod(ixi ** k[:-1], -1) * (c, dc)[k[-1]] for k in columns])


def _mirror_pairs(times, points) -> tuple:
    """Index arrays (rows, mirrors): each point is one of the ``rows`` or
    the exact negation, at the same time, of the row at its position in
    ``mirrors``, which pairs the first ``len(mirrors)`` rows."""
    n, count = len(times), np.arange(len(times))
    keys = np.concatenate([np.column_stack([times, points]), np.column_stack([times, -points])])
    ids = np.unique(keys, axis=0, return_inverse=True)[1].ravel()
    last = np.full(n and ids.max() + 1, -1)
    last[ids[:n]] = count
    partner = last[ids[n:]]  # a point at the negation of each point, or -1
    first = np.flatnonzero(partner > count)
    first = first[partner[partner[first]] == first]
    mirrors = partner[first]
    alone = np.ones(n, dtype=bool)
    alone[first] = alone[mirrors] = False
    return np.concatenate([first, np.flatnonzero(alone)]), mirrors


def _phase_tables(k, box_length: float) -> tuple:
    """Frequencies and lookups that build exp(i 2 pi k x / L) for integers
    ``k`` from two small tables per point, exp(i 2 pi (k0 + q s) x / L) and
    exp(i 2 pi r x / L), k = k0 + q s + r with 0 <= r < s ~ sqrt(range)."""
    k0 = np.min(k, initial=0)
    s = int(np.ceil(np.sqrt(np.max(k, initial=0) - k0 + 1)))
    q, r = np.divmod(k - k0, s)
    unit = 2.0 * np.pi / box_length
    return unit * (k0 + s * np.arange(np.max(q, initial=0) + 1)), q, unit * np.arange(s), r


def evaluate_at_points(data: CauchyData, times, points, order: int = 0) -> np.ndarray:
    """The columns d_x^alpha d_t^j phi, keyed by ``jet_columns(d, order)``,
    at space-time points: ``times`` (P,) and ``points`` (P, d) give
    an array (C, P), at order 0 the rows phi, d_t phi and grad phi.

    Each of the ``nonzero_modes`` is split into its half-waves, phi_hat =
    exp(+i dt w) c+ + exp(-i dt w) c- with c+- = (f_hat -+ i g_hat / w) / 2,
    whose d_t phi coefficients are (g_hat +- i w f_hat) / 2; a column's are
    (i xi)^alpha times the one or the other.  Hermitian spectra (as
    ``inverse_transform`` assumes) give c-(-xi) = conj c+(xi), so the
    half-wave (-xi, -w) adds the real term of (xi, +w): the sum runs over the
    + half-waves with doubled coefficients.  Each mode k is taken with its
    partner -k (``hermitian_pairs``): with P and Q their columns' doubled
    coefficients and A = exp(i dt w), the pair adds

        Re A (exp(i xi.x) P + exp(-i xi.x) Q)
            = Re A cos(xi.x) (P + Q) + Re i A sin(xi.x) (P - Q),

    and at -x and the same time the first term minus the second.  A mode
    that is its own partner (the zero mode, a mode on a Nyquist plane, whose
    negation is not a listed mode) keeps both of its half-waves: P and Q are
    half its own and half the conjugate data's.  A point whose negation at
    the same time is also requested is summed once for both; any other
    point on its own.  exp(i xi.x) is built per axis from two small tables
    (``_phase_tables``), so the trigonometry per point pair and mode pair is
    one cos and one sin of dt w, in blocks of at most ``EVAL_CHUNK_ENTRIES``
    point pairs x mode pairs.  A mode with w = 0 (the zero mode at mass 0)
    adds f_hat + dt g_hat to phi and g_hat to d_t phi only.
    """
    g = data.grid
    times = np.atleast_1d(np.asarray(times, dtype=float))
    points = np.asarray(points, dtype=float).reshape(len(times), g.dim)
    dt = times - data.t0
    modes, xi, omega, fh, gh = nonzero_modes(data)
    columns = jet_columns(g.dim, order)
    spectra = np.stack([fh, gh])
    lead, weight, minus = hermitian_pairs(g, modes, spectra)
    w = omega[lead]
    coeff = weight * _jet_coefficients(columns, xi[lead], w, *spectra[:, lead])
    mirror = weight * _jet_coefficients(columns, -xi[lead], w, *minus)
    # (C, 2 x mode pairs), used transposed.  BLAS picks its kernel by shape,
    # so the block products of calls with different C need not round alike:
    # orders 0 and 1 can differ in the last bits of the columns they share,
    # which is why the run plan samples the slice data at one order
    even = np.concatenate([(coeff + mirror).real, -(coeff + mirror).imag], axis=1)
    odd = np.concatenate([-(coeff - mirror).imag, -(coeff - mirror).real], axis=1)
    del coeff, mirror
    tables = [_phase_tables(k, g.box_length) for k in signed_modes(g, modes[lead]).T]
    rows, mirrors = _mirror_pairs(times, points)
    vals = np.empty((len(times), len(columns)))
    step = max(1, EVAL_CHUNK_ENTRIES // max(1, len(w)))
    for lo in range(0, len(rows), step):
        block = rows[lo : lo + step]
        angles, cos_sin = np.multiply.outer(dt[block], w), np.empty((len(block), 2, len(w)))
        np.cos(angles, out=cos_sin[:, 0])
        np.sin(angles, out=cos_sin[:, 1])
        phase = np.ones((len(block), len(w)), dtype=complex)  # exp(i xi.x)
        for x, (hi, q, low, r) in zip(points[block].T, tables):
            phase *= np.take(np.exp(1j * np.multiply.outer(x, hi)), q, axis=1)
            phase *= np.take(np.exp(1j * np.multiply.outer(x, low)), r, axis=1)
        even_part = (cos_sin * phase.real[:, None]).reshape(len(block), -1) @ even.T
        odd_part = (cos_sin * phase.imag[:, None]).reshape(len(block), -1) @ odd.T
        vals[block] = even_part + odd_part
        pairs = mirrors[lo : lo + step]
        vals[pairs] = (even_part - odd_part)[: len(pairs)]
    vals[:, 0] += dt * np.sum(gh[omega == 0.0].real)
    vals /= g.box_length**g.dim
    return vals.T


def data_support_radius(data: CauchyData) -> float:
    """Largest |x| where |f| or |g| exceeds 1e-5 of its max, a threshold above
    the leakage floor of sampled compact data; 0 for zero data."""
    r2 = np.sum(data.grid.lattice_points() ** 2, axis=-1)
    v = [np.abs(h.values).ravel() for h in (data.f, data.g)]
    return float(np.sqrt(max((np.max(r2[a > 1e-5 * a.max()]) for a in v if a.any()), default=0.0)))


def boost_commuted_data(data: CauchyData, axis: int) -> CauchyData:
    """Cauchy data at t0 for the boosted solution (x^i d_t + t d_i) phi, the
    tests' second path to the boosts the slice suites read from the jet.

    The coefficients below hard-code the prescription time t0 = 2; iterating
    the map yields data for repeated boosts.  The product with the centered
    coordinate requires the data support to stay one unit inside the box.
    """
    if data.t0 != 2.0:
        raise ConfigurationError(
            f"commuted-data coefficients assume prescription time 2, got t0={data.t0}"
        )
    g = data.grid
    if not 0 <= axis < g.dim:
        raise IndexError(f"axis {axis} out of range for dim {g.dim}")
    x, unit = Field(g, g.coordinate_arrays()[axis]), np.eye(g.dim, dtype=int).tolist()
    df = partial_derivative(data.f, unit[axis])
    dg = partial_derivative(data.g, unit[axis])
    laplacian = sum(partial_derivative(data.f, [2 * a for a in e]) for e in unit)
    f_new = df * 2.0 + x * data.g
    g_new = df + dg * 2.0 + x * laplacian - x * data.f * data.mass**2
    out = CauchyData(f_new, g_new, data.t0, data.mass)
    margin = g.box_length / 2.0 - data_support_radius(out)
    if margin < 1.0:
        raise ConfigurationError(
            f"commuted data reaches within {margin:.3f} of the box edge; "
            "the centered-coordinate product needs a margin of at least 1"
        )
    return out


def flat_energy(data: CauchyData) -> float:
    """The constant-time energy integral g^2 + |grad f|^2 + m^2 f^2."""
    total = l2_norm(data.g) ** 2 + (data.mass * l2_norm(data.f)) ** 2
    for alpha in np.eye(data.grid.dim, dtype=int).tolist():
        total += l2_norm(partial_derivative(data.f, alpha)) ** 2
    return total
