import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kgdecay import decay as decay_module
from kgdecay import grid as grid_module
from kgdecay import propagator as propagator_module
from kgdecay.bands import LOW_PASS_BAND, LittlewoodPaleyBank
from kgdecay.bumps import bump_derivative_field, bump_field
from kgdecay.decay import (
    BRACKET_WIDTH,
    SUP_FIELDS,
    DecayCurve,
    _band_data,
    _Lattice,
    fit_exponent,
    highfreq_check,
    interpolation_check,
    lowfreq_check,
    localized_decay_check,
    sup_norms,
    widths,
)
from kgdecay.config import HIGHFREQ_LATE_TIMES
from kgdecay.errors import ConfigurationError
from kgdecay.grid import (
    Field, FoldPlan, Grid, SpectralField, forward_transform, l1_norm, upsample_values,
)
from kgdecay.propagator import (
    CauchyData, evaluate_at_points, evolve_spectra, fold_modes,
)

from oracles import band_data, direct_sum_oracle, lattice_sum_oracle, pairwise_fold

GRID = Grid(1, 1024, 256.0)
ZERO = Field(GRID, np.zeros(GRID.shape))
TIMES = tuple(np.geomspace(8.0, 64.0, 9))


def power_curve(c, p, noise=None):
    t = np.geomspace(4.0, 128.0, 25)
    v = c * t ** (-p)
    if noise is not None:
        v = v * (1.0 + noise(t))
    return DecayCurve(t, v, v, {})


def test_fit_exact_power_law():
    fit = fit_exponent(power_curve(3.0, 0.75), (4.0, 128.0))
    assert abs(fit.slope + 0.75) <= 1e-10
    assert fit.residual <= 1e-10


def test_fit_perturbed_power_law():
    fit = fit_exponent(
        power_curve(2.0, 1.25, noise=lambda t: 0.01 * np.sin(np.log(t))),
        (4.0, 128.0),
    )
    assert abs(fit.slope + 1.25) <= 0.02


def test_fit_constant_curve():
    fit = fit_exponent(power_curve(5.0, 0.0), (4.0, 128.0))
    assert abs(fit.slope) <= 1e-10


def test_fit_window_validation():
    curve = power_curve(1.0, 0.5)
    with pytest.raises(ValueError):
        fit_exponent(curve, (100.0, 128.0))  # fewer than 5 samples
    bad = DecayCurve(curve.times, curve.weighted_sup, 0.0 * curve.raw_sup, {})
    with pytest.raises(ValueError):
        fit_exponent(bad, (4.0, 128.0))


def test_curve_validation():
    with pytest.raises(ValueError):
        DecayCurve(np.array([1.0, 1.0]), np.zeros(2), np.zeros(2), {})
    with pytest.raises(ValueError):
        DecayCurve(np.array([1.0, 2.0]), np.array([1.0, -1.0]), np.zeros(2), {})


def test_curve_built_from_lists_keeps_float_arrays():
    t = np.geomspace(4.0, 128.0, 25).tolist()
    v = [3.0 * s ** (-0.75) for s in t]
    curve = DecayCurve(t, v, v, {})
    for a in (curve.times, curve.weighted_sup, curve.raw_sup):
        assert isinstance(a, np.ndarray) and a.dtype == float
    fit = fit_exponent(curve, (4.0, 128.0))
    assert abs(fit.slope + 0.75) <= 1e-10


def test_sup_norms_of_zero_data():
    upper, _ = sup_norms(CauchyData(ZERO, ZERO, 0.0, 1.0), [5.0])
    assert upper[0, 0] == 0.0 and upper[0, 3] == 0.0


def test_sup_norms_of_zero_data_skip_the_window_sum():
    data = CauchyData(ZERO, ZERO, 0.0, 1.0)
    table = fold_modes(GRID, *data.spectra, data.t0, data.mass)
    assert len(table.modes) == 0 and table.xi.shape == (0, 1)
    upper, lower = sup_norms(data, TIMES)
    assert upper.shape == lower.shape == (len(TIMES), len(SUP_FIELDS))
    assert np.all(upper == 0.0) and np.all(lower == 0.0)


def test_sup_norms_catch_oscillation_peaks():
    # a pure mode near Nyquist/2 shifted by half a lattice step: |phi| = 1
    # only off the lattice, where its max is cos(pi / 128) (unshifted, every
    # lattice mode has |cos| = 1 at x = -L/2); the upsampled grids hold the
    # half steps, so the lower end is 1 up to rounding
    x = GRID.axis_coordinates
    xi0 = 2.0 * np.pi * 200 / GRID.box_length
    f = Field(GRID, np.cos(xi0 * x + np.pi * 200 / 1024))
    lattice_max = np.max(np.abs(f.values))
    assert abs(lattice_max - np.cos(np.pi / 128)) <= 1e-12
    upper, lower = sup_norms(CauchyData(f, ZERO, 0.0, 1.0), [0.0])
    assert lattice_max < lower[0, 0] <= 1.0 + 1e-12 and 1.0 <= upper[0, 0]
    assert widths(upper, lower)[0, 0] <= 1e-2


FINE = Grid(1, 2048, 128.0)  # Nyquist 50.3, room for band 4 ([8, 32])


def bump_pair(grid, sharpness=4.0):
    f = bump_field(grid, width=1.0, sharpness=sharpness)
    return f, bump_derivative_field(grid, 0, width=1.0, sharpness=sharpness) * 0.5 + f * 0.25


def oracle_case(name):
    """(data, t, points) for the point-evaluator oracle comparison."""
    rng = np.random.default_rng(11)
    if name == "bump_2d":
        grid = Grid(2, 32, 8.0)
        f, g = bump_pair(grid, sharpness=2.0)
        return CauchyData(f, g, 2.0, 0.8), 3.0, rng.uniform(-3.0, 3.0, size=(40, 2))
    f, g = bump_pair(FINE)
    if name == "bump":
        data = CauchyData(f, g, 2.0, 1.0)
    else:
        data = band_data(f, g, 1.0, {"low_pass": LOW_PASS_BAND, "band_4": 4}[name])
    return data, 7.3, rng.uniform(-8.0, 8.0, size=(40, 1))


@pytest.mark.parametrize("chunk", [None, 100])
@pytest.mark.parametrize("name", ["low_pass", "band_4", "bump", "bump_2d"])
def test_evaluate_at_points_matches_direct_evaluation(name, chunk, monkeypatch):
    if chunk is not None:  # many blocks of a few points each
        monkeypatch.setattr(propagator_module, "EVAL_CHUNK_ENTRIES", chunk)
    data, t, pts = oracle_case(name)
    vals = evaluate_at_points(data, np.full(len(pts), t), pts)
    for got, want in zip(vals, direct_sum_oracle(data, np.full(len(pts), t), pts)):
        assert np.max(np.abs(want)) > 0.0
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_folded_modes_hold_exactly_the_band():
    # band-limited data cost in proportion to their band: the folded table
    # holds one mode of each pair +-k where the band's symbol is nonzero,
    # in lattice order, and zero data hold none and evaluate to zero
    bank = LittlewoodPaleyBank.for_grid(FINE)
    for band in (LOW_PASS_BAND, 4):
        data = band_data(*bump_pair(FINE), 1.0, band)
        table = fold_modes(FINE, *data.spectra, data.t0, data.mass)
        modes = table.modes
        assert np.array_equal(np.union1d(modes, -modes % FINE.points_per_axis),
                               np.flatnonzero(bank.symbol(band)))
        assert np.all(np.diff(modes) > 0) and len(modes) < FINE.points_per_axis // 4
        assert np.array_equal(table.xi[:, 0], FINE.axis_frequencies[modes])
        assert np.array_equal(table.omega, np.sqrt(FINE.frequency_norm.ravel()[modes] ** 2 + 1.0))
        for got, want in zip((table.f_hat, table.g_hat), pairwise_fold(data)[3:]):
            assert got.tobytes() == want.tobytes()
    zero = CauchyData(ZERO, ZERO, 0.0, 1.0)
    table = fold_modes(GRID, *zero.spectra, zero.t0, zero.mass)
    assert table.xi.shape == (0, 1)
    assert all(len(a) == 0 for a in (table.modes, table.omega, table.f_hat, table.g_hat))
    vals = evaluate_at_points(zero, [1.0, 3.0], [[0.5], [-2.0]])
    assert vals.shape == (3, 2) and not vals.any()


def listed_modes(data):
    """How many lattice modes the data's spectra hold before folding."""
    return np.count_nonzero((data.spectra[0] != 0) | (data.spectra[1] != 0))


def evolved_table(data, t):
    """(modes, xi, phi_hat, d_t phi_hat) of the folded table of the data's
    spectra evolved to time t (``evolve_spectra``)."""
    spectra = (F.coefficients for F in evolve_spectra(data, t))
    table = fold_modes(data.grid, *spectra, t, data.mass)
    return table.modes, table.xi, table.f_hat, table.g_hat


def full_spectrum_2d(n, box):
    """2-D bump data at t0 = 2 that keep all N^2 modes, their spectra taken."""
    grid = Grid(2, n, box)
    f = bump_field(grid, width=1.0, sharpness=1.0)
    data = CauchyData(f, bump_derivative_field(grid, 0, width=1.0, sharpness=1.0), 2.0, 1.0)
    data.spectra
    return data


@pytest.mark.parametrize("n, box, mb", [(64, 16.0, 14), (128, 32.0, 40)])
def test_sup_norms_memory_is_bounded_on_full_spectrum_2d_data(n, box, mb):
    # 2-D bump data keep all N^2 modes (2049 and 8320 once folded), sampled
    # on a coarse lattice of (4 N)^2 points and refined to resolution 8 in
    # their candidate cells; the 64 offsets' rows of the refinement product
    # are built in blocks of at most REFINE_BLOCK_ENTRIES, so one call peaks
    # at 9.1 and 33.8 MiB (10.3 and 35.9 MiB with all the rows at once)
    data = full_spectrum_2d(n, box)  # transformed before the measured call
    tracemalloc.start()
    try:
        upper, _ = sup_norms(data, [3.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert upper[0, 0] > 0.0
    assert peak <= mb * 2**20


def test_sup_norms_memory_is_bounded_on_wide_band_data():
    # band 4 of highfreq's d = 1 sweep on its 8x wider box; one call peaks
    # at 6.2 MiB, with a coarse lattice of 32768 points and few candidate cells
    wide = Grid(1, 32768, 2048.0)
    f = bump_field(wide, width=0.25, sharpness=4.0)
    data = band_data(f, Field(wide, np.zeros(wide.shape)), 0.5, 4)
    tracemalloc.start()
    try:
        upper, _ = sup_norms(data, [64.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert upper[0, 0] > 0.0
    assert peak <= 21 * 2**20


def test_sup_norms_memory_is_bounded_over_a_whole_sweep():
    # the whole late-time curve of the band-4 data above in one call stays
    # within the one-call bound: nothing is kept per time (the coarse fields
    # of every time would add 0.8 MB each)
    wide = Grid(1, 32768, 2048.0)
    f = bump_field(wide, width=0.25, sharpness=4.0)
    data = band_data(f, Field(wide, np.zeros(wide.shape)), 0.5, 4)
    tracemalloc.start()
    try:
        upper, _ = sup_norms(data, HIGHFREQ_LATE_TIMES)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(upper) == len(HIGHFREQ_LATE_TIMES)
    assert np.all(upper[:, 0] > 0.0)
    assert peak <= 21 * 2**20


def test_sup_norms_refine_each_field_group_in_its_own_cells_in_bounded_memory():
    # two times of the band-4 curve above: the lattice's fold plan is built
    # once, the coarse squares are freed before the refinement, and phi's
    # refinement rows (1 x 8 offsets) and the derivative group's (2 x 8)
    # are built each for their own cells, so the call peaks at 6.3 MiB
    # (8.7 MiB with all 3 x 8 rows refined in the union of the cells)
    data = wide_band_data(4)
    tracemalloc.start()
    try:
        upper, _ = sup_norms(data, HIGHFREQ_LATE_TIMES[:2])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(upper > 0.0)
    assert peak <= 7 * 2**20


@pytest.mark.parametrize("band", [LOW_PASS_BAND, 0, 4])
def test_band_data_spectra_vanish_off_band(band):
    # a band check holds its pieces as the folded projected spectra, at
    # modes where the band's symbol is nonzero, and the l1 norms of the
    # projected fields; a zero field's piece is zero, of norm 0
    f, g = bump_pair(FINE)
    bank = LittlewoodPaleyBank.for_grid(FINE)
    zero = Field(FINE, np.zeros(FINE.shape))
    assert np.any(bank.symbol(band) == 0.0)
    for pair in ((f, g), (f, zero), (zero, g)):
        table, *norms = _band_data(*pair, 1.0, band)
        assert (table.grid, table.t0, table.mass) == (FINE, 0.0, 1.0)
        assert np.all(bank.symbol(band).ravel()[table.modes] != 0.0)
        want = pairwise_fold(band_data(*pair, 1.0, band))
        got = (table.modes, table.xi, table.omega, table.f_hat, table.g_hat)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        for norm, source in zip(norms, pair):
            assert norm == l1_norm(bank.project(source, band))


@pytest.mark.parametrize("case", ["band_4", "bump", "bump_2d", "full_2d"])
def test_folded_table_equals_the_pairwise_fold(case):
    # fold_modes gives, bit for bit, the table of the data's nonzero modes
    # folded by the point evaluator's Hermitian pairing: band-4 data, the
    # full-spectrum bump, a 2-D bump and 2-D data that keep all N^2 modes
    data = full_spectrum_2d(64, 16.0) if case == "full_2d" else oracle_case(case)[0]
    table = fold_modes(data.grid, *data.spectra, data.t0, data.mass)
    assert (table.grid, table.t0, table.mass) == (data.grid, data.t0, data.mass)
    got = (table.modes, table.xi, table.omega, table.f_hat, table.g_hat)
    want = pairwise_fold(data)
    assert len(want[0]) < listed_modes(data)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_band_checks_transform_each_field_once(monkeypatch):
    # highfreq's band sweep checks the same fields on every band: each is
    # transformed once, whatever the number of bands and checks, and a zero
    # field never
    transformed = []

    def spy(f):
        transformed.append(f)
        return forward_transform(f)

    monkeypatch.setattr(grid_module, "forward_transform", spy)
    monkeypatch.setattr(decay_module, "forward_transform", spy, raising=False)
    f, g = bump_pair(FINE)
    zero = Field(FINE, np.zeros(FINE.shape))
    for band in (0, 1, 2):
        highfreq_check(f, zero, 0.5, band, TIMES[:3])
        highfreq_check(zero, g, 0.5, band, TIMES[:3])
    assert len(transformed) == 2 and {id(h) for h in transformed} == {id(f), id(g)}


@pytest.mark.parametrize("which", ["f", "g"])
def test_highfreq_check_memory_is_bounded_on_wide_band_data(which):
    # one band-4 check of highfreq's d = 1 sweep on its 8x wider box, with
    # data in f alone or in g alone: the check frees the band's full-grid
    # spectra and fields before the sweep and never transforms the zero
    # field, so it peaks at 6.7 MiB (8.8 MiB when it held them)
    wide = Grid(1, 32768, 2048.0)
    h = bump_field(wide, width=0.25, sharpness=4.0)
    h.spectrum  # transformed before the measured call
    zero = Field(wide, np.zeros(wide.shape))
    pair = (h, zero) if which == "f" else (zero, h)
    tracemalloc.start()
    try:
        reports = highfreq_check(*pair, 0.5, 4, HIGHFREQ_LATE_TIMES)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert reports[0].empirical_constant > 0.0
    assert peak <= 7 * 2**20


BRACKET = Grid(1, 256, 16.0)  # Nyquist 50.3, as FINE


def bracket_case(case):
    """(data, times) for the sup-bracket comparison with the oracle: band
    data, the full-spectrum bump of the localized suite's type, or a 2-D
    bump."""
    if case == "bump_2d":
        data, t, _ = oracle_case(case)
        return data, (t,)
    if case == "bump":
        f, g = bump_pair(BRACKET, sharpness=1.0)
        return CauchyData(f, g, 2.0, 1.0), (3.7, 20.0)
    return band_data(*bump_pair(BRACKET), 1.0, case), (3.7, 20.0)


@pytest.fixture
def factors(monkeypatch):
    """The spacing of each refinement that ``sup_norms`` makes, as the
    factor h / spacing = m R / N of its lattice m and resolution R."""
    factors = []

    def spy(lattice, coefficients, cells):
        factors.append(lattice.m * lattice.resolution / lattice.grid.points_per_axis)
        return maxima(lattice, coefficients, cells)

    maxima = _Lattice.maxima
    monkeypatch.setattr(_Lattice, "maxima", spy)
    return factors


def sup_quantities(phi, dphi, grad):
    """|phi|, |d_t phi|, |grad phi| and |d phi|, in ``SUP_FIELDS`` order,
    from sampled phi, d_t phi and grad phi (components on the first axis)."""
    grad = np.sqrt(np.sum(np.square(grad), axis=0))
    return np.abs(phi), np.abs(dphi), grad, np.sqrt(dphi**2 + grad**2)


@pytest.mark.parametrize("case", [LOW_PASS_BAND, 2, 4, "bump", "bump_2d"])
def test_sup_norms_bracketed_by_direct_evaluation(case, factors):
    # the direct-sum oracle's maximum on a lattice of spacing h / 64, or
    # h / 128 where the final refinement spacing is h / 32 (bump_2d: the
    # single Szegő bound's width 1 / cos(sigma_max delta0 / R) - 1 is 2.0e-2
    # at R = 4, so R = 8 on its lattice of 4 N points per axis), at
    # least 4 times finer than that spacing, within two such spacings of the
    # maximizer on the lattice of that spacing, lies in each bracket (up to
    # rounding, for a maximizer at a sampled point, which the oracle's
    # lattice holds); each bracket is at most 1e-2 wide
    data, times = bracket_case(case)
    g = data.grid
    for t in times:
        factors.clear()
        upper, lower = sup_norms(data, [t])
        factor = factors[-1]
        per_h = 64 * max(1, int(factor) // 16)
        assert 4 * factor <= per_h
        steps = np.arange(-2 * per_h // factor, 2 * per_h // factor + 1) * g.spacing / per_h
        square = np.stack([m.ravel() for m in np.meshgrid(*[steps] * g.dim, indexing="ij")], -1)
        modes, xi, phi_hat, dphi_hat = evolved_table(data, t)
        coefficients = np.stack([phi_hat, dphi_hat, *(1j * x * phi_hat for x in xi.T)])
        fine_n = round(factor * g.points_per_axis)
        phi, dphi, *grad = upsample_values(FoldPlan(g, modes, fine_n), coefficients)
        fine = sup_quantities(phi, dphi, np.array(grad))
        for i in range(len(SUP_FIELDS)):
            index = np.unravel_index(np.argmax(fine[i]), fine[i].shape)
            x = square - 0.5 * g.box_length + g.spacing / factor * np.array(index)
            phi, dphi, *grad = direct_sum_oracle(data, np.full(len(x), t), x)
            dense = np.max(sup_quantities(phi, dphi, np.array(grad))[i])
            assert lower[0, i] * (1.0 - 1e-12) <= dense <= upper[0, i] * (1.0 + 1e-12)
            assert widths(upper, lower)[0, i] <= 1e-2


@st.composite
def band_limited_cases(draw):
    """Data whose spectra are random and Hermitian on a random half of the
    modes with every |k_a| <= top, at mass 0 or 1, and a time."""
    dim = draw(st.sampled_from((1, 2)))
    n = {1: 32, 2: 8}[dim]
    grid = Grid(dim, n, draw(st.sampled_from((4.0, 16.0))))
    top = draw(st.integers(1, n // 2 - 1))
    mass = draw(st.sampled_from((0.0, 1.0)))
    t = draw(st.floats(0.0, 8.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = np.meshgrid(*[np.fft.fftfreq(n, 1.0 / n)] * dim, indexing="ij")
    band = np.all(np.abs(k) <= top, axis=0)
    negated = np.ix_(*[-np.arange(n) % n] * dim)
    spectra = []
    for _ in range(2):
        c = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
        c *= band & (rng.random(grid.shape) < 0.5)
        spectra.append(SpectralField(grid, (c + np.conj(c[negated])) / 2))
    return CauchyData.from_spectra(*spectra, 0.0, mass), t


@settings(max_examples=30, derandomize=True, deadline=None)
@given(case=band_limited_cases())
def test_sup_brackets_hold_the_dense_maximum(case):
    # the lattice of spacing L / (2 m R), for the coarse lattice m and the
    # final resolution R, holds every point sup_norms samples: its
    # direct-sum maximum lies in each bracket, up to rounding at its low end
    data, t = case
    lattices, resolutions = [], [1]

    def upsample_spy(fold, coefficients):
        lattices.append(fold.m)
        return upsample(fold, coefficients)

    def maxima_spy(lattice, coefficients, cells):
        resolutions.append(lattice.resolution)
        return maxima(lattice, coefficients, cells)

    upsample, maxima = decay_module.upsample_values, _Lattice.maxima
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(decay_module, "upsample_values", upsample_spy)
        patch.setattr(_Lattice, "maxima", maxima_spy)
        upper, lower = sup_norms(data, [t])
    if not lattices:  # zero data
        assert not upper.any() and not lower.any()
        return
    phi, dphi, grad = lattice_sum_oracle(data, t, 2 * lattices[-1] * resolutions[-1])
    dense = [np.max(q) for q in sup_quantities(phi, dphi, grad)]
    assert np.all(lower[0] * (1.0 - 1e-12) <= dense)
    assert np.all(dense <= upper[0] * (1.0 + 1e-12))
    assert np.all(widths(upper, lower) <= 1e-2)


@st.composite
def lattice_mode_sets(draw):
    dim = draw(st.sampled_from((1, 2)))
    n = draw(st.sampled_from((8, 64, 1024) if dim == 1 else (8, 16, 64)))
    grid = Grid(dim, n, draw(st.floats(0.5, 1000.0)))
    modes = draw(st.lists(st.integers(0, n**dim - 1), min_size=1, max_size=12, unique=True))
    return grid, np.sort(modes)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(case=lattice_mode_sets())
def test_lattice_is_the_smallest_power_of_two_within_reach(case):
    # reach <= 1 alone sizes the coarse lattice: it already gives
    # m >= pi sqrt(d) max |k_a| > 2 max |k_a|, so the samples determine the
    # fields, and half the lattice would leave reach > 1
    grid, modes = case
    xi = grid.axis_frequencies[np.stack(np.unravel_index(modes, grid.shape), axis=-1)]
    lattice = _Lattice(grid, modes, xi)
    assert lattice.m > 2 * np.max(np.abs(lattice.signed))
    assert lattice.reach <= 1.0
    assert lattice.m == 2 or 2.0 * lattice.reach > 1.0


def test_lattice_maxima_are_the_maxima_at_the_sub_cell_centres():
    # cell i of the coarse lattice at resolution R is sampled at
    # -L/2 + (i + (2 s + 1 - R) / (2 R)) L / m, s = 0, ..., R - 1 per axis,
    # at the lattice's own resolution and, with the bracket width that makes
    # R the first to meet it, at R = 2 and 4.  |phi|^2 is refined in the
    # first cells, the five of largest |phi|, and the squares of d_t phi,
    # grad phi and d phi in the second, the five of largest |d_t phi|, which
    # are other cells: each group's maxima are its own fields' maxima over
    # its own cells
    for case, t in (("band_4", 7.3), ("bump_2d", 3.0)):
        data = oracle_case(case)[0]
        g = data.grid
        modes, xi, phi_hat, dphi_hat = evolved_table(data, t)
        lattice = _Lattice(g, modes, xi)
        coefficients = np.stack([phi_hat, dphi_hat, *(1j * x * phi_hat for x in xi.T)])
        coarse = upsample_values(lattice.fold, coefficients[:2])
        cells = [np.argsort(np.abs(c.ravel()))[-5:] for c in coarse]
        assert not np.isin(cells[0], cells[1]).all()
        for resolution in (2, 4, lattice.resolution):
            width = 1.0 / np.cos(lattice.reach / resolution) - 1.0
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(decay_module, "BRACKET_WIDTH", width)
                refined = _Lattice(g, modes, xi)
            assert refined.resolution == resolution
            got = refined.maxima(coefficients, cells)
            steps = (2 * np.arange(resolution) + 1 - resolution) / (2 * resolution)
            offsets = np.stack([m.ravel() for m in np.meshgrid(*[steps] * g.dim, indexing="ij")], -1)
            want = []
            for group, fields in zip(cells, (slice(0, 1), slice(1, None))):
                index = np.stack(np.unravel_index(group, (lattice.m,) * g.dim), -1)
                x = (index[:, None] + offsets[None]).reshape(-1, g.dim) * g.box_length / lattice.m
                phi, dphi, *grad = direct_sum_oracle(
                    data, np.full(len(x), t), x - 0.5 * g.box_length)
                quantities = sup_quantities(phi, dphi, np.array(grad))[fields]
                want += [np.max(q) ** 2 for q in quantities]
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)


def edge_mode_data():
    """Modes k = 899, 900 and 901 of amplitude 1 at phases (0, pi/2, 0), whose
    sup is sqrt(5) < 3 on a slow envelope, and a mode k = 902 of amplitude
    1.5e-3 in f, and the same shifted by 0.5 in phase in g: a top mode far
    too small to matter for the sup, which still sets sigma_max."""
    grid = Grid(1, 4096, 256.0)
    spectra = []
    for shift in (0.0, 0.5):
        c = np.zeros(grid.shape, dtype=complex)
        for k, amplitude, phase in ((899, 1.0, shift), (900, 1.0, shift + np.pi / 2),
                                    (901, 1.0, shift), (902, 1.5e-3, 0.0)):
            c[k] = amplitude * grid.box_length / 2 * np.exp(1j * phase)
            c[-k] = np.conj(c[k])
        spectra.append(SpectralField(grid, c))
    return CauchyData.from_spectra(*spectra, 0.0, 1.0)


def refinement(data, t):
    """The coarse samples of phi, d_t phi and grad phi that ``sup_norms``
    takes at time t, its lattice, the cells it refines, and its brackets."""
    coarse, refined = [], []

    def upsample_spy(fold, coefficients):
        values = upsample(fold, coefficients)
        coarse.append(values.copy())
        return values

    def maxima_spy(lattice, coefficients, cells):
        refined.append((lattice, cells))
        return maxima(lattice, coefficients, cells)

    upsample, maxima = decay_module.upsample_values, _Lattice.maxima
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(decay_module, "upsample_values", upsample_spy)
        patch.setattr(_Lattice, "maxima", maxima_spy)
        upper, lower = sup_norms(data, [t])
    (lattice, cells), = refined
    return coarse[0], lattice, cells, upper[0], lower[0]


@pytest.mark.parametrize("case", [4, "bump", "bump_2d", "wide_band_4", "edge_mode"])
def test_refinement_samples_every_cell_the_bound_allows(case):
    # a maximizer of a field of coarse maximum M0 > 0 and top frequency
    # sigma_max lies within delta0 of a lattice point holding at least
    # M0 cos(sigma_max delta0), so the refinement of each time samples every
    # cell at or above that for each nonzero field, phi's among the first
    # cells and the other fields' among the second.  edge_mode: a tiny top
    # mode sets sigma_max, and the bound holds for the whole field, that
    # mode included, so it locates the field's own maximizers with no
    # lower cut-off frequency and no tail
    if case == "wide_band_4":
        data, times = wide_band_data(4), HIGHFREQ_LATE_TIMES
    elif case == "edge_mode":
        data, times = edge_mode_data(), (0.0,)
    else:
        data, times = bracket_case(case)
    g = data.grid
    modes = fold_modes(g, *data.spectra, data.t0, data.mass).modes
    sigma_max = np.max(g.frequency_norm.ravel()[modes])
    for t in times:
        (phi, dphi, *grad), lattice, cells, _, _ = refinement(data, t)
        delta0 = g.box_length * np.sqrt(g.dim) / (2 * lattice.m)
        for i, values in enumerate(sup_quantities(phi, dphi, np.array(grad))):
            assert np.max(values) > 0.0
            required = values.ravel() >= np.max(values) * np.cos(sigma_max * delta0)
            assert np.all(np.isin(np.flatnonzero(required), cells[min(i, 1)]))


def test_a_field_zero_on_the_lattice_marks_no_cells():
    # band data (f, 0) at t = 0 have d_t phi = 0 on the lattice, so 0
    # everywhere: its bracket is [0, 0], and the refinement samples phi in
    # exactly the cells that phi marks, and the other fields in exactly
    # those that grad phi and |d phi| mark (a threshold of
    # 0 cos(sigma_max delta0) = 0 would mark every cell)
    f, _ = bump_pair(BRACKET)
    data = band_data(f, Field(BRACKET, np.zeros(BRACKET.shape)), 1.0, 2)
    (phi, dphi, *grad), lattice, cells, upper, lower = refinement(data, 0.0)
    assert not dphi.any() and upper[1] == lower[1] == 0.0
    assert np.all(lower[[0, 2, 3]] > 0.0)
    phi, _, *derivatives = sup_quantities(phi, dphi, np.array(grad))
    for group, fields in zip(cells, ([phi], derivatives)):
        marked = np.zeros(lattice.m**BRACKET.dim, dtype=bool)
        for values in fields:
            marked |= values.ravel() >= np.max(values) * np.cos(lattice.reach)
        assert 0 < len(group) < lattice.m**BRACKET.dim
        assert np.array_equal(np.flatnonzero(marked), group)
    assert not np.array_equal(*cells)


def test_sup_norms_upsampling_factor_follows_the_band(factors):
    # the refinement spacing follows the data's top frequency: h / 8 for
    # band 4 of highfreq's wide-grid data, 2 h for its band 0 (a lattice of
    # 2048 points, a sixteenth of the grid's) and h / 16 for the localized
    # suite's full-spectrum data
    wide = Grid(1, 32768, 2048.0)
    f = bump_field(wide, width=0.25, sharpness=4.0)
    zero = Field(wide, np.zeros(wide.shape))
    sup_norms(band_data(f, zero, 0.5, 0), HIGHFREQ_LATE_TIMES)
    assert max(factors) == 0.5
    factors.clear()
    sup_norms(band_data(f, zero, 0.5, 4), HIGHFREQ_LATE_TIMES)
    assert max(factors) == 8
    factors.clear()
    grid = Grid(1, 4096, 256.0)
    f, g = bump_pair(grid, sharpness=1.0)
    sup_norms(CauchyData(f, g, 2.0, 1.0), TIMES)
    assert max(factors) == 16


def wide_band_data(band):
    """Band ``band`` of highfreq's d = 1 sweep data on its 8x wider box."""
    wide = Grid(1, 32768, 2048.0)
    f = bump_field(wide, width=0.25, sharpness=4.0)
    return band_data(f, Field(wide, np.zeros(wide.shape)), 0.5, band)


@pytest.mark.parametrize(
    "blocks, entries",
    [("REFINE_CHUNK_ENTRIES", 1), ("REFINE_BLOCK_ENTRIES", 2**12), ("REFINE_BLOCK_ENTRIES", 2**30)],
)
def test_sup_norms_do_not_depend_on_the_block_size(monkeypatch, blocks, entries):
    # the maxima of each block of cells and of offsets merge exactly, so one
    # cell per block, rows of at most 2^12 entries (1 or 2 offsets here) or
    # all the rows at once (where the N = 64 bump's make 3 blocks) give the
    # same brackets up to the rounding of the product: band 0, the localized
    # suite's full-spectrum bump and two 2-D bumps
    data_2d, t, _ = oracle_case("bump_2d")
    f, g = bump_pair(Grid(1, 4096, 256.0), sharpness=1.0)
    cases = [
        (wide_band_data(0), HIGHFREQ_LATE_TIMES[:3]),
        (CauchyData(f, g, 2.0, 1.0), TIMES[:3]),
        (data_2d, (t, 2 * t)),
        (full_spectrum_2d(64, 16.0), (3.0,)),
    ]
    want = [sup_norms(data, times) for data, times in cases]
    monkeypatch.setattr(decay_module, blocks, entries)
    got = [sup_norms(data, times) for data, times in cases]
    for g, w in zip(got, want):
        for a, b in zip(g, w):
            assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))


def test_sup_norms_build_one_offset_table_per_curve_and_resolution(monkeypatch):
    # band 4 of highfreq's sweep is sampled at the resolution its top
    # frequency needs, x8 (x4 would leave it wider than BRACKET_WIDTH), from
    # the one table of x8 offsets its lattice built, for all thirteen times;
    # every width is 1 / cos(sigma_max delta0 / 8) - 1
    calls = []

    def spy(lattice, coefficients, cells):
        calls.append((lattice, lattice.resolution, lattice.offsets))
        return maxima(lattice, coefficients, cells)

    maxima = _Lattice.maxima
    monkeypatch.setattr(_Lattice, "maxima", spy)
    data = wide_band_data(4)
    upper, lower = sup_norms(data, HIGHFREQ_LATE_TIMES)
    lattice = calls[0][0]
    assert [r for _, r, _ in calls] == [8] * len(HIGHFREQ_LATE_TIMES)
    assert all(table is lattice.offsets for *_, table in calls)
    modes = fold_modes(data.grid, *data.spectra, data.t0, data.mass).modes
    assert lattice.offsets.shape == (8, len(modes)) and len(modes) < listed_modes(data)
    reach = np.max(data.grid.frequency_norm.ravel()[modes]) * lattice.delta0
    assert 1.0 / np.cos(reach / 4) - 1.0 > BRACKET_WIDTH
    assert np.all(np.abs(widths(upper, lower) - (1.0 / np.cos(reach / 8) - 1.0)) <= 1e-13)


def test_lowfreq_zero_data_skipped():
    reports = lowfreq_check(ZERO, ZERO, 1.0, TIMES)
    assert all(r.status == "skipped" and r.mode == "origin" for r in reports)
    assert all(r.empirical_constant == 0.0 for r in reports)
    assert np.all(reports[0].curve.weighted_sup == 0.0)


def test_lowfreq_constant_scale_invariance():
    f = bump_field(GRID, width=1.0, sharpness=4.0)
    r1 = lowfreq_check(f, ZERO, 1.0, TIMES)[0]
    r10 = lowfreq_check(f * 10.0, ZERO, 1.0, TIMES)[0]
    # the low band carries the (1+t)^(d/2) weight on top of m0 sup|phi|
    c = r1.curve
    assert np.allclose(c.weighted_sup, np.sqrt(1.0 + c.times) * c.raw_sup, rtol=1e-14)
    assert abs(r1.empirical_constant - r10.empirical_constant) <= 1e-10 * max(
        r1.empirical_constant, 1e-300
    )


def test_highfreq_band_zero_normalization_trivial():
    f = bump_field(GRID, width=0.5, sharpness=4.0)
    rep = highfreq_check(f, ZERO, 1.0, 0, TIMES)
    # 2^0 = 1: normalized and plain constants coincide for the phi bound
    assert abs(rep[0].empirical_constant - rep[0].unnormalized_constant) <= 1e-12
    assert rep[0].inequality_id == "highfreq"
    assert rep[1].inequality_id == "wavedecay"


def test_highfreq_band_above_nyquist_rejected():
    f = bump_field(GRID, width=0.5, sharpness=4.0)
    with pytest.raises(ConfigurationError):
        highfreq_check(f, ZERO, 1.0, 12, TIMES)
    with pytest.raises(ValueError):
        highfreq_check(f, ZERO, 1.0, -1, TIMES)


def test_highfreq_homogeneity():
    f = bump_field(GRID, width=0.5, sharpness=4.0)
    r1 = highfreq_check(f, ZERO, 1.0, 2, TIMES)[0]
    r5 = highfreq_check(f * 5.0, ZERO, 1.0, 2, TIMES)[0]
    # bands k >= 0 carry the plain t^(d/2) weight
    c = r1.curve
    assert np.allclose(c.weighted_sup, np.sqrt(c.times) * c.raw_sup, rtol=1e-14)
    assert abs(r1.empirical_constant - r5.empirical_constant) <= 1e-10 * max(
        r1.empirical_constant, 1e-300
    )


def test_interpolation_validation_and_zero():
    f = bump_field(GRID, width=0.5, sharpness=4.0)
    with pytest.raises(ValueError):
        interpolation_check(f, ZERO, 1.0, 2, (0.75,), TIMES)  # s > d/2
    rep = interpolation_check(ZERO, ZERO, 1.0, 2, (0.25,), TIMES)[0]
    assert rep.status == "skipped"
    assert rep.extras["s"] == 0.25


def test_interpolation_endpoint_matches_highfreq_up_to_mass():
    f = bump_field(GRID, width=0.5, sharpness=4.0)
    m0 = 0.5
    hf = highfreq_check(f, ZERO, m0, 2, TIMES)
    ip = interpolation_check(f, ZERO, m0, 2, (0.5,), TIMES)
    # the endpoint rows come from the same sweep as the interpolated row
    assert [r.inequality_id for r in ip] == ["interpolation", "highfreq", "wavedecay"]
    assert [r.empirical_constant for r in ip[1:]] == [r.empirical_constant for r in hf]
    assert abs(m0 * ip[0].empirical_constant - hf[0].empirical_constant) <= 1e-12 * max(
        hf[0].empirical_constant, 1e-300
    )


def test_localized_requires_unit_ball_support():
    wide = bump_field(GRID, width=3.0, sharpness=4.0)
    with pytest.raises(ConfigurationError):
        localized_decay_check(CauchyData(wide, ZERO, 2.0, 1.0), TIMES)
    ok = bump_field(GRID, width=1.0, sharpness=4.0)
    with pytest.raises(ConfigurationError):
        localized_decay_check(CauchyData(ok, ZERO, 0.0, 1.0), TIMES)  # t0 != 2


def test_localized_zero_data_zero_curves():
    reports = localized_decay_check(CauchyData(ZERO, ZERO, 2.0, 1.0), TIMES)
    assert {r.quantity for r in reports} == {
        "m2_td_phi_sq",
        "td1_dt_phi_sq",
        "td1_grad_phi_sq",
        "combined",
    }
    for r in reports:
        assert r.status == "skipped" and r.mode == "data2"
        assert np.all(r.curve.weighted_sup == 0.0)


def test_localized_rows_weight_the_upper_sup_ends():
    # each row's series by hand from the brackets' upper ends (d = 1):
    # m^2 t^d phi^2, t^(d-1) (d_t phi)^2, t^(d-1) |grad phi|^2 and their sum
    f = bump_field(GRID, width=1.0, sharpness=4.0)
    g = bump_derivative_field(GRID, 0, width=1.0, sharpness=4.0) * 0.5
    data = CauchyData(f, g, 2.0, 0.7)
    t = np.asarray(TIMES)
    upper, _ = sup_norms(data, t)
    phi, dphi, grad = (upper[:, SUP_FIELDS.index(n)] for n in ("phi", "dphi_dt", "grad"))
    d = GRID.dim
    want = {
        "m2_td_phi_sq": data.mass**2 * t**d * phi**2,
        "td1_dt_phi_sq": t ** (d - 1) * dphi**2,
        "td1_grad_phi_sq": t ** (d - 1) * grad**2,
    }
    want["combined"] = sum(want.values())
    got = {r.quantity: r.curve.weighted_sup for r in localized_decay_check(data, TIMES)}
    assert got.keys() == want.keys()
    for quantity, series in want.items():
        assert np.allclose(got[quantity], series, rtol=1e-12, atol=0.0), quantity


def test_localized_constant_scale_invariance():
    f = bump_field(GRID, width=1.0, sharpness=4.0)
    d1 = CauchyData(f, ZERO, 2.0, 1.0)
    d4 = CauchyData(f * 4.0, ZERO, 2.0, 1.0)
    r1 = {r.quantity: r for r in localized_decay_check(d1, TIMES)}["combined"]
    r4 = {r.quantity: r for r in localized_decay_check(d4, TIMES)}["combined"]
    assert abs(r1.empirical_constant - r4.empirical_constant) <= 1e-10 * max(
        r1.empirical_constant, 1e-300
    )


def test_time_grid_must_increase(monkeypatch):
    # the time grid is rejected before any sup_norms sweep runs
    sweeps = []
    monkeypatch.setattr(decay_module, "sup_norms", lambda *a: sweeps.append(a))
    f = bump_field(GRID, width=1.0, sharpness=4.0)
    with pytest.raises(ValueError, match="times must be strictly increasing"):
        lowfreq_check(f, ZERO, 1.0, (8.0, 8.0, 9.0))
    assert sweeps == []
