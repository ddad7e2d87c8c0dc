import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kgdecay.errors import GridMismatchError
from kgdecay.grid import (
    Field,
    FoldPlan,
    Grid,
    SpectralField,
    forward_transform,
    inverse_transform,
    l1_norm,
    l2_norm,
    linf_norm,
    multi_indices,
    sobolev_h_norm,
    sobolev_order,
    partial_derivative,
    sobolev_w_k1_norm,
    upsample_values,
)
from kgdecay.bands import LittlewoodPaleyBank
from kgdecay.bumps import bump_derivative_field, bump_field

from oracles import bump_mass_1d, centered_difference, complex_upsample_oracle

GRID = Grid(1, 512, 32.0)


def test_grid_invariants():
    assert GRID.points_per_axis * GRID.spacing == GRID.box_length
    xi = GRID.axis_frequencies
    # frequency lattice closed under negation (Nyquist self-paired mod 2pi N/L)
    for j in range(1, GRID.points_per_axis // 2):
        assert xi[j] == -xi[-j]


@pytest.mark.parametrize("bad_n", [3, 100, 0])
def test_grid_rejects_non_power_of_two(bad_n):
    with pytest.raises(ValueError):
        Grid(1, bad_n, 1.0)


def test_constant_field_spectrum_concentrates_at_zero():
    f = Field(GRID, np.ones(GRID.shape))
    F = forward_transform(f).coefficients
    assert abs(F[0] - GRID.box_length) < 1e-9
    assert np.max(np.abs(F[1:])) < 1e-9


def test_single_mode_has_two_coefficients():
    x = GRID.axis_coordinates
    xi0 = 2.0 * np.pi * 5 / GRID.box_length
    F = forward_transform(Field(GRID, np.cos(xi0 * x))).coefficients
    mags = np.abs(F)
    idx = np.argsort(mags)[::-1]
    assert set(idx[:2]) == {5, GRID.points_per_axis - 5}
    assert np.max(mags[idx[2:]]) < 1e-9 * mags[idx[0]]


def test_round_trip_random_field():
    rng = np.random.default_rng(0)
    f = Field(GRID, rng.standard_normal(GRID.shape))
    back = inverse_transform(forward_transform(f))
    assert np.max(np.abs(back.values - f.values)) <= 1e-12 * linf_norm(f)


def test_round_trip_2d():
    g = Grid(2, 32, 8.0)
    rng = np.random.default_rng(1)
    f = Field(g, rng.standard_normal(g.shape))
    back = inverse_transform(forward_transform(f))
    assert np.max(np.abs(back.values - f.values)) <= 1e-12 * linf_norm(f)


@pytest.mark.parametrize("grid", [GRID, Grid(2, 32, 8.0)], ids=["1d", "2d"])
def test_inverse_transform_values_own_their_data(grid):
    # the real part of the complex inverse FFT, copied out: a strided view
    # would keep the complex buffer, twice the field's bytes, alive with it
    rng = np.random.default_rng(2)
    F = forward_transform(Field(grid, rng.standard_normal(grid.shape)))
    back = inverse_transform(F)
    want = (np.fft.ifftn(F.coefficients * grid.alternating_phase) / grid.cell_volume).real
    assert back.values.flags.c_contiguous and back.values.flags.owndata
    assert back.values.base is None
    assert np.array_equal(back.values, want)


def test_parseval_random_fields():
    rng = np.random.default_rng(3)
    for _ in range(100):
        f = Field(GRID, rng.standard_normal(GRID.shape))
        F = forward_transform(f)
        freq_side = np.sqrt(
            np.sum(np.abs(F.coefficients) ** 2) / GRID.box_length**GRID.dim
        )
        assert abs(l2_norm(f) - freq_side) <= 1e-12 * max(l2_norm(f), 1.0)


def test_derivative_on_lattice_mode_exact():
    x = GRID.axis_coordinates
    xi0 = 2.0 * np.pi * 7 / GRID.box_length
    df = partial_derivative(Field(GRID, np.sin(xi0 * x)), (1,))
    assert np.max(np.abs(df.values - xi0 * np.cos(xi0 * x))) <= 1e-10


def test_derivative_of_constant_is_zero():
    df = partial_derivative(Field(GRID, np.ones(GRID.shape)), (1,))
    assert np.max(np.abs(df.values)) <= 1e-12


def test_derivative_matches_finite_difference_at_second_order():
    errors = {}
    for n in (512, 1024):
        g = Grid(1, n, 32.0)
        f = bump_field(g, width=4.0)
        spectral = partial_derivative(f, (1,)).values
        fd = centered_difference(f.values, g.spacing, 0)
        errors[n] = np.max(np.abs(spectral - fd))
    order = np.log2(errors[512] / errors[1024])
    assert order >= 1.9


def test_derivative_multi_index_of_the_wrong_length():
    f = Field(GRID, np.zeros(GRID.shape))
    with pytest.raises(ValueError):
        partial_derivative(f, (0, 1))


def test_field_grid_mismatch_raises():
    with pytest.raises(GridMismatchError):
        Field(GRID, np.zeros(7))
    with pytest.raises(GridMismatchError):
        SpectralField(GRID, np.zeros((3, 3), dtype=complex))


def test_field_rejects_non_finite():
    vals = np.zeros(GRID.shape)
    vals[3] = np.inf
    with pytest.raises(ValueError):
        Field(GRID, vals)


def test_bump_l1_matches_quadrature_oracle():
    g = Grid(1, 2048, 32.0)
    mass = bump_mass_1d(1.0, 1.0)
    # frozen value of the oracle integral int exp(-x^2/(1-x^2)) dx
    assert abs(mass - 1.2069003224378763) < 1e-12
    f = bump_field(g, width=1.0, amplitude=1.0 / mass)
    assert abs(l1_norm(f) - 1.0) <= 1e-8


@pytest.mark.parametrize("sharpness", [0.3, 1.0, 4.0])
def test_bump_derivative_field_matches_centered_difference(sharpness):
    g = Grid(1, 2**15, 4.0)
    exact = bump_derivative_field(g, sharpness=sharpness).values
    diff = centered_difference(bump_field(g, sharpness=sharpness).values, g.spacing, 0)
    assert np.max(np.abs(exact - diff)) <= 1e-5 * np.max(np.abs(exact))


@pytest.mark.parametrize("sharpness", [0.0, -1.0])
def test_bump_derivative_field_rejects_non_positive_sharpness(sharpness):
    with pytest.raises(ValueError):
        bump_derivative_field(Grid(1, 16, 4.0), sharpness=sharpness)


def test_zero_field_norms():
    f = Field(GRID, np.zeros(GRID.shape))
    assert l1_norm(f) == 0.0
    assert l2_norm(f) == 0.0
    assert linf_norm(f) == 0.0
    assert sobolev_h_norm(f, 2.0) == 0.0
    assert sobolev_w_k1_norm(f, 2) == 0.0


def test_cosine_l2_norm_closed_form():
    x = GRID.axis_coordinates
    xi0 = 2.0 * np.pi * 3 / GRID.box_length
    f = Field(GRID, np.cos(xi0 * x))
    assert abs(l2_norm(f) - np.sqrt(GRID.box_length / 2.0)) <= 1e-10


def test_h_zero_matches_l2():
    rng = np.random.default_rng(4)
    f = Field(GRID, rng.standard_normal(GRID.shape))
    assert abs(sobolev_h_norm(f, 0.0) - l2_norm(f)) <= 1e-10 * l2_norm(f)


@settings(max_examples=30, derandomize=True)
@given(c=st.floats(min_value=-100.0, max_value=100.0, allow_nan=False).filter(lambda v: abs(v) > 1e-8))
def test_norm_homogeneity(c):
    rng = np.random.default_rng(5)
    f = Field(GRID, rng.standard_normal(GRID.shape))
    for norm in (l1_norm, l2_norm, linf_norm, lambda u: sobolev_h_norm(u, 1.5)):
        assert abs(norm(f * c) - abs(c) * norm(f)) <= 1e-12 * abs(c) * max(norm(f), 1.0)


def test_w_k1_order_validation():
    f = Field(GRID, np.zeros(GRID.shape))
    with pytest.raises(ValueError):
        sobolev_w_k1_norm(f, GRID.dim + 3)
    with pytest.raises(ValueError):
        sobolev_w_k1_norm(f, -1)


def test_multi_indices_counts():
    assert len(multi_indices(1, 3)) == 4
    assert len(multi_indices(2, 2)) == 6  # (0,0),(0,1),(1,0),(1,1),(0,2),(2,0)


def test_sobolev_order_values():
    assert sobolev_order(1) == 1
    assert sobolev_order(2) == 2
    assert sobolev_order(3) == 2


def test_upsample_values_reproduces_interpolant():
    x = GRID.axis_coordinates
    xi0 = 2.0 * np.pi * 11 / GRID.box_length
    f = Field(GRID, np.cos(xi0 * x))
    modes = np.arange(GRID.points_per_axis)
    fold = FoldPlan(GRID, modes, 2048)
    fine_vals = upsample_values(fold, forward_transform(f).coefficients[None])[0]
    fine_x = -0.5 * GRID.box_length + (GRID.spacing / 4.0) * np.arange(4 * GRID.points_per_axis)
    assert np.max(np.abs(fine_vals - np.cos(xi0 * fine_x))) <= 1e-10


def nyquist_spectra(name):
    """A grid and the spectra of a full-spectrum bump, or of its top-band
    piece, stacked with their i xi gradients, whose Nyquist modes keep
    more than 1e-2 of their peak."""
    grid = {"bump_1d": Grid(1, 32, 8.0), "bump_2d": Grid(2, 16, 8.0)}.get(name, Grid(1, 64, 16.0))
    F = forward_transform(bump_field(grid, width=1.0, sharpness=1.0))
    if name == "top_band_1d":
        bank = LittlewoodPaleyBank.for_grid(grid)
        F = bank.project_spectrum(F, bank.k_max)
    c = F.coefficients
    return grid, np.stack([c, *(1j * xi * c for xi in grid.frequency_arrays())])


@pytest.mark.parametrize("name", ["bump_1d", "bump_2d", "top_band_1d"])
def test_upsample_values_matches_complex_oracle(name):
    grid, spectra = nyquist_spectra(name)
    # the d/dx_0 row's Nyquist plane along axis 0
    nyquist = spectra[1][grid.points_per_axis // 2]
    assert np.max(np.abs(nyquist)) > 1e-3 * np.max(np.abs(spectra[1]))
    modes = np.arange(spectra[0].size)
    m = 4 * grid.points_per_axis
    got = upsample_values(FoldPlan(grid, modes, m), spectra.reshape(len(spectra), -1))
    assert got.shape == (len(spectra),) + (m,) * grid.dim
    for vals, c in zip(got, spectra):
        want = complex_upsample_oracle(SpectralField(grid, c), m)
        assert np.max(np.abs(vals - want)) <= 1e-13 * np.max(np.abs(want))


def few_mode_spectra(grid, signed_modes):
    """Two spectra with random complex coefficients at the given signed
    multi-indices only: their flat indices and coefficients, shape (2, M),
    and the full spectra."""
    rng = np.random.default_rng(5)
    n = grid.points_per_axis
    modes = np.ravel_multi_index(np.mod(np.array(signed_modes).T, n), grid.shape)
    coefficients = rng.normal(size=(2, len(modes))) + 1j * rng.normal(size=(2, len(modes)))
    full = np.zeros((2, n**grid.dim), dtype=complex)
    full[:, modes] = coefficients
    return modes, coefficients, full.reshape((2,) + grid.shape)


@pytest.mark.parametrize(
    "grid, signed_modes",
    [
        # the zero mode and the coarse Nyquist mode -N/2, without their partners
        (Grid(1, 16, 8.0), [(0,), (3,), (-8,), (-5,)]),
        # modes on the k_d = 0 plane, whose Hermitian part both halves write,
        # a Nyquist mode on each axis and the zero mode
        (Grid(2, 8, 4.0), [(0, 0), (3, 0), (-4, 0), (-2, 0), (2, 3), (1, -4), (-4, -1)]),
    ],
    ids=["1d", "2d"],
)
def test_upsample_values_of_few_modes_matches_complex_oracle(grid, signed_modes):
    modes, coefficients, full = few_mode_spectra(grid, signed_modes)
    m = 4 * grid.points_per_axis
    got = upsample_values(FoldPlan(grid, modes, m), coefficients)
    assert got.shape == (2,) + (m,) * grid.dim
    for vals, c in zip(got, full):
        want = complex_upsample_oracle(SpectralField(grid, c), m)
        assert np.max(np.abs(vals - want)) <= 1e-13 * np.max(np.abs(want))


def test_upsample_values_of_no_modes_is_zero():
    grid = Grid(2, 8, 4.0)
    fold = FoldPlan(grid, np.array([], dtype=int), 32)
    got = upsample_values(fold, np.zeros((3, 0), dtype=complex))
    assert got.shape == (3, 32, 32)
    assert np.all(got == 0.0)


# (grid, signed modes, the smallest lattice m that holds them): m < N with
# modes at +m/2 or -m/2 in 1-D and 2-D, and m = N with the coarse Nyquist mode
# -N/2 in 1-D and 2-D (the k_d = 0 plane only); the tests also sample on
# the lattices of 2, 4 and 8 m points per axis, so at m < N, m = N and m > N
SUBGRID_CASES = {
    "half_m_1d": (Grid(1, 64, 8.0), [(0,), (5,), (8,), (-7,), (-3,)], 16),
    "half_m_2d": (Grid(2, 32, 4.0), [(0, 0), (3, 4), (-2, -4), (1, 4), (4, -4), (-4, 2)], 8),
    "nyquist_1d": (Grid(1, 16, 8.0), [(0,), (3,), (-8,), (-5,)], 16),
    "kd_zero_2d": (Grid(2, 8, 4.0), [(0, 0), (3, 0), (-4, 0), (-2, 0)], 8),
}


@pytest.mark.parametrize("factor", [2, 4, 8, 16])
@pytest.mark.parametrize("name", sorted(SUBGRID_CASES))
def test_upsample_values_on_subgrids_match_complex_oracle(name, factor):
    # the lattice of factor / 2 times m points per axis, folded, equal to or
    # zero-padded from the spectra's N
    grid, signed_modes, smallest = SUBGRID_CASES[name]
    m = smallest * factor // 2
    modes, coefficients, full = few_mode_spectra(grid, signed_modes)
    got = upsample_values(FoldPlan(grid, modes, m), coefficients)
    assert got.shape == (2,) + (m,) * grid.dim
    for vals, c in zip(got, full):
        want = complex_upsample_oracle(SpectralField(grid, c), m)
        assert np.max(np.abs(vals - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("factor", [2, 4])
def test_upsample_values_of_a_low_band_use_short_subgrids(factor):
    # band 0 of highfreq's wide grid fills 4% of the lattice: its modes
    # reach |k| = 652, so the lattice of 2048 points per axis holds them
    # where the grid has 32768, and sup_norms samples it there
    grid = Grid(1, 32768, 2048.0)
    bank = LittlewoodPaleyBank.for_grid(grid)
    F = forward_transform(bump_field(grid, width=0.25, sharpness=4.0))
    F = bank.project_spectrum(F, 0).coefficients
    spectra = np.stack([F, 1j * grid.axis_frequencies * F])
    modes = np.flatnonzero(F)
    m = 1024 * factor
    got = upsample_values(FoldPlan(grid, modes, m), spectra[:, modes])
    for vals, c in zip(got, spectra):
        want = complex_upsample_oracle(SpectralField(grid, c), m)
        assert np.max(np.abs(vals - want)) <= 1e-13 * np.max(np.abs(want))
