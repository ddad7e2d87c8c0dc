import numpy as np
import pytest

from kgdecay.bands import LOW_PASS_BAND, LittlewoodPaleyBank, low_pass_profile, mother_bump
from kgdecay.bumps import bump_field
from kgdecay.grid import Field, Grid, forward_transform, l2_norm, linf_norm

GRID = Grid(1, 1024, 64.0)
BANK = LittlewoodPaleyBank.for_grid(GRID)


def mode_field(grid, index):
    x = grid.axis_coordinates
    return Field(grid, np.cos(2.0 * np.pi * index / grid.box_length * x))


def test_profiles_supports():
    r = np.linspace(0.0, 5.0, 2001)
    lp = low_pass_profile(r)
    assert np.all(lp[r <= 0.5] == 1.0)
    assert np.all(lp[r >= 1.0] == 0.0)
    psi = mother_bump(r)
    assert np.all(psi[(r <= 0.5) | (r >= 2.0)] == 0.0)
    assert psi[np.argmin(np.abs(r - 1.0))] > 0.99


def test_completeness_on_lattice():
    assert BANK.completeness_residual() <= 1e-10


def test_completeness_2d():
    g = Grid(2, 64, 16.0)
    assert LittlewoodPaleyBank.for_grid(g).completeness_residual() <= 1e-10


def test_each_bank_computes_a_symbol_when_its_band_is_asked_for():
    g = Grid(1, 256, 32.0)
    assert LittlewoodPaleyBank.for_grid(g) is not LittlewoodPaleyBank.for_grid(g)
    bank, r = LittlewoodPaleyBank.for_grid(g), g.frequency_norm
    assert np.array_equal(bank.symbol(LOW_PASS_BAND), low_pass_profile(r))
    assert np.array_equal(bank.symbol(3), mother_bump(r / 8.0))
    assert bank.symbol(3) is bank.symbol(3)
    with pytest.raises(ValueError, match="out of range"):
        bank.symbol(bank.k_max + 1)


def test_symbols_are_in_unit_interval():
    for k in BANK.bands:
        s = BANK.symbol(k)
        assert np.min(s) >= 0.0
        assert np.max(s) <= 1.0 + 1e-15


def test_mid_band_mode_passes_unchanged():
    # |xi0| = 2^k sits mid-band where the symbol is exactly 1
    k = 3
    index = int(round(2.0**k * GRID.box_length / (2.0 * np.pi)))
    f = mode_field(GRID, index)
    pk = BANK.project(f, k)
    assert np.max(np.abs(pk.values - f.values)) <= 1e-10
    for j in BANK.bands:
        if j >= 0 and abs(j - k) >= 2:
            assert l2_norm(BANK.project(f, j)) <= 1e-12 * l2_norm(f)


def test_band_sum_reproduces_random_smooth_field():
    rng = np.random.default_rng(0)
    f = bump_field(GRID, center=rng.uniform(-4, 4), width=2.0)
    total = np.zeros(GRID.shape)
    for piece in BANK.decompose(f).values():
        total += piece.values
    assert np.max(np.abs(total - f.values)) <= 1e-10 * linf_norm(f)


def test_low_pass_annihilates_separated_mode():
    # a pure mode at |xi| = 4 lies outside the low-pass support |xi| <= 1
    index = int(round(4.0 * GRID.box_length / (2.0 * np.pi)))
    f = mode_field(GRID, index)
    p = BANK.project(f, LOW_PASS_BAND)
    assert linf_norm(p) <= 1e-12 * linf_norm(f)


def test_projection_output_is_real_and_band_limited():
    rng = np.random.default_rng(1)
    f = Field(GRID, rng.standard_normal(GRID.shape))
    k = 2
    pk = BANK.project(f, k)
    lo, hi = BANK.band_support_bounds(k)
    coeffs = forward_transform(pk).coefficients
    outside = (GRID.frequency_norm < lo) | (GRID.frequency_norm > hi)
    assert np.max(np.abs(coeffs[outside])) <= 1e-12 * np.max(np.abs(coeffs))


def test_projector_idempotence_up_to_band_shape():
    rng = np.random.default_rng(2)
    f = Field(GRID, rng.standard_normal(GRID.shape))
    k = 2
    pkk = BANK.project(BANK.project(f, k), k)
    lo, hi = BANK.band_support_bounds(k)
    coeffs = forward_transform(pkk).coefficients
    outside = (GRID.frequency_norm < lo) | (GRID.frequency_norm > hi)
    assert np.max(np.abs(coeffs[outside])) <= 1e-12 * np.max(np.abs(coeffs))


def test_separated_projectors_annihilate():
    rng = np.random.default_rng(3)
    f = Field(GRID, rng.standard_normal(GRID.shape))
    for k, j in ((0, 2), (1, 3), (0, 4)):
        assert l2_norm(BANK.project(BANK.project(f, j), k)) <= 1e-12 * l2_norm(f)


def test_band_out_of_range():
    f = Field(GRID, np.zeros(GRID.shape))
    with pytest.raises(ValueError):
        BANK.project(f, BANK.k_max + 1)
    with pytest.raises(ValueError):
        BANK.project(f, -2)


def test_k_max_covers_lattice():
    assert 2.0**BANK.k_max >= float(np.max(GRID.frequency_norm))
