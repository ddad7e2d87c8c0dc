"""Two-dimensional smoke coverage for the dimension-generic code paths
(defaults and acceptance run at d = 1; the formulas are d-agnostic)."""

import numpy as np
import pytest

from kgdecay.bands import LittlewoodPaleyBank
from kgdecay.bumps import bump_field, bump_profile
from kgdecay.grid import Field, Grid, l1_norm, linf_norm, partial_derivative, sobolev_w_k1_norm
from kgdecay.hyperboloid import build_slice, slice_integral
from kgdecay.propagator import CauchyData, evaluate_at_points, flat_energy

from oracles import evolve, flat_energy_at, slice_integral_radial_oracle

GRID = Grid(2, 64, 16.0)


def mode_2d(nx, ny):
    x, y = GRID.coordinate_arrays()
    kx = 2.0 * np.pi * nx / GRID.box_length
    ky = 2.0 * np.pi * ny / GRID.box_length
    return Field(GRID, np.cos(kx * x) * np.cos(ky * y)), np.hypot(kx, ky), (kx, ky)


def test_evolve_single_mode_closed_form_2d():
    f, xi_norm, _ = mode_2d(3, 2)
    zero = Field(GRID, np.zeros(GRID.shape))
    data = CauchyData(f, zero, 2.0, 1.0)
    omega = np.sqrt(xi_norm**2 + 1.0)
    st = evolve(data, 5.5)
    expect = np.cos(3.5 * omega) * f.values
    assert np.max(np.abs(st.phi.values - expect)) <= 1e-10


def test_gradient_axes_2d():
    f, _, (kx, ky) = mode_2d(2, 1)
    x, y = GRID.coordinate_arrays()
    dfx = partial_derivative(f, (1, 0))
    dfy = partial_derivative(f, (0, 1))
    assert np.max(np.abs(dfx.values + kx * np.sin(kx * x) * np.cos(ky * y))) <= 1e-10
    assert np.max(np.abs(dfy.values + ky * np.cos(kx * x) * np.sin(ky * y))) <= 1e-10


def test_evaluate_at_points_matches_evolve_2d():
    f = bump_field(GRID, width=1.5, sharpness=2.0)
    g = bump_field(GRID, center=(0.5, -0.3), width=1.0, amplitude=0.4, sharpness=2.0)
    data = CauchyData(f, g, 2.0, 0.8)
    t = 4.0
    st = evolve(data, t)
    idx = [(5, 7), (31, 2), (50, 44)]
    pts = np.array(
        [[GRID.axis_coordinates[i], GRID.axis_coordinates[j]] for i, j in idx]
    )
    phi, dphi, *grad = evaluate_at_points(data, np.full(len(idx), t), pts)
    for n, (i, j) in enumerate(idx):
        assert abs(phi[n] - st.phi.values[i, j]) <= 1e-10 * linf_norm(st.phi)
        assert abs(dphi[n] - st.dphi_dt.values[i, j]) <= 1e-10 * linf_norm(st.dphi_dt)
        assert abs(grad[1][n] - st.grad_phi[1].values[i, j]) <= 1e-9 * linf_norm(
            st.grad_phi[1]
        )


def test_flat_energy_conserved_2d():
    bank = LittlewoodPaleyBank.for_grid(GRID)
    rng = np.random.default_rng(0)
    f = bank.project(Field(GRID, rng.standard_normal(GRID.shape)), 1)
    g = bank.project(Field(GRID, rng.standard_normal(GRID.shape)), 0)
    data = CauchyData(f, g, 2.0, 0.5)
    e0 = flat_energy(data)
    assert abs(flat_energy_at(evolve(data, 6.0)) - e0) <= 1e-10 * e0


def test_w_k1_norm_counts_mixed_derivatives_2d():
    f = bump_field(GRID, width=2.0, sharpness=2.0)
    n0 = sobolev_w_k1_norm(f, 0)
    n1 = sobolev_w_k1_norm(f, 1)
    assert n0 == pytest.approx(l1_norm(f))
    assert n1 > n0


def test_slice_weights_and_radial_oracle_2d():
    tau = 2.5
    fine = Grid(2, 128, 16.0)
    slc = build_slice(tau, fine, 1.0, truncation_radius=5.0)
    r = np.linalg.norm(slc.points, axis=-1)
    expect_w = (tau / np.sqrt(tau**2 + r**2)) * fine.cell_volume
    assert np.max(np.abs(slc.weights - expect_w)) <= 1e-12
    vals = bump_profile(r / 4.0)
    numeric = slice_integral(slc, vals)
    exact = slice_integral_radial_oracle(
        tau, lambda s: float(bump_profile(np.array(s / 4.0))), 4.0, 2
    )
    assert abs(numeric - exact) <= 1e-6 * abs(exact)
