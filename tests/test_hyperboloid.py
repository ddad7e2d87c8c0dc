import numpy as np
import pytest

from kgdecay.bumps import bump_derivative_field, bump_field, bump_profile
from kgdecay.errors import ConfigurationError
from kgdecay.grid import Field, Grid
from kgdecay.hyperboloid import (
    boost_values,
    build_slice,
    energy,
    global_sobolev_check,
    pointwise_energy_check,
    sample_on_slice,
    slice_integral,
    support_edge_radius,
)
from kgdecay.propagator import CauchyData, evolve

from oracles import single_mode_solution, slice_integral_radial_oracle

GRID = Grid(1, 1024, 64.0)
ZERO = Field(GRID, np.zeros(GRID.shape))


def bump_pair(grid=GRID, mass=1.0):
    f = bump_field(grid, width=1.0, sharpness=8.0)
    g = bump_derivative_field(grid, 0, width=1.0, sharpness=8.0) * 0.5 + f * 0.25
    return CauchyData(f, g, 2.0, mass)


def test_slice_vertex_geometry():
    slc = build_slice(2.0, GRID, 1.0)
    at_origin = np.argmin(np.abs(slc.points[:, 0]))
    assert abs(slc.t[at_origin] - 2.0) <= 1e-12
    assert abs(slc.weights[at_origin] - GRID.cell_volume) <= 1e-12
    assert abs(np.min(slc.t) - slc.tau) <= 1e-12


def test_slice_weight_closed_form():
    slc = build_slice(2.0, GRID, 1.0, truncation_radius=8.0)
    idx = np.argmin(np.abs(slc.points[:, 0] - 2.0))
    x = slc.points[idx, 0]
    expect = 2.0 / np.sqrt(4.0 + x**2) * GRID.cell_volume
    assert abs(slc.weights[idx] - expect) <= 1e-12
    # spot value at |x| = 2 exactly: weight = (2/sqrt(8)) h^d
    assert abs(expect - (2.0 / np.sqrt(8.0)) * GRID.cell_volume) <= 1e-6


def test_slice_tau_identity_and_support_bound():
    slc = build_slice(4.0, GRID, 1.0)
    r2 = np.sum(slc.points**2, axis=-1)
    assert np.max(np.abs(slc.tau**2 - (slc.t**2 - r2))) <= 1e-12 * slc.tau**2
    inside = r2 <= (slc.t - 1.0) ** 2  # the support cone region
    assert np.all(slc.tau**2 >= slc.t[inside] - 1e-12)


def test_slice_rejects_bad_tau_and_truncation():
    with pytest.raises(ValueError):
        build_slice(0.0, GRID, 1.0)
    with pytest.raises(ConfigurationError):
        build_slice(8.0, GRID, 1.0, truncation_radius=4.0)
    with pytest.raises(ConfigurationError):
        support_edge_radius(2.0, 2.0, 2.5)


def test_slice_quadrature_matches_radial_oracle():
    tau = 3.0
    slc = build_slice(tau, GRID, 1.0, truncation_radius=10.0)
    vals = bump_profile(np.linalg.norm(slc.points, axis=-1) / 6.0)
    numeric = slice_integral(slc, vals)
    exact = slice_integral_radial_oracle(
        tau, lambda r: float(bump_profile(np.array(r / 6.0))), 6.0, 1
    )
    assert abs(numeric - exact) <= 1e-6 * abs(exact)


def test_boost_values_at_origin_reduce_to_tau_gradient():
    data = bump_pair()
    slc = build_slice(2.5, GRID, 1.0)
    s = sample_on_slice(data, slc)
    i = np.argmin(np.abs(slc.points[:, 0]))
    expect = slc.tau * s.grad[i, 0]
    assert abs(boost_values(s, 0)[i] - expect) <= 1e-10 * max(abs(expect), 1.0)


def test_boost_values_single_mode_closed_form():
    xi0 = 2.0 * np.pi * 20 / GRID.box_length
    x = GRID.axis_coordinates
    data = CauchyData(Field(GRID, np.cos(xi0 * x)), ZERO, 2.0, 1.0)
    slc = build_slice(3.0, GRID, 1.0, truncation_radius=6.0)
    s = sample_on_slice(data, slc)
    _, dphi_dt, dphi_dx = single_mode_solution(xi0, 1.0, 1.0, 0.0)
    xs = slc.points[:, 0]
    expect = xs * dphi_dt(slc.t - 2.0, xs) + slc.t * dphi_dx(slc.t - 2.0, xs)
    assert np.max(np.abs(boost_values(s, 0) - expect)) <= 1e-8 * np.max(np.abs(expect))


def test_energy_zero_data():
    data = CauchyData(ZERO, ZERO, 2.0, 1.0)
    rep = energy(data, 2.0, build_slice(2.0, GRID, 1.0))
    assert rep.energy == 0.0
    assert rep.flat_energy == 0.0


def test_energy_equality_for_compact_data():
    data = bump_pair()
    for tau in (2.0, 4.0, 8.0):
        rep = energy(data, tau)
        assert abs(rep.relative_gap) <= 1e-4
        # inequality direction, up to quadrature error at this resolution
        assert rep.energy <= rep.flat_energy * (1.0 + 1e-6)
        assert min(rep.components) >= 0.0


def test_energy_quadratic_scaling():
    data = bump_pair()
    scaled = CauchyData(data.f * 3.0, data.g * 3.0, 2.0, data.mass)
    slc = build_slice(2.0, GRID, 1.0)
    e1 = energy(data, 2.0, slc).energy
    e9 = energy(scaled, 2.0, slc).energy
    assert abs(e9 - 9.0 * e1) <= 1e-12 * e9


def test_global_sobolev_zero_data():
    data = CauchyData(ZERO, ZERO, 2.0, 1.0)
    reports = global_sobolev_check(data, 2.0, slc=build_slice(2.0, GRID, 1.0))
    for rep in reports.values():
        assert rep.lhs == 0.0
        assert rep.rhs == 0.0
        assert rep.ratio == 0.0


@pytest.mark.parametrize("ell", [0.0, 1.0])
def test_global_sobolev_tau_stability(ell):
    data = bump_pair()
    ratios = [global_sobolev_check(data, tau)[ell].ratio for tau in (2.0, 4.0, 8.0)]
    assert all(r > 0 for r in ratios)
    assert max(ratios) / min(ratios) < 4.0


def test_pointwise_energy_zero_and_massless():
    zero_data = CauchyData(ZERO, ZERO, 2.0, 1.0)
    rep = pointwise_energy_check(zero_data, 2.0, slc=build_slice(2.0, GRID, 1.0))
    assert rep.lhs_total == 0.0
    data0 = bump_pair(mass=0.0)
    rep0 = pointwise_energy_check(data0, 2.0)
    assert rep0.lhs_terms[0] == 0.0  # mass-weighted sup vanishes identically
    assert rep0.lhs_terms[1] > 0.0


def test_pointwise_energy_tau_stability():
    data = bump_pair()
    ratios = [pointwise_energy_check(data, tau).ratio for tau in (2.0, 4.0, 8.0)]
    assert all(r > 0 for r in ratios)
    assert max(ratios) / min(ratios) < 4.0


def test_finite_speed_support_containment():
    data = bump_pair()
    for t in (4.0, 8.0):
        st = evolve(data, t)
        x = GRID.axis_coordinates
        outside = np.abs(x) > (t - 1.0)
        leak = np.max(np.abs(st.phi.values[outside]))
        assert leak <= 1e-6 * np.max(np.abs(st.phi.values))
