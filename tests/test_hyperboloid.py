import numpy as np
import pytest

from kgdecay.bumps import bump_derivative_field, bump_field, bump_profile
from kgdecay.config import RunConfig
from kgdecay.errors import ConfigurationError
from kgdecay.grid import Field, Grid
from kgdecay.hyperboloid import (
    SOBOLEV_CONSTANTS_1D,
    HyperboloidSlice,
    boost_values,
    build_slice,
    energy,
    global_sobolev_check,
    pointwise_energy_check,
    sample_on_slice,
    slice_integral,
    slice_samples,
    support_edge_radius,
)
from kgdecay.plan import RunPlan
from kgdecay.propagator import (
    CauchyData,
    boost_commuted_data,
    data_support_radius,
    flat_energy,
)

from oracles import (
    data_slice_samples,
    evolve,
    single_mode_solution,
    slice_integral_radial_oracle,
)

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


def test_support_edge_takes_the_larger_cone_edge():
    # r0 = 0.75 at t0 = 2: a = 1.25, b = 2.75, and the two edges meet at
    # tau^2 = ab, where the slice crosses t0 on the support sphere
    a, b = 1.25, 2.75
    assert support_edge_radius(0.5, 2.0, 0.75) == (b**2 - 0.25) / (2.0 * b)
    assert support_edge_radius(a, 2.0, 0.75) == (b**2 - a**2) / (2.0 * b)
    assert support_edge_radius(4.0, 2.0, 0.75) == (16.0 - a**2) / (2.0 * a)
    assert abs(support_edge_radius(np.sqrt(a * b), 2.0, 0.75) - 0.75) <= 1e-12


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


def every_nth(slc, n):
    """The slice with every n-th of its points, for a cheaper comparison."""
    return HyperboloidSlice(
        slc.tau, slc.grid, slc.points[::n], slc.t[::n], slc.weights[::n], slc.truncation_radius
    )


RESOLVED = Grid(1, 16384, 256.0)


def commuted_boosts(data):
    """The data and the commuted data of L phi and L L phi."""
    out = [data, boost_commuted_data(data, 0)]
    return out + [boost_commuted_data(out[1], 0)]


@pytest.mark.parametrize("tau", [2.0, 4.0, 16.0])
def test_jet_boosts_match_the_commuted_data_samples(tau):
    # two paths to L phi and L L phi on a resolved grid: the jet of the
    # data's one pass, and the samples of iterated commuted Cauchy data; each
    # sample's phi, d_t phi and grad (so each boost's own L column) agree.
    # The commuted L L data's own error grows with tau (6e-9 at tau 16), so
    # L L is compared at the small taus only.
    data = bump_pair(RESOLVED)
    slc = every_nth(build_slice(tau, RESOLVED, data_support_radius(data), data.t0), 31)
    got = slice_samples(data, slc, 2)
    assert len(got) == 3 and all(s.slice is slc for s in got)
    for s, b in zip(got, commuted_boosts(data)[: 3 if tau <= 4.0 else 2]):
        want = sample_on_slice(b, slc)
        for a, w in zip((s.phi, s.dphi_dt, s.grad), (want.phi, want.dphi_dt, want.grad)):
            assert a.shape == w.shape
            assert np.max(np.abs(a - w)) <= 1e-10 * np.max(np.abs(w))


@pytest.mark.parametrize("mass", [0.0, 1.0])
def test_jet_second_boosts_of_a_single_mode_in_2d(mass):
    # phi = cos(k.x) cos(w dt), w^2 = |k|^2 + m^2, and by hand
    # L_j L_i phi = x_j x_i phi_tt + x_j phi_i + t x_j phi_it + t delta_ij phi_t
    #               + t x_i phi_jt + t^2 phi_ij
    grid = Grid(2, 32, 16.0)
    k = 2.0 * np.pi * np.array([2.0, -1.0]) / grid.box_length
    w = np.sqrt(k @ k + mass**2)
    x, y = grid.coordinate_arrays()
    f = Field(grid, np.cos(k[0] * x + k[1] * y))
    data = CauchyData(f, Field(grid, np.zeros(grid.shape)), 2.0, mass)
    slc = build_slice(3.0, grid, 1.0, truncation_radius=6.0)
    got = slice_samples(data, slc, 2)
    assert len(got) == 1 + 2 + 4
    pts, t = slc.points, slc.t
    phase, dt = pts @ k, t - 2.0
    c, s_ = np.cos(phase), np.sin(phase)
    phi, phi_t, phi_tt = c * np.cos(w * dt), -w * c * np.sin(w * dt), -(w**2) * c * np.cos(w * dt)
    phi_i = [-k[i] * s_ * np.cos(w * dt) for i in range(2)]
    phi_it = [k[i] * w * s_ * np.sin(w * dt) for i in range(2)]
    for i in range(2):
        want = pts[:, i] * phi_t + t * phi_i[i]
        assert np.max(np.abs(got[1 + i].phi - want)) <= 1e-12 * np.max(np.abs(want))
        for j in range(2):
            want = (
                pts[:, j] * pts[:, i] * phi_tt + pts[:, j] * phi_i[i] + t * pts[:, j] * phi_it[i]
                + (t * phi_t if i == j else 0.0) + t * pts[:, i] * phi_it[j]
                - t**2 * k[i] * k[j] * phi
            )
            assert np.max(np.abs(got[3 + 2 * j + i].phi - want)) <= 1e-12 * np.max(np.abs(want))


def test_jet_boosts_of_the_massless_zero_mode():
    # g = c at mass 0: phi = c (t - 2), so L_i phi = c x_i and L_j L_i phi =
    # c t delta_ij, while every x-derivative column of the jet vanishes
    grid = Grid(2, 32, 16.0)
    zero = Field(grid, np.zeros(grid.shape))
    data = CauchyData(zero, Field(grid, np.full(grid.shape, 0.7)), 2.0, 0.0)
    slc = build_slice(3.0, grid, 1.0, truncation_radius=6.0)
    got = slice_samples(data, slc, 2)
    want = [0.7 * (slc.t - 2.0)] + [0.7 * slc.points[:, i] for i in range(2)]
    want += [0.7 * slc.t * (i == j) for j in range(2) for i in range(2)]
    for s, w in zip(got, want):
        assert np.max(np.abs(s.phi - w)) <= 1e-12 * np.max(slc.t)
    assert np.max(np.abs(got[0].dphi_dt - 0.7)) <= 1e-12
    assert np.max(np.abs(got[0].grad)) <= 1e-12


def test_sobolev_constants_hold_on_random_smooth_data():
    # the d = 1 bounds sup tau phi^2 <= rhs / 2 and sup t phi^2 <= rhs hold
    # for any smooth compactly supported data, not only the suite's
    rng = np.random.default_rng(7)
    worst = {ell: 0.0 for ell in SOBOLEV_CONSTANTS_1D}
    for _ in range(6):
        center, width = rng.uniform(-0.3, 0.3), rng.uniform(0.4, 0.7)
        sharpness, mass = rng.uniform(1.0, 8.0), rng.choice([0.0, 0.5, 1.0])
        f = bump_field(GRID, center, width, amplitude=rng.uniform(-2.0, 2.0), sharpness=sharpness)
        g = bump_derivative_field(GRID, 0, center, width, sharpness=sharpness) * rng.uniform(-1, 1)
        data = CauchyData(f, g + f * rng.uniform(-1.0, 1.0), 2.0, mass)
        for tau in (1.0, 2.0, 4.0):
            bounds = global_sobolev_check(data, data_slice_samples(data, tau, 1))
            for ell, constant in SOBOLEV_CONSTANTS_1D.items():
                assert 0.0 < bounds[ell].ratio <= constant
                worst[ell] = max(worst[ell], bounds[ell].ratio)
    assert worst[0.0] > 0.05 and worst[1.0] > 0.05  # the draws test the bounds


def test_slice_rows_reject_samples_without_the_boosts():
    data = bump_pair()
    samples = data_slice_samples(data, 4.0, 1)
    for check in (global_sobolev_check, pointwise_energy_check):
        with pytest.raises(ValueError):
            check(data, samples[:1])
    assert energy(data, samples[:1]) == energy(data, samples)


def test_energy_zero_data():
    data = CauchyData(ZERO, ZERO, 2.0, 1.0)
    rep = energy(data, slice_samples(data, build_slice(2.0, GRID, 1.0)))
    assert rep.lhs == 0.0
    assert rep.rhs == 0.0


def test_energy_equality_for_compact_data():
    data = bump_pair()
    for tau in (2.0, 4.0, 8.0):
        rep = energy(data, data_slice_samples(data, tau))
        assert abs(rep.relative_gap) <= 1e-4
        # inequality direction, up to quadrature error at this resolution
        assert rep.lhs <= rep.rhs * (1.0 + 1e-6)
        assert min(rep.lhs_terms) >= 0.0


def test_energy_quadratic_scaling():
    data = bump_pair()
    scaled = CauchyData(data.f * 3.0, data.g * 3.0, 2.0, data.mass)
    slc = build_slice(2.0, GRID, 1.0)
    e1 = energy(data, slice_samples(data, slc)).lhs
    e9 = energy(scaled, slice_samples(scaled, slc)).lhs
    assert abs(e9 - 9.0 * e1) <= 1e-12 * e9


def test_global_sobolev_zero_data():
    data = CauchyData(ZERO, ZERO, 2.0, 1.0)
    reports = global_sobolev_check(
        data, slice_samples(data, build_slice(2.0, GRID, 1.0), 1)
    )
    for rep in reports.values():
        assert rep.lhs == 0.0
        assert rep.rhs == 0.0
        assert rep.ratio == 0.0


@pytest.mark.parametrize("ell", [0.0, 1.0])
def test_global_sobolev_tau_stability(ell):
    data = bump_pair()
    ratios = [
        global_sobolev_check(data, data_slice_samples(data, tau, 1))[ell].ratio
        for tau in (2.0, 4.0, 8.0)
    ]
    assert all(r > 0 for r in ratios)
    assert max(ratios) / min(ratios) < 4.0


def test_pointwise_energy_zero_and_massless():
    zero_data = CauchyData(ZERO, ZERO, 2.0, 1.0)
    rep = pointwise_energy_check(
        zero_data, slice_samples(zero_data, build_slice(2.0, GRID, 1.0), 1)
    )
    assert rep.lhs == 0.0
    data0 = bump_pair(mass=0.0)
    rep0 = pointwise_energy_check(data0, data_slice_samples(data0, 2.0, 1))
    assert rep0.lhs_terms[0] == 0.0  # mass-weighted sup vanishes identically
    assert rep0.lhs_terms[1] > 0.0


def test_pointwise_energy_tau_stability():
    data = bump_pair()
    ratios = [
        pointwise_energy_check(data, data_slice_samples(data, tau, 1)).ratio
        for tau in (2.0, 4.0, 8.0)
    ]
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


# Each side of each slice inequality, computed independently of the checks on
# the CLI-default grid (d = 1, N = 4096, L = 256), which the gates accept: the
# first-order boost from boost_values of the data's own sample (not from the
# commuted data the checks sample), E(phi) from flat_energy by the energy
# identity, and each lhs term from its formula on the raw sample.
GATED = RunPlan(RunConfig(suite="pointwise", taus=(2.0, 4.0)))


def gated_slices():
    """(data, tau, slice, sample, t, L phi) for each tau of GATED."""
    GATED.validate()
    data = GATED.slice_data
    for tau, slc in GATED.slices.items():
        s = sample_on_slice(data, slc)
        yield data, tau, slc, s, slc.t, boost_values(s, 0)


def plan_samples(tau):
    """The plan's samples of GATED's slice data and its boost on the tau-slice."""
    return GATED.samples[tau]


def test_energy_sides_from_the_raw_sample_and_the_flat_energy():
    for data, tau, slc, s, t, boost in gated_slices():
        lhs = (
            slice_integral(slc, boost**2 / (t * tau))
            + slice_integral(slc, (tau / t) * s.dphi_dt**2)
            + slice_integral(slc, (t / tau) * (data.mass * s.phi) ** 2)
        )
        flat = flat_energy(data)
        assert abs(energy(data, plan_samples(tau)).relative_gap - (lhs - flat) / flat) <= 1e-12
        assert abs(lhs - flat) <= 1e-4 * flat


@pytest.mark.parametrize("ell", [0.0, 1.0])
def test_sobolev_lhs_weight(ell):
    for data, tau, slc, s, t, _ in gated_slices():
        lhs = np.max(tau ** (1.0 - ell) * t**ell * s.phi**2)
        assert abs(global_sobolev_check(data, plan_samples(tau))[ell].lhs - lhs) <= 1e-12 * lhs


def sobolev_rhs(slc, s, t, boost, ell):
    weight = (t / slc.tau) ** ell
    return slice_integral(slc, weight * s.phi**2) + slice_integral(slc, weight * boost**2)


@pytest.mark.parametrize("ell", [0.0, 1.0])
def test_sobolev_rhs_sums_the_boost_integrals(ell):
    for data, tau, slc, s, t, boost in gated_slices():
        rhs = sobolev_rhs(slc, s, t, boost, ell)
        # the boost carries most of the sum, so dropping it is seen
        assert slice_integral(slc, boost**2) >= 0.5 * rhs
        report = global_sobolev_check(data, plan_samples(tau))[ell]
        assert abs(report.rhs - rhs) <= 1e-10 * rhs
        assert abs(report.ratio - report.lhs / rhs) <= 1e-10 * report.ratio


def test_sobolev_rhs_weight_t_over_tau_to_the_ell():
    for data, tau, slc, s, t, boost in gated_slices():
        weighted = sobolev_rhs(slc, s, t, boost, 1.0)
        unweighted = sobolev_rhs(slc, s, t, boost, 0.0)
        assert weighted >= 1.01 * unweighted  # the weight is >= 1 and not ~1
        assert abs(global_sobolev_check(data, plan_samples(tau))[1.0].rhs - weighted) <= 1e-10 * weighted


def pointwise_lhs_terms(data, tau, s, t, boost):
    return (
        data.mass**2 * np.max(t * s.phi**2),
        np.max(tau**2 / t * s.dphi_dt**2),
        np.max(boost**2 / t),
    )


def test_pointwise_lhs_mass_term():
    for data, tau, slc, s, t, boost in gated_slices():
        want = pointwise_lhs_terms(data, tau, s, t, boost)[0]
        assert data.mass > 0.0 and want > 0.0
        got = pointwise_energy_check(data, plan_samples(tau)).lhs_terms[0]
        assert abs(got - want) <= 1e-12 * want


def test_pointwise_lhs_time_derivative_term():
    for data, tau, slc, s, t, boost in gated_slices():
        want = pointwise_lhs_terms(data, tau, s, t, boost)[1]
        got = pointwise_energy_check(data, plan_samples(tau)).lhs_terms[1]
        assert abs(got - want) <= 1e-12 * want


def test_pointwise_lhs_boost_term():
    for data, tau, slc, s, t, boost in gated_slices():
        want = pointwise_lhs_terms(data, tau, s, t, boost)[2]
        assert want > 0.0
        got = pointwise_energy_check(data, plan_samples(tau)).lhs_terms[2]
        assert abs(got - want) <= 1e-12 * want


def test_pointwise_rhs_sums_the_boost_energies():
    # by the energy identity each slice energy is the flat energy of its data
    for data, tau, slc, s, t, boost in gated_slices():
        lhs = sum(pointwise_lhs_terms(data, tau, s, t, boost))
        rhs = flat_energy(data) + flat_energy(boost_commuted_data(data, 0))
        assert flat_energy(data) <= 0.5 * rhs
        ratio = pointwise_energy_check(data, plan_samples(tau)).ratio
        assert abs(ratio - lhs / rhs) <= 1e-5 * ratio


def test_slice_reaches_past_the_solution_support():
    # the slice integrals stand for integrals over the whole slice, so the
    # solution must have vanished where the slice is cut off
    for data, tau, slc, s, t, boost in gated_slices():
        r = np.linalg.norm(slc.points, axis=-1)
        outer = r >= np.max(r) - data.grid.spacing
        for column in (s.phi, s.dphi_dt, boost):
            assert np.max(np.abs(column[outer])) <= 1e-5 * np.max(np.abs(column))


def test_small_tau_slice_reaches_past_the_backward_cone():
    # below tau^2 = t0^2 - r0^2 the slice runs under t0, where the support
    # reaches out to r0 + (t0 - t): one unit past that edge, the solution
    # has vanished on the slice's truncation sphere
    GATED.validate()
    data = GATED.slice_data
    r0 = data_support_radius(data)
    edge = support_edge_radius(0.5, data.t0, r0)
    assert edge > r0
    slc = build_slice(0.5, data.grid, r0, data.t0, truncation_radius=edge + 1.0)
    s = sample_on_slice(data, slc)
    r = np.linalg.norm(slc.points, axis=-1)
    outer = r >= np.max(r) - data.grid.spacing
    for column in (s.phi, s.dphi_dt, s.grad[:, 0]):
        assert np.max(np.abs(column[outer])) <= 1e-5 * np.max(np.abs(column))
