import numpy as np
import pytest

from kgdecay.bands import LittlewoodPaleyBank
from kgdecay.bumps import bump_derivative_field, bump_field
from kgdecay.errors import ConfigurationError
from kgdecay.grid import (
    Field,
    Grid,
    linf_norm,
    partial_derivative,
)
from kgdecay import propagator as propagator_module
from kgdecay.propagator import (
    CauchyData,
    _mirror_pairs,
    _multipliers,
    boost_commuted_data,
    data_support_radius,
    evaluate_at_points,
    flat_energy,
    fold_modes,
    jet_columns,
)
from kgdecay.hyperboloid import build_slice

from oracles import (
    direct_sum_oracle,
    evolve,
    flat_energy_at,
    rk4_mode_oracle,
    single_mode_solution,
)

GRID = Grid(1, 1024, 64.0)
ZERO = Field(GRID, np.zeros(GRID.shape))


def mode_index(grid, xi):
    return int(round(xi * grid.box_length / (2.0 * np.pi)))


def mode_field(grid, xi, amp=1.0):
    x = grid.axis_coordinates
    return Field(grid, amp * np.cos(xi * x))


def lattice_xi(grid, target):
    return 2.0 * np.pi * mode_index(grid, target) / grid.box_length


def bump_pair(grid, sharpness=8.0, mass=1.0):
    f = bump_field(grid, width=1.0, sharpness=sharpness)
    g = bump_derivative_field(grid, 0, width=1.0, sharpness=sharpness) * 0.5 + f * 0.25
    return CauchyData(f, g, 2.0, mass)


def test_cauchy_data_validation():
    other = Grid(1, 512, 64.0)
    with pytest.raises(Exception):
        CauchyData(ZERO, Field(other, np.zeros(other.shape)), 2.0, 1.0)
    with pytest.raises(ValueError):
        CauchyData(ZERO, ZERO, 2.0, -1.0)


def test_single_mode_closed_form():
    xi0 = lattice_xi(GRID, 1.5)
    data = CauchyData(mode_field(GRID, xi0), ZERO, 2.0, 1.0)
    phi_exact, dphi_exact, _ = single_mode_solution(xi0, 1.0, 1.0, 0.0)
    x = GRID.axis_coordinates
    st = evolve(data, 7.0)
    assert np.max(np.abs(st.phi.values - phi_exact(5.0, x))) <= 1e-10
    assert np.max(np.abs(st.dphi_dt.values - dphi_exact(5.0, x))) <= 1e-10


def test_zero_frequency_massless_mode_grows_linearly():
    c = 0.37
    data = CauchyData(ZERO, Field(GRID, np.full(GRID.shape, c)), 2.0, 0.0)
    st = evolve(data, 9.0)
    assert np.max(np.abs(st.phi.values - c * 7.0)) <= 1e-10


def test_identity_at_prescription_time():
    data = bump_pair(GRID)
    st = evolve(data, 2.0)
    assert np.max(np.abs(st.phi.values - data.f.values)) <= 1e-12
    assert np.max(np.abs(st.dphi_dt.values - data.g.values)) <= 1e-12


def test_flat_energy_conserved():
    rng = np.random.default_rng(0)
    bank = LittlewoodPaleyBank.for_grid(GRID)
    f = bank.project(Field(GRID, rng.standard_normal(GRID.shape)), 2)
    g = bank.project(Field(GRID, rng.standard_normal(GRID.shape)), 1)
    data = CauchyData(f, g, 2.0, 0.7)
    e0 = flat_energy(data)
    for t in (3.0, 10.0, 40.0):
        assert abs(flat_energy_at(evolve(data, t)) - e0) <= 1e-10 * e0


def test_evolve_matches_rk4_oracle():
    rng = np.random.default_rng(1)
    g = Grid(1, 256, 32.0)
    bank = LittlewoodPaleyBank.for_grid(g)
    f = bank.project(Field(g, rng.standard_normal(g.shape)), 1)
    gg = bank.project(Field(g, rng.standard_normal(g.shape)), 1)
    data = CauchyData(f, gg, 2.0, 1.0)
    st = evolve(data, 6.0)
    phi_rk4, dphi_rk4 = rk4_mode_oracle(data, 6.0)
    scale = linf_norm(st.phi)
    assert np.max(np.abs(st.phi.values - phi_rk4.values)) <= 1e-8 * scale
    assert np.max(np.abs(st.dphi_dt.values - dphi_rk4.values)) <= 1e-8 * max(
        linf_norm(st.dphi_dt), scale
    )


def test_linearity():
    d1 = bump_pair(GRID)
    f2 = bump_field(GRID, center=2.0, width=0.8, sharpness=8.0)
    d2 = CauchyData(f2, ZERO * 0.0, 2.0, d1.mass)
    a, b = 1.7, -0.4
    combo = CauchyData(d1.f * a + d2.f * b, d1.g * a + d2.g * b, 2.0, d1.mass)
    t = 11.0
    lhs = evolve(combo, t).phi.values
    rhs = a * evolve(d1, t).phi.values + b * evolve(d2, t).phi.values
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(np.max(np.abs(lhs)), 1.0)


@pytest.mark.parametrize("mass", [0.0, 1.0])
def test_sinc_multiplier_matches_numpy_sinc(mass):
    omega = np.sqrt(GRID.frequency_norm**2 + mass**2)
    for dt in (0.0, 0.3, -1.7, 4.5, 60.0):
        cos_, sin_, sinc = _multipliers(dt, omega)
        assert np.array_equal(cos_, np.cos(dt * omega))
        assert np.array_equal(sin_, np.sin(dt * omega))
        ref = dt * np.sinc(dt * omega / np.pi)
        assert np.max(np.abs(sinc - ref)) <= 1e-14 * abs(dt)


def test_evaluate_at_points_matches_evolve_on_grid():
    data = bump_pair(GRID)
    t = 6.5
    st = evolve(data, t)
    sel = np.arange(0, GRID.points_per_axis, 37)
    pts = GRID.axis_coordinates[sel].reshape(-1, 1)
    phi, dphi, dx = evaluate_at_points(data, np.full(len(sel), t), pts)
    scale = linf_norm(st.phi)
    assert np.max(np.abs(phi - st.phi.values[sel])) <= 1e-10 * scale
    assert np.max(np.abs(dphi - st.dphi_dt.values[sel])) <= 1e-10 * scale
    assert np.max(np.abs(dx - st.grad_phi[0].values[sel])) <= 1e-10 * scale


@pytest.mark.parametrize(
    "target, mass",
    # the massless zero mode (phi = f + dt g) takes the evaluator's linear term
    [(2.0, 1.3), (0.0, 0.0)],
    ids=["mode", "massless_zero_mode"],
)
def test_evaluate_at_points_off_grid_closed_form(target, mass):
    xi0 = lattice_xi(GRID, target)
    data = CauchyData(mode_field(GRID, xi0, 0.8), mode_field(GRID, xi0, -0.3), 2.0, mass)
    phi_exact, dphi_exact, dx_exact = single_mode_solution(xi0, mass, 0.8, -0.3)
    rng = np.random.default_rng(2)
    ts = rng.uniform(2.0, 12.0, size=20)
    xs = rng.uniform(-20.0, 20.0, size=(20, 1))
    phi, dphi, dx = evaluate_at_points(data, ts, xs)
    assert np.max(np.abs(phi - phi_exact(ts - 2.0, xs[:, 0]))) <= 1e-10
    assert np.max(np.abs(dphi - dphi_exact(ts - 2.0, xs[:, 0]))) <= 1e-10
    assert np.max(np.abs(dx - dx_exact(ts - 2.0, xs[:, 0]))) <= 1e-10


# data that are large on a Nyquist plane: the lattice lists only the -N/2
# entry there, so these modes are their own partners in the folded sum
NYQUIST_TERMS = {
    "1d_nyquist": lambda j, n: (-1.0) ** j[0],
    "2d_nyquist": lambda j, n: (-1.0) ** (j[0] + j[1]),
    # modes (-N/2, +-3), on the Nyquist plane of axis 0 only
    "2d_nyquist_one_axis": lambda j, n: (-1.0) ** j[0] * np.cos(6.0 * np.pi * j[1] / n),
}


def oracle_case(case, mass):
    """(data, slice) for the direct-sum oracle comparison: bump data on a
    slice, plus a large Nyquist term for the *_nyquist* cases."""
    grid, tau = (GRID, 6.0) if case.startswith("1d") else (Grid(2, 32, 16.0), 3.0)
    f = bump_field(grid, width=1.0, sharpness=4.0)
    g = bump_derivative_field(grid, 0, width=1.0, sharpness=4.0) * 0.5 + f * 0.25
    if case in NYQUIST_TERMS:
        term = Field(grid, NYQUIST_TERMS[case](np.indices(grid.shape), grid.points_per_axis))
        f, g = f + term * 0.5, g + term * -0.3
    return CauchyData(f, g, 2.0, mass), build_slice(tau, grid, 1.0, 2.0)


@pytest.mark.parametrize("mass", [0.0, 1.0])
@pytest.mark.parametrize("case", ["1d", "2d", *NYQUIST_TERMS])
def test_evaluate_at_points_matches_direct_sum_oracle(case, mass):
    # the evaluator folds each mode -k into its partner k, which assumes
    # Hermitian spectra (real data), as inverse_transform does; the
    # oracle sums every lattice mode on its own.  At mass 0 the zero mode of
    # g grows linearly, in phi only.  The slice points are lattice points,
    # where a Nyquist mode's sin(x.xi) vanishes, so every third point is also
    # evaluated a third of a cell off the lattice.  Every column of the jet
    # the slice suites read (order floor(d/2) + 1) is compared, and its
    # order-0 columns are those of an order-0 call.
    data, slc = oracle_case(case, mass)
    times = np.concatenate([slc.t, slc.t[::3]])
    points = np.concatenate([slc.points, slc.points[::3] + data.grid.spacing / 3.0])
    order = data.grid.dim // 2 + 1
    got = evaluate_at_points(data, times, points, order)
    want = direct_sum_oracle(data, times, points, order)
    assert got.shape == want.shape == (len(jet_columns(data.grid.dim, order)), len(times))
    for a, b in zip(got, want):
        assert np.max(np.abs(b)) > 0.0
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))
    first = evaluate_at_points(data, times, points)
    assert np.max(np.abs(first - got[: len(first)])) <= 1e-12 * np.max(np.abs(first))


def pairing_data(case):
    """Data for the mode- and mirror-pairing cases: a 1-D bump; 1-D data
    large on the Nyquist mode at mass 0; random real 2-D data, which fill
    both half-spaces of modes and the Nyquist planes, at mass 0.7 and 0."""
    if case == "1d_bump":
        return bump_pair(GRID)
    if case == "1d_nyquist_mass_0":
        return oracle_case("1d_nyquist", 0.0)[0]
    grid = Grid(2, 16, 8.0)
    f, g = np.random.default_rng(3).normal(size=(2,) + grid.shape)
    return CauchyData(Field(grid, f), Field(grid, g), 2.0, 0.7 if case == "2d_random" else 0.0)


def pairing_points(case, dim):
    """(times, points, mirror pairs _mirror_pairs should find): random
    points off the lattice, with or without their negations."""
    rng = np.random.default_rng(4)
    t, x = rng.uniform(0.5, 9.0, size=8), rng.uniform(-6.0, 6.0, size=(8, dim))
    if case == "no_mirrors":
        return t, x, 0
    if case == "mirror_at_another_time":
        return np.concatenate([t, t + 0.5]), np.concatenate([x, -x]), 0
    if case == "mirrors_off_lattice":  # shuffled, so a point and its mirror lie apart
        order = rng.permutation(16)
        return np.concatenate([t, t])[order], np.concatenate([x, -x])[order], 8
    # the origin twice, x0 three times against one -x0, x1 once against two -x1
    zero = np.zeros(dim)
    pts = np.stack([zero, x[0], x[0], -x[1], zero, x[0], -x[0], x[1], -x[1]])
    return np.array([t[0], t[0], t[0], t[1], t[0], t[0], t[0], t[1], t[1]]), pts, 2


@pytest.mark.parametrize("chunk", [None, 1])  # 1: one point pair per block
@pytest.mark.parametrize(
    "points_case",
    ["no_mirrors", "mirror_at_another_time", "mirrors_off_lattice", "origin_and_repeats"],
)
@pytest.mark.parametrize(
    "data_case", ["1d_bump", "1d_nyquist_mass_0", "2d_random", "2d_random_mass_0"]
)
def test_mode_and_mirror_pairing_match_direct_sum_oracle(data_case, points_case, chunk, monkeypatch):
    # each mode is summed with its partner -k and each point found with its
    # mirror once; a mirror at another time, a repeat or the origin is
    # summed on its own, and none of it changes the values
    if chunk is not None:
        monkeypatch.setattr(propagator_module, "EVAL_CHUNK_ENTRIES", chunk)
    data = pairing_data(data_case)
    times, points, pairs = pairing_points(points_case, data.grid.dim)
    rows, mirrors = _mirror_pairs(times, points)
    assert len(mirrors) == pairs and len(rows) + len(mirrors) == len(times)
    assert sorted(np.concatenate([rows, mirrors])) == list(range(len(times)))
    assert np.all(points[mirrors] == -points[rows[:pairs]])
    assert np.all(times[mirrors] == times[rows[:pairs]])
    order = data.grid.dim // 2 + 1
    got = evaluate_at_points(data, times, points, order)
    want = direct_sum_oracle(data, times, points, order)
    for a, b in zip(got, want):
        assert np.max(np.abs(b)) > 0.0
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


@pytest.mark.parametrize("grid", [GRID, Grid(2, 32, 16.0)], ids=["1d", "2d"])
def test_slice_points_come_in_mirror_pairs(grid):
    # the evaluator sums a point and its negation at the same time once:
    # every slice point but the origin has its mirror on the slice
    for tau in (0.5, 2.0, 3.0):
        slc = build_slice(tau, grid, 1.0, 2.0)
        on_slice = {tuple(row) for row in np.column_stack([slc.t, slc.points])}
        assert all((t, *(-x)) in on_slice for t, x in zip(slc.t, slc.points))
        rows, mirrors = _mirror_pairs(slc.t, slc.points)
        assert 2 * len(mirrors) + 1 == slc.n_points == len(rows) + len(mirrors)


def test_fold_modes_fold_each_pair_once():
    # on an 8 x 8 lattice of random Hermitian spectra, every listed mode
    # leads its pair, the first in lattice order, or is the partner of one
    # lead; the folded spectra are exactly F_k + conj F_-k for a pair, and F
    # for the zero mode, the Nyquist-plane modes and a mode whose -k is not
    # listed
    grid, rng = Grid(2, 8, 4.0), np.random.default_rng(5)
    c = rng.normal(size=(2, 8, 8)) + 1j * rng.normal(size=(2, 8, 8))
    c = (c + np.conj(c[:, -np.arange(8) % 8][:, :, -np.arange(8) % 8])).reshape(2, -1)
    modes = np.delete(np.arange(64), 9 * 7)  # drops k = (7, 7), so (1, 1) has no partner
    table = fold_modes(grid, *np.where(np.isin(np.arange(64), modes), c, 0.0), 2.0, 0.0)
    k = np.stack(np.unravel_index(modes, grid.shape), axis=-1)
    negated = np.ravel_multi_index(tuple((-k % 8).T), grid.shape)
    alone = (k == 4).any(axis=-1) | (negated == modes) | (negated == 63)
    assert alone[0] and alone[9]  # the zero mode and (1, 1)
    paired, lead = np.count_nonzero(~alone), alone | (negated > modes)
    assert len(table.modes) == np.count_nonzero(alone) + paired // 2
    assert np.array_equal(table.modes, modes[lead])
    folded = np.stack([table.f_hat, table.g_hat])
    own, partner = alone[lead], np.where(alone, modes, negated)[lead]
    assert np.array_equal(folded[:, ~own], (c[:, modes[lead]] + np.conj(c[:, partner]))[:, ~own])
    assert np.array_equal(folded[:, own], c[:, modes[lead]][:, own])


def test_jet_columns_count_and_order():
    # j <= 1 and j + |alpha| <= order + 1; order 0 is (phi, d_t phi, grad)
    assert jet_columns(1, 0) == [(0, 0), (0, 1), (1, 0)]
    assert jet_columns(2, 0) == [(0, 0, 0), (0, 0, 1), (1, 0, 0), (0, 1, 0)]
    assert len(jet_columns(1, 1)) == 5 and len(jet_columns(2, 2)) == 16
    for dim, order in ((1, 1), (2, 2)):
        columns = jet_columns(dim, order)
        assert len(set(columns)) == len(columns)
        assert all(k[-1] <= 1 and sum(k) <= order + 1 for k in columns)


def test_evaluate_at_points_at_t0_returns_data():
    data = bump_pair(GRID)
    sel = np.arange(300, 700, 41)
    pts = GRID.axis_coordinates[sel].reshape(-1, 1)
    phi, dphi, _ = evaluate_at_points(data, np.full(len(sel), 2.0), pts)
    assert np.max(np.abs(phi - data.f.values[sel])) <= 1e-10
    assert np.max(np.abs(dphi - data.g.values[sel])) <= 1e-10


def test_evaluate_at_points_empty():
    data = bump_pair(GRID)
    assert evaluate_at_points(data, [], np.zeros((0, 1))).shape == (3, 0)
    assert evaluate_at_points(data, [], np.zeros((0, 1)), 1).shape == (5, 0)


def test_boost_data_reads_off_formulas_for_zero_f():
    g_bump = bump_field(GRID, width=1.0, sharpness=8.0)
    data = CauchyData(ZERO, g_bump, 2.0, 1.0)
    boosted = boost_commuted_data(data, 0)
    x = Field(GRID, GRID.coordinate_arrays()[0])
    assert np.max(np.abs(boosted.f.values - (x * g_bump).values)) <= 1e-12
    spectral_dg = partial_derivative(g_bump, (1,))
    assert np.max(np.abs(boosted.g.values - 2.0 * spectral_dg.values)) <= 1e-12
    # sanity against the closed form, up to spectral representation error
    dg = bump_derivative_field(GRID, 0, width=1.0, sharpness=8.0)
    assert np.max(np.abs(boosted.g.values - 2.0 * dg.values)) <= 1e-4 * linf_norm(dg)


def test_boost_data_massless_drops_mass_term():
    data0 = bump_pair(GRID, mass=0.0)
    data1 = CauchyData(data0.f, data0.g, 2.0, 1.0)
    b0 = boost_commuted_data(data0, 0)
    b1 = boost_commuted_data(data1, 0)
    x = Field(GRID, GRID.coordinate_arrays()[0])
    diff = b1.g - b0.g + x * data0.f  # m^2 = 1 term restored
    assert np.max(np.abs(diff.values)) <= 1e-12 * max(linf_norm(b0.g), 1.0)


def test_boost_requires_t0_two():
    data = CauchyData(bump_field(GRID, width=1.0, sharpness=8.0), ZERO, 0.0, 1.0)
    with pytest.raises(ConfigurationError):
        boost_commuted_data(data, 0)


def test_boost_commutation_two_path():
    g = Grid(1, 2048, 64.0)
    f = bump_field(g, width=1.0, sharpness=8.0)
    gg = bump_derivative_field(g, 0, width=1.0, sharpness=8.0) * 0.5 + f * 0.25
    data = CauchyData(f, gg, 2.0, 1.0)
    boosted = boost_commuted_data(data, 0)
    x = g.axis_coordinates
    for t in (3.0, 5.0, 9.0):
        st = evolve(data, t)
        direct = x * st.dphi_dt.values + t * st.grad_phi[0].values
        via = evolve(boosted, t).phi.values
        assert np.max(np.abs(direct - via)) <= 1e-8 * np.max(np.abs(direct))


def test_support_radius_detection():
    data = bump_pair(GRID)
    r = data_support_radius(data)
    assert 0.5 <= r <= 1.0
