import numpy as np
import pytest

from kgdecay.bumps import bump_field
from kgdecay import grid as grid_module
from kgdecay.errors import ConfigurationError
from kgdecay.grid import Field, Grid, linf_norm, partial_derivative, sobolev_w_k1_norm
from kgdecay.partition import UnitBallPartition, overlap_bound, w_k1_comparability
from oracles import (
    ball_restricted_w_k1,
    full_sum_cutoff_values,
    full_sum_partition_sum,
    lattice_cutoff_derivative_bound,
)

GRID = Grid(1, 1024, 32.0)
PART = UnitBallPartition.build(1, active_radius=4.0)


def test_overlap_bound_values():
    assert overlap_bound(1) == 4
    assert overlap_bound(2) == 32


def test_partition_sums_to_one_on_active_region():
    rng = np.random.default_rng(0)
    pts = rng.uniform(-4.0, 4.0, size=(300, 1))
    assert np.max(np.abs(PART.partition_sum(pts) - 1.0)) <= 1e-12


def test_partition_sums_to_one_2d():
    part = UnitBallPartition.build(2, active_radius=2.0)
    rng = np.random.default_rng(1)
    pts = rng.uniform(-2.0, 2.0, size=(100, 2))
    assert np.max(np.abs(part.partition_sum(pts) - 1.0)) <= 1e-12


@pytest.mark.parametrize("dim", [1, 2])
def test_cutoffs_and_sum_equal_full_denominator_oracle(dim):
    # the neighbour denominator drops only exact zeros: random points over and
    # beyond the active region, and points within 1e-9 of every ball's edge
    part = PART if dim == 1 else UnitBallPartition.build(2, active_radius=2.0)
    rng = np.random.default_rng(5)
    reach = part.active_radius + 2.0
    u = rng.normal(size=(part.n_cutoffs, dim))
    u /= np.linalg.norm(u, axis=-1, keepdims=True)
    edge = part.centers + (1.0 + rng.uniform(-1e-9, 1e-9, size=(part.n_cutoffs, 1))) * u
    pts = np.concatenate([rng.uniform(-reach, reach, size=(300, dim)), edge])
    for i in range(part.n_cutoffs):
        assert np.array_equal(part.cutoff_values(i, pts), full_sum_cutoff_values(part, i, pts))
    assert np.array_equal(part.partition_sum(pts), full_sum_partition_sum(part, pts))


@pytest.mark.parametrize("dim", [1, 2])
def test_derivative_bound_equals_private_lattice_oracle(dim):
    part = UnitBallPartition.build(dim, active_radius=4.0)
    assert part.derivative_bound == lattice_cutoff_derivative_bound(dim, dim + 2)


def test_cutoff_supported_in_unit_ball():
    i = PART.n_cutoffs // 2
    pts = PART.centers[i] + np.array([[-1.0 - 1e-12], [1.0], [1.5], [-2.0]])
    assert np.max(PART.cutoff_values(i, pts)) == 0.0


@pytest.mark.parametrize("dim", [1, 2])
def test_cutoff_field_equals_the_full_lattice_evaluation(dim):
    # chi_i evaluated on the index box around its ball and scattered into
    # zeros is, bit for bit, chi_i at every lattice point; the boxes of the
    # outer balls are cut by the grid's edges, on a grid whose half-width
    # is the active radius
    part = PART if dim == 1 else UnitBallPartition.build(2, active_radius=2.0)
    for grid in (GRID, Grid(1, 128, 8.0)) if dim == 1 else (Grid(2, 64, 8.0), Grid(2, 32, 4.0)):
        points = grid.lattice_points()
        for i in range(part.n_cutoffs):
            want = part.cutoff_values(i, points).reshape(grid.shape)
            assert part.cutoff_field(i, grid).values.tobytes() == want.tobytes()


@pytest.mark.parametrize("dim", [1, 2])
def test_overlap_count_within_bound(dim):
    part = UnitBallPartition.build(dim, active_radius=2.0)
    rng = np.random.default_rng(2)
    pts = rng.uniform(-2.0, 2.0, size=(200, dim))
    counts = part.overlap_counts(pts)
    assert np.min(counts) >= 1
    assert np.max(counts) <= overlap_bound(dim)


def test_pieces_of_constant_field_sum_to_one():
    ones = Field(GRID, np.ones(GRID.shape))
    total = np.zeros(GRID.shape)
    for i in range(PART.n_cutoffs):
        total += PART.apply_cutoff(i, ones).values
    x = GRID.axis_coordinates
    inside = np.abs(x) <= PART.active_radius
    assert np.max(np.abs(total[inside] - 1.0)) <= 1e-12


def test_pieces_reassemble_general_field():
    f = bump_field(GRID, center=1.3, width=2.0)
    total = np.zeros(GRID.shape)
    for i in range(PART.n_cutoffs):
        total += PART.apply_cutoff(i, f).values
    assert np.max(np.abs(total - f.values)) <= 1e-12 * linf_norm(f)


def test_localized_field_touches_geometric_center_count():
    # a narrow bump at p only meets balls whose center is within 1 + width of p
    p, width = 0.3, 0.25
    f = bump_field(GRID, center=p, width=width)
    expected = [
        i
        for i, c in enumerate(PART.centers)
        if np.linalg.norm(c - p) < 1.0 + width
    ]
    nonzero = [
        i
        for i in range(PART.n_cutoffs)
        if linf_norm(PART.apply_cutoff(i, f)) > 0.0
    ]
    assert nonzero == expected
    assert len(nonzero) <= overlap_bound(1)


def test_cutoffs_are_translates():
    rng = np.random.default_rng(3)
    probes = rng.uniform(-0.95, 0.95, size=(50, 1))
    i, j = PART.n_cutoffs // 2, PART.n_cutoffs // 2 + 2
    vi = PART.cutoff_values(i, PART.centers[i] + probes)
    vj = PART.cutoff_values(j, PART.centers[j] + probes)
    assert np.max(np.abs(vi - vj)) <= 1e-12


def test_sampled_cutoff_derivatives_within_mother_bound():
    # spectral derivatives of the sampled interior cutoffs stay within the
    # precomputed family bound (translation invariance)
    bound = PART.derivative_bound
    fine = Grid(1, 2048, 32.0)
    i = PART.n_cutoffs // 2
    chi = PART.cutoff_field(i, fine)
    worst = 0.0
    for order in range(1, 4):
        worst = max(worst, linf_norm(partial_derivative(chi, (order,))))
    assert worst <= bound * (1.0 + 1e-3)
    assert bound < 1e4


def test_active_region_margin_validation():
    small = Grid(1, 64, 4.0)
    with pytest.raises(ConfigurationError):
        PART.cutoff_field(0, small)
    with pytest.raises(ConfigurationError):
        UnitBallPartition.build(1, active_radius=-1.0)


def test_comparability_zero_field():
    rep = w_k1_comparability(PART, Field(GRID, np.zeros(GRID.shape)), 0)
    assert rep.whole == 0.0
    assert rep.localized_sum == 0.0
    assert rep.ball_sum == 0.0
    assert rep.ratio_localized == 0.0


def test_comparability_single_ball_bump_order_zero():
    # bump inside one ball: all three quantities agree within the overlap factor
    f = bump_field(GRID, center=0.0, width=0.45)
    rep = w_k1_comparability(PART, f, 0)
    bound = overlap_bound(1)
    assert rep.whole > 0
    assert rep.whole <= rep.localized_sum * (1.0 + 1e-9)
    assert rep.localized_sum <= bound * rep.whole
    assert rep.ball_sum <= bound * rep.whole
    assert rep.ball_sum >= rep.whole / bound


def test_comparability_ratio_sweep_over_translates():
    rng = np.random.default_rng(4)
    for _ in range(20):
        f = bump_field(GRID, center=rng.uniform(-2, 2), width=rng.uniform(0.5, 1.5))
        rep = w_k1_comparability(PART, f, 1)
        assert rep.ratio_localized >= 1.0 - 1e-9
        assert rep.ratio_localized <= 100.0
        assert np.isfinite(rep.ratio_balls)


@pytest.mark.parametrize("dim", [1, 2])
def test_comparability_norms_equal_per_ball_oracle(dim):
    # the whole norm and the ball sum read one set of |d^alpha f| arrays, in
    # the order of the per-ball norms they replace
    if dim == 1:
        grid, part, center = GRID, PART, 0.3
    else:
        grid, part, center = Grid(2, 64, 8.0), UnitBallPartition.build(2, 2.0), (0.3, -0.4)
    f = bump_field(grid, center=center, width=1.2)
    for k in range(dim + 3):
        rep = w_k1_comparability(part, f, k)
        balls = 0.0
        for i in part.touching(f):
            balls += ball_restricted_w_k1(f, part.centers[i], k)
        assert rep.whole == sobolev_w_k1_norm(f, k)
        assert rep.ball_sum == balls


def test_comparability_transforms_each_field_once(monkeypatch):
    # the whole norm and every ball's restricted norm read the derivatives of
    # f taken once from its one spectrum (Field.spectrum); each localized
    # piece chi_i f is a field of its own, transformed and differentiated once
    calls = {"forward": [], "inverse": []}

    def spy(name, transform):
        def counted(f):
            calls[name].append(f)
            return transform(f)
        return counted

    monkeypatch.setattr(grid_module, "forward_transform",
                        spy("forward", grid_module.forward_transform))
    monkeypatch.setattr(grid_module, "inverse_transform",
                        spy("inverse", grid_module.inverse_transform))
    f = bump_field(GRID, center=0.3, width=1.2)
    touching = PART.touching(f)
    w_k1_comparability(PART, f, 1)
    assert len(touching) >= 2
    assert len(calls["forward"]) == 1 + len(touching)
    assert len(calls["inverse"]) == 1 + len(touching)


def test_comparability_order_validation():
    f = Field(GRID, np.zeros(GRID.shape))
    with pytest.raises(ValueError):
        w_k1_comparability(PART, f, 4)
