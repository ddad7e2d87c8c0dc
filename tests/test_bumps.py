"""The radial bump fields: in 1-D the per-axis formula they replaced, bit for
bit; in 2-D supported in the ball, radial, and with a closed-form derivative
that matches the spectral one."""

import numpy as np
import pytest

from kgdecay.bumps import bump_derivative_field, bump_field
from kgdecay.grid import Grid, partial_derivative

from oracles import tensor_bump_values

GRID_1D = Grid(1, 4096, 256.0)
# h = 1/16 and w = 1: u_a and |u|^2 are exact, so equal radii give equal values
GRID_2D = Grid(2, 128, 8.0)


@pytest.mark.parametrize(
    "center, width, amplitude, sharpness",
    [
        (None, 1.0, 1.0, 1.0),  # localized data
        (None, 0.7, 1.0, 8.0),  # slice data at support_radius 0.7
        (None, 1.0, 1.0, 8.0),  # slice data
        (None, 0.25, 1.5, 4.0),  # highfreq data
        (None, 0.5, 1.0, 4.0),  # interpolation data
        (None, 1.0, 1.0, 4.0),  # lowfreq's canonical data
        ((0.3,), 1.5, 1.0, 4.0),  # lp reconstruction data
        ((-1.7,), 0.5, 2.0, 0.3),
    ],
)
def test_radial_bump_equals_the_tensor_formula_in_1d(center, width, amplitude, sharpness):
    f = bump_field(GRID_1D, center, width, amplitude, sharpness)
    df = bump_derivative_field(GRID_1D, 0, center, width, amplitude, sharpness)
    args = (GRID_1D, center, width, amplitude, sharpness)
    assert np.array_equal(f.values, tensor_bump_values(*args))
    assert np.array_equal(df.values, tensor_bump_values(*args, axis=0))


@pytest.mark.parametrize("seed", range(8))
def test_random_bump_draws_equal_the_tensor_formula_in_1d(seed):
    # random_bump_pair's ranges, on a grid whose spacing 30/1024 is not dyadic
    grid, rng = Grid(1, 1024, 30.0), np.random.default_rng(seed)
    center, width, amp = rng.uniform(-2.0, 2.0, size=1), rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
    args = (grid, center, width, amp, 4.0)
    assert np.array_equal(bump_field(*args).values, tensor_bump_values(*args))
    assert np.array_equal(bump_derivative_field(grid, 0, *args[1:]).values,
                          tensor_bump_values(*args, axis=0))


@pytest.mark.parametrize("width, sharpness", [(1.0, 1.0), (1.0, 8.0), (0.7, 4.0), (2.5, 1.0)])
def test_2d_bump_vanishes_off_the_ball_and_is_radial(width, sharpness):
    x, y = GRID_2D.coordinate_arrays()
    outside = np.hypot(x, y) >= width
    f = bump_field(GRID_2D, width=width, sharpness=sharpness).values
    dx, dy = (bump_derivative_field(GRID_2D, a, width=width, sharpness=sharpness).values
              for a in (0, 1))
    assert np.all(f[outside] == 0.0) and np.all(dx[outside] == 0.0) and np.any(f > 0.0)
    assert np.array_equal(f, f.T) and np.array_equal(dx, dy.T)
    # (3h, 4h) and (5h, 0) lie on one circle; the tensor product tells them apart
    i0 = GRID_2D.points_per_axis // 2
    if width == 1.0:
        assert f[i0 + 3, i0 + 4] == f[i0 + 5, i0] == f[i0, i0 - 5]


@pytest.mark.parametrize("axis", [0, 1])
def test_2d_bump_derivative_matches_the_spectral_derivative(axis):
    # an off-centre ellipse at the slice data's sharpness, on a grid where
    # the two derivatives agree to 2e-10
    grid = Grid(2, 256, 8.0)
    kwargs = dict(center=(0.3, -0.2), width=(1.5, 1.2), amplitude=0.8, sharpness=8.0)
    exact = bump_derivative_field(grid, axis, **kwargs).values
    spectral = partial_derivative(bump_field(grid, **kwargs), np.eye(2, dtype=int)[axis]).values
    assert np.max(np.abs(exact - spectral)) <= 1e-8 * np.max(np.abs(exact))


def test_bump_fields_reject_bad_arguments():
    with pytest.raises(IndexError):
        bump_derivative_field(GRID_2D, 2)
    with pytest.raises(ValueError):
        bump_field(GRID_2D, width=(1.0, 0.0))
    with pytest.raises(ValueError):  # three centre coordinates for two axes
        bump_field(GRID_2D, center=(0.5, 0.0, 0.0))
