import numpy as np
import pytest

from kgdecay.bumps import bump_field
from kgdecay.decay import (
    DecayCurve,
    fit_exponent,
    highfreq_check,
    interpolation_check,
    lowfreq_check,
    localized_decay_check,
    sup_norms,
)
from kgdecay.errors import ConfigurationError
from kgdecay.grid import Field, Grid
from kgdecay.propagator import CauchyData

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


def test_sup_norms_of_zero_data():
    s = sup_norms(CauchyData(ZERO, ZERO, 0.0, 1.0), 5.0)
    assert s.phi == 0.0 and s.partial == 0.0


def test_sup_norms_catch_oscillation_peaks():
    # a pure mode near Nyquist/2 has |phi| = 1 somewhere; the lattice max alone
    # under-estimates it
    x = GRID.axis_coordinates
    xi0 = 2.0 * np.pi * 200 / GRID.box_length
    f = Field(GRID, np.cos(xi0 * x))
    s = sup_norms(CauchyData(f, ZERO, 0.0, 1.0), 0.0)
    assert abs(s.phi - 1.0) <= 1e-6


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


def test_localized_constant_scale_invariance():
    f = bump_field(GRID, width=1.0, sharpness=4.0)
    d1 = CauchyData(f, ZERO, 2.0, 1.0)
    d4 = CauchyData(f * 4.0, ZERO, 2.0, 1.0)
    r1 = {r.quantity: r for r in localized_decay_check(d1, TIMES)}["combined"]
    r4 = {r.quantity: r for r in localized_decay_check(d4, TIMES)}["combined"]
    assert abs(r1.empirical_constant - r4.empirical_constant) <= 1e-10 * max(
        r1.empirical_constant, 1e-300
    )


def test_time_grid_must_increase():
    f = bump_field(GRID, width=1.0, sharpness=4.0)
    with pytest.raises(ValueError):
        lowfreq_check(f, ZERO, 1.0, (8.0, 8.0, 9.0))
