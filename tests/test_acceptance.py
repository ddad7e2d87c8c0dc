"""Acceptance suite: every stated criterion at its stated tolerance, at the
default desk scale (d = 1, N = 4096, L = 256 unless a criterion leaves the
grid free).  One pass/fail line per criterion is printed in the terminal
summary."""

import time

import numpy as np
import pytest

from kgdecay.bands import LittlewoodPaleyBank
from kgdecay.bumps import bump_derivative_field, bump_field
from kgdecay.cli import main
from kgdecay.config import RunConfig
from kgdecay.grid import Field, Grid, linf_norm
from kgdecay.hyperboloid import energy, global_sobolev_check
from kgdecay.plan import SLICE_DATA_SHARPNESS, RunPlan, bump_pair_data
from kgdecay.propagator import CauchyData, boost_commuted_data
from kgdecay.suites import (
    suite_highfreq,
    suite_interpolation,
    suite_lowfreq,
    suite_lp,
    suite_partition,
)

from conftest import ACCEPTANCE_LINES
from oracles import data_slice_samples, evolve, rk4_mode_oracle

CONFIG = RunConfig()  # d=1, N=4096, L=256, m0=1, bands 0..4, taus {2,4,8,16}


def record(num: int, description: str, passed: bool, detail: str):
    status = "PASS" if passed else "FAIL"
    ACCEPTANCE_LINES.append(f"[{status}] criterion {num}: {description} ({detail})")
    assert passed, f"criterion {num}: {description} ({detail})"


@pytest.fixture(scope="module")
def highfreq_result():
    start = time.time()
    result = suite_highfreq(RunPlan(CONFIG))
    result["elapsed"] = time.time() - start
    return result


def test_criterion_1_energy_equality():
    start = time.time()
    data = bump_pair_data(CONFIG, SLICE_DATA_SHARPNESS)
    gaps = [
        abs(energy(data, data_slice_samples(data, tau)).relative_gap)
        for tau in (2.0, 4.0, 8.0, 16.0)
    ]
    elapsed = time.time() - start
    record(
        1,
        "hyperboloidal energy equals flat energy to 1e-4 at tau in {2,4,8,16}",
        max(gaps) <= 1e-4 and elapsed <= 60.0,
        f"max relative gap {max(gaps):.3e}, {elapsed:.1f}s",
    )


def test_criterion_2_propagator_oracle_equivalence():
    g = Grid(1, 1024, 64.0)
    bank = LittlewoodPaleyBank.for_grid(g)
    rng = np.random.default_rng(CONFIG.seed)
    f = bank.project(Field(g, rng.standard_normal(g.shape)), 2)
    gg = bank.project(Field(g, rng.standard_normal(g.shape)), 1)
    data = CauchyData(f, gg, 2.0, 1.0)
    st = evolve(data, 7.0)
    phi_rk4, _ = rk4_mode_oracle(data, 7.0, target_local_error=1e-9)
    err = np.max(np.abs(st.phi.values - phi_rk4.values)) / linf_norm(st.phi)
    record(
        2,
        "multiplier evolution matches per-mode RK4 to 1e-8",
        err <= 1e-8,
        f"max relative error {err:.3e}",
    )


def test_criterion_3_boost_commutation():
    start = time.time()
    g = Grid(1, 4096, 64.0)
    f = bump_field(g, width=1.0, sharpness=8.0)
    gg = bump_derivative_field(g, 0, width=1.0, sharpness=8.0) * 0.5 + f * 0.25
    data = CauchyData(f, gg, 2.0, 1.0)
    b1 = boost_commuted_data(data, 0)
    b2 = boost_commuted_data(b1, 0)
    worst = 0.0
    for t in (3.0, 5.0, 9.0):
        st = evolve(data, t)
        direct = g.axis_coordinates * st.dphi_dt.values + t * st.grad_phi[0].values
        via = evolve(b1, t).phi.values
        worst = max(worst, np.max(np.abs(direct - via)) / np.max(np.abs(direct)))
        st1 = evolve(b1, t)
        direct2 = g.axis_coordinates * st1.dphi_dt.values + t * st1.grad_phi[0].values
        via2 = evolve(b2, t).phi.values
        worst = max(worst, np.max(np.abs(direct2 - via2)) / np.max(np.abs(direct2)))
    elapsed = time.time() - start
    record(
        3,
        "commuted-data and direct boosts agree to 1e-8 for L and LL at t in {3,5,9}",
        worst <= 1e-8 and elapsed <= 60.0,
        f"max relative error {worst:.3e}, {elapsed:.1f}s",
    )


def test_criterion_4_global_sobolev_tau_uniformity():
    data = bump_pair_data(CONFIG, SLICE_DATA_SHARPNESS)
    per_tau = [
        global_sobolev_check(data, data_slice_samples(data, tau, 1))
        for tau in (2.0, 4.0, 8.0, 16.0)
    ]
    spreads = []
    for ell in (0.0, 1.0):
        ratios = [reports[ell].ratio for reports in per_tau]
        spreads.append(max(ratios) / min(ratios))
    record(
        4,
        "sup/integral ratio varies by < factor 4 over tau in {2,4,8,16}, l in {0,1}",
        max(spreads) < 4.0,
        f"spreads l=0: {spreads[0]:.2f}, l=1: {spreads[1]:.2f}",
    )


def test_criterion_5_lowfreq_decay():
    result = suite_lowfreq(RunPlan(CONFIG))
    checks = {c["name"]: c for c in result["checks"]}
    exp_err = checks["phi_exponent_error"]["value"]
    spread = checks["constant_spread"]["value"]
    n_runs = checks["runs_ok"]["value"]
    record(
        5,
        "m0 sup|P_-1 phi| decays with exponent -d/2 (+-0.1) on [8,64]; "
        "constants spread < 3 over 10 random bumps",
        exp_err <= 0.1 and spread < 3.0 and n_runs >= 10,
        f"exponent error {exp_err:.3f}, spread {spread:.2f}, runs {int(n_runs)}",
    )


def test_criterion_6_highfreq_band_scaling(highfreq_result):
    slopes = highfreq_result["slopes"]
    d = CONFIG.dim
    err_f = abs(slopes["phi_f_branch"] - (d / 2.0 + 1.0))
    err_g = abs(slopes["phi_g_branch"] - d / 2.0)
    err_w = abs(slopes["partial_f_branch"] - ((d - 1.0) / 2.0 + 2.0))
    elapsed = highfreq_result["elapsed"]
    record(
        6,
        "band constants scale as 2^(kd/2+k) (phi, f), 2^(kd/2) (phi, g), "
        "2^(k(d-1)/2+2k) (dphi) within 0.3 in the exponent",
        max(err_f, err_g, err_w) <= 0.3 and elapsed <= 600.0,
        f"slope errors f: {err_f:.3f}, g: {err_g:.3f}, dphi: {err_w:.3f}, "
        f"{elapsed:.0f}s",
    )


def test_criterion_7_interpolation_endpoints():
    result = suite_interpolation(RunPlan(CONFIG))
    checks = {c["name"]: c for c in result["checks"]}
    kg_spread = checks["endpoint_kg_spread"]["value"]
    wave_spread = checks["endpoint_wave_spread"]["value"]
    record(
        7,
        "interpolated bounds at s = d/2 and s = (d-1)/2 agree with the "
        "mass/derivative endpoint constants within factor 2",
        kg_spread <= 2.0 and wave_spread <= 2.0,
        f"endpoint spreads {kg_spread:.2f} (mass), {wave_spread:.2f} (wave)",
    )


def test_criterion_8_lp_and_partition_invariants():
    lp = suite_lp(RunPlan(CONFIG))
    part = suite_partition(RunPlan(CONFIG))
    lp_checks = {c["name"]: c for c in lp["checks"]}
    part_checks = {c["name"]: c for c in part["checks"]}
    recon = lp_checks["reconstruction_residual"]["value"]
    psum = part_checks["partition_sum_residual"]["value"]
    overlap = part_checks["overlap_max"]["value"]
    ratios = part["ratios_localized"] + part["ratios_balls"]
    record(
        8,
        "sum_j P_j u = u to 1e-10; sum chi_i = 1 to 1e-12; overlap <= 4; "
        "localization ratios finite over 20 translates",
        recon <= 1e-10
        and psum <= 1e-12
        and overlap <= 4
        and len(part["ratios_localized"]) == 20
        and all(np.isfinite(r) for r in ratios),
        f"reconstruction {recon:.1e}, partition sum {psum:.1e}, "
        f"overlap {int(overlap)}, max ratio {max(ratios):.2f}",
    )


def test_criterion_9_vanishing_mass_stability(highfreq_result):
    consts = highfreq_result["wavedecay_mass_constants"]
    spread = max(consts) / min(consts)
    record(
        9,
        "derivative-bound constants vary by < factor 2 for m0 in {1, 1/4, 1/16}",
        spread < 2.0,
        f"constants {', '.join(f'{c:.4f}' for c in consts)}, spread {spread:.3f}",
    )


def test_criterion_10_determinism(tmp_path):
    args = [
        "--suite", "lowfreq",
        "--grid-n", "1024",
        "--box-length", "160",
        "--times", "8:64:7",
        "--seed", "5",
    ]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    b1 = (tmp_path / "a" / "summary.json").read_bytes()
    b2 = (tmp_path / "b" / "summary.json").read_bytes()
    record(
        10,
        "repeated run with a fixed seed produces byte-identical summary.json",
        b1 == b2,
        f"{len(b1)} bytes compared",
    )
