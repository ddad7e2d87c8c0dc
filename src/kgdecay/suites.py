"""Verification suites: each suite exercises one inequality or construction
at the configured desk scale and returns named checks with thresholds.

Every suite maps to exactly one verified statement, recorded as a citation
string in the summary.  Each suite takes the run plan and reads its config
and the data, slices and samples it holds.  Checks are deterministic
functions of (config, seed).
"""

from __future__ import annotations

import numpy as np

from .bumps import bump_derivative_field, bump_field
from .config import FIT_WINDOW, PARTITION_ACTIVE_RADIUS, RunConfig
from .grid import Field, l2_norm, linf_norm
from .plan import RunPlan
from .propagator import CauchyData

WAVE_BRANCH_MASS = 0.125  # mass small enough that t in [8, 64] sits in the wave regime
DATA_SHARPNESS = 4.0  # bump steepness for the decay-harness data family


def _check(name: str, value: float, threshold: float, op: str = "<=") -> dict:
    value = float(value)
    passed = value <= threshold if op == "<=" else value >= threshold
    return {"name": name, "value": value, "threshold": threshold, "op": op, "passed": bool(passed)}


def _spread(values) -> float:
    """max/min of positive values; inf when there are none to compare."""
    if not values or min(values) <= 0:
        return float("inf")
    return max(values) / min(values)


def random_bump_pair(config: RunConfig, rng):
    """One draw from the randomized test-data family, centered in [-2, 2]^d."""
    g_kind = rng.integers(0, 3)
    center = rng.uniform(-2.0, 2.0, size=config.dim)
    width = rng.uniform(0.5, 2.0)
    amp = rng.uniform(0.5, 2.0)
    f = bump_field(config.grid, center, width, amp, sharpness=DATA_SHARPNESS)
    if g_kind == 0:
        g = Field(config.grid, np.zeros(config.grid.shape))
    elif g_kind == 1:
        g_center = rng.uniform(-2.0, 2.0, size=config.dim)
        g_width, g_amp = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
        g = bump_field(config.grid, g_center, g_width, g_amp, sharpness=DATA_SHARPNESS)
    else:
        g = bump_derivative_field(config.grid, 0, center, width, amp, sharpness=DATA_SHARPNESS)
    return f, g


def suite_lp(plan: RunPlan) -> dict:
    from .bands import LittlewoodPaleyBank

    config = plan.config
    grid, rng = config.grid, np.random.default_rng(config.seed)
    bank = LittlewoodPaleyBank.for_grid(grid)
    checks = [_check("completeness_residual", bank.completeness_residual(), 1e-10)]
    sym_lo = min(float(np.min(bank.symbol(k))) for k in bank.bands)
    sym_hi = max(float(np.max(bank.symbol(k))) for k in bank.bands)
    checks.append(_check("symbol_min", sym_lo, 0.0, op=">="))
    checks.append(_check("symbol_max", sym_hi, 1.0 + 1e-14))
    # band support: symbols vanish off their dyadic annuli
    r = grid.frequency_norm
    worst = 0.0
    for k in bank.bands:
        lo, hi = bank.band_support_bounds(k)
        outside = (r < lo) | (r > hi)
        if np.any(outside):
            worst = max(worst, float(np.max(bank.symbol(k)[outside])))
    checks.append(_check("band_support_leak", worst, 0.0))
    # reconstruction of a random smooth field
    f = bump_field(grid, center=rng.uniform(-1, 1, size=config.dim), width=1.5,
                   sharpness=DATA_SHARPNESS)
    pieces = bank.decompose(f)
    recon = sum(p.values for p in pieces.values())
    scale = max(linf_norm(f), 1e-300)
    checks.append(
        _check("reconstruction_residual", float(np.max(np.abs(recon - f.values))) / scale, 1e-10)
    )
    # separated bands annihilate each other
    sep = 0.0
    for k in (0, 2, 4):
        if k + 2 <= bank.k_max:
            sep = max(sep, l2_norm(bank.project(bank.project(f, k), k + 2)))
    checks.append(_check("band_separation", sep / max(l2_norm(f), 1e-300), 1e-12))
    return {
        "citation": "dyadic completeness u = sum_{j >= -1} P_j u with band "
        "supports {|xi| <= 1} and [2^(k-1), 2^(k+1)]",
        "checks": checks,
    }


def suite_partition(plan: RunPlan) -> dict:
    from .partition import UnitBallPartition, overlap_bound, w_k1_comparability

    config = plan.config
    dim, rng = config.dim, np.random.default_rng(config.seed)
    part = UnitBallPartition.build(dim, active_radius=PARTITION_ACTIVE_RADIUS)
    pts = rng.uniform(-PARTITION_ACTIVE_RADIUS, PARTITION_ACTIVE_RADIUS, size=(200, dim))
    sums = part.partition_sum(pts)
    checks = [
        _check("partition_sum_residual", float(np.max(np.abs(sums - 1.0))), 1e-12),
        _check("overlap_max", float(np.max(part.overlap_counts(pts))), overlap_bound(dim)),
    ]
    # support containment: chi_i vanishes at |x - c_i| >= 1
    i = part.n_cutoffs // 2
    u = rng.normal(size=(50, dim))
    u /= np.linalg.norm(u, axis=-1, keepdims=True)
    ring = part.centers[i] + (1.0 + 1e-9) * u
    checks.append(_check("support_leak", float(np.max(part.cutoff_values(i, ring))), 0.0))
    # translation invariance of interior cutoffs
    probes = rng.uniform(-0.9, 0.9, size=(40, dim))
    j = i + 1
    diff = part.cutoff_values(i, part.centers[i] + probes) - part.cutoff_values(
        j, part.centers[j] + probes
    )
    checks.append(_check("translation_invariance", float(np.max(np.abs(diff))), 1e-12))
    checks.append(_check("derivative_bound_finite", part.derivative_bound, 1e6))
    # W^{k,1} comparability over random translates
    ratios_loc, ratios_ball = [], []
    for _ in range(20):
        center, width = rng.uniform(-2.0, 2.0, size=dim), rng.uniform(0.5, 1.5)
        f = bump_field(config.grid, center, width, sharpness=DATA_SHARPNESS)
        rep = w_k1_comparability(part, f, k=1)
        ratios_loc.append(rep.ratio_localized)
        ratios_ball.append(rep.ratio_balls)
    checks.append(_check("comparability_localized_min", min(ratios_loc), 1.0 - 1e-9, op=">="))
    checks.append(_check("comparability_localized_max", max(ratios_loc), 100.0))
    checks.append(_check("comparability_balls_max", max(ratios_ball), 100.0))
    return {
        "citation": "partition of unity subordinate to unit balls on "
        "(1/sqrt(d)) Z^d: sum chi_i = 1, overlap <= (16 d)^(d/2), "
        "W^(k,1) localization comparable to the whole norm",
        "checks": checks,
        "ratios_localized": [float(v) for v in ratios_loc],
        "ratios_balls": [float(v) for v in ratios_ball],
    }


def _per_tau(plan: RunPlan, check) -> dict:
    """tau -> check(slice data, its samples) over the plan's slice samples."""
    return {tau: check(plan.slice_data, samples) for tau, samples in plan.samples.items()}


def suite_energy(plan: RunPlan) -> dict:
    from .hyperboloid import energy

    checks = []
    per_tau = _per_tau(plan, energy)
    for tau, bound in per_tau.items():
        checks.append(_check(f"equality_gap_tau_{tau:g}", abs(bound.relative_gap), 1e-4))
        checks.append(_check(f"components_min_tau_{tau:g}", min(bound.lhs_terms), 0.0, op=">="))
    return {
        "citation": "weighted energy identity on hyperboloidal slices: "
        "E_m(phi, tau) = int g^2 + |grad f|^2 + m^2 f^2 dx for compactly "
        "supported data",
        "checks": checks,
        "relative_gaps": {f"{tau:g}": float(b.relative_gap) for tau, b in per_tau.items()},
    }


def suite_sobolev(plan: RunPlan) -> dict:
    """The global Sobolev rows' ratios per tau, at most SOBOLEV_CONSTANTS_1D
    in d = 1: on the slice psi(x) = phi(t(x), x) has psi' = L phi / t, any
    compact g has g(x0)^2 <= int |g g'| dx, and the rhs is int (t/tau)^ell
    (psi^2 + (L phi)^2) (tau/t) dx.  g = tau^(1/2) psi: |g g'| <= (tau/t)
    (psi^2 + (L phi)^2) / 2, so sup tau phi^2 <= rhs / 2.  g = t^(1/2) psi:
    g g' = psi L phi + (x/t) psi^2 / 2, |g g'| <= psi^2 + (L phi)^2 / 2, so
    sup t phi^2 <= rhs."""
    from .hyperboloid import SOBOLEV_CONSTANTS_1D, SOBOLEV_ELLS, global_sobolev_check

    checks = []
    ratio_table = {}
    per_tau = _per_tau(plan, global_sobolev_check).values()
    for ell in SOBOLEV_ELLS:
        ratios = [bounds[ell].ratio for bounds in per_tau]
        ratio_table[f"ell_{ell:g}"] = [float(r) for r in ratios]
        checks.append(_check(f"ratio_positive_ell_{ell:g}", min(ratios), 0.0, op=">="))
        checks.append(_check(f"tau_spread_ell_{ell:g}", _spread(ratios), 4.0))
        if plan.config.dim == 1:
            checks.append(_check(f"ratio_max_ell_{ell:g}", max(ratios), SOBOLEV_CONSTANTS_1D[ell]))
    return {
        "citation": "global Sobolev inequality on hyperboloids: "
        "sup tau^(1-l) t^(d+l-1) psi^2 bounded by iterated-boost integrals "
        "with a tau-independent constant",
        "checks": checks,
        "ratios": ratio_table,
    }


def suite_pointwise(plan: RunPlan) -> dict:
    from .hyperboloid import pointwise_energy_check

    ratios = [b.ratio for b in _per_tau(plan, pointwise_energy_check).values()]
    checks = [
        _check("ratio_positive", min(ratios), 0.0, op=">="),
        _check("tau_spread", _spread(ratios), 4.0),
    ]
    return {
        "citation": "pointwise weighted sup-norms of (phi, d_t phi, L phi) "
        "controlled by the summed energies of iterated boosts",
        "checks": checks,
        "ratios": [float(r) for r in ratios],
    }


def suite_localized(plan: RunPlan) -> dict:
    from .decay import localized_decay_check

    d = plan.config.dim
    data = plan.localized_data
    reports = localized_decay_check(data, plan.fit_times[data.mass], FIT_WINDOW)
    by_q = {r.quantity: r for r in reports}
    phi_fit = by_q["m2_td_phi_sq"].fit
    checks = [
        _check(
            "phi_exponent_error",
            abs(phi_fit.slope + d / 2.0) if phi_fit else float("inf"),
            0.1,
        ),
        _check("combined_constant_positive", by_q["combined"].empirical_constant, 0.0, op=">="),
    ]
    # halving the mass keeps the constant bounded (C depends only on d, m0)
    half = CauchyData(data.f, data.g, data.t0, data.mass / 2.0)
    reports_half = localized_decay_check(half, plan.fit_times[half.mass], FIT_WINDOW)
    c_full = by_q["combined"].empirical_constant
    c_half = {r.quantity: r for r in reports_half}["combined"].empirical_constant
    checks.append(_check("mass_halving_spread", _spread([c_full, c_half]), 3.0))
    return {
        "citation": "localized-data decay: m^2 t^d |phi|^2 + t^(d-1)|d phi|^2 "
        "bounded by squared Sobolev norms of the data",
        "checks": checks,
        "reports": reports + reports_half,
    }


def suite_lowfreq(plan: RunPlan) -> dict:
    from .decay import lowfreq_check

    config = plan.config
    d, rng = config.dim, np.random.default_rng(config.seed)
    # canonical envelope-sampled run measures the decay exponent
    f0 = bump_field(config.grid, width=1.0, sharpness=DATA_SHARPNESS)
    zero = Field(config.grid, np.zeros(config.grid.shape))
    canonical = lowfreq_check(f0, zero, config.mass, plan.fit_times[config.mass], FIT_WINDOW)
    exponent = canonical[0].fit.slope if canonical[0].fit else float("inf")
    constants, reports = [], list(canonical)
    for _ in range(10):
        f, g = random_bump_pair(config, rng)
        reps = lowfreq_check(f, g, config.mass, config.times, FIT_WINDOW)
        reports.extend(reps)
        if reps[0].status == "ok":
            constants.append(reps[0].empirical_constant)
    checks = [
        _check("phi_exponent_error", abs(exponent + d / 2.0), 0.1),
        _check("constant_spread", _spread(constants), 3.0),
        _check("runs_ok", len(constants), 10, op=">="),
    ]
    return {
        "citation": "low-frequency dispersive bound: m0 (1+t)^(d/2) |P_-1 phi| "
        "and (1+t)^((d-1)/2) |d P_-1 phi| bounded by L1 norms of the "
        "projected data",
        "checks": checks,
        "constants": [float(c) for c in constants],
        "exponent": float(exponent),
        "reports": reports,
    }


def _slope_vs_band(reports):
    ks = np.array([r.band for r in reports], dtype=float)
    vals = np.array([r.unnormalized_constant for r in reports], dtype=float)
    if np.any(vals <= 0):
        return float("nan")
    slope, _ = np.polyfit(ks, np.log2(vals), 1)
    return float(slope)


def suite_highfreq(plan: RunPlan) -> dict:
    from .decay import highfreq_check

    config = plan.config
    d, grid = config.dim, config.grid
    # narrow bump so every swept band is well populated
    f = bump_field(grid, width=0.25, sharpness=DATA_SHARPNESS)
    zero = Field(grid, np.zeros(grid.shape))
    m_wave = min(config.mass, WAVE_BRANCH_MASS)

    # The band-scaling sweep runs on the plan's highfreq grid and times.  A
    # moderate mass keeps the low bands on the dyadic line (omega =
    # sqrt(xi^2 + m^2) bends the k = 0, 1 constants when m ~ 1).
    wide, late_times = plan.highfreq_grid, plan.highfreq_times
    f_wide = bump_field(wide, width=0.25, sharpness=DATA_SHARPNESS)
    g_wide = bump_field(wide, width=0.25, amplitude=1.5, sharpness=DATA_SHARPNESS)
    zero_wide = Field(wide, np.zeros(wide.shape))
    m_phi = min(config.mass, 0.5)

    phi_f, phi_g, partial_f, reports = [], [], [], []
    for k in config.bands:
        rep_f = highfreq_check(f_wide, zero_wide, m_phi, k, late_times)
        rep_g = highfreq_check(zero_wide, g_wide, m_phi, k, late_times)
        rep_w = highfreq_check(f, zero, m_wave, k, config.times, FIT_WINDOW)
        phi_f.append(rep_f[0])
        phi_g.append(rep_g[0])
        partial_f.append(rep_w[1])
        reports.extend(rep_f + rep_g + rep_w)

    # each branch's fitted slope against its predicted dyadic exponent
    predicted = {
        "phi_f_branch": (phi_f, d / 2.0 + 1.0),
        "phi_g_branch": (phi_g, d / 2.0),
        "partial_f_branch": (partial_f, (d - 1.0) / 2.0 + 2.0),
    }
    slopes = {name: _slope_vs_band(reps) for name, (reps, _) in predicted.items()}
    checks = [
        _check(f"{name}_slope_error", abs(slopes[name] - want), 0.3)
        for name, (_, want) in predicted.items()
    ]
    checks.append(
        _check("normalized_k_uniformity", _spread([r.empirical_constant for r in phi_f]), 8.0)
    )
    # vanishing-mass stability of the wave-type bound at the top band
    k_top = max(config.bands)
    wave_consts = []
    for m in (config.mass, config.mass / 4.0, config.mass / 16.0):
        rep = highfreq_check(f, zero, m, k_top, config.times, FIT_WINDOW)
        wave_consts.append(rep[1].empirical_constant)
        reports.extend(rep)
    checks.append(_check("wavedecay_mass_spread", _spread(wave_consts), 2.0))
    return {
        "citation": "high-frequency dispersive bounds: m0 t^(d/2)|P_k phi| "
        "scaling as 2^(kd/2+k) / 2^(kd/2) in the data and "
        "t^((d-1)/2)|d P_k phi| as 2^(k(d-1)/2+2k); the derivative bound "
        "survives the vanishing-mass limit",
        "checks": checks,
        "slopes": slopes,
        "wavedecay_mass_constants": [float(c) for c in wave_consts],
        "reports": reports,
    }


def suite_interpolation(plan: RunPlan) -> dict:
    from .decay import interpolation_check

    config = plan.config
    d, grid = config.dim, config.grid
    k = config.bands[len(config.bands) // 2]
    f = bump_field(grid, width=0.5, sharpness=DATA_SHARPNESS)
    zero = Field(grid, np.zeros(grid.shape))
    s_lo, s_hi = (d - 1.0) / 2.0, d / 2.0
    s_values = np.linspace(s_lo, s_hi, 5)
    reports = interpolation_check(
        f, zero, config.mass, k, s_values, config.times, FIT_WINDOW
    )
    *interp, hf, wd = reports
    consts = [r.empirical_constant for r in interp]
    checks = [
        _check("constants_finite", max(consts), 1e6),
        _check(
            "endpoint_kg_spread",
            _spread([config.mass * interp[-1].empirical_constant, hf.empirical_constant]),
            2.0,
        ),
        _check(
            "endpoint_wave_spread",
            _spread([interp[0].empirical_constant, wd.empirical_constant]),
            2.0,
        ),
    ]
    return {
        "citation": "regularity/decay trade-off: |P_k phi| <= "
        "C 2^(ks)/t^s (2^k ||P_k f||_1 + ||P_k g||_1) for "
        "s between (d-1)/2 and d/2",
        "checks": checks,
        "s_values": [float(s) for s in s_values],
        "constants": [float(c) for c in consts],
        "reports": reports,
    }


SUITE_RUNNERS = {
    "lp": suite_lp,
    "partition": suite_partition,
    "energy": suite_energy,
    "sobolev": suite_sobolev,
    "pointwise": suite_pointwise,
    "localized": suite_localized,
    "lowfreq": suite_lowfreq,
    "highfreq": suite_highfreq,
    "interpolation": suite_interpolation,
}


def run_selected_suites(plan: RunPlan) -> dict:
    """Run the plan's selected suites, each on that plan.  The suites that
    draw random data (lowfreq, lp and partition) each seed a
    ``default_rng(config.seed)`` of their own, so a suite's draws do not
    depend on which others ran.  Each runner imports the layers it uses, so a
    single-suite process loads only its own suite's code, and numpy.random
    only for a drawing suite."""
    results = {}
    for name in plan.config.selected_suites:
        results[name] = SUITE_RUNNERS[name](plan)
        results[name]["passed"] = all(c["passed"] for c in results[name]["checks"])
    return results
