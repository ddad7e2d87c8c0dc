"""The run plan: one evaluator pass per tau for the slice data's jet, from
which its boosts are read, across the slice suites, and small random
configurations that end either in a rejection naming a key or in a
summary."""

import contextlib
import io
import json
import re
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import kgdecay.hyperboloid as hyperboloid
from kgdecay.cli import main
from kgdecay.config import RunConfig
from kgdecay.decay import mass_outside_fraction
from kgdecay.plan import RunPlan
from kgdecay.suites import suite_energy, suite_pointwise, suite_sobolev

from test_suites import SMALL_ARGS

SLICE_SUITES = (suite_energy, suite_sobolev, suite_pointwise)
NAMES_A_KEY = re.compile(r"\b(" + "|".join(RunConfig().summary_dict()) + r")\b")


def _count_calls(monkeypatch) -> dict:
    calls = dict.fromkeys(("build_slice", "evaluate_at_points"), 0)
    for name in calls:
        def counted(*args, name=name, original=getattr(hyperboloid, name), **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(hyperboloid, name, counted)
    return calls


def test_slice_samples_and_boosts_are_computed_once(monkeypatch):
    plan = RunPlan(RunConfig(taus=(2.0, 4.0)))
    calls = _count_calls(monkeypatch)
    shared = [suite(plan) for suite in SLICE_SUITES]
    # two taus, each with one slice, sampled in one pass for the slice data's jet
    assert calls == {"build_slice": 2, "evaluate_at_points": 2}
    for suite, result in zip(SLICE_SUITES, shared):
        assert suite(RunPlan(plan.config)) == result


@pytest.mark.parametrize("suite", ["all", "sobolev", "energy"])
def test_one_evaluator_pass_per_tau_after_validation(tmp_path, monkeypatch, suite):
    # validate() builds the slices and does not sample; the suites sample
    # them, so a suite run on a plan other than the validated one builds
    # each slice a second time
    calls = _count_calls(monkeypatch)
    argv = ["--suite", suite, *SMALL_ARGS, "--out", str(tmp_path)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    assert calls == {"build_slice": 2, "evaluate_at_points": 2}


@pytest.mark.parametrize("suite", ["sobolev", "energy"])
def test_plan_samples_follow_the_order_of_its_boosts(suite):
    # samples[tau] holds the slice data's sample first, then one per boost up
    # to the Sobolev order, whichever slice suite is selected: in 1-D energy
    # alone holds the 1 + d samples sobolev does, the data's and L phi's,
    # whose values are x d_t phi + t d_x phi of the data's sample
    plan = RunPlan(RunConfig(suite=suite, taus=(2.0, 4.0)))
    for tau, samples in plan.samples.items():
        slc = plan.slices[tau]
        assert len(samples) == 2 and all(s.slice is slc for s in samples)
        s, want = samples[0], hyperboloid.sample_on_slice(plan.slice_data, slc)
        for a, w in zip((s.phi, s.dphi_dt, s.grad), (want.phi, want.dphi_dt, want.grad)):
            assert np.max(np.abs(a - w)) <= 1e-12 * np.max(np.abs(w))
        boost = hyperboloid.boost_values(want, 0)
        assert np.max(np.abs(samples[1].phi - boost)) <= 1e-12 * np.max(np.abs(boost))


def test_highfreq_widens_the_box_in_one_dimension_only():
    c = RunConfig(dim=2, grid_n=64, box_length=32.0)
    # each config builds its grid once; equal configs do not share one
    assert c.grid is c.grid
    assert RunConfig().grid is not RunConfig().grid
    assert set(c.summary_dict()) == {f.name for f in fields(RunConfig)} - {"out_dir"}
    plan = RunPlan(c)
    assert plan.highfreq_grid is plan.config.grid
    assert plan.highfreq_times == plan.config.times
    assert RunPlan(RunConfig()).highfreq_grid.box_length == 8 * 256.0


@st.composite
def small_configs(draw):
    dim = draw(st.sampled_from((1, 2)))
    argv = [
        "--suite", draw(st.sampled_from(
            ("lp", "energy", "sobolev", "partition", "pointwise", "localized")
        )),
        "--dim", str(dim),
        "--grid-n", str(draw(st.sampled_from((16, 64, 256) if dim == 1 else (16, 32, 64)))),
        "--box-length", str(draw(st.sampled_from((8.0, 32.0, 140.0)))),
        "--mass", str(draw(st.sampled_from((0.0, 0.3, 1.0)))),
        "--taus", draw(st.sampled_from(("2,4", "0.5,3", "4,8,16"))),
        "--times", "8:64:6",
    ]
    support = draw(st.sampled_from((0.5, 1.0, 1.5)))
    return argv, f"[run]\nsupport_radius = {support}\n"


LOCALIZED_OUTSIDE_UNIT_BALL = (
    ["--suite", "localized", "--grid-n", "256", "--box-length", "140.0", "--times", "8:64:6"],
    "[run]\nsupport_radius = 1.5\n",
)
PARTITION_BOX_BELOW_ITS_ACTIVE_RADIUS = (
    ["--suite", "partition", "--grid-n", "64", "--box-length", "7.9", "--times", "8:64:6"],
    "[run]\nsupport_radius = 1.0\n",
)


@settings(max_examples=24, derandomize=True, deadline=None)
@given(case=small_configs())
@example(case=LOCALIZED_OUTSIDE_UNIT_BALL)  # rejected by validate(), not by the suite
@example(case=PARTITION_BOX_BELOW_ITS_ACTIVE_RADIUS)
def test_small_configs_end_in_a_summary_or_a_keyed_rejection(case):
    argv, ini = case
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        cfg = Path(tmp) / "run.ini"
        cfg.write_text(ini)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main(["--config", str(cfg), *argv, "--out", str(out)])
        err = err.getvalue()
        assert "Traceback" not in err
        if rc == 2:  # rejected by validate(), each reason naming a key
            assert err.startswith("configuration error: invalid configuration:\n"), err
            assert all(NAMES_A_KEY.search(line) for line in err.splitlines()[1:]), err
        else:
            assert rc in (0, 1)
            assert json.loads((out / "summary.json").read_text())["passed"] is (rc == 0)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    suite=st.sampled_from(("localized", "energy", "pointwise")),
    grid=st.sampled_from(
        [(1, n, length) for n in (128, 256, 512, 1024, 2048) for length in (12.0, 64.0, 160.0, 256.0)]
        + [(2, n, length) for n in (16, 32, 64) for length in (8.0, 16.0, 32.0)]
    ),
    taus=st.sampled_from(((0.5, 2.0), (2.0, 4.0))),
)
@example(suite="localized", grid=(1, 1024, 256.0), taus=(2.0, 4.0))
def test_doubling_grid_n_keeps_resolved_data_resolved(suite, grid, taus):
    # the resolution gates read the top octave below Nyquist, which moves up
    # the data's decaying spectrum as N doubles at fixed L
    dim, n, box_length = grid

    def unresolved(grid_n):
        config = RunConfig(suite=suite, dim=dim, grid_n=grid_n, box_length=box_length, taus=taus)
        plan = RunPlan(config)
        problems = plan.localized_problems() if suite == "localized" else plan.slice_problems()
        return [p for p in problems if "unresolved" in p]

    if not unresolved(n):
        assert not unresolved(2 * n)


@pytest.mark.parametrize(
    "dim, grid_n, box_length, support_radius",
    [(1, 4096, 256.0, 1.0), (1, 1024, 160.0, 0.7), (2, 64, 8.0, 1.0), (2, 128, 16.0, 0.7),
     (2, 512, 160.0, 1.0)],
)
def test_plan_data_have_no_mass_outside_the_unit_ball(dim, grid_n, box_length, support_radius):
    # the radial bumps vanish off B(0, support_radius); the tensor-product
    # bumps they replaced put 3.9e-3 of the 2-D localized data's mass outside
    # the unit ball at N = 512, L = 160
    plan = RunPlan(RunConfig(dim=dim, grid_n=grid_n, box_length=box_length,
                             support_radius=support_radius))
    assert mass_outside_fraction(plan.localized_data) == 0.0
    assert mass_outside_fraction(plan.slice_data) == 0.0
