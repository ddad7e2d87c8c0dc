import json
import warnings

import numpy as np
import pytest

from kgdecay.cli import main
from kgdecay.config import RunConfig, load_config, parse_times
from kgdecay.decay import DecayCurve
from kgdecay.errors import ConfigurationError
from kgdecay.plan import RunPlan, nyquist_tail
from kgdecay.reporting import write_curve_csv, write_loglog_svg
from kgdecay.suites import _spread, run_selected_suites


def small_overrides(out, suite="lp"):
    return [
        "--suite", suite,
        "--grid-n", "512",
        "--box-length", "160",
        "--times", "8:64:8",
        "--bands", "0,1,2",
        "--taus", "2,4",
        "--out", str(out),
    ]


def test_parse_times(tmp_path, capsys):
    assert parse_times("1,2,4") == (1.0, 2.0, 4.0)
    t = parse_times("8:64:5")
    assert len(t) == 5
    assert abs(t[0] - 8.0) < 1e-12 and abs(t[-1] - 64.0) < 1e-12
    with pytest.raises(ConfigurationError):
        parse_times("8:64")
    # a lo:hi:n whose ends are not both positive is rejected for that reason
    # before numpy sees it: no NaN times, no warning
    for spec in ("-1:64:8", "8:-64:8", "0:64:8", "8:0:8"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError, match="lo and hi must be positive"):
                parse_times(spec)
            assert main(["--suite", "lp", f"--times={spec}", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.count("lo and hi must be positive") == 1


def test_config_file_and_overrides(tmp_path):
    cfg_file = tmp_path / "run.ini"
    cfg_file.write_text("[run]\ngrid_n = 1024\nmass = 0.5\nbands = 0,1\n")
    cfg = load_config(cfg_file, {"suite": "lp", "seed": "11"})
    assert cfg.grid_n == 1024
    assert cfg.mass == 0.5
    assert cfg.bands == (0, 1)
    assert cfg.seed == 11
    assert cfg.suite == "lp"


def test_unknown_key_rejected(tmp_path):
    cfg_file = tmp_path / "run.ini"
    cfg_file.write_text("[run]\nwhatever = 3\n")
    with pytest.raises(ConfigurationError):
        load_config(cfg_file)


def test_validation_reports_every_violation():
    cfg = RunConfig(
        grid_n=100,              # not a power of two
        box_length=32.0,         # too small for times up to 64
        mass=3.0,                # above max_mass
        suite="localized",
        times=(8.0, 64.0),
    )
    with pytest.raises(ConfigurationError) as err:
        RunPlan(cfg).validate()
    msg = str(err.value)
    assert "power of two" in msg
    assert "anti-wraparound" in msg
    assert "max_mass" in msg


def test_validation_slice_suites_tau_bound():
    cfg = RunConfig(suite="energy", taus=(2.0, 40.0))
    with pytest.raises(ConfigurationError) as err:
        RunPlan(cfg).validate()
    assert "support edge" in str(err.value)


@pytest.mark.parametrize(
    "suite, field, value",
    [
        ("sobolev", "taus", (2.0,)),
        ("pointwise", "taus", (4.0, 4.0)),
        ("all", "taus", (8.0,)),
        ("highfreq", "bands", (2,)),
        ("all", "bands", (1, 1)),
    ],
)
def test_validation_uniformity_checks_need_two_values(suite, field, value):
    # one tau or band would pass a spread check at exactly 1 with nothing compared
    with pytest.raises(ConfigurationError) as err:
        RunPlan(RunConfig(suite=suite, **{field: value})).validate()
    assert f"at least two distinct {field}" in str(err.value)


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--grid-n", "abc"),
        ("--times", "8:64"),
        ("--bands", "1,x"),
        ("--taus", ""),
        ("--box-length", "nan"),
    ],
)
def test_cli_rejects_malformed_values(tmp_path, capsys, flag, value):
    assert main(["--suite", "lp", flag, value, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"invalid {flag[2:].replace('-', '_')} value {value!r}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "suite, argv, ini, message",
    [
        ("lp", ["--seed", "-1"], "", "seed must be non-negative (got -1)"),
        ("energy", [], "support_radius = -0.5", "support_radius must be positive (got -0.5)"),
        ("localized", [], "support_radius = 0", "support_radius must be positive (got 0.0)"),
        # 2 and 2.0000001 share the label that names their checks
        ("energy", ["--taus", "2,2.0000001,4"], "", "taus must not repeat (labels 2, 2, 4)"),
        ("highfreq", ["--bands", "0,2,2"], "", "bands must not repeat (got [0, 2, 2])"),
        # below mass 5 pi / 64 the fit window holds 4 times pi k / mass, one
        # fewer than the exponent fit needs, and phi_exponent_error reads inf
        *(
            (suite, ["--mass", "0.2"], "", f"mass 0.2 puts 4 sample times pi k / mass in the "
             f"fit window (8.0, 64.0), fewer than the 5 the decay-exponent fit of {suite} needs")
            for suite in ("localized", "lowfreq")
        ),
    ],
    ids=["seed", "support_radius_energy", "support_radius_localized", "taus", "bands",
         "mass_localized", "mass_lowfreq"],
)
def test_cli_rejects_values_that_would_fail_or_repeat(tmp_path, capsys, suite, argv, ini, message):
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[run]\n{ini}\n")
    assert main(["--config", str(cfg), "--suite", suite, *argv, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"invalid configuration:\n  - {message}\n" == err[err.index("invalid"):]
    assert "Traceback" not in err


def test_validation_band_above_nyquist():
    cfg = RunConfig(suite="highfreq", grid_n=512, box_length=256.0, bands=(0, 6))
    with pytest.raises(ConfigurationError) as err:
        RunPlan(cfg).validate()
    assert "Nyquist" in str(err.value)


def test_validation_highfreq_internal_box():
    # d = 1 highfreq sweeps late times up to 960 on an 8x wider box
    with pytest.raises(ConfigurationError) as err:
        RunPlan(RunConfig(suite="highfreq", box_length=200.0)).validate()
    assert "highfreq's internal box_length 1600.0" in str(err.value)
    RunPlan(RunConfig(suite="highfreq")).validate()  # 2048 >= 2 (1 + 960 + 2) = 1926


@pytest.mark.parametrize("suite", ["localized", "lowfreq", "all"])
def test_cli_rejects_box_below_fit_window_horizon(tmp_path, capsys, suite):
    # localized and lowfreq's canonical run sample the fit window up to t = 64
    # whatever --times says: 64 < 2 (1 + 64 + 2) although 64 >= 2 (1 + 16 + 2)
    args = ["--box-length", "64", "--grid-n", "1024", "--times", "4:16:5", "--bands", "0,1"]
    assert main(["--suite", suite, *args, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "box_length 64.0 below the anti-wraparound bound" in err
    assert "fit window's end" in err
    assert "Traceback" not in err
    RunPlan(
        RunConfig(suite="interpolation", box_length=64.0, grid_n=1024, times=(4.0, 16.0))
    ).validate()


@pytest.mark.parametrize("suite", ["localized", "lowfreq", "highfreq", "interpolation"])
def test_cli_rejects_empty_times_for_time_suites(tmp_path, capsys, suite):
    assert main(["--suite", suite, "--times", "8:64:0", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "times is empty" in err
    assert "Traceback" not in err
    RunPlan(RunConfig(suite="lp", times=())).validate()


@pytest.mark.parametrize("suite", ["localized", "lowfreq", "highfreq", "interpolation"])
def test_cli_rejects_zero_mass_for_time_suites(tmp_path, capsys, suite):
    assert main(["--suite", suite, "--mass", "0", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "mass must be positive" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("suite", ["localized", "lowfreq"])
def test_fit_time_gate_accepts_mass_from_five_pi_over_64(suite):
    # the rejections at mass 0.2 are cases of the test above
    assert len(RunPlan(RunConfig(mass=0.25)).fit_times[0.25]) == 5
    RunPlan(RunConfig(suite=suite, mass=0.25)).validate()


def test_spread_of_nonpositive_values_is_infinite():
    assert _spread([0.0, 0.0]) == float("inf")
    assert _spread([]) == float("inf")
    assert _spread([2.0, 1.0]) == 2.0


def test_cli_configuration_error_exit_code(tmp_path):
    rc = main(["--suite", "nope", "--out", str(tmp_path)])
    assert rc == 2


@pytest.mark.parametrize("where", ["file", "below_a_file"])
def test_cli_rejects_an_out_path_that_cannot_be_a_directory(tmp_path, capsys, where):
    taken = tmp_path / "taken"
    taken.write_text("")
    out = taken if where == "file" else taken / "out"
    assert main(small_overrides(out)) == 2
    err = capsys.readouterr().err
    assert f"out_dir {out} cannot be made a directory" in err
    assert "Traceback" not in err
    assert taken.read_text() == ""


@pytest.mark.parametrize(
    "content",
    [
        b"grid_n = 1024\n",
        b"[run]\nmass = 0.5\nmass = 0.25\n",
        None,
        b"[run]\nout_dir = a%b\n",
        b"[run]\ngrid_n = 1024\n\xff\n",
    ],
    ids=["no_section_header", "repeated_key", "missing_file", "bad_interpolation", "not_utf8"],
)
def test_cli_unreadable_config_file_exit_code(tmp_path, capsys, content):
    path = tmp_path / "run.ini"
    if content is not None:
        path.write_bytes(content)
    rc = main(["--config", str(path), "--suite", "lp", "--out", str(tmp_path / "out")])
    out, err = capsys.readouterr()
    assert rc == 2
    assert str(path) in err
    assert "Traceback" not in out + err
    assert not (tmp_path / "out" / "summary.json").exists()


def test_cli_lp_suite_run(tmp_path, capsys):
    rc = main(small_overrides(tmp_path / "out"))
    assert rc == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["passed"] is True
    assert "lp" in summary["suites"]
    assert summary["suites"]["lp"]["citation"]
    out = capsys.readouterr().out
    assert "[pass] suite lp" in out


def test_cli_hands_the_validated_plan_to_the_suites_once(tmp_path, monkeypatch):
    # the benchmark wraps cli.run_selected_suites to time the suites' start:
    # run() must call it once, after validation, with the plan it validated
    validated, handed = [], []
    validate = RunPlan.validate

    def recorded_validate(plan):
        validated.append(plan)
        validate(plan)

    def hook(plan):
        handed.append(plan)
        return run_selected_suites(plan)

    monkeypatch.setattr(RunPlan, "validate", recorded_validate)
    monkeypatch.setattr("kgdecay.cli.run_selected_suites", hook)
    assert main(small_overrides(tmp_path / "out")) == 0
    assert len(validated) == 1 and len(handed) == 1
    assert handed[0] is validated[0]


def test_cli_determinism_with_rng_suite(tmp_path):
    # lowfreq draws random data; identical seeds must give identical bytes
    args1 = small_overrides(tmp_path / "a", suite="partition") + ["--seed", "3"]
    args2 = small_overrides(tmp_path / "b", suite="partition") + ["--seed", "3"]
    assert main(args1) == 0
    assert main(args2) == 0
    b1 = (tmp_path / "a" / "summary.json").read_bytes()
    b2 = (tmp_path / "b" / "summary.json").read_bytes()
    assert b1 == b2


def test_report_files_written(tmp_path):
    curve = DecayCurve(
        np.array([8.0, 16.0, 32.0]),
        np.array([1.0, 1.1, 0.9]),
        np.array([0.5, 0.25, 0.125]),
        {"l1": 1.0},
    )
    csv_path = tmp_path / "c.csv"
    write_curve_csv(csv_path, curve)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "t,weighted_sup,raw_sup"
    assert len(lines) == 4
    svg_path = tmp_path / "c.svg"
    write_loglog_svg(svg_path, curve, "demo")
    text = svg_path.read_text()
    assert text.startswith("<svg")
    assert "demo" in text


def _never_run_suites(plan):
    raise AssertionError("run_selected_suites entered: validate() accepted the configuration")


@pytest.mark.parametrize(
    "argv, tails",
    [
        (["--suite", "all", "--grid-n", "512", "--box-length", "256", "--bands", "0,1"],
         {"localized data": "1.0e+00", "slice data": "1.0e+00"}),
        (["--suite", "sobolev", "--grid-n", "512", "--box-length", "160"],
         {"slice data": "9.9e-01"}),
        (["--suite", "sobolev", "--dim", "2", "--grid-n", "128", "--box-length", "32"],
         {"slice data": "8.8e-01"}),
        (["--suite", "pointwise", "--dim", "2", "--grid-n", "256", "--box-length", "32"], {}),
    ],
    ids=["all_512_256", "sobolev_512_160", "sobolev_2d_128_32", "pointwise_2d_256_32"],
)
def test_former_box_edge_configs_meet_the_resolution_gates_only(
    tmp_path, capsys, monkeypatch, argv, tails
):
    # configs whose commuted-data boosts once reached the box edge: the boosts
    # now come from the data's own jet, so only unresolved data reject them
    # (with the reasons below), and the resolved 2-D pointwise grid is accepted
    monkeypatch.setattr("kgdecay.cli.run_selected_suites", _never_run_suites)
    if not tails:  # validate() accepts it, so main goes on to the suites
        with pytest.raises(AssertionError, match="run_selected_suites entered"):
            main([*argv, "--taus", "2,4", "--out", str(tmp_path)])
        return
    assert main([*argv, "--taus", "2,4", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    reasons = err.splitlines()[1:]
    assert len(reasons) == len(tails)
    for what, tail in tails.items():
        assert f"leaves the {what} unresolved (Nyquist tail {tail} > 0.7)" in err
    assert "box edge" not in err and "Traceback" not in err
    assert not (tmp_path / "summary.json").exists()


@pytest.mark.parametrize("suite", ["sobolev", "pointwise"])
def test_cli_runs_the_boosted_slice_suites_in_2d(tmp_path, capsys, suite):
    # a resolved 2-D grid whose slices fit its box: the second boosts come
    # from the data's jet and the run ends in a pass or a fail with a summary
    argv = ["--suite", suite, "--dim", "2", "--grid-n", "64", "--box-length", "8"]
    rc = main([*argv, "--taus", "2,3", "--out", str(tmp_path)])
    assert rc in (0, 1)
    assert "Traceback" not in capsys.readouterr().err
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["passed"] is (rc == 0)
    assert len(summary["suites"][suite]["checks"]) >= 2


@pytest.mark.parametrize(
    "dim, grid_n, box_length",
    [(1, 4096, 256.0), (1, 2048, 256.0), (1, 1024, 160.0)],
)
def test_resolution_gate_accepts_resolved_slice_data(dim, grid_n, box_length):
    # top-octave tails 1.1e-3, 4.6e-2 and 0.17; energy passes on each
    RunPlan(RunConfig(
        suite="energy", dim=dim, grid_n=grid_n, box_length=box_length, taus=(2.0, 4.0)
    )).validate()


@pytest.mark.parametrize(
    "dim, grid_n, box_length, tail",
    [(2, 128, 32.0, "8.8e-01"), (1, 512, 160.0, "9.9e-01")],
)
def test_resolution_gate_rejects_unresolved_slice_data(
    tmp_path, capsys, monkeypatch, dim, grid_n, box_length, tail
):
    # energy fails its gap checks on these grids (5.5e-3 and 2.5e-3 > 1e-4)
    monkeypatch.setattr("kgdecay.cli.run_selected_suites", _never_run_suites)
    argv = ["--suite", "energy", "--dim", str(dim), "--grid-n", str(grid_n)]
    argv += ["--box-length", str(box_length), "--taus", "2,4", "--out", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"leaves the slice data unresolved (Nyquist tail {tail} > 0.7)" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, tail",
    [
        (["--grid-n", "2048", "--taus", "0.5,2"], "4.6e-02"),
        (["--grid-n", "128", "--box-length", "12", "--taus", "0.5,2"], "8.6e-03"),
    ],
    ids=["2048_256", "128_12"],
)
def test_resolution_gate_rejects_unresolved_small_taus(tmp_path, capsys, monkeypatch, argv, tail):
    # energy's gap at tau = 0.5 is 3.8e-3 and 1.2e-4 on these grids (> 1e-4),
    # although their tails pass the limit for taus >= 2
    monkeypatch.setattr("kgdecay.cli.run_selected_suites", _never_run_suites)
    assert main(["--suite", "energy", *argv, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"leaves the slice data unresolved for tau 0.5 (Nyquist tail {tail} > 0.003)" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "suite, grid_n, taus",
    [
        ("energy", 4096, (0.25, 0.375, 0.5, 0.75, 1.0)),
        ("energy", 2048, (2.0, 4.0)),
        ("all", 4096, (2.0, 4.0, 8.0)),
        ("all", 4096, RunConfig().taus),
    ],
    ids=["small_taus", "coarse_large_taus", "benchmark", "defaults"],
)
def test_resolution_gate_accepts_resolved_small_taus(suite, grid_n, taus):
    # the defaults' slice data tail is 1.1e-3 and 4.6e-2 at N = 2048; energy's
    # tau = 0.25 gap is 1.7e-7
    RunPlan(RunConfig(suite=suite, grid_n=grid_n, taus=taus)).validate()


@pytest.mark.parametrize(
    "argv, tail",
    [
        (["--grid-n", "512", "--box-length", "256"], "1.0e+00"),
        (["--dim", "2", "--grid-n", "128", "--box-length", "160"], "1.0e+00"),
    ],
    ids=["512_256", "2d_128_160"],
)
def test_resolution_gate_rejects_unresolved_localized_data(
    tmp_path, capsys, monkeypatch, argv, tail
):
    # localized fails phi_exponent_error on both grids (0.106 and 0.244 >
    # 0.1), with sup brackets at most 4.8e-3 wide on the second
    monkeypatch.setattr("kgdecay.cli.run_selected_suites", _never_run_suites)
    assert main(["--suite", "localized", *argv, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"leaves the localized data unresolved (Nyquist tail {tail} > 0.7)" in err
    assert "grid_n" in err and "box_length" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("grid_n, tail", [(4096, 5.5e-2), (2048, 0.14), (1024, 0.49)])
def test_resolution_gate_accepts_resolved_localized_data(grid_n, tail):
    # localized passes on these grids, with brackets 4.8e-3 wide; the tail
    # falls as N doubles
    plan = RunPlan(RunConfig(suite="localized", grid_n=grid_n))
    plan.validate()
    assert nyquist_tail(plan.localized_data) == pytest.approx(tail, rel=0.05)


def test_validation_accepts_2d_localized_data_in_the_unit_ball(tmp_path, capsys, monkeypatch):
    # the radial bump lies in the unit ball on every grid (tests/test_plan.py
    # checks its mass there); the tensor-product bump it replaced put 3.9e-3
    # of its mass outside the ball on this grid, which validate() rejected
    monkeypatch.setattr("kgdecay.cli.run_selected_suites", _never_run_suites)
    argv = ["--suite", "localized", "--dim", "2", "--grid-n", "512", "--box-length", "160"]
    with pytest.raises(AssertionError, match="run_selected_suites entered"):
        main([*argv, "--out", str(tmp_path)])
    assert "Traceback" not in capsys.readouterr().err


def _never_build_fields(config, sharpness):
    raise AssertionError("bump_pair_data entered: validate() built a field")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--suite", "energy", "--dim", "3"], "grid_n 4096 in dim 3 makes 68719476736 grid points"),
        (["--dim", "2"], "grid_n 4096 in dim 2 makes 16777216 grid points"),
        (
            ["--suite", "highfreq", "--grid-n", str(2**20)],
            f"grid_n {2**20} (x8 per axis for highfreq's wide grid) in dim 1 makes 8388608 "
            "grid points",
        ),
    ],
    ids=["3d_energy", "2d_all", "highfreq_wide"],
)
def test_cli_rejects_oversized_grids_before_building_a_field(
    tmp_path, capsys, monkeypatch, argv, message
):
    # at the defaults N = 4096, d = 3 asked bump_field for 512 GiB of
    # coordinates inside validate(); the grid's size is read from N, d and
    # highfreq's wide factor alone, before any field is built
    monkeypatch.setattr("kgdecay.cli.run_selected_suites", _never_run_suites)
    monkeypatch.setattr("kgdecay.plan.bump_pair_data", _never_build_fields)
    assert main([*argv, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"{message}, above the 4194304 a run may build" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("suite, grid_n", [("lp", 2**22), ("highfreq", 2**19)])
def test_validation_accepts_grids_at_the_size_cap(monkeypatch, suite, grid_n):
    # 2^22 points on the configured grid, and on highfreq's 8x wider one
    monkeypatch.setattr("kgdecay.plan.bump_pair_data", _never_build_fields)
    RunPlan(RunConfig(suite=suite, grid_n=grid_n)).validate()
