"""Tests of the benchmark harness itself.

    PYTHONPATH=src python3 -m pytest perfbench -q

They run the cheapest suite of each workload (``localized`` for ``decay``,
``energy`` for ``slices``) through the same pass function the benchmark
uses, so they take seconds rather than the minutes of a full workload.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

import run as bench

SUITES = {"decay": "localized", "slices": "energy"}
REPEATED = (
    "propagator.evaluate_at_points.calls",
    "propagator.evaluate_at_points.entries",
    "grid.fft_points",
    "hyperboloid.slice_points",
)


def _proc(returncode=0):
    return bench.Proc(returncode, 0.0, 1.0, 1.0, 1.0)


def _invocation(suite, summary, returncode=0, trace=None):
    record = {"suites_start": 0.5, "trace": trace}
    return bench.Invocation(suite, _proc(returncode), summary, record)


def _pass(workload, tmp_path, tag, traced):
    suite = SUITES[workload]
    assert suite in bench.WORKLOADS[workload]
    work = tmp_path / tag
    work.mkdir()
    (inv,) = bench.run_pass((suite,), 3, work, tag, time.monotonic() + 120, traced=traced)
    assert inv.failures == {}
    return inv


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("perfbench")
    out = {}
    for workload in SUITES:
        plain = _pass(workload, tmp, f"{workload}_plain", traced=False)
        traced = [_pass(workload, tmp, f"{workload}_traced{i}", traced=True) for i in range(2)]
        metrics = [bench.layer_metrics([inv]) for inv in traced]
        out[workload] = (plain, traced, metrics)
    return out


@pytest.mark.parametrize("workload", sorted(SUITES))
def test_traced_point_evaluator_counts_are_nonzero(runs, workload):
    _, _, metrics = runs[workload]
    assert metrics[0]["propagator.evaluate_at_points.calls"] > 0
    assert metrics[0]["propagator.evaluate_at_points.entries"] > 0
    assert metrics[0]["propagator.evaluate_at_points.self_s"] > 0


@pytest.mark.parametrize("workload", sorted(SUITES))
def test_traced_counts_repeat_exactly(runs, workload):
    _, _, (first, second) = runs[workload]
    for name in REPEATED:
        assert first[name] == second[name], name
    assert first["grid.fft_points"] > 0
    if workload == "slices":
        assert first["hyperboloid.slice_points"] > 0


@pytest.mark.parametrize("workload", sorted(SUITES))
def test_traced_run_writes_the_untraced_summary(runs, workload):
    plain, traced, _ = runs[workload]
    assert plain.summary is not None
    for inv in traced:
        assert inv.summary == plain.summary


def test_missing_or_failed_checks_fail_the_invocation():
    expected = json.loads((bench.HERE / "expected_checks.json").read_text())
    names = expected["energy"]
    checks = [{"name": n, "passed": True} for n in names]

    def verify(check_list, returncode=0):
        summary = json.dumps({"suites": {"energy": {"checks": check_list}}}).encode()
        inv = _invocation("energy", summary, returncode)
        bench.verify(inv, expected)
        return inv.failures

    assert verify(checks) == {}
    assert "missing" in verify(checks[1:])["energy"]
    assert "failed" in verify(checks[:-1] + [{"name": names[-1], "passed": False}])["energy"]
    assert "exit code" in verify(checks, returncode=1)["energy"]


def test_a_traced_function_the_package_lacks_fails_the_invocation():
    expected = json.loads((bench.HERE / "expected_checks.json").read_text())
    checks = [{"name": n, "passed": True} for n in expected["energy"]]
    summary = json.dumps({"suites": {"energy": {"checks": checks}}}).encode()
    trace = {"missing": ["propagator.evaluate_at_points"]}
    inv = _invocation("energy", summary, trace=trace)
    bench.verify(inv, expected, traced=True)
    assert "propagator.evaluate_at_points" in inv.failures["energy"]


def test_the_tracer_lists_targets_the_package_lacks(monkeypatch):
    import tracer

    targets = tracer.TARGETS + (("propagator", "no_such_function", "propagator.gone", None),
                                ("no_such_module", "f", "gone.f", None))
    monkeypatch.setattr(tracer, "TARGETS", targets)
    t = tracer.Tracer()
    try:
        tracer.install(t)
    finally:  # undo the patching for the tests that follow
        for module in list(sys.modules):
            if module.startswith("kgdecay"):
                del sys.modules[module]
    assert t.to_dict()["missing"] == ["propagator.gone", "gone.f"]


def test_a_changed_summary_counts_as_a_failure():
    digests = {}
    first = _invocation("lp", b"a")
    bench.check_determinism([first], "all", 1, "src1", digests)
    again = _invocation("lp", b"a")
    changed = _invocation("lp", b"b")
    bench.check_determinism([again, changed], "all", 1, "src1", digests)
    assert first.failures == {} and again.failures == {}
    assert "differs" in changed.failures["lp"]


def test_a_summary_from_changed_source_is_not_compared():
    digests = {}
    bench.check_determinism([_invocation("lp", b"a")], "all", 1, "src1", digests)
    other_source = _invocation("lp", b"b")
    bench.check_determinism([other_source], "all", 1, "src2", digests)
    assert other_source.failures == {}


def test_the_source_digest_covers_the_package():
    assert bench.source_digest() == bench.source_digest()
    assert len(bench.source_digest()) == 64


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
    assert spec["paths"] == [Path(bench.HERE).name]
