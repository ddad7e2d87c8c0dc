"""Each suite stands alone: a single-suite process loads only the layers its
suite uses, and a suite's checks do not depend on which other suites ran."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from kgdecay.config import SUITES, load_config
from kgdecay.plan import RunPlan
from kgdecay.suites import run_selected_suites

SRC = Path(__file__).resolve().parents[1] / "src"
# a small grid every suite accepts, with the slice data and the localized
# data resolved and highfreq's wide box past its anti-wraparound bound
SMALL = {"grid-n": "2048", "box-length": "256", "taus": "2,4", "bands": "0,1",
         "times": "8:64:5", "seed": "3"}
SMALL_ARGS = [arg for key, value in SMALL.items() for arg in (f"--{key}", value)]
# the benchmark's settings (perfbench/run.py): the CLI defaults d = 1,
# N = 4096, L = 256 with three taus and eight decay times
BENCHMARK = {"dim": "1", "grid-n": "4096", "box-length": "256", "taus": "2,4,8",
             "times": "8:64:8", "seed": "1"}
# prints the exit code and the loaded modules of one CLI run
FOOTPRINT = """
import json, sys
from kgdecay.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, sorted(sys.modules)]))
"""


def loaded_modules(suite: str, out: Path) -> set:
    run = subprocess.run(
        [sys.executable, "-c", FOOTPRINT, "--suite", suite, *SMALL_ARGS, "--out", str(out)],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True, check=True,
    )
    code, modules = json.loads(run.stdout.splitlines()[-1])
    assert code == 0, run.stderr
    return set(modules)


@pytest.mark.parametrize(
    "suite, absent, present",
    [
        ("energy", {"numpy.random", "kgdecay.decay", "kgdecay.partition"},
         {"kgdecay.hyperboloid"}),
        ("highfreq", {"numpy.random", "kgdecay.hyperboloid", "kgdecay.partition"},
         {"kgdecay.decay"}),
        ("lowfreq", {"kgdecay.hyperboloid", "kgdecay.partition"},
         {"numpy.random", "kgdecay.decay"}),
    ],
)
def test_single_suite_process_loads_only_its_own_layers(tmp_path, suite, absent, present):
    modules = loaded_modules(suite, tmp_path)
    assert absent.isdisjoint(modules) and present <= modules
    assert "configparser" not in modules  # no --config file given


def test_bare_package_import_loads_no_module():
    # the package's interface is its modules, so importing the package alone
    # loads none of them and offers none of their names
    code = "import json, sys, kgdecay; print(json.dumps([sorted(sys.modules), dir(kgdecay)]))"
    run = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)},
                         capture_output=True, text=True, check=True)
    modules, names = json.loads(run.stdout)
    assert "kgdecay" in modules
    assert not [m for m in modules if m.startswith("kgdecay.")]
    assert "Grid" not in names and "grid" not in names


@pytest.mark.parametrize("overrides", [SMALL, BENCHMARK], ids=["small", "benchmark"])
def test_each_suite_checks_the_same_alone_as_in_all(overrides):
    # lowfreq, lp and partition draw from a default_rng(seed) of their own,
    # so running the other suites first moves none of their draws; the slice
    # suites read samples taken at one order whichever of them run, so
    # energy's values match to the last bit (at the benchmark settings an
    # order-0 sample rounds some of them differently)
    plan = RunPlan(load_config(overrides=overrides))
    plan.validate()
    together = run_selected_suites(plan)
    assert tuple(together) == SUITES
    for name in SUITES:
        alone = RunPlan(replace(plan.config, suite=name))
        alone.validate()
        result = run_selected_suites(alone)
        assert list(result) == [name]
        assert result[name]["checks"] == together[name]["checks"]
        assert result[name]["passed"]
