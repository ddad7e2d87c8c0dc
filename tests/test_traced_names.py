"""The benchmark's tracer wraps kgdecay functions by name; a refactor that
renames or moves one must fail here rather than in a benchmark run."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_target_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)  # reads TARGETS only; install() is never called
    missing = []
    for home, path, name, _ in tracer.TARGETS:
        owner = importlib.import_module(f"kgdecay.{home}")
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(name)
    assert tracer.TARGETS and missing == []
