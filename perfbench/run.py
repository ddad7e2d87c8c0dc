"""kgdecay benchmark: run one workload of the real CLI, verify it, print metrics.

    python3 perfbench/run.py --workload decay --seed 1 --seconds 20 --trace 0

Every suite invocation is a fresh process that runs ``kgdecay.cli.main``
from this checkout's ``src/`` through ``launch.py``, started one at a time
from this process.  An invocation fails unless it exits 0, writes
``summary.json``, emits every check the reference lists for its suite with
``passed: true``, and writes the same ``summary.json`` bytes as every
earlier run of the same workload, seed, suite and kgdecay source in this
checkout.

With ``--trace 0`` the printed metrics are the end-to-end ones.  With
``--trace 1`` the processes also time the layers (``tracer.py``) and the
printed metrics are the per-layer ones.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_out"
DIGESTS = WORK / "summary_digests.json"

# The default grid (d=1, N=4096, L=256), pinned so that a later change of the
# CLI defaults does not change the workload.  Two settings are lighter than
# the defaults so that tens of repeated runs of all three workloads fit in
# under an hour: tau = 16 is left out (its slice alone costs about 17 s in
# both `slices` and `all`), and 8 decay times replace 15 (about 5 s less in
# both `decay` and `all`).  See README.md.
SCALE_ARGS = (
    "--dim", "1", "--grid-n", "4096", "--box-length", "256",
    "--taus", "2,4,8", "--times", "8:64:8",
)

SUITES = (
    "energy", "sobolev", "pointwise", "localized", "lowfreq",
    "highfreq", "interpolation", "lp", "partition",
)
WORKLOADS = {
    "decay": ("localized", "lowfreq", "highfreq", "interpolation"),
    "slices": ("energy", "sobolev", "pointwise"),
    "all": ("all",),
}
DEADLINE_S = 170.0  # every process still running this long into a run is killed

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

_SPAN_METRICS = (
    ("grid.forward_transform", ("calls", "self_s")),
    ("grid.inverse_transform", ("calls", "self_s")),
    ("grid.upsample_values", ("calls", "self_s")),
    ("bands.project", ("calls", "self_s")),
    ("propagator.evolve_spectra", ("calls", "self_s")),
    ("propagator.boost_commuted_data", ("calls", "self_s")),
    ("propagator.evaluate_at_points", ("calls", "self_s")),
    ("hyperboloid.build_slice", ("calls", "self_s")),
    ("hyperboloid.sample_on_slice", ("calls",)),
    ("hyperboloid.energy", ("total_s",)),
    ("hyperboloid.global_sobolev_check", ("total_s",)),
    ("hyperboloid.pointwise_energy_check", ("total_s",)),
    ("decay.sup_norms", ("calls", "self_s", "total_s")),
    ("decay.lowfreq_check", ("total_s",)),
    ("decay.highfreq_check", ("total_s",)),
    ("decay.interpolation_check", ("total_s",)),
    ("decay.localized_decay_check", ("total_s",)),
    ("reporting.emit_report_files", ("calls", "self_s")),
    ("reporting.dump_json", ("self_s",)),
)
_COUNTERS = (
    "grid.fft_points",
    "propagator.evaluate_at_points.entries",
    "hyperboloid.slice_points",
    "hyperboloid.sample_on_slice.points",
)
PER_LAYER = {
    **{f"{span}.{stat}": "count" if stat == "calls" else "s"
       for span, stats in _SPAN_METRICS for stat in stats},
    **{name: "count" for name in _COUNTERS},
    "propagator.evaluate_at_points.ns_per_entry": "ns",
    "reporting.bytes_written": "bytes",
    **{f"suites.{s}.{stat}": unit for s in SUITES
       for stat, unit in (("wall_s", "s"), ("peak_rss_mb", "MB"), ("checks", "count"))},
    "cpu_s": "s",
    "trace_overhead_s": "s",
    "error_rate": "fraction",
}


@dataclass
class Proc:
    """One finished process."""

    returncode: int
    launched: float  # time.monotonic() just before the launch
    wall_s: float
    cpu_s: float
    rss_mb: float


@dataclass
class Invocation:
    """One kgdecay process and what its outputs showed."""

    suite: str
    proc: Proc
    summary: bytes | None
    record: dict | None = None  # what launch.py wrote
    bytes_written: int = 0
    failures: dict = field(default_factory=dict)  # suite -> reason

    @property
    def suites(self) -> tuple:
        return SUITES if self.suite == "all" else (self.suite,)

    @property
    def trace(self) -> dict | None:
        return self.record["trace"] if self.record else None

    @property
    def setup_s(self) -> float | None:
        """Launch to the start of the suites."""
        start = self.record["suites_start"] if self.record else None
        return None if start is None else start - self.proc.launched


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def launch(argv, log_path: Path, deadline: float) -> Proc:
    """Run argv to completion, killing it if it is still running at
    ``deadline`` (a ``time.monotonic()`` value)."""
    with open(log_path, "wb") as log:
        start = time.monotonic()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=_child_env(), stdout=subprocess.DEVNULL, stderr=log
        )
        timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, start, end - start, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0)


def _cli_args(suite: str, seed: int, out: Path) -> list:
    return ["--suite", suite, "--seed", str(seed), *SCALE_ARGS, "--out", str(out)]


def verify(inv: Invocation, expected: dict, traced: bool = False) -> None:
    """Record in ``inv.failures`` every suite whose outputs do not verify."""
    reason = None
    if inv.proc.returncode != 0:
        reason = f"exit code {inv.proc.returncode}"
    elif inv.summary is None:
        reason = "no summary.json"
    elif inv.setup_s is None:
        reason = "start of the suites not recorded"
    elif traced and inv.trace is None:
        reason = "no trace written"
    elif traced and inv.trace["missing"]:
        reason = "traced functions missing from kgdecay: " + ", ".join(inv.trace["missing"])
    if reason is not None:
        inv.failures = {suite: reason for suite in inv.suites}
        return
    try:
        results = json.loads(inv.summary)["suites"]
    except (ValueError, KeyError):
        inv.failures = {suite: "unreadable summary.json" for suite in inv.suites}
        return
    for suite in inv.suites:
        checks = {c["name"]: c["passed"] for c in results.get(suite, {}).get("checks", ())}
        missing = [name for name in expected[suite] if name not in checks]
        failed = [name for name, ok in checks.items() if not ok]
        if missing:
            inv.failures[suite] = "missing checks: " + ", ".join(missing)
        elif failed:
            inv.failures[suite] = "failed checks: " + ", ".join(failed)


def run_pass(suites, seed, work: Path, tag: str, deadline: float, traced: bool = False) -> list:
    """Run each suite invocation once; return the verified Invocations."""
    expected = json.loads((HERE / "expected_checks.json").read_text())
    out = []
    for suite in suites:
        out_dir = work / f"{tag}_{suite}"
        record_path = work / f"{tag}_{suite}.launch.json"
        argv = [sys.executable, str(HERE / "launch.py"), str(record_path), str(int(traced)),
                *_cli_args(suite, seed, out_dir)]
        proc = launch(argv, work / f"{tag}_{suite}.log", deadline)
        print(f"  {suite}: {proc.wall_s:.3f} s, cpu {proc.cpu_s:.3f} s, "
              f"peak RSS {proc.rss_mb:.1f} MB, exit {proc.returncode}", flush=True)
        summary_path = out_dir / "summary.json"
        inv = Invocation(
            suite, proc,
            summary_path.read_bytes() if summary_path.exists() else None,
            json.loads(record_path.read_text()) if record_path.exists() else None,
            sum(f.stat().st_size for f in out_dir.glob("*")) if out_dir.exists() else 0,
        )
        verify(inv, expected, traced)
        out.append(inv)
    return out


def source_digest() -> str:
    """sha256 over the paths and bytes of the kgdecay sources."""
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted((src / "kgdecay").rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def check_determinism(invocations, workload: str, seed: int, source: str, digests: dict) -> None:
    """Fail each invocation whose summary.json differs from an earlier one
    of the same kgdecay source."""
    for inv in invocations:
        if inv.summary is None:
            continue
        key = " ".join((f"source {source}", workload, inv.suite, f"--seed {seed}", *SCALE_ARGS))
        digest = hashlib.sha256(inv.summary).hexdigest()
        if digests.setdefault(key, digest) != digest:
            for suite in inv.suites:
                inv.failures.setdefault(suite, "summary.json differs from an earlier run")


def layer_metrics(traced) -> dict:
    """Per-layer metrics of one traced pass."""
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    spans, counters, rss, checks = {}, {}, {}, {}
    for inv in (inv for inv in traced if inv.trace is not None):
        for name, span in inv.trace["spans"].items():
            agg = spans.setdefault(name, dict(empty))
            for key in agg:
                agg[key] += span[key]
        for name, n in inv.trace["counters"].items():
            counters[name] = counters.get(name, 0) + n
        rss.update(inv.trace["suite_rss_mb"])
        if inv.summary is not None:
            for suite, result in json.loads(inv.summary)["suites"].items():
                checks[suite] = len(result["checks"])
    values = {}
    for name, stats in _SPAN_METRICS:
        for stat in stats:
            values[f"{name}.{stat}"] = spans.get(name, empty)[stat]
    for name in _COUNTERS:
        values[name] = counters.get(name, 0)
    entries = values["propagator.evaluate_at_points.entries"]
    eval_self = spans.get("propagator.evaluate_at_points", empty)["self_s"]
    values["propagator.evaluate_at_points.ns_per_entry"] = 1e9 * eval_self / entries if entries else 0.0
    values["reporting.bytes_written"] = sum(inv.bytes_written for inv in traced)
    for suite in SUITES:
        values[f"suites.{suite}.wall_s"] = spans.get(f"suites.{suite}", empty)["total_s"]
        values[f"suites.{suite}.peak_rss_mb"] = rss.get(suite, 0.0)
        values[f"suites.{suite}.checks"] = checks.get(suite, 0)
    values["cpu_s"] = sum(inv.proc.cpu_s for inv in traced)
    values["trace_overhead_s"] = sum(inv.trace["overhead_s"] for inv in traced)
    return values


def machine_facts() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            model = next((line.split(":", 1)[1].strip() for line in f
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if "THREAD" in k or k.startswith(("OMP_", "MKL_", "OPENBLAS_"))},
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Run the workload and return the result object printed last."""
    deadline = time.monotonic() + DEADLINE_S
    suites = WORKLOADS[workload]
    source = source_digest()
    passes = []
    first = time.monotonic()
    while True:
        started = time.monotonic()
        passes.append(run_pass(suites, seed, work, f"p{len(passes)}", deadline, trace))
        took = time.monotonic() - started
        print(f"pass {len(passes)}: {sum(i.proc.wall_s for i in passes[-1]):.3f} s", flush=True)
        if time.monotonic() - first >= seconds or time.monotonic() + took > deadline:
            break

    invocations = [inv for p in passes for inv in p]
    digests = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    check_determinism(invocations, workload, seed, source, digests)
    tmp = DIGESTS.with_suffix(".tmp")
    tmp.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    tmp.replace(DIGESTS)

    attempted = sum(len(inv.suites) for inv in invocations)
    failed = sum(len(inv.failures) for inv in invocations)
    for inv in invocations:
        for suite, reason in sorted(inv.failures.items()):
            print(f"FAILED {suite}: {reason}", flush=True)
    if trace:
        per_pass = [layer_metrics(p) for p in passes]
        # median_low: an even number of passes still gives a measured value,
        # and counts stay whole numbers
        values = {name: statistics.median_low(v[name] for v in per_pass) for name in per_pass[0]}
        values["error_rate"] = failed / attempted
        units = PER_LAYER
    else:
        values = {
            "wall_s": statistics.median(sum(i.proc.wall_s for i in p) for p in passes),
            "setup_s": statistics.median(sum(i.setup_s or 0.0 for i in p) for p in passes),
            "peak_rss_mb": max(inv.proc.rss_mb for inv in invocations),
        }
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0,
                   help="repeat the workload until this long has been measured")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # turn SIGTERM into SystemExit, so that launch() kills the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "kgdecay" / "cli.py").is_file():
        print(f"no kgdecay sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2

    print("machine " + json.dumps(machine_facts(), sort_keys=True), flush=True)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
