"""Command-line entry point: configure, run verification suites, emit
summary.json plus per-curve CSV/SVG artifacts.

Exit codes: 0 all checks passed, 1 at least one check failed,
2 configuration error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import RunConfig, load_config
from .errors import ConfigurationError
from .plan import RunPlan
from .reporting import dump_json, emit_report_files, report_to_dict
from .suites import run_selected_suites


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="kgdecay",
        description="Verify Klein-Gordon dispersive-decay inequalities at desk scale.",
    )
    p.add_argument("--config", help="INI-style config file (key = value sections)")
    p.add_argument("--suite", help="suite name or 'all'")
    p.add_argument("--dim", help="spatial dimension")
    p.add_argument("--grid-n", dest="grid_n", help="points per axis (power of two)")
    p.add_argument("--box-length", dest="box_length", help="box extent L")
    p.add_argument("--mass", help="mass m0")
    p.add_argument("--bands", help="comma list of dyadic bands, e.g. 0,1,2,3,4")
    p.add_argument("--taus", help="comma list of slice parameters")
    p.add_argument("--times", help="comma list of times or lo:hi:n (log-spaced)")
    p.add_argument("--seed", help="data-family seed")
    p.add_argument("--out", dest="out_dir", help="output directory")
    return p


def _mass_tag(mass: float) -> str:
    return f"{mass:g}".replace(".", "p").replace("-", "m")


def run(config: RunConfig) -> int:
    plan = RunPlan(config)
    plan.validate()
    out = Path(config.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"out_dir {out} cannot be made a directory: {exc}") from exc
    results = run_selected_suites(plan)

    summary = {"config": config.summary_dict(), "suites": {}}
    for name, result in sorted(results.items()):
        entry = {k: v for k, v in result.items() if k != "reports"}
        reports = result.get("reports", ())
        entry["reports"] = [report_to_dict(r) for r in reports]
        summary["suites"][name] = entry
        for idx, rep in enumerate(reports):
            band = "lo" if rep.band is None else f"{rep.band}"
            stem = (
                f"{name}_{rep.inequality_id}_{rep.quantity}"
                f"_k{band}_m{_mass_tag(rep.mass)}_{idx:02d}"
            )
            emit_report_files(out, stem, rep)

    summary["passed"] = all(r["passed"] for r in results.values())
    dump_json(summary, out / "summary.json")

    for name, result in sorted(results.items()):
        status = "pass" if result["passed"] else "FAIL"
        print(f"[{status}] suite {name}")
        for c in result["checks"]:
            mark = "ok " if c["passed"] else "BAD"
            print(
                f"    {mark} {c['name']}: {c['value']:.6g} {c['op']} {c['threshold']:.6g}"
            )
    print(f"summary written to {out / 'summary.json'}")
    return 0 if summary["passed"] else 1


def main(argv=None) -> int:
    args = vars(build_parser().parse_args(argv))
    config_file = args.pop("config")
    try:
        config = load_config(config_file, args)
        return run(config)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
