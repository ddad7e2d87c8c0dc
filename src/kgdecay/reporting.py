"""Deterministic report emission: JSON summaries, CSV curve tables, and
hand-rolled SVG log-log plots (no timestamps, stable float formatting)."""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .decay import DecayCurve, DecayReport


def curve_to_rows(curve: DecayCurve) -> list:
    return [
        (float(t), float(w), float(r))
        for t, w, r in zip(curve.times, curve.weighted_sup, curve.raw_sup)
    ]


def write_curve_csv(path, curve: DecayCurve) -> None:
    lines = ["t,weighted_sup,raw_sup"]
    for t, w, r in curve_to_rows(curve):
        lines.append(f"{t!r},{w!r},{r!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def report_to_dict(report: DecayReport) -> dict:
    out = {k: v for k, v in vars(report).items() if k not in ("curve", "fit", "extras")}
    fit = report.fit
    out["data_norms"] = dict(sorted(report.curve.data_norms.items()))
    out["fitted_exponent"] = None if fit is None else fit.slope
    out["fit_residual"] = None if fit is None else fit.residual
    out.update({k: v for k, v in sorted(report.extras.items())})
    return out


def dump_json(obj, path) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _svg_path(xs, ys) -> str:
    cmds = []
    for i, (x, y) in enumerate(zip(xs, ys)):
        cmds.append(f"{'M' if i == 0 else 'L'} {x:.2f} {y:.2f}")
    return " ".join(cmds)


def write_loglog_svg(path, curve: DecayCurve, title: str = "") -> None:
    """Minimal log-log plot of weighted (solid) and raw (dashed) sup-norms."""
    width, height, margin = 480, 360, 48
    pts = [
        (t, w, r)
        for t, w, r in curve_to_rows(curve)
        if t > 0 and w > 0 and r > 0
    ]
    body = []
    if pts:
        lt = np.log10([p[0] for p in pts])
        lw = np.log10([p[1] for p in pts])
        lr = np.log10([p[2] for p in pts])
        x_lo, x_hi = float(np.min(lt)), float(np.max(lt))
        y_lo = float(min(np.min(lw), np.min(lr)))
        y_hi = float(max(np.max(lw), np.max(lr)))
        x_span = (x_hi - x_lo) or 1.0
        y_span = (y_hi - y_lo) or 1.0

        def sx(v):
            return margin + (v - x_lo) / x_span * (width - 2 * margin)

        def sy(v):
            return height - margin - (v - y_lo) / y_span * (height - 2 * margin)

        body.append(
            f'<path d="{_svg_path([sx(v) for v in lt], [sy(v) for v in lw])}" '
            'fill="none" stroke="#1f4e8c" stroke-width="1.5"/>'
        )
        body.append(
            f'<path d="{_svg_path([sx(v) for v in lt], [sy(v) for v in lr])}" '
            'fill="none" stroke="#b0413e" stroke-width="1.2" stroke-dasharray="4 3"/>'
        )
        body.append(
            f'<text x="{margin}" y="{height - 12}" font-size="11">'
            f"log10 t in [{x_lo:.2f}, {x_hi:.2f}]; "
            f"log10 sup in [{y_lo:.2f}, {y_hi:.2f}]</text>"
        )
    else:
        body.append(f'<text x="{margin}" y="{height // 2}" font-size="12">no positive samples</text>')
    frame = (
        f'<rect x="{margin}" y="{margin}" width="{width - 2 * margin}" '
        f'height="{height - 2 * margin}" fill="none" stroke="#888"/>'
    )
    svg = "\n".join(
        [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
            f'<title>{title}</title>',
            frame,
            f'<text x="{margin}" y="{margin - 10}" font-size="12">{title}</text>',
            *body,
            "</svg>",
        ]
    )
    Path(path).write_text(svg + "\n")


def emit_report_files(out_dir, name: str, report: DecayReport) -> None:
    """Write the report's CSV and SVG into ``out_dir``, which cli.run made."""
    out = Path(out_dir)
    write_curve_csv(out / f"{name}.csv", report.curve)
    label = f"{report.inequality_id} {report.quantity}"
    if report.band is not None:
        label += f" k={report.band}"
    write_loglog_svg(out / f"{name}.svg", report.curve, label)
