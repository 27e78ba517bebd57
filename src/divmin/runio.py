"""Run artifacts: iteration traces, versioned reports, and a small chart.

The CSV trace holds one row per accepted iteration with full-precision
floats. The JSON report is written with sorted keys and default float
repr, so two runs of the same configuration produce byte-identical
files apart from the timestamp field. The SVG chart draws one polyline
per named term over the accepted iterations, assembled by hand because
a plotting dependency would dwarf the few curves it draws.

Every file goes through one writer, which makes the parent directory and
turns an ``OSError`` into a ``ConfigError``: an unwritable path is outside
input, like an unreadable configuration.
"""

from __future__ import annotations

import csv
import io
import json
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .config import RunConfig
from .errors import ConfigError
from .optim import OptimTrace
from .systems import softmax

__all__ = [
    "report_payload",
    "write_report_json",
    "write_terms_svg",
    "write_trace_csv",
]

REPORT_VERSION = 2


def _output_dir(path: Path) -> Path:
    """``path`` as a directory, made if it is missing."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {path}: {exc}") from None
    return path


def _write_text(path: str | Path, text: str) -> Path:
    """Write ``text`` to ``path`` as it is, making the parent directory."""
    path = Path(path)
    _output_dir(path.parent)
    try:
        path.write_text(text, newline="")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from None
    return path


def write_trace_csv(path: str | Path, trace: OptimTrace) -> Path:
    """One CSV row per accepted iteration, term columns sorted by name."""
    term_names = sorted(trace.records[0].terms) if trace.records else []
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(["iteration", "total", "grad_norm", "step", "evaluations", *term_names])
    for record in trace.records:
        writer.writerow(
            [
                record.iteration,
                repr(record.total),
                repr(record.grad_norm),
                repr(record.step),
                record.evaluations,
                *[repr(record.terms[name]) for name in term_names],
            ]
        )
    return _write_text(path, text.getvalue())


def report_payload(config: RunConfig, trace: OptimTrace) -> dict:
    """Everything a finished run claims, as plain JSON-ready values.

    Wall-clock quantities are deliberately excluded; the timestamp is
    added only at write time so payloads themselves are reproducible.
    """
    objective = config.objective
    records = trace.records
    space = objective.engine.space
    optimized = {
        f"{b.side}:{b.key}": softmax(logits).tolist()
        for b, logits in zip(space.blocks, space.logits(trace.phi))
    }
    return {
        "version": REPORT_VERSION,
        "name": config.name,
        "seed": config.seed,
        "family": objective.family,
        "equation": objective.equation,
        "converged": trace.converged,
        "reason": trace.reason,
        "iterations": len(records),
        "total": float(trace.total),
        "grad_norm": float(records[-1].grad_norm) if records else None,
        "score_residual": float(trace.gradient.score_residual),
        "parameters": [float(v) for v in np.asarray(trace.phi).ravel()],
        "optimized_factors": optimized,
        "engine_terms": {k: float(v) for k, v in trace.evaluation.terms.items()},
        "log_partition": float(trace.evaluation.log_partition),
        "report": objective.report(trace.phi).to_dict(),
    }


def write_report_json(path: str | Path, payload: dict) -> Path:
    """Write the payload with sorted keys plus the current UTC time as its
    timestamp field."""
    stamped = dict(payload)
    stamped["timestamp"] = datetime.now(timezone.utc).isoformat()
    return _write_text(path, json.dumps(stamped, indent=2, sort_keys=True) + "\n")


_PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#e377c2",
    "#17becf",
)


def write_terms_svg(path: str | Path, trace: OptimTrace) -> Path:
    """One polyline per named term over the accepted iterations.

    All series share one y axis so the relative magnitudes stay visible;
    a small legend maps colors to term names. Output bytes depend only
    on the trace, never on the clock.
    """
    term_names = sorted(trace.records[0].terms) if trace.records else []
    series = {
        name: [record.terms[name] for record in trace.records] for name in term_names
    }
    values = [v for curve in series.values() for v in curve] or [0.0]
    low, high = min(values), max(values)
    span = high - low if high > low else 1.0
    width, height, margin = 640, 360, 48.0
    inner_w = width - 2 * margin
    inner_h = height - 2 * margin
    denom = max(len(trace.records) - 1, 1)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.0f}" y="24" text-anchor="middle" '
        'font-family="sans-serif" font-size="14">term values per iteration</text>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<text x="{margin - 6}" y="{margin + 4:.0f}" text-anchor="end" '
        f'font-family="sans-serif" font-size="11">{high:.6g}</text>',
        f'<text x="{margin - 6}" y="{height - margin + 4:.0f}" text-anchor="end" '
        f'font-family="sans-serif" font-size="11">{low:.6g}</text>',
        f'<text x="{width - margin}" y="{height - margin + 16:.0f}" '
        'text-anchor="end" font-family="sans-serif" font-size="11">'
        f"iteration {max(len(trace.records) - 1, 0)}</text>",
    ]
    for rank, name in enumerate(term_names):
        color = _PALETTE[rank % len(_PALETTE)]
        points = " ".join(
            f"{margin + inner_w * (i / denom):.2f},"
            f"{margin + inner_h * (1.0 - (v - low) / span):.2f}"
            for i, v in enumerate(series[name])
        )
        lines.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" '
            'stroke-width="1.5"/>'
        )
        y = margin + 14.0 * rank
        lines.append(
            f'<text x="{width - margin - 4}" y="{y:.0f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11" fill="{color}">{name}</text>'
        )
    lines.append("</svg>")
    return _write_text(path, "\n".join(lines) + "\n")
