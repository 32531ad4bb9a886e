"""Deterministic result serialization: CSV, JSON, SVG.

Numeric CSV cells carry 9 significant digits with '.' decimal separator
and LF line endings, and every emitted file embeds the configuration
hash, so identical config + seed reproduce byte-identical output.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path


def config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def format_number(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, (int,)):
        return str(x)
    if isinstance(x, complex):
        return f"{x.real:.9g}{x.imag:+.9g}j"
    if isinstance(x, float):
        return f"{x:.9g}"
    return str(x)


def write_csv(path, columns, rows, meta: dict | None = None):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = []
    for key, value in sorted((meta or {}).items()):
        lines.append(f"# {key}={value}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(format_number(x) for x in row))
    path.write_text("\n".join(lines) + "\n", newline="\n")
    return path


def write_json(path, payload: dict, meta: dict | None = None):
    """Strict JSON (RFC 8259): a non-finite float is written as null."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    document = dict(payload)
    if meta:
        document["_meta"] = dict(sorted(meta.items()))
    path.write_text(
        json.dumps(_jsonable(document), sort_keys=True, indent=2, allow_nan=False) + "\n",
        newline="\n",
    )
    return path


def _jsonable(obj):
    """``obj`` with numpy values as Python ones and NaN or infinity as None."""
    import numpy as np

    if isinstance(obj, dict):
        return {key: _jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(value) for value in obj]
    if isinstance(obj, (np.ndarray, np.floating, np.integer)):
        return _jsonable(obj.tolist())
    if isinstance(obj, complex):
        return {"re": _jsonable(obj.real), "im": _jsonable(obj.imag)}
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def write_svg_plot(path, curves, xlabel, ylabel, title="", meta: dict | None = None):
    """Line plot as a standalone SVG; curves = [(x, y, label), ...].

    One polyline per curve (non-finite points dropped), the axis labels with
    the x and y ranges at the axis ends, a legend of the labelled curves and
    the meta in <desc>. Written with LF endings, so equal input gives equal bytes.
    """
    from html import escape

    import numpy as np

    w, h, left, right, top, bottom = 640, 400, 70, 20, 30, 50
    data = []
    for x, y, label in curves:
        x, y = np.asarray(x, float), np.asarray(y, float)
        ok = np.isfinite(x) & np.isfinite(y)
        data.append((x[ok], y[ok], label))

    def extent(values):
        values = np.concatenate(values) if values else np.zeros(0)
        lo, hi = (values.min(), values.max()) if values.size else (0.0, 1.0)
        return (lo, hi) if hi > lo else (lo - 0.5, hi + 0.5)

    (x0, x1), (y0, y1) = extent([d[0] for d in data]), extent([d[1] for d in data])
    sx, sy = (w - left - right) / (x1 - x0), (h - top - bottom) / (y1 - y0)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" font-size="12">',
        f"<desc>{escape(str(sorted((meta or {}).items())))}</desc>",
        f'<text x="{w / 2}" y="20" text-anchor="middle">{escape(title)}</text>',
        f'<rect x="{left}" y="{top}" width="{w - left - right}" height="{h - top - bottom}" '
        'fill="none" stroke="black"/>',
        f'<text x="{left}" y="{h - bottom + 16}">{x0:.4g}</text>',
        f'<text x="{w - right}" y="{h - bottom + 16}" text-anchor="end">{x1:.4g}</text>',
        f'<text x="{(left + w - right) / 2}" y="{h - 10}" text-anchor="middle">{escape(xlabel)}</text>',
        f'<text x="{left - 4}" y="{h - bottom}" text-anchor="end">{y0:.4g}</text>',
        f'<text x="{left - 4}" y="{top + 10}" text-anchor="end">{y1:.4g}</text>',
        f'<text transform="translate(16 {(top + h - bottom) / 2}) rotate(-90)" text-anchor="middle">'
        f"{escape(ylabel)}</text>",
    ]
    colours = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")
    for i, (x, y, label) in enumerate(data):
        colour = colours[i % len(colours)]
        points = " ".join(f"{left + (a - x0) * sx:.2f},{h - bottom - (b - y0) * sy:.2f}" for a, b in zip(x, y))
        parts.append(f'<polyline fill="none" stroke="{colour}" stroke-width="1.5" points="{points}"/>')
        if label:
            parts.append(f'<text x="{w - right - 8}" y="{top + 16 * (i + 1)}" text-anchor="end" fill="{colour}">'
                         f"{escape(label)}</text>")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(parts) + "\n</svg>\n", newline="\n")
    return path
