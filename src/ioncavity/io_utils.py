"""Deterministic result serialization: CSV, JSON, SVG.

Numeric CSV cells carry 9 significant digits with '.' decimal separator
and LF line endings, and every emitted file embeds the configuration
hash, so identical config + seed reproduce byte-identical output.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from .errors import ConfigError


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
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    document = dict(payload)
    if meta:
        document["_meta"] = dict(sorted(meta.items()))
    path.write_text(
        json.dumps(document, sort_keys=True, indent=2, default=_json_default) + "\n",
        newline="\n",
    )
    return path


def _json_default(obj):
    import numpy as np

    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    raise TypeError(f"cannot serialize {type(obj)!r}")


def write_svg_plot(path, curves, xlabel, ylabel, title="", meta: dict | None = None):
    """Simple line plot as SVG; curves = [(x, y, label), ...]."""
    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError as exc:
        raise ConfigError(
            "--plot requires matplotlib (install the 'plot' extra)"
        ) from exc
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fig, ax = plt.subplots(figsize=(7, 4.2))
    for x, y, label in curves:
        ax.plot(x, y, label=label)
    ax.set_xlabel(xlabel)
    ax.set_ylabel(ylabel)
    if title:
        ax.set_title(title)
    if any(label for *_, label in curves):
        ax.legend(fontsize=8)
    fig.tight_layout()
    fig.savefig(path, format="svg", metadata={"Description": str(sorted((meta or {}).items()))})
    plt.close(fig)
    return path
