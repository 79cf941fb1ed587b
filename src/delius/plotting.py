"""Byte-deterministic SVG scatter plots of 2-d projections.

The renderer emits plain SVG 1.1 with one circle per point, colored by
cluster.  Coordinates are formatted with a fixed precision and the
palette is fixed, so the same input always produces the same bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError

# 20 visually distinct colors; clusters beyond the palette wrap around.
DEFAULT_PALETTE = (
    "#1f77b4", "#aec7e8", "#ff7f0e", "#ffbb78", "#2ca02c",
    "#98df8a", "#d62728", "#ff9896", "#9467bd", "#c5b0d5",
    "#8c564b", "#c49c94", "#e377c2", "#f7b6d2", "#7f7f7f",
    "#c7c7c7", "#bcbd22", "#dbdb8d", "#17becf", "#9edae5",
)


@dataclass
class ScatterSpec:
    points: np.ndarray
    labels: np.ndarray
    palette: tuple[str, ...] = DEFAULT_PALETTE
    width: int = 800
    height: int = 600
    radius: float = 3.0


def check_layout(width, height, radius, palette=DEFAULT_PALETTE) -> None:
    """Reject a canvas, marker or palette a scatter cannot be drawn with."""
    if not palette:
        raise ConfigError("palette must hold at least one color")
    if width < 1 or height < 1:
        raise ConfigError("plot dimensions must be positive")
    if not 0.0 < radius < math.inf:
        raise ConfigError(f"marker radius must be finite and positive, got {radius}")


def _scale(values: np.ndarray, out_span: float, flip: bool):
    lo = float(values.min())
    hi = float(values.max())
    span = hi - lo
    margin = 0.05 * span if span > 0.0 else 0.5
    lo -= margin
    hi += margin
    scale = out_span / (hi - lo)

    def mapper(v: float) -> float:
        t = (v - lo) * scale
        return out_span - t if flip else t

    return mapper


def render_scatter(spec: ScatterSpec) -> str:
    """Render the scatter description to an SVG document string."""
    points = np.asarray(spec.points, dtype=np.float64)
    labels = np.asarray(spec.labels, dtype=np.int64)
    if points.ndim != 2 or points.shape[1] != 2:
        raise DataError(f"scatter points must be (n, 2), got shape {points.shape}")
    if labels.shape != (points.shape[0],):
        raise DataError(
            f"labels shape {labels.shape} does not match {points.shape[0]} points"
        )
    if points.shape[0] < 1:
        raise DataError("scatter needs at least one point")
    bad = ~np.isfinite(points)
    if bad.any():
        row = int(np.argwhere(bad)[0][0])
        raise DataError(f"point {row} has a non-finite coordinate")
    if labels.min() < 0:
        raise DataError("cluster labels must be non-negative")
    check_layout(spec.width, spec.height, spec.radius, spec.palette)

    to_x = _scale(points[:, 0], float(spec.width), flip=False)
    to_y = _scale(points[:, 1], float(spec.height), flip=True)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{spec.width}" height="{spec.height}" '
        f'viewBox="0 0 {spec.width} {spec.height}">\n',
        f'<rect x="0" y="0" width="{spec.width}" height="{spec.height}" '
        f'fill="#ffffff"/>\n',
    ]
    radius = f"{spec.radius:.3f}"
    for (x, y), label in zip(points, labels):
        color = spec.palette[int(label) % len(spec.palette)]
        parts.append(
            f'<circle cx="{to_x(x):.3f}" cy="{to_y(y):.3f}" r="{radius}" '
            f'fill="{color}"/>\n'
        )
    parts.append("</svg>\n")
    return "".join(parts)
