"""Minimal deterministic SVG 1.1 line charts.

No plotting library: identical input must yield identical bytes, so the
renderer is a fixed-layout string builder. One polyline per series,
non-finite points split a series into segments, axes get nice-number
ticks, and the legend lists series in input order.
"""

import math
import sys
from dataclasses import dataclass

PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#000000",
    "#9467bd", "#ff7f0e", "#8c564b", "#7f7f7f",
)

WIDTH, HEIGHT = 800.0, 500.0
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70.0, 160.0, 40.0, 50.0


@dataclass(frozen=True)
class Series:
    label: str
    x: tuple[float, ...]
    y: tuple[float, ...]

    @classmethod
    def of(cls, label, x, y) -> "Series":
        return cls(label=str(label), x=tuple(float(v) for v in x),
                   y=tuple(float(v) for v in y))


def _finite_extent(series: list[Series], attr: str) -> tuple[float, float, float]:
    """The range of the finite values, padded where they are all equal, and
    the factor, 1 or 1/2 where hi - lo overflows, that keeps its width finite."""
    vals = [
        v
        for s in series
        for v in getattr(s, attr)
        if math.isfinite(v)
    ]
    if not vals:
        return 0.0, 1.0, 1.0
    lo, hi = min(vals), max(vals)
    if lo == hi:
        # a tenth of the few smallest subnormals rounds to 0
        pad = abs(lo) * 0.1 or 0.5
        lo, hi = max(lo - pad, -sys.float_info.max), min(hi + pad, sys.float_info.max)
    return lo, hi, 1.0 if math.isfinite(hi - lo) else 0.5


def _ticks(lo: float, hi: float, k: float) -> list[float]:
    raw = (hi * k - lo * k) / 5 / k  # five steps: about six ticks
    if raw <= 1e-323:
        # 10.0 ** -324 underflows to 0: no decade step fits a span of a few
        # subnormals, so its ends are the ticks
        return [lo, hi]
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    ticks = []
    t = math.ceil(lo / step) * step
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        if not t < t + step < math.inf:
            break  # a step below half an ulp of t, or past float64, stalls t
        t += step
    return ticks


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def render_line_chart(
    series: list[Series],
    title: str = "",
    x_label: str = "",
    y_label: str = "",
) -> str:
    """Render series as a standalone SVG document string."""
    x_lo, x_hi, x_k = _finite_extent(series, "x")
    y_lo, y_hi, y_k = _finite_extent(series, "y")

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    # v * 1.0 is v, so the factor moves no coordinate of a finite span
    def sx(v: float) -> float:
        return MARGIN_L + (v * x_k - x_lo * x_k) / (x_hi * x_k - x_lo * x_k) * plot_w

    def sy(v: float) -> float:
        return MARGIN_T + plot_h - (v * y_k - y_lo * y_k) / (y_hi * y_k - y_lo * y_k) * plot_h

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{WIDTH:.0f}" height="{HEIGHT:.0f}" '
        f'viewBox="0 0 {WIDTH:.0f} {HEIGHT:.0f}">',
        f'<rect x="0" y="0" width="{WIDTH:.0f}" height="{HEIGHT:.0f}" fill="#ffffff"/>',
    ]
    if title:
        out.append(
            f'<text x="{WIDTH / 2:.1f}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="16">{_escape(title)}</text>'
        )

    # axes box
    out.append(
        f'<rect x="{MARGIN_L:.1f}" y="{MARGIN_T:.1f}" width="{plot_w:.1f}" '
        f'height="{plot_h:.1f}" fill="none" stroke="#333333" stroke-width="1"/>'
    )
    for t in _ticks(x_lo, x_hi, x_k):
        px = sx(t)
        out.append(
            f'<line x1="{px:.2f}" y1="{MARGIN_T + plot_h:.2f}" x2="{px:.2f}" '
            f'y2="{MARGIN_T + plot_h + 5:.2f}" stroke="#333333" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{px:.2f}" y="{MARGIN_T + plot_h + 18:.2f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(t)}</text>'
        )
    for t in _ticks(y_lo, y_hi, y_k):
        py = sy(t)
        out.append(
            f'<line x1="{MARGIN_L - 5:.2f}" y1="{py:.2f}" x2="{MARGIN_L:.2f}" '
            f'y2="{py:.2f}" stroke="#333333" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{MARGIN_L - 8:.2f}" y="{py + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(t)}</text>'
        )
    if x_label:
        out.append(
            f'<text x="{MARGIN_L + plot_w / 2:.1f}" y="{HEIGHT - 10:.1f}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="13">'
            f"{_escape(x_label)}</text>"
        )
    if y_label:
        cx, cy = 18.0, MARGIN_T + plot_h / 2
        out.append(
            f'<text x="{cx:.1f}" y="{cy:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13" '
            f'transform="rotate(-90 {cx:.1f} {cy:.1f})">{_escape(y_label)}</text>'
        )

    for idx, s in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        for segment in _segments(s):
            points = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in segment)
            out.append(
                f'<polyline points="{points}" fill="none" stroke="{color}" '
                f'stroke-width="1.5"/>'
            )
        ly = MARGIN_T + 14 + 18 * idx
        lx = MARGIN_L + plot_w + 12
        out.append(
            f'<line x1="{lx:.1f}" y1="{ly - 4:.1f}" x2="{lx + 22:.1f}" '
            f'y2="{ly - 4:.1f}" stroke="{color}" stroke-width="2"/>'
        )
        out.append(
            f'<text x="{lx + 27:.1f}" y="{ly:.1f}" font-family="sans-serif" '
            f'font-size="12">{_escape(s.label)}</text>'
        )

    out.append("</svg>")
    return "\n".join(out) + "\n"


def _segments(s: Series) -> list[list[tuple[float, float]]]:
    segments: list[list[tuple[float, float]]] = []
    current: list[tuple[float, float]] = []
    for x, y in zip(s.x, s.y):
        if math.isfinite(x) and math.isfinite(y):
            current.append((x, y))
        elif current:
            segments.append(current)
            current = []
    if current:
        segments.append(current)
    return [seg for seg in segments if len(seg) >= 2]


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        .replace('"', "&quot;")
    )
