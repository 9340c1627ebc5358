"""Tiny SVG line charts, drawn from numpy columns.

Output is a plain string with a fixed element order and fixed number
formatting, so the same data always serializes to the same bytes.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_WIDTH, _HEIGHT = 720, 440
_MARGIN = {"left": 72, "right": 16, "top": 28, "bottom": 46}


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _hundredths(v):
    """``round(v * 100)`` of a float64 array as ``f"{v:.2f}"`` rounds it: to the
    nearest integer of the exact product, ties to even."""
    p = v * 100.0
    hi = v * 134217729.0   # Dekker: hi + (v - hi) == v with 26-bit halves, so
    hi -= hi - v           # err is exact and v * 100 == p + err
    err = (hi * 100.0 - p) + (v - hi) * 100.0
    floor = np.floor(p)
    halfway = (p - floor == 0.5) & (err != 0)   # p's own tie is not the product's
    return np.where(halfway, floor + (err > 0), np.rint(p))


def _fmt_column(v, end):
    """``f"{v:.2f}"`` of each value of a float64 array in [+0.0, 1e12), then the
    byte *end* (one, or one per value): ASCII right-aligned in the rows of an
    (n, w) array, and the mask of the bytes each row uses."""
    k = _hundredths(v)
    width = max(3, len(str(int(k.max()))))   # digits of the widest text, at least "0.00"
    text = np.empty((len(k), width + 2), np.uint8)
    digit_cols = [*range(width - 2), width - 1, width]   # around the "." at width - 2
    for col, exp in zip(digit_cols, range(width - 1, -1, -1)):
        # float64 throughout: k < 1e14, so each floor of a quotient is exact
        q = np.floor(k / 10.0 ** exp)
        text[:, col] = q - np.floor(q / 10.0) * 10.0 + ord("0")
    text[:, width - 2] = ord(".")
    text[:, width + 1] = end
    used = np.ones(text.shape, bool)
    # no leading zeros; the units digit (column width - 3) always stays
    used[:, :width - 3] = k[:, None] >= 10.0 ** np.arange(width - 1, 2, -1)
    return text, used


def _tick_label(x: float) -> str:
    if x == 0:
        return "0"
    mag = abs(x)
    if mag >= 1e4 or mag < 1e-2:
        return f"{x:.2e}"
    return f"{x:g}"


def _ticks(lo: float, hi: float, n: int = 5):
    raw = (hi - lo) / n
    # one tick for an empty range, or one so narrow (~1e-323) that the step underflows
    mag = 10.0 ** math.floor(math.log10(raw)) if raw > 0 else 0.0
    if mag == 0:
        return [lo]
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if step >= raw:
            break
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + 1e-9 * step:
        out.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return out


def line_chart(xs, series, title: str, x_label: str, y_label: str) -> str:
    """Render ``series`` = [(name, ys), ...], each ys over the one grid ``xs``,
    to an SVG document string.  ``xs`` and each ``ys`` are equal-length
    sequences or numpy columns.

    NaN y-values break the line (gaps for infeasible points).
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray([column for _, column in series], dtype=np.float64)
    drawn = ~np.isnan(ys)
    if not xs.size or not drawn.any():
        raise ValueError("nothing to plot: no finite points in any series")

    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(ys[drawn].min()), float(ys[drawn].max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + (abs(y_lo) if y_lo else 1.0)
    pad = 0.05 * (y_hi - y_lo)
    y_lo_t, y_hi_t = y_lo - pad, y_hi + pad
    if not (math.isfinite(x_hi - x_lo) and math.isfinite(y_hi_t - y_lo_t)):
        raise ValueError("cannot plot: a value is infinite or an axis range overflows")

    px0, px1 = _MARGIN["left"], _WIDTH - _MARGIN["right"]
    py0, py1 = _HEIGHT - _MARGIN["bottom"], _MARGIN["top"]

    def sx(x):   # a tick value or a whole column, with the same float64 operations
        return px0 + (x - x_lo) / (x_hi - x_lo) * (px1 - px0)

    def sy(y):
        return py0 + (y - y_lo_t) / (y_hi_t - y_lo_t) * (py1 - py0)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}" '
        f'font-family="sans-serif" font-size="12">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.0f}" y="18" text-anchor="middle" '
        f'font-size="14">{title}</text>',
    ]

    for t in _ticks(x_lo, x_hi):
        x = sx(t)
        parts.append(f'<line x1="{_fmt(x)}" y1="{py0}" x2="{_fmt(x)}" '
                     f'y2="{py1}" stroke="#dddddd"/>')
        parts.append(f'<text x="{_fmt(x)}" y="{py0 + 16}" '
                     f'text-anchor="middle">{_tick_label(t)}</text>')
    for t in _ticks(y_lo_t, y_hi_t):
        y = sy(t)
        parts.append(f'<line x1="{px0}" y1="{_fmt(y)}" x2="{px1}" '
                     f'y2="{_fmt(y)}" stroke="#dddddd"/>')
        parts.append(f'<text x="{px0 - 6}" y="{_fmt(y + 4)}" '
                     f'text-anchor="end">{_tick_label(t)}</text>')

    parts.append(f'<line x1="{px0}" y1="{py0}" x2="{px1}" y2="{py0}" '
                 f'stroke="#333333"/>')
    parts.append(f'<line x1="{px0}" y1="{py0}" x2="{px0}" y2="{py1}" '
                 f'stroke="#333333"/>')
    parts.append(f'<text x="{(px0 + px1) / 2:.0f}" y="{_HEIGHT - 10}" '
                 f'text-anchor="middle">{x_label}</text>')
    parts.append(f'<text x="16" y="{(py0 + py1) / 2:.0f}" text-anchor="middle" '
                 f'transform="rotate(-90 16 {(py0 + py1) / 2:.0f})">{y_label}</text>')

    # every drawn point of every series at once: "x,y", then " ", or "\n" where
    # its NaN-free run ends; each run is one polyline
    x_text, x_used = _fmt_column(sx(xs), ord(","))
    run_ends = np.diff(drawn, append=False, axis=1) & drawn
    y_text, y_used = _fmt_column(sy(ys[drawn]),
                                 np.where(run_ends[drawn], ord("\n"), ord(" ")))
    x_at = np.nonzero(drawn)[1]   # the grid index of each drawn point
    text = np.hstack((x_text[x_at], y_text))[np.hstack((x_used[x_at], y_used))]
    runs = iter(text.tobytes().decode("ascii").split("\n"))
    for idx, (name, n_runs) in enumerate(zip([name for name, _ in series],
                                             run_ends.sum(axis=1).tolist())):
        color = _PALETTE[idx % len(_PALETTE)]
        parts.extend(f'<polyline points="{points}" fill="none" '
                     f'stroke="{color}" stroke-width="1.8"/>'
                     for points in itertools.islice(runs, n_runs))
        ly = _MARGIN["top"] + 14 * idx + 4
        parts.append(f'<line x1="{px1 - 130}" y1="{ly}" x2="{px1 - 106}" '
                     f'y2="{ly}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{px1 - 100}" y="{ly + 4}">{name}</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
