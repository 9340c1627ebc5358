"""Tiny SVG line charts, drawn from columns of floats.

Output is a plain string with a fixed element order and fixed number
formatting, so the same data always serializes to the same bytes.
"""

import math
from itertools import compress, count, filterfalse, groupby
from operator import add, ne, sub

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_WIDTH, _HEIGHT = 720, 440
_MARGIN = {"left": 72, "right": 16, "top": 28, "bottom": 46}


def _fmt(x: float) -> str:
    return f"{x:.2f}"


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
    first = max(math.ceil(lo / step) * step, lo)   # the product can round below lo
    out = []
    t = first
    while t <= hi + 1e-9 * step and t < math.inf:   # the bound is inf near the float max
        out.append(0.0 if abs(t) < 1e-12 * step and lo <= 0.0 else t)   # never below lo
        if t + step == t:   # step is below half an ulp of t: an axis a few ulps wide
            break
        t += step
    return out


def _m4(pxs, ys, starts, n_finite):
    """M4: the x texts and ys a line at one pixel per viewBox unit shows.  Each column run from
    *starts*, cut at NaN edges, keeps its first, lowest, highest and last point (first of ties)."""
    ys = list(ys)
    if n_finite < len(ys):
        nan = list(map(math.isnan, ys))
        starts = sorted({*starts, *compress(count(1), map(ne, nan, nan[1:]))})
    ends = starts[1:] + [len(ys)]
    runs = list(map(ys.__getitem__, map(slice, starts, ends)))   # a NaN run keeps its ends
    lo, hi = (map(add, starts, map(list.index, runs, map(f, runs))) for f in (min, max))
    keep = sorted({*starts, *map(sub, ends, [1] * len(ends)), *lo, *hi})
    return map("%.2f,".__mod__, map(pxs.__getitem__, keep)), map(ys.__getitem__, keep)


def line_chart(xs, series, title: str, x_label: str, y_label: str) -> str:
    """Render ``series`` = [(name, ys), ...], each ys over the one grid ``xs``,
    to an SVG document string.  ``xs`` and each ``ys`` are equal-length
    sequences of floats.

    NaN y-values break the line (gaps for infeasible points).
    """
    xs = [float(x) for x in xs]
    finite_ys = [list(filterfalse(math.isnan, ys)) for _, ys in series]
    if not xs or not any(finite_ys):
        raise ValueError("nothing to plot: no finite points in any series")
    if any(map(math.isnan, xs)):   # min and max would skip it, and no column holds it
        raise ValueError("cannot plot: an x value is NaN")

    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = y_min, y_max = [f(map(f, filter(None, finite_ys))) for f in (min, max)]
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + (abs(y_lo) if y_lo else 1.0)
    pad = 0.05 * (y_hi - y_lo)
    y_lo_t, y_hi_t = y_lo - pad, y_hi + pad
    if not math.isfinite(y_hi_t - y_lo_t):   # no room to widen or pad: span the data and 0
        y_lo_t, y_hi_t = min(y_min, 0.0), max(y_max, 0.0)
    if not (math.isfinite(x_hi - x_lo) and math.isfinite(y_hi_t - y_lo_t)):
        raise ValueError("cannot plot: a value is infinite or an axis range overflows")

    px0, px1 = _MARGIN["left"], _WIDTH - _MARGIN["right"]
    py0, py1 = _HEIGHT - _MARGIN["bottom"], _MARGIN["top"]
    x_span, y_span = x_hi - x_lo, y_hi_t - y_lo_t

    def sx(x):
        return px0 + (x - x_lo) / x_span * (px1 - px0)

    def sy(y):
        return py0 + (y - y_lo_t) / y_span * (py1 - py0)

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

    # one polyline per NaN-free run of each series: "x,y" points joined by " "
    pxs = [px0 + (x - x_lo) / x_span * (px1 - px0) for x in xs]   # sx(x)
    cols = list(map(math.trunc, pxs))   # a viewBox column is one unit wide
    starts = [0, *compress(count(1), map(ne, cols, cols[1:]))]
    height = py1 - py0
    for idx, ((name, ys), fin) in enumerate(zip(series, finite_ys)):
        color = _PALETTE[idx % len(_PALETTE)]
        x_run, ys = _m4(pxs, ys, starts, len(fin))
        # sy(y) written out: a call per point adds about a tenth to a chart's time
        points = [x_text + "%.2f" % (py0 + (y - y_lo_t) / y_span * height) if y == y else ""
                  for x_text, y in zip(x_run, ys)]
        parts.extend(f'<polyline points="{" ".join(run)}" fill="none" '
                     f'stroke="{color}" stroke-width="1.8"/>'
                     for finite, run in groupby(points, bool) if finite)
        ly = _MARGIN["top"] + 14 * idx + 4
        parts.append(f'<line x1="{px1 - 130}" y1="{ly}" x2="{px1 - 106}" '
                     f'y2="{ly}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{px1 - 100}" y="{ly + 4}">{name}</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
