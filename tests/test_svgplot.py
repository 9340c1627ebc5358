import math
import sys
from itertools import accumulate
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from b5gcell.svgplot import _ticks, line_chart

NS = "{http://www.w3.org/2000/svg}"


def _render(xs, series):
    svg = line_chart(xs, series, title="t", x_label="x", y_label="y")
    return svg, ET.fromstring(svg)


def test_output_is_wellformed_svg():
    svg, root = _render([0, 1, 2], [("a", [1.0, 2.0, 3.0])])
    assert root.tag == f"{NS}svg"
    assert svg.startswith("<svg ")


def test_gaps_split_polylines():
    _, root = _render([0, 1, 2, 3, 4], [("a", [1.0, 2.0, math.nan, 3.0, 4.0])])
    polylines = root.findall(f"{NS}polyline")
    assert len(polylines) == 2


def test_two_series_get_two_colors():
    _, root = _render([0, 1], [("a", [1.0, 2.0]), ("b", [2.0, 1.0])])
    polylines = root.findall(f"{NS}polyline")
    strokes = {p.get("stroke") for p in polylines}
    assert len(strokes) == 2


def test_byte_stable():
    series = [("a", [1.5, 2.5, 2.0])]
    first = line_chart([0, 1, 2], series, "t", "x", "y")
    second = line_chart([0, 1, 2], series, "t", "x", "y")
    assert first == second


def test_empty_series_rejected():
    with pytest.raises(ValueError):
        line_chart([], [("a", [])], "t", "x", "y")
    with pytest.raises(ValueError):
        line_chart([0, 1], [("a", [math.nan, math.nan])], "t", "x", "y")
    with pytest.raises(ValueError, match="nothing to plot"):
        line_chart(np.arange(3.0), [("a", np.full(3, np.nan)), ("b", np.full(3, np.nan))],
                   "t", "x", "y")


def test_flat_series_still_renders():
    svg, _ = _render([0, 1], [("a", [5.0, 5.0])])
    assert "polyline" in svg


def test_series_sharing_xs_keep_their_own_gaps():
    xs = [0, 1, 2, 3, 4, 5]
    _, root = _render(xs, [("a", [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
                           ("b", [6.0, 5.0, math.nan, math.nan, 2.0, 1.0])])
    points = [len(p.get("points").split()) for p in root.findall(f"{NS}polyline")]
    assert points == [6, 2, 2]


COLUMN_CASES = {
    "int-xs": ([0, 1, 2, 3], [[1.0, 2.0, 4.0, 3.0]]),
    "nan-start-middle-end": (list(range(8)),
                             [[math.nan, 1.0, 2.0, math.nan, 3.0, 4.0, 5.0, math.nan],
                              [2.0, 1.5, 1.0, 0.5, 0.25, math.nan, math.nan, 0.1]]),
    "one-point-run": ([0.0, 0.5, 1.0, 1.5, 2.0], [[1.0, math.nan, 2.0, 3.0, math.nan]]),
    "flat": ([1e9, 2e9, 3e9], [[5.0, 5.0, 5.0]]),
    "flat-zero": ([0.0, 1.0], [[0.0, 0.0], [math.nan, math.nan]]),
}


@pytest.mark.parametrize("xs, columns", COLUMN_CASES.values(), ids=COLUMN_CASES)
def test_lists_and_float64_columns_render_the_same_bytes(xs, columns):
    names = [f"s{i}" for i in range(len(columns))]
    from_lists = line_chart(xs, list(zip(names, columns)), "t", "x", "y")
    from_arrays = line_chart(np.asarray(xs, dtype=np.float64),
                             [(n, np.asarray(c, dtype=np.float64))
                              for n, c in zip(names, columns)], "t", "x", "y")
    assert from_lists == from_arrays
    root = ET.fromstring(from_arrays)
    runs = [len(p.get("points").split()) for p in root.findall(f"{NS}polyline")]
    assert sum(runs) == sum(not math.isnan(y) for c in columns for y in c)
    # every series keeps its legend entry, drawn or not
    assert [t.text for t in root.findall(f"{NS}text")][-len(names):] == names


@pytest.mark.parametrize("xs, ys", [([0.0, math.inf], [1.0, 2.0]),
                                    ([0.0, 1.0], [1.0, -math.inf]),
                                    ([0.0, 1.0], [-1.7e308, 1.7e308])],   # range overflows
                         ids=["inf-x", "inf-y", "overflowing-range"])
def test_non_finite_pixels_rejected(xs, ys):
    with pytest.raises(ValueError, match="cannot plot"):
        line_chart(xs, [("a", ys)], "t", "x", "y")


@pytest.mark.parametrize("at", [0, 1, 2], ids=["first", "middle", "last"])
def test_a_nan_x_is_rejected_by_name(at):
    xs = [0.0, 1.0, 2.0]
    xs[at] = math.nan
    with pytest.raises(ValueError, match="cannot plot: an x value is NaN"):
        line_chart(xs, [("a", [1.0, 2.0, 3.0])], "t", "x", "y")


@pytest.mark.parametrize("ys", [[1.5334483419589803e308] * 3,   # widening overflows
                                [0.0, 1e308, 1.7e308],              # padding overflows
                                [0.0, 1.0, sys.float_info.max],     # so does the last tick
                                [-sys.float_info.max] * 3],         # padding overflows
                         ids=["flat", "wide", "float-max", "flat-negative"])
def test_finite_values_near_the_float_maximum_render(ys):
    # every point drawn inside the plot area, and no tick at inf
    svg, root = _render([0, 1, 2], [("a", ys)])
    assert "inf" not in svg and "nan" not in svg
    (polyline,) = root.findall(f"{NS}polyline")
    pixels = [float(p.split(",")[1]) for p in polyline.get("points").split()]
    assert len(pixels) == 3 and all(28.0 <= y <= 394.0 for y in pixels)


def _m4_reference(run):
    """The points of one NaN-free run of ``(column, y, text)`` points that M4 keeps: each
    stretch of consecutive points in one viewBox column keeps its first, its lowest, its
    highest and its last point, each once and in grid order, the first of tied points."""
    kept, first = [], 0
    while first < len(run):
        last = first
        while last + 1 < len(run) and run[last + 1][0] == run[first][0]:
            last += 1
        lowest = highest = first
        for k in range(first, last + 1):
            if run[k][1] < run[lowest][1]:
                lowest = k
            if run[k][1] > run[highest][1]:
                highest = k
        kept += [run[k][2] for k in sorted({first, lowest, highest, last})]
        first = last + 1
    return kept


def _pixel_texts(xs, columns):
    """Per series, per maximal NaN-free run, the ``x,y`` text of each point that M4 keeps,
    from the closed-form pixel map evaluated one Python float at a time; a column is
    one viewBox unit wide, ``int()`` of the unrounded pixel x."""
    finite = [y for c in columns for y in c if not math.isnan(y)]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(finite), max(finite)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + (abs(y_lo) if y_lo else 1.0)
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    runs = []
    for column in columns:
        run = []
        for x, y in zip(xs, column):
            if math.isnan(y):
                if run:
                    runs.append(_m4_reference(run))
                run = []
                continue
            px = 72 + (x - x_lo) / (x_hi - x_lo) * (704 - 72)
            py = 394 + (y - y_lo) / (y_hi - y_lo) * (28 - 394)
            run.append((int(px), y, f"{px:.2f},{py:.2f}"))
        if run:
            runs.append(_m4_reference(run))
    return runs


@st.composite
def _grids_and_columns(draw):
    if draw(st.booleans()):
        xs = sorted(draw(st.lists(st.floats(0.0, 1e10), min_size=1, max_size=40, unique=True)))
    else:   # packed a few viewBox units apart on a 632-unit axis: columns of 3 or more points
        gaps = draw(st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0, 2.5]), max_size=40))
        xs = [*accumulate(gaps, initial=0.0), 632.0]
    value = st.one_of(st.just(math.nan), st.floats(-1e6, 1e6), st.sampled_from([0.0, 1.0]))
    columns = draw(st.lists(st.lists(value, min_size=len(xs), max_size=len(xs)),
                            min_size=1, max_size=4))
    assume(any(not math.isnan(y) for c in columns for y in c))
    return xs, columns


@settings(max_examples=100, deadline=None)
@given(_grids_and_columns())
@example(([0.0], [[5e-324]]))   # y and x ranges whose tick step underflows
@example(([0.0, 2.5e-323], [[1.0, 2.0]]))
# on a 632-unit axis an x of 0.0-0.9 lies in the first column
@example(([0.0, 0.1, 0.2, 632.0], [[1.0, 2.0, 3.0, 0.0]]))   # the middle point is dropped
@example(([0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 632.0],
          [[2.0, 2.0, 9.0, 0.0, 2.0, 2.0, 1.0]]))   # a step: both extremes are kept
@example(([0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 632.0],
          [[1.0, 3.0, 2.0, 2.5, math.nan, 4.0, 6.0, 5.0, 5.5, 1.0]]))   # a NaN in a column
@example(([0.0, 0.1, 0.2, 0.3, 632.0], [[1.0, 0.0, 0.0, 1.0, 0.5]]))   # ties keep the first
@example(([0.2, 632.0, 0.1, 0.0, 0.3, 0.15], [[1.0, 5.0, 4.0, 2.0, 3.0, 2.5]]))   # unsorted xs
def test_polyline_points_are_the_closed_form_pixels(case):
    xs, columns = case
    svg = line_chart(np.asarray(xs), [(f"s{i}", np.asarray(c)) for i, c in enumerate(columns)],
                     "t", "x", "y")
    drawn = [p.get("points").split() for p in ET.fromstring(svg).findall(f"{NS}polyline")]
    assert drawn == _pixel_texts(xs, columns)


@settings(max_examples=200, deadline=None)
@given(st.floats(-1e12, 1e12), st.integers(1, 2**40))
@example(1.0, 1)   # an axis one ulp wide: ceil(lo / step) * step rounds below lo
def test_ticks_stay_within_the_axis(lo, ulps):
    # a few ulps wide, or ulps thousandths
    hi = lo
    for _ in range(min(ulps, 64)):
        hi = math.nextafter(hi, math.inf)
    hi = max(hi, lo + ulps * 1e-3)
    ticks = _ticks(lo, hi)
    assert ticks and all(lo <= t for t in ticks)
    assert ticks == sorted(set(ticks))


@pytest.mark.parametrize("lo, hi", [(1e9, 1000000000.0000002), (1e16, 1e16 + 4)])
def test_ticks_end_where_the_step_is_below_half_an_ulp(lo, hi):
    # t + step == t from the first tick on: without the guard the loop never ends
    assert _ticks(lo, hi) == [lo]
