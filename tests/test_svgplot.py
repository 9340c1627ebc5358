import math
import xml.etree.ElementTree as ET

import pytest

from b5gcell.svgplot import line_chart

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


def test_flat_series_still_renders():
    svg, _ = _render([0, 1], [("a", [5.0, 5.0])])
    assert "polyline" in svg


def test_series_sharing_xs_keep_their_own_gaps():
    xs = [0, 1, 2, 3, 4, 5]
    _, root = _render(xs, [("a", [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
                           ("b", [6.0, 5.0, math.nan, math.nan, 2.0, 1.0])])
    points = [len(p.get("points").split()) for p in root.findall(f"{NS}polyline")]
    assert points == [6, 2, 2]
