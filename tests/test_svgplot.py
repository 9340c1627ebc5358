import math
import xml.etree.ElementTree as ET

import pytest

from b5gcell.svgplot import line_chart

NS = "{http://www.w3.org/2000/svg}"


def _render(series):
    svg = line_chart(series, title="t", x_label="x", y_label="y")
    return svg, ET.fromstring(svg)


def test_output_is_wellformed_svg():
    svg, root = _render([("a", [0, 1, 2], [1.0, 2.0, 3.0])])
    assert root.tag == f"{NS}svg"
    assert svg.startswith("<svg ")


def test_gaps_split_polylines():
    _, root = _render([("a", [0, 1, 2, 3, 4], [1.0, 2.0, math.nan, 3.0, 4.0])])
    polylines = root.findall(f"{NS}polyline")
    assert len(polylines) == 2


def test_two_series_get_two_colors():
    _, root = _render([("a", [0, 1], [1.0, 2.0]), ("b", [0, 1], [2.0, 1.0])])
    polylines = root.findall(f"{NS}polyline")
    strokes = {p.get("stroke") for p in polylines}
    assert len(strokes) == 2


def test_byte_stable():
    series = [("a", [0, 1, 2], [1.5, 2.5, 2.0])]
    first = line_chart(series, "t", "x", "y")
    second = line_chart(series, "t", "x", "y")
    assert first == second


def test_empty_series_rejected():
    with pytest.raises(ValueError):
        line_chart([("a", [], [])], "t", "x", "y")
    with pytest.raises(ValueError):
        line_chart([("a", [0, 1], [math.nan, math.nan])], "t", "x", "y")


def test_flat_series_still_renders():
    svg, _ = _render([("a", [0, 1], [5.0, 5.0])])
    assert "polyline" in svg
