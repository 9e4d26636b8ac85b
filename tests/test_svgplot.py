"""Tests for the dependency-free SVG renderer."""

import hashlib
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from xml.sax import saxutils

import pytest

from hyperlap import svgplot
from hyperlap.svgplot import line_plot


def _tags(text, name):
    root = ET.fromstring(text)
    return [el for el in root.iter() if el.tag.endswith(name)]


def test_basic_document_structure():
    svg = line_plot([("one", [0.0, 1.0, 2.0], [0.0, 1.0, 4.0])], title="t")
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    assert root.attrib["width"] == "960"
    assert root.attrib["height"] == "640"
    assert len(_tags(svg, "polyline")) == 1
    assert svg.endswith("\n")


def test_one_polyline_per_series():
    series = [
        ("a", [0.0, 1.0], [0.0, 1.0]),
        ("b", [0.0, 1.0], [1.0, 0.0]),
        ("c", [0.0, 1.0], [0.5, 0.5]),
    ]
    svg = line_plot(series)
    assert len(_tags(svg, "polyline")) == 3


def test_points_stay_inside_canvas():
    svg = line_plot([("s", [0.0, 10.0, 20.0], [-5.0, 100.0, 3.0])])
    for poly in _tags(svg, "polyline"):
        for pair in poly.attrib["points"].split():
            x, y = map(float, pair.split(","))
            assert 0.0 <= x <= 960.0
            assert 0.0 <= y <= 640.0


def test_labels_are_escaped():
    svg = line_plot(
        [("a<b&c", [0.0, 1.0], [0.0, 1.0])],
        title="x<y",
        xlabel="p&q",
        ylabel='"r"',
    )
    ET.fromstring(svg)  # would raise on raw < or &
    assert "a&lt;b&amp;c" in svg


@pytest.mark.parametrize(
    "text", ["", "&amp;", "a<b>&c", "\"quoted\" and 'single'", "Pólya ≤ Weyl — λ<1", "&&<<>>"]
)
def test_escape_matches_saxutils(text):
    assert svgplot.escape(text) == saxutils.escape(text)


def test_degenerate_ranges_are_padded():
    svg = line_plot([("flat", [1.0, 1.0], [2.0, 2.0])])
    assert len(_tags(svg, "polyline")) == 1


def test_deterministic_output():
    series = [("s", [0.0, 0.5, 1.0], [0.3, 0.1, 0.9])]
    assert line_plot(series, title="t") == line_plot(series, title="t")


def test_rejects_empty_input():
    with pytest.raises(ValueError):
        line_plot([])
    with pytest.raises(ValueError):
        line_plot([("s", [], [])])


def test_pinned_figure_bytes():
    """Every axis, tick, label, title and legend element keeps its bytes."""
    svg = line_plot(
        [("a<b&c", [0.0, 1.0, 2.5], [0.0, 4.0, 1.0]), ("line", [0.0, 2.5], [1.0, 1.0])],
        title="x<y",
        xlabel="p&q",
        ylabel="r",
    )
    assert len(svg) == 3045
    assert hashlib.sha256(svg.encode()).hexdigest() == (
        "ae6e6303a74ba399af36d8d017d9ec35d3ec10c9d8c31d490ba3676da313c318"
    )


@pytest.mark.parametrize(
    "series",
    [
        "[('a', [1e17, 1e17 + 16], [0, 1])]",
        "[('a', [1e300, 1e300], [0, 1])]",
        "[('a', [0, 1], [1e300, 1e300])]",
    ],
)
def test_ranges_past_the_spacing_of_doubles_terminate(series):
    """A tick step below half the spacing of doubles once stalled v += step
    forever.  Run in a subprocess, so that a regression fails here instead
    of stalling the suite."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(svgplot.__file__)))
    code = (
        "import xml.etree.ElementTree as ET\n"
        "from hyperlap.svgplot import line_plot\n"
        f"svg = line_plot({series})\n"
        "ET.fromstring(svg)\n"
        "assert 'nan' not in svg and 'inf' not in svg\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        timeout=30,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr.decode()


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_rejects_points_that_are_not_finite(bad):
    with pytest.raises(ValueError, match="every point must be finite"):
        line_plot([("s", [0.0, bad], [0.0, 1.0])])
    with pytest.raises(ValueError, match="every point must be finite"):
        line_plot([("s", [0.0, 1.0], [bad, 1.0])])


def test_rejects_a_span_too_wide_to_scale():
    """Scaled to the canvas, a span near the largest double overflows to inf
    coordinates."""
    for series in ([("s", [0.0, 1e307], [0.0, 1.0])], [("s", [0.0, 1.0], [-1e308, 1e308])]):
        with pytest.raises(ValueError, match="too wide to draw"):
            line_plot(series)


@pytest.mark.parametrize("hi", [5e-324, 3e-323])
def test_subnormal_spans_draw(hi):
    """A span whose tick step underflows (span / 6 to 0 at 5e-324, the step
    10^-324 to 0 at 3e-323) is padded as a flat one, on either axis."""
    for series in ([("a", [0.0, hi], [0.0, 1.0])], [("a", [0.0, 1.0], [0.0, hi])]):
        svg = line_plot(series)
        (poly,) = _tags(svg, "polyline")
        assert len(poly.attrib["points"].split()) == 2
        assert "nan" not in svg and "inf" not in svg


def test_rejects_unpaired_points():
    """An x without its y once moved the axis and drew nothing."""
    with pytest.raises(ValueError, match="series 'a' has 3 xs and 2 ys"):
        line_plot([("a", [0.0, 1.0, 100.0], [0.0, 1.0])])
    with pytest.raises(ValueError, match="series 'b' has 1 xs and 2 ys"):
        line_plot([("a", [0.0], [0.0]), ("b", [0.0], [0.0, 1.0])])
