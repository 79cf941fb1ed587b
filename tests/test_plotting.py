"""SVG scatter rendering."""

import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from delius.errors import ConfigError, DataError
from delius.plotting import DEFAULT_PALETTE, ScatterSpec, _scale, render_scatter

SVG_NS = "{http://www.w3.org/2000/svg}"


def _render(points, labels, **kwargs):
    return render_scatter(
        ScatterSpec(points=np.asarray(points, float), labels=np.asarray(labels), **kwargs)
    )


def test_svg_well_formed_with_one_circle_per_point():
    points = [[0.0, 0.0], [1.0, 1.0], [2.0, 0.5]]
    svg = _render(points, [0, 1, 0])
    root = ET.fromstring(svg)
    assert root.tag == f"{SVG_NS}svg"
    circles = root.findall(f"{SVG_NS}circle")
    assert len(circles) == 3
    colors = {c.get("fill") for c in circles}
    assert colors == {DEFAULT_PALETTE[0], DEFAULT_PALETTE[1]}


def test_svg_byte_deterministic():
    rng = np.random.default_rng(0)
    points = rng.normal(size=(50, 2))
    labels = rng.integers(0, 5, size=50)
    assert _render(points, labels) == _render(points, labels)


def test_svg_coordinates_inside_canvas():
    rng = np.random.default_rng(1)
    points = rng.normal(size=(40, 2)) * 100.0
    svg = _render(points, np.zeros(40, dtype=int), width=400, height=300)
    root = ET.fromstring(svg)
    for c in root.findall(f"{SVG_NS}circle"):
        assert 0.0 <= float(c.get("cx")) <= 400.0
        assert 0.0 <= float(c.get("cy")) <= 300.0


def test_svg_y_axis_points_up():
    # The higher data point must land nearer the top of the canvas,
    # which in SVG means a smaller cy.
    points = [[0.0, 0.0], [0.0, 10.0]]
    svg = _render(points, [0, 0])
    root = ET.fromstring(svg)
    cy = [float(c.get("cy")) for c in root.findall(f"{SVG_NS}circle")]
    assert cy[1] < cy[0]


def test_svg_single_point_renders():
    svg = _render([[5.0, 5.0]], [0])
    root = ET.fromstring(svg)
    circles = root.findall(f"{SVG_NS}circle")
    assert len(circles) == 1
    # degenerate span still lands strictly inside the canvas
    assert 0.0 < float(circles[0].get("cx")) < 800.0


def test_svg_palette_wraps_for_many_clusters():
    n = len(DEFAULT_PALETTE) + 5
    points = [[float(i), 0.0] for i in range(n)]
    svg = _render(points, list(range(n)))
    root = ET.fromstring(svg)
    circles = root.findall(f"{SVG_NS}circle")
    assert circles[0].get("fill") == circles[len(DEFAULT_PALETTE)].get("fill")


def test_svg_has_white_background_rect():
    svg = _render([[0.0, 0.0], [1.0, 1.0]], [0, 1])
    root = ET.fromstring(svg)
    rects = root.findall(f"{SVG_NS}rect")
    assert len(rects) == 1
    assert rects[0].get("fill") == "#ffffff"


def test_svg_fixed_decimal_places():
    svg = _render([[0.123456, 7.654321], [1.0, 2.0]], [0, 0])
    for line in svg.splitlines():
        if "<circle" in line:
            cx = line.split('cx="')[1].split('"')[0]
            assert len(cx.split(".")[1]) == 3


def test_scatter_rejects_bad_inputs():
    with pytest.raises(DataError, match="point 1"):
        _render([[0.0, 0.0], [np.nan, 1.0]], [0, 0])
    with pytest.raises(DataError):
        _render([[0.0, 0.0, 0.0]], [0])
    with pytest.raises(DataError):
        _render([[0.0, 0.0]], [0, 1])
    with pytest.raises(DataError):
        _render([[0.0, 0.0]], [-1])
    with pytest.raises(ConfigError):
        _render([[0.0, 0.0]], [0], palette=())
    with pytest.raises(ConfigError):
        _render([[0.0, 0.0]], [0], width=0)
    with pytest.raises(ConfigError):
        _render([[0.0, 0.0]], [0], radius=0.0)


def _frozen_scale(values, out_span, flip):
    # The mapping before it worked in power-of-two units, kept to pin its bits.
    lo = float(values.min())
    hi = float(values.max())
    span = hi - lo
    margin = 0.05 * span if span > 0.0 else 0.5
    lo -= margin
    hi += margin
    scale = out_span / (hi - lo)

    def mapper(v):
        t = (v - lo) * scale
        return out_span - t if flip else t

    return mapper


@pytest.mark.parametrize("flip", [False, True])
def test_positions_bit_equal_to_frozen_mapping_over_ordinary_spans(flip):
    rng = np.random.default_rng(5)
    for exponent in range(-250, 251, 10):
        values = rng.normal(size=64) * 10.0**exponent + rng.normal() * 10.0**exponent
        ours, theirs = _scale(values, 800.0, flip), _frozen_scale(values, 800.0, flip)
        assert [ours(v) for v in values] == [theirs(v) for v in values]


@pytest.mark.parametrize(
    "column",
    [
        [1e17, 1e17],  # a 0.5 margin is absorbed from 2**53 up
        [-1e308, 1e308],  # the span overflows
        [-1.7976931348623157e308, -1.7976931348623157e308],
        [0.0, 5e-324],  # the scale overflows
        [1e-310, 2e-310],
        [0.0, 1e-306],
        [1e300, float(np.nextafter(1e300, np.inf))],
    ],
)
def test_every_finite_point_lands_on_the_canvas(column):
    points = np.column_stack([column, [0.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        svg = _render(points, [0, 1], width=400, height=300)
    for c in ET.fromstring(svg).findall(f"{SVG_NS}circle"):
        assert 0.0 <= float(c.get("cx")) <= 400.0
        assert 0.0 <= float(c.get("cy")) <= 300.0
    if column[0] != column[1]:
        cx = [float(c.get("cx")) for c in ET.fromstring(svg).findall(f"{SVG_NS}circle")]
        assert cx[0] < cx[1]
