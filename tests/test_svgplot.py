import xml.etree.ElementTree as ET

import pytest

from bcops.metrics import ABSTENTION_RATE, CLASS_COVERAGE, MEAN_COVERAGE, SummaryRow
from bcops.svgplot import render_lineplot, _y_px

SVG_NS = "{http://www.w3.org/2000/svg}"


def _coverage_rows(phis=(0.0, 0.5, 1.0), classes=(1, 2), value=0.95):
    return [
        SummaryRow(phi=p, metric_name=CLASS_COVERAGE, class_label=k, mean=value, sd=0.0, n_reps=3)
        for p in phis
        for k in classes
    ]


def _parse(path):
    return ET.parse(path).getroot()


def test_output_is_wellformed_xml_with_declaration(tmp_path):
    path = tmp_path / "plot.svg"
    render_lineplot(_coverage_rows(), CLASS_COVERAGE, path, alpha=0.05)
    text = path.read_text()
    assert text.startswith("<?xml")
    root = _parse(path)
    assert root.tag == f"{SVG_NS}svg"


def test_two_class_coverage_has_two_polylines_and_reference(tmp_path):
    path = tmp_path / "plot.svg"
    render_lineplot(_coverage_rows(), CLASS_COVERAGE, path, alpha=0.05)
    root = _parse(path)
    polylines = root.findall(f".//{SVG_NS}polyline")
    assert len(polylines) == 2
    ref_y = f"{_y_px(0.95):.1f}"
    dashed = [
        el for el in root.findall(f".//{SVG_NS}line")
        if el.get("stroke-dasharray") and el.get("y1") == ref_y
    ]
    assert len(dashed) == 1


def test_constant_metric_draws_horizontal_polyline(tmp_path):
    path = tmp_path / "plot.svg"
    rows = [
        SummaryRow(phi=p, metric_name=ABSTENTION_RATE, class_label=None, mean=0.95, sd=0.0, n_reps=2)
        for p in (0.0, 0.25, 0.5, 0.75, 1.0)
    ]
    render_lineplot(rows, ABSTENTION_RATE, path, alpha=0.05)
    root = _parse(path)
    (polyline,) = root.findall(f".//{SVG_NS}polyline")
    ys = {pt.split(",")[1] for pt in polyline.get("points").split()}
    assert ys == {f"{_y_px(0.95):.2f}"}


def test_abstention_plot_has_no_reference_line(tmp_path):
    path = tmp_path / "plot.svg"
    rows = [
        SummaryRow(phi=p, metric_name=ABSTENTION_RATE, class_label=None, mean=0.5, sd=0.0, n_reps=2)
        for p in (0.0, 1.0)
    ]
    render_lineplot(rows, ABSTENTION_RATE, path, alpha=0.05)
    root = _parse(path)
    assert not [el for el in root.findall(f".//{SVG_NS}line") if el.get("stroke-dasharray")]


def test_tick_labels_every_tenth(tmp_path):
    path = tmp_path / "plot.svg"
    render_lineplot(_coverage_rows(), CLASS_COVERAGE, path, alpha=0.05)
    texts = {el.text for el in _parse(path).findall(f".//{SVG_NS}text")}
    for i in range(11):
        assert f"{i / 10:.1f}" in texts


def test_legend_names_classes(tmp_path):
    # the legend names each class by the label its rows carry, in class order
    path = tmp_path / "plot.svg"
    render_lineplot(_coverage_rows(classes=(2, 1)), CLASS_COVERAGE, path, alpha=0.05)
    texts = [el.text for el in _parse(path).findall(f".//{SVG_NS}text")]
    legend = [t for t in texts if t.startswith("class ")]
    assert legend == ["class 1", "class 2"]


def test_mean_coverage_single_polyline(tmp_path):
    path = tmp_path / "plot.svg"
    rows = [
        SummaryRow(phi=p, metric_name=MEAN_COVERAGE, class_label=None, mean=0.9, sd=0.0, n_reps=2)
        for p in (0.0, 0.5)
    ]
    render_lineplot(rows, MEAN_COVERAGE, path, alpha=0.05)
    assert len(_parse(path).findall(f".//{SVG_NS}polyline")) == 1


def test_no_rows_error(tmp_path):
    with pytest.raises(ValueError, match="no summary rows"):
        render_lineplot(_coverage_rows(), ABSTENTION_RATE, tmp_path / "x.svg", alpha=0.05)
