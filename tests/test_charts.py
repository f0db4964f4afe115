import xml.etree.ElementTree as ET

import pytest

from pumpkit import (
    ExtractionMode,
    Marker,
    Span,
    ascii_chart,
    decomposition_annotations,
    extract,
    minimal_accepting_path,
    svg_chart,
)


class TestAsciiChart:
    def test_small_profile_golden(self):
        chart = ascii_chart((1, 2, 3, 2, 1, 0))
        assert chart == (
            "stack profile: 6 positions, height 0..3\n"
            "3 |  █   \n"
            "2 | ███  \n"
            "1 |█████ \n"
            "0 +------\n"
        )

    def test_deterministic(self):
        prof = (1, 2, 3, 2, 1, 0)
        assert ascii_chart(prof) == ascii_chart(prof)

    def test_downsampling_kicks_in_past_400(self):
        prof = tuple([1] + [2, 1] * 300)  # 601 positions
        chart = ascii_chart(prof)
        header = chart.splitlines()[0]
        assert "max-pooled" in header
        body_rows = [l for l in chart.splitlines() if "|" in l]
        assert all(len(r.split("|", 1)[1]) <= 400 for r in body_rows)

    def test_no_downsampling_at_400(self):
        prof = tuple([1] * 0 + [i % 2 + 1 for i in range(400)])
        # not a unit-step profile, but the chart does not care
        chart = ascii_chart(prof)
        assert "max-pooled" not in chart.splitlines()[0]

    def test_vertical_scaling(self):
        prof = tuple(range(1, 101)) + tuple(range(100, 0, -1))
        chart = ascii_chart(prof)
        rows = [l for l in chart.splitlines() if "|" in l]
        assert len(rows) == 20
        assert rows[0].strip().startswith("100")

    def test_markers_and_spans(self):
        chart = ascii_chart(
            (1, 2, 3, 2, 1, 0),
            markers=[Marker(0, "i"), Marker(2, "j"), Marker(4, "k")],
            spans=[Span(0, 2, "u"), Span(2, 6, "v")],
        )
        lines = chart.splitlines()
        assert lines[-2].endswith("i j k")
        assert lines[-1].endswith("uuvvvv")

    def test_marker_rows_are_separate(self):
        chart = ascii_chart(
            (1, 2, 1),
            markers=[Marker(0, "i"), Marker(1, "g", row=1)],
        )
        lines = chart.splitlines()
        assert lines[-2].endswith("i")
        assert lines[-1].endswith(" g")

    def test_empty_profile_rejected(self):
        with pytest.raises(ValueError):
            ascii_chart(())


class TestSvgChart:
    def test_well_formed_xml(self):
        svg = svg_chart((1, 2, 3, 2, 1, 0), title="demo")
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")

    def test_never_downsampled(self):
        prof = tuple([1] + [2, 1] * 500)
        svg = svg_chart(prof)
        polyline = [l for l in svg.splitlines() if "polyline" in l][0]
        points = polyline.split('points="')[1].split('"')[0].split()
        assert len(points) == len(prof)

    def test_annotations_render(self):
        svg = svg_chart(
            (1, 2, 3, 2, 1, 0),
            markers=[Marker(2, "j")],
            spans=[Span(0, 5, "u")],
            title="with <escapes> & such",
        )
        root = ET.fromstring(svg)
        texts = [el.text for el in root.iter() if el.tag.endswith("text")]
        assert "j" in texts
        assert "u" in texts
        assert "with <escapes> & such" in texts
        assert '<text x="46" y="16">with &lt;escapes&gt; &amp; such</text>' in svg.splitlines()

    def test_deterministic(self):
        prof = (1, 2, 3, 2, 1, 0)
        assert svg_chart(prof) == svg_chart(prof)


class TestAnnotationBuilder:
    def test_case2_layout(self, dyck1):
        res = extract(dyck1, "(((())))", mode=ExtractionMode.BEST_EFFORT)
        markers, spans = decomposition_annotations(res.decomposition, res.path)
        by_char = {m.char for m in markers}
        assert by_char == {"i", "j", "k", "g", "h"}
        labels = [s.char for s in spans]
        assert labels == ["u", "v", "x", "y", "z"]
        # spans tile the whole profile axis
        assert spans[0].start == 0
        assert spans[-1].end == len(res.path.profile)
        for a, b in zip(spans, spans[1:]):
            assert a.end == b.start

    def test_case1_layout(self, reg_ab):
        res = extract(reg_ab, "ab" * 17, mode=ExtractionMode.STRICT)
        markers, spans = decomposition_annotations(res.decomposition, res.path)
        assert {m.char for m in markers} == {"i", "j"}
        assert [s.char for s in spans] == ["u", "v", "x"]
        assert spans[-1].end == len(res.path.profile)

    def test_annotated_chart_golden(self, dyck1):
        res = extract(dyck1, "(((())))", mode=ExtractionMode.BEST_EFFORT)
        markers, spans = decomposition_annotations(res.decomposition, res.path)
        path = minimal_accepting_path(dyck1, "(((())))")
        chart = ascii_chart(path.profile, markers, spans)
        assert chart == (
            "stack profile: 10 positions, height 0..5\n"
            "5 |    █     \n"
            "4 |   ███    \n"
            "3 |  █████   \n"
            "2 | ███████  \n"
            "1 |█████████ \n"
            "0 +----------\n"
            "   i   j   k\n"
            "    gh   hg\n"
            "   uvxxxxyzzz\n"
        )
