import pytest

from polyminor.documents import (
    ParseError,
    PolyominoDocument,
    parse_document,
    render_ascii,
    serialize_document,
)
from polyminor.geometry import Cell, CellCollection, Interval, Point

FRAME_DOC = """\
name frame
bounding 0 0 3 3
cell 0 0
cell 1 0
cell 2 0
cell 0 1
cell 2 1
cell 0 2
cell 1 2
cell 2 2
hole 1 1
"""


class TestParsing:
    def test_full_document(self):
        doc = parse_document(FRAME_DOC)
        assert doc.name == "frame"
        assert doc.bounding == Interval(Point(0, 0), Point(3, 3))
        assert len(doc.cells) == 8
        assert doc.holes == (Cell(1, 1),)

    def test_comments_and_blanks_ignored(self):
        doc = parse_document("# header\n\ncell 0 0  # trailing\n\n")
        assert doc.cells == (Cell(0, 0),)

    def test_parse_polyomino_drops_metadata(self):
        got = parse_document(FRAME_DOC).collection()
        assert isinstance(got, CellCollection)
        assert len(got) == 8

    def test_multiword_name(self):
        doc = parse_document("name big frame\ncell 0 0\n")
        assert doc.name == "big frame"


class TestParseErrors:
    def test_unknown_directive(self):
        with pytest.raises(ParseError) as exc:
            parse_document("cell 0 0\nsquare 1 1\n")
        assert exc.value.line == 2
        assert "unknown directive" in str(exc.value)

    def test_wrong_arity(self):
        with pytest.raises(ParseError) as exc:
            parse_document("cell 0\n")
        assert exc.value.line == 1
        assert "expects 2 integers" in str(exc.value)

    def test_non_integer(self):
        with pytest.raises(ParseError) as exc:
            parse_document("cell a 0\n")
        assert "'a' is not an integer" in str(exc.value)

    def test_negative_coordinate(self):
        with pytest.raises(ParseError) as exc:
            parse_document("cell -1 0\n")
        assert "negative" in str(exc.value)

    def test_duplicate_cell(self):
        with pytest.raises(ParseError) as exc:
            parse_document("cell 0 0\ncell 0 0\n")
        assert exc.value.line == 2

    def test_no_cells(self):
        with pytest.raises(ParseError) as exc:
            parse_document("name empty\n")
        assert "no cells" in str(exc.value)

    def test_cell_and_hole_overlap(self):
        with pytest.raises(ParseError) as exc:
            parse_document("cell 0 0\nhole 0 0\n")
        assert "both cell and hole" in str(exc.value)

    def test_bad_bounding(self):
        with pytest.raises(ParseError) as exc:
            parse_document("bounding 2 2 1 1\ncell 0 0\n")
        assert exc.value.line == 1


class TestSerialization:
    def test_round_trip(self):
        doc = parse_document(FRAME_DOC)
        assert parse_document(serialize_document(doc)) == doc

    def test_canonical_output(self):
        messy = "cell 2 0\ncell 0 0\ncell 1 0\n"
        doc = parse_document(messy)
        assert serialize_document(doc) == "cell 0 0\ncell 1 0\ncell 2 0\n"

    def test_serialize_includes_metadata(self):
        doc = PolyominoDocument(
            "tiny", (Cell(0, 0),), Interval(Point(0, 0), Point(1, 1)), ()
        )
        assert serialize_document(doc) == "name tiny\nbounding 0 0 1 1\ncell 0 0\n"


class TestRender:
    def test_single_cell(self):
        assert render_ascii(CellCollection([(0, 0)])) == "+-+\n|#|\n+-+"

    def test_domino(self):
        got = render_ascii(CellCollection([(0, 0), (1, 0)]))
        assert got == "+-+-+\n|#|#|\n+-+-+"

    def test_frame_hole_is_blank(self, frame):
        got = render_ascii(frame)
        lines = got.splitlines()
        assert len(lines) == 7
        # center cell row shows a gap between the ring cells
        assert "#" in lines[3]
        center = lines[3][3]
        assert center == " "

    def test_render_translation_invariant_shape(self):
        a = render_ascii(CellCollection([(0, 0), (0, 1)]))
        b = render_ascii(CellCollection([(4, 2), (4, 3)]).normalized())
        assert a == b
