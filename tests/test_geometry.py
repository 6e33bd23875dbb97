import pickle
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyminor.geometry import (
    Cell,
    CellCollection,
    Interval,
    Point,
    Polyomino,
    complement,
    componentwise_less,
    inner_intervals,
    is_column_convex,
    is_convex,
    is_polyomino,
    is_row_convex,
    is_simple,
)

from oracles import (
    REFERENCE_SHAPES,
    flood_is_simple,
    naive_inner_intervals,
)


def ring(width: int, height: int, thickness: int = 1) -> set[tuple[int, int]]:
    t = thickness
    return {
        (i, j)
        for i in range(width)
        for j in range(height)
        if not (t <= i < width - t and t <= j < height - t)
    }


def staircase(steps: int, tread: int = 2) -> set[tuple[int, int]]:
    return {(s + d, s) for s in range(steps) for d in range(tread)}


def comb(teeth: int, length: int) -> set[tuple[int, int]]:
    spine = {(i, 0) for i in range(2 * teeth - 1)}
    return spine | {(2 * t, j) for t in range(teeth) for j in range(1, length + 1)}


def transposed(cells) -> set[tuple[int, int]]:
    return {(j, i) for i, j in cells}


def mirrored(cells) -> set[tuple[int, int]]:
    top = max(j for _, j in cells)
    return {(i, top - j) for i, j in cells}


def points(max_coord: int = 8) -> st.SearchStrategy[Point]:
    coord = st.integers(min_value=0, max_value=max_coord)
    return st.builds(Point, coord, coord)


def small_polyominoes() -> st.SearchStrategy[Polyomino]:
    """Random polyomino by growth: a cell list where each joins the previous."""

    def grow(seed: list[int]) -> Polyomino:
        cells = [(0, 0)]
        for step in seed:
            base = cells[step % len(cells)]
            d = ((1, 0), (-1, 0), (0, 1), (0, -1))[step % 4]
            cells.append((base[0] + d[0], base[1] + d[1]))
        mi = min(i for i, _ in cells)
        mj = min(j for _, j in cells)
        return Polyomino((i - mi, j - mj) for i, j in cells)

    return st.lists(st.integers(min_value=0, max_value=97), max_size=7).map(grow)


class TestPoint:
    def test_order_and_translate(self):
        assert Point(1, 2).translate(2, -1) == Point(3, 1)
        assert componentwise_less(Point(0, 0), Point(1, 1))
        assert not componentwise_less(Point(0, 0), Point(0, 1))
        assert not componentwise_less(Point(1, 1), Point(1, 1))

    def test_repr(self):
        assert repr(Point(2, 3)) == "(2,3)"


class TestCell:
    def test_vertices_and_edges(self):
        c = Cell(1, 1)
        assert set(c.vertices) == {
            Point(1, 1), Point(2, 1), Point(1, 2), Point(2, 2),
        }


class TestInterval:
    def test_requires_strict_corner_order(self):
        with pytest.raises(ValueError):
            Interval(Point(1, 0), Point(1, 3))
        with pytest.raises(ValueError):
            Interval(Point(2, 2), Point(1, 3))

    def test_anti_diagonal_corners(self):
        iv = Interval(Point(0, 1), Point(2, 4))
        assert iv.anti_diagonal_corners == (Point(0, 4), Point(2, 1))

    def test_cells_cover_area(self):
        iv = Interval(Point(1, 1), Point(3, 4))
        cells = iv.cells()
        assert len(cells) == iv.width * iv.height == 6
        assert Cell(1, 1) in cells and Cell(2, 3) in cells

    @given(points(), st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4))
    def test_anti_diagonal_determines_interval(self, a, w, h):
        # the interval spanned by the two anti-diagonal corners is the original
        iv = Interval(a, a.translate(w, h))
        c, d = iv.anti_diagonal_corners
        lo = Point(min(c.i, d.i), min(c.j, d.j))
        hi = Point(max(c.i, d.i), max(c.j, d.j))
        assert Interval(lo, hi) == iv


class TestConnectivity:
    def test_polyomino_rejects_disconnected(self):
        with pytest.raises(ValueError):
            Polyomino([(0, 0), (2, 0)])

    def test_polyomino_rejects_empty(self):
        with pytest.raises(ValueError):
            Polyomino([])

    def test_diagonal_is_not_connected(self):
        with pytest.raises(ValueError):
            Polyomino([(0, 0), (1, 1)])

    def test_is_polyomino_on_collection(self):
        assert is_polyomino(CellCollection([(0, 0), (0, 1)]))
        assert not is_polyomino(CellCollection([(0, 0), (0, 2)]))


class TestConvexity:
    def test_rectangles_convex(self, rect_2x3):
        assert is_convex(rect_2x3)

    def test_s_tetromino_is_row_and_column_convex(self, s_tetromino):
        # each row and each column of the skew shape is contiguous
        assert is_row_convex(s_tetromino)
        assert is_column_convex(s_tetromino)
        assert is_convex(s_tetromino)

    def test_u_pentomino_not_column_convex(self, u_pentomino):
        assert is_row_convex(u_pentomino)
        assert not is_column_convex(u_pentomino)  # column 1 holds rows {0, 2}
        assert not is_convex(u_pentomino)

    def test_frame_not_convex(self, frame):
        assert not is_convex(frame)

    def test_convex_implies_simple_on_corpus(self):
        from polyminor.enumeration import enumerate_polyominoes

        for n in range(1, 7):
            for shape in enumerate_polyominoes(n):
                if is_convex(shape):
                    assert is_simple(shape)


class TestSimplicity:
    def test_frame_not_simple(self, frame, big_frame):
        assert not is_simple(frame)
        assert not is_simple(big_frame)

    def test_small_shapes_simple(self, unit_cell, s_tetromino, u_pentomino):
        assert is_simple(unit_cell)
        assert is_simple(s_tetromino)
        assert is_simple(u_pentomino)

    def test_every_shape_up_to_5_cells_is_simple(self):
        from polyminor.enumeration import enumerate_polyominoes

        for n in range(1, 6):
            assert all(is_simple(p) for p in enumerate_polyominoes(n))

    def test_sparse_pair_is_fast(self):
        start = time.monotonic()
        simple = is_simple(CellCollection([(0, 0), (3000, 3000)]))
        assert time.monotonic() - start < 1.0
        assert simple

    def test_matches_flood_fill(self):
        shapes = [c.cells for c in REFERENCE_SHAPES]
        shapes += [ring(40, 40), ring(36, 28), ring(24, 24, 2), ring(8, 8)]
        shapes += [staircase(12), staircase(40), staircase(24, 3)]
        shapes += [comb(15, 10), comb(10, 6)]
        # a hole with an island in it, and two holes side by side
        shapes += [ring(5, 5) | {(2, 2)}, ring(5, 3) | {(2, 1)}]
        shapes += [transposed(cells) for cells in shapes] + [mirrored(cells) for cells in shapes]
        assert len(shapes) == 3 * (112 + 11)
        for cells in shapes:
            collection = CellCollection(cells)
            assert is_simple(collection) == flood_is_simple(collection), sorted(cells)


class TestComplement:
    def test_frame_complement_is_hole(self, frame):
        comp = complement(Interval(Point(0, 0), Point(3, 3)), frame)
        assert set(comp) == {Cell(1, 1)}

    def test_roundtrip(self, s_tetromino):
        bounding = s_tetromino.bounding_interval()
        comp = complement(bounding, s_tetromino)
        back = complement(bounding, comp)
        assert set(back) == set(s_tetromino)

    def test_rejects_overflow(self, frame):
        with pytest.raises(ValueError):
            complement(Interval(Point(0, 0), Point(2, 2)), frame)


class TestInnerIntervals:
    def test_unit_cell(self, unit_cell):
        ivs = inner_intervals(unit_cell)
        assert len(ivs) == 1
        assert ivs[0] == Interval(Point(0, 0), Point(1, 1))

    def test_2x2_block_count(self, block_2x2):
        assert len(inner_intervals(block_2x2)) == 9

    def test_frame_count(self, frame):
        assert len(inner_intervals(frame)) == 20

    def test_frame_excludes_hole_spanning(self, frame):
        spans = {(iv.lower_left, iv.upper_right) for iv in inner_intervals(frame)}
        assert (Point(0, 0), Point(3, 3)) not in spans
        assert (Point(1, 1), Point(2, 2)) not in spans
        assert (Point(0, 0), Point(3, 1)) in spans

    @given(small_polyominoes())
    @settings(max_examples=40, deadline=None)
    def test_matches_oracle(self, shape):
        assert inner_intervals(shape) == naive_inner_intervals(shape)

    def test_every_collection_in_3x3_box(self):
        box = [(i, j) for i in range(3) for j in range(3)]
        for mask in range(1, 1 << len(box)):
            chosen = CellCollection(c for k, c in enumerate(box) if mask >> k & 1)
            assert inner_intervals(chosen) == naive_inner_intervals(chosen)

    def test_random_collections_in_8x8_box(self):
        rng = random.Random(20150213)
        for _ in range(200):
            density = rng.random()
            chosen = CellCollection(
                (i, j) for i in range(8) for j in range(8) if rng.random() < density
            )
            assert inner_intervals(chosen) == naive_inner_intervals(chosen)

    @pytest.mark.parametrize(
        "cells",
        [
            # rings: a w x h box minus its interior
            *(
                [(i, j) for i in range(w) for j in range(h)
                 if i in (0, w - 1) or j in (0, h - 1)]
                for w, h in ((3, 3), (4, 3), (5, 5), (6, 4))
            ),
            # combs: a base row with teeth on every other column
            [(i, 0) for i in range(7)] + [(i, j) for i in (0, 2, 4, 6) for j in (1, 2)],
            [(0, j) for j in range(6)] + [(i, j) for j in (0, 3, 5) for i in (1, 2, 3)],
            # staircases, rising and falling
            [(k + d, k) for k in range(6) for d in (0, 1)],
            [(k + d, 6 - k) for k in range(6) for d in (0, 1)],
            # two blocks far apart, away from the origin
            [(7 + i, 3 + j) for i in range(2) for j in range(2)]
            + [(27 + i, 18 + j) for i in range(3) for j in range(2)],
        ],
    )
    def test_named_shapes(self, cells):
        chosen = CellCollection(cells)
        assert inner_intervals(chosen) == naive_inner_intervals(chosen)

    def test_sparse_pair_is_fast(self):
        start = time.monotonic()
        ivs = inner_intervals(CellCollection([(0, 0), (3000, 3000)]))
        assert time.monotonic() - start < 1.0
        assert ivs == (
            Interval(Point(0, 0), Point(1, 1)),
            Interval(Point(3000, 3000), Point(3001, 3001)),
        )

    def test_trusted_intervals_equal_validated(self):
        from polyminor.enumeration import enumerate_polyominoes

        shapes = [shape for n in range(1, 7) for shape in enumerate_polyominoes(n)]
        shapes += [
            CellCollection(cells)
            for cells in (ring(40, 40), comb(15, 10), [(0, 0), (300, 300)])
        ]
        assert len(shapes) == 307 + 3
        for shape in shapes:
            for iv in inner_intervals(shape):
                checked = Interval(iv.lower_left, iv.upper_right)
                assert iv == checked and hash(iv) == hash(checked)
                assert repr(iv) == repr(checked)
                assert pickle.dumps(iv) == pickle.dumps(checked)
                assert pickle.loads(pickle.dumps(iv)) == checked

    def test_public_constructor_still_checks(self):
        with pytest.raises(ValueError, match="degenerate"):
            Interval(Point(1, 1), Point(1, 2))
        with pytest.raises(ValueError, match="negative"):
            Interval(Point(-1, 0), Point(1, 1))

    @given(small_polyominoes())
    @settings(max_examples=40, deadline=None)
    def test_translation_equivariance(self, shape):
        moved = Polyomino(shape.translate(3, 5))
        got = {
            (iv.lower_left.translate(-3, -5), iv.upper_right.translate(-3, -5))
            for iv in inner_intervals(moved)
        }
        assert got == {(iv.lower_left, iv.upper_right) for iv in inner_intervals(shape)}


class TestCollection:
    def test_canonicalization(self):
        a = Polyomino([(0, 0), (1, 0)])
        b = Polyomino([(4, 7), (5, 7)]).normalized()
        assert a == b
        assert a.canonical_key() == b.canonical_key()

    def test_immutability(self, unit_cell):
        with pytest.raises(AttributeError):
            unit_cell.cells = frozenset()

    def test_vertex_and_edge_sets(self, domino_h):
        assert len(domino_h.vertex_set) == 6

    def test_bounding_interval(self, s_tetromino):
        bi = s_tetromino.bounding_interval()
        assert bi == Interval(Point(0, 0), Point(3, 2))
