"""Cells, intervals, and polyominoes on the nonnegative integer lattice.

A lattice point is written (i, j) with i the column and j the row.  A cell
is the closed unit square named by its lower-left corner, and a collection
of cells is connected when any two of its cells are joined by a chain of
edge-sharing cells.  Everything here is an immutable value and every
function is pure.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

__all__ = [
    "Point",
    "Cell",
    "Interval",
    "CellCollection",
    "Polyomino",
    "componentwise_less",
    "is_polyomino",
    "is_row_convex",
    "is_column_convex",
    "is_convex",
    "is_simple",
    "complement",
    "inner_intervals",
]


class Point(NamedTuple):
    """Lattice point; plain tuple comparison gives the canonical sort order."""

    i: int
    j: int

    def translate(self, di: int, dj: int) -> "Point":
        return Point(self.i + di, self.j + dj)

    def __repr__(self) -> str:
        return f"({self.i},{self.j})"


def componentwise_less(a: Point, b: Point) -> bool:
    """Strict partial order under which [a, b] forms an interval.

    Both coordinates must strictly increase; this is weaker than tuple
    comparison, which is only used for canonical sorting.
    """
    return a.i < b.i and a.j < b.j


class Cell(NamedTuple):
    """Unit cell identified by its lower-left corner."""

    i: int
    j: int

    @property
    def lower_left(self) -> Point:
        return Point(self.i, self.j)

    @property
    def vertices(self) -> tuple[Point, Point, Point, Point]:
        i, j = self
        return (Point(i, j), Point(i + 1, j), Point(i, j + 1), Point(i + 1, j + 1))

    def neighbors(self) -> tuple["Cell", "Cell", "Cell", "Cell"]:
        i, j = self
        return (Cell(i - 1, j), Cell(i + 1, j), Cell(i, j - 1), Cell(i, j + 1))

    def __repr__(self) -> str:
        return f"Cell({self.i},{self.j})"


@dataclass(frozen=True)
class Interval:
    """Axis-aligned rectangle [a, b] spanned by two diagonal corners a < b."""

    lower_left: Point
    upper_right: Point

    def __post_init__(self) -> None:
        a, b = self.lower_left, self.upper_right
        if not isinstance(a, Point):
            object.__setattr__(self, "lower_left", Point(*a))
        if not isinstance(b, Point):
            object.__setattr__(self, "upper_right", Point(*b))
        a, b = self.lower_left, self.upper_right
        if a.i < 0 or a.j < 0:
            raise ValueError(f"interval corner {a} has a negative coordinate")
        if not componentwise_less(a, b):
            raise ValueError(f"degenerate interval: {a} !< {b} componentwise")

    @classmethod
    def _of(cls, a: Point, b: Point) -> "Interval":
        """Trusted constructor: a and b are Points, a nonnegative and a < b."""
        self = object.__new__(cls)
        object.__setattr__(self, "lower_left", a)
        object.__setattr__(self, "upper_right", b)
        return self

    @property
    def anti_diagonal_corners(self) -> tuple[Point, Point]:
        """The two corners ((i, l), (k, j)) completing the corner rectangle."""
        a, b = self.lower_left, self.upper_right
        return (Point(a.i, b.j), Point(b.i, a.j))

    @property
    def width(self) -> int:
        return self.upper_right.i - self.lower_left.i

    @property
    def height(self) -> int:
        return self.upper_right.j - self.lower_left.j

    def cells(self) -> tuple[Cell, ...]:
        a, b = self.lower_left, self.upper_right
        return tuple(
            Cell(i, j) for i in range(a.i, b.i) for j in range(a.j, b.j)
        )

    def __repr__(self) -> str:
        return f"[{self.lower_left},{self.upper_right}]"


class CellCollection:
    """A finite set of cells with nonnegative coordinates, of any shape."""

    __slots__ = ("cells",)

    cells: frozenset[Cell]

    def __init__(self, cells: Iterable[Cell | tuple[int, int]]) -> None:
        normalized = frozenset(Cell(int(i), int(j)) for i, j in cells)
        for c in normalized:
            if c.i < 0 or c.j < 0:
                raise ValueError(f"cell {c} has a negative coordinate")
        object.__setattr__(self, "cells", normalized)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self) -> tuple:
        return (type(self), (self.cells,))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CellCollection):
            return NotImplemented
        return self.cells == other.cells

    def __hash__(self) -> int:
        return hash(self.cells)

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self) -> Iterator[Cell]:
        return iter(self.cells_sorted)

    def __contains__(self, cell: object) -> bool:
        return cell in self.cells

    @property
    def cells_sorted(self) -> tuple[Cell, ...]:
        """Cells in the canonical lexicographic (i, j) order."""
        return tuple(sorted(self.cells))

    @property
    def vertex_set(self) -> frozenset[Point]:
        return frozenset(v for c in self.cells for v in c.vertices)

    def bounding_interval(self) -> Interval:
        if not self.cells:
            raise ValueError("empty collection has no bounding interval")
        lo_i = min(c.i for c in self.cells)
        lo_j = min(c.j for c in self.cells)
        hi_i = max(c.i for c in self.cells)
        hi_j = max(c.j for c in self.cells)
        return Interval(Point(lo_i, lo_j), Point(hi_i + 1, hi_j + 1))

    def translate(self, di: int, dj: int) -> "CellCollection":
        return type(self)(Cell(c.i + di, c.j + dj) for c in self.cells)

    def normalized(self) -> "CellCollection":
        """Translate so the minimal occupied column and row are both zero."""
        if not self.cells:
            return self
        lo_i = min(c.i for c in self.cells)
        lo_j = min(c.j for c in self.cells)
        return self.translate(-lo_i, -lo_j)

    def canonical_key(self) -> tuple[Cell, ...]:
        """Translation-invariant identity used for deduplication."""
        return self.normalized().cells_sorted

    def __repr__(self) -> str:
        body = ",".join(f"({c.i},{c.j})" for c in self.cells_sorted)
        return f"{type(self).__name__}[{body}]"


def _connected(cells: frozenset[Cell]) -> bool:
    if not cells:
        return False
    start = next(iter(cells))
    seen = {start}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for nb in cur.neighbors():
            if nb in cells and nb not in seen:
                seen.add(nb)
                queue.append(nb)
    return len(seen) == len(cells)


class Polyomino(CellCollection):
    """Nonempty edge-connected cell collection; connectivity checked on build."""

    __slots__ = ()

    def __init__(self, cells: Iterable[Cell | tuple[int, int]]) -> None:
        super().__init__(cells)
        if not self.cells:
            raise ValueError("a polyomino must contain at least one cell")
        if not _connected(self.cells):
            raise ValueError("cells are not edge-connected")


def is_polyomino(collection: CellCollection) -> bool:
    """True when the collection is nonempty and edge-connected."""
    if not collection.cells:
        raise ValueError("emptiness is not a polyomino question")
    return _connected(collection.cells)


def is_row_convex(collection: CellCollection) -> bool:
    """Every row of the collection is a contiguous run of cells."""
    rows: dict[int, list[int]] = {}
    for c in collection.cells:
        rows.setdefault(c.j, []).append(c.i)
    return all(max(xs) - min(xs) + 1 == len(set(xs)) for xs in rows.values())


def is_column_convex(collection: CellCollection) -> bool:
    """Every column of the collection is a contiguous run of cells."""
    cols: dict[int, list[int]] = {}
    for c in collection.cells:
        cols.setdefault(c.i, []).append(c.j)
    return all(max(ys) - min(ys) + 1 == len(set(ys)) for ys in cols.values())


def is_convex(collection: CellCollection) -> bool:
    """Row and column convex at once."""
    return is_row_convex(collection) and is_column_convex(collection)


def is_simple(collection: CellCollection) -> bool:
    """True when the collection encloses no hole.

    A non-member cell whose row or column holds no member reaches the
    outside along it.  So the flood fill covers only the non-member cells
    of the grid of occupied rows times occupied columns, starting from
    those with a neighbour off that grid: the collection is simple when
    it reaches all of them.
    """
    if not collection.cells:
        raise ValueError("emptiness is not a simplicity question")
    members = {(c.i, c.j) for c in collection.cells}
    rows = {i for i, _ in members}
    columns = {j for _, j in members}
    inside = {(i, j) for i in rows for j in columns} - members

    def neighbours(i: int, j: int) -> tuple[tuple[int, int], ...]:
        return ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1))

    seen = {
        cell
        for cell in inside
        if any(i not in rows or j not in columns for i, j in neighbours(*cell))
    }
    queue = deque(seen)
    while queue:
        for cell in neighbours(*queue.popleft()):
            if cell in inside and cell not in seen:
                seen.add(cell)
                queue.append(cell)
    return len(seen) == len(inside)


def complement(bounding: Interval, inner: CellCollection) -> CellCollection:
    """Cells of the bounding interval not occupied by the inner collection."""
    box = set(bounding.cells())
    if not inner.cells <= box:
        stray = sorted(inner.cells - box)
        raise ValueError(f"cells {stray} fall outside the bounding interval")
    return CellCollection(box - inner.cells)


def inner_intervals(collection: CellCollection) -> tuple[Interval, ...]:
    """All intervals whose every cell belongs to the collection.

    Ordered canonically by (lower_left, upper_right); includes the unit
    cells themselves.  Each corner cell walks up its column, narrowing to
    the shortest row run seen, so the cost is cells plus intervals.
    """
    # run[c]: length of the horizontal run of member cells starting at c
    run: dict[Cell, int] = {}
    for c in sorted(collection.cells, reverse=True):
        run[c] = run.get(Cell(c.i + 1, c.j), 0) + 1
    found = []
    for (ai, aj), width in run.items():
        a = Point(ai, aj)
        bj = aj + 1
        while width:
            found.extend(Interval._of(a, Point(ai + w, bj)) for w in range(1, width + 1))
            width = min(width, run.get(Cell(ai, bj), 0))
            bj += 1
    found.sort(key=lambda iv: (iv.lower_left, iv.upper_right))
    return tuple(found)
