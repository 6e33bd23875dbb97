"""Plain-text polyomino documents and ASCII rendering.

Document grammar, one directive per line, '#' starts a comment:

    name <free text>
    bounding <i1> <j1> <i2> <j2>
    cell <i> <j>
    hole <i> <j>

Cell lines are mandatory; the rest are optional.  Serialization is
canonical (name, bounding, sorted cells, sorted holes), so a document
round-trips byte-identically once canonicalized.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geometry import Cell, CellCollection, Interval, Point

__all__ = [
    "ParseError",
    "PolyominoDocument",
    "parse_document",
    "serialize_document",
    "render_ascii",
]


class ParseError(ValueError):
    def __init__(self, line: int, message: str) -> None:
        self.line = line
        super().__init__(f"line {line}: {message}")


@dataclass(frozen=True)
class PolyominoDocument:
    name: str | None
    cells: tuple[Cell, ...]
    bounding: Interval | None
    holes: tuple[Cell, ...]

    def collection(self) -> CellCollection:
        return CellCollection(self.cells)


def _int_fields(parts: list[str], count: int, lineno: int, directive: str) -> list[int]:
    if len(parts) != count:
        raise ParseError(lineno, f"{directive} expects {count} integers")
    values = []
    for p in parts:
        try:
            values.append(int(p))
        except ValueError:
            raise ParseError(lineno, f"{directive}: {p!r} is not an integer") from None
    if any(v < 0 for v in values):
        raise ParseError(lineno, f"{directive}: negative coordinate")
    return values


def parse_document(text: str) -> PolyominoDocument:
    name: str | None = None
    bounding: Interval | None = None
    declared: dict[str, set[Cell]] = {"cell": set(), "hole": set()}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        directive, *rest = line.split()
        if directive == "name":
            if not rest:
                raise ParseError(lineno, "name expects a value")
            name = " ".join(rest)
        elif directive == "bounding":
            i1, j1, i2, j2 = _int_fields(rest, 4, lineno, "bounding")
            try:
                bounding = Interval(Point(i1, j1), Point(i2, j2))
            except ValueError as exc:
                raise ParseError(lineno, str(exc)) from None
        elif directive in declared:
            seen, c = declared[directive], Cell(*_int_fields(rest, 2, lineno, directive))
            if c in seen:
                raise ParseError(lineno, f"duplicate {directive} {c.i} {c.j}")
            seen.add(c)
        else:
            raise ParseError(lineno, f"unknown directive {directive!r}")
    cells, holes = declared["cell"], declared["hole"]
    if not cells:
        raise ParseError(len(text.splitlines()) or 1, "document declares no cells")
    overlap = cells & holes
    if overlap:
        c = sorted(overlap)[0]
        raise ParseError(len(text.splitlines()), f"{c!r} declared both cell and hole")
    return PolyominoDocument(name, tuple(sorted(cells)), bounding, tuple(sorted(holes)))


def serialize_document(doc: PolyominoDocument) -> str:
    lines = []
    if doc.name is not None:
        lines.append(f"name {doc.name}")
    if doc.bounding is not None:
        a, b = doc.bounding.lower_left, doc.bounding.upper_right
        lines.append(f"bounding {a.i} {a.j} {b.i} {b.j}")
    for c in sorted(doc.cells):
        lines.append(f"cell {c.i} {c.j}")
    for c in sorted(doc.holes):
        lines.append(f"hole {c.i} {c.j}")
    return "\n".join(lines) + "\n"


def render_ascii(collection: CellCollection) -> str:
    """Grid drawing with '#' cell interiors; enclosed holes show as blanks.

    Each cell occupies a 2x2 block plus shared borders, so a single cell
    renders as a 3x3 box.  The origin is at the lower left.
    """
    if not collection.cells:
        raise ValueError("nothing to render")
    box = collection.bounding_interval()
    lo, hi = box.lower_left, box.upper_right
    width, height = hi.i - lo.i, hi.j - lo.j
    grid = [[" "] * (2 * width + 1) for _ in range(2 * height + 1)]
    for c in collection.cells:
        col = 2 * (c.i - lo.i)
        row = 2 * (height - 1 - (c.j - lo.j))
        for dr in (0, 2):
            for dc in (0, 2):
                grid[row + dr][col + dc] = "+"
        grid[row][col + 1] = grid[row + 2][col + 1] = "-"
        grid[row + 1][col] = grid[row + 1][col + 2] = "|"
        grid[row + 1][col + 1] = "#"
    return "\n".join("".join(r).rstrip() for r in grid)
