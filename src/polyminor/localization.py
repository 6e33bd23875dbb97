"""Localization argument for the complement of a convex polyomino.

Setting: a bounding interval, a convex polyomino strictly inside it, and
the ambient complement collection.  Inverting the variable x_c at the
upper-left corner of the bounding interval collapses the complement's
ideal onto the ideal of a smaller polyomino P'.  This is one localization
step of toric.is_prime's kind: each corner triple's inner minor
x_c x_p - x_r x_q defines x_p -> x_r x_q / x_c, and the image of the
generators, with only powers of x_c cleared, is renamed by the
identification of two border segments with segments beside the removed
region.  The renaming must be injective on the image's variables, so it
only changes names; the renamed image must hold every inner minor of P'
literally and lie in the ideal of P'.  The functions here construct
every ingredient of that argument and check it on concrete instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .binomials import LEX, Binomial, Monomial, generators, point_var
from .geometry import (
    Cell,
    CellCollection,
    Interval,
    Point,
    Polyomino,
    complement,
    is_convex,
    is_polyomino,
    is_simple,
)
from .groebner import (
    DEFAULT_DEGREE_CAP,
    Deadline,
    buchberger,
    ideal_membership,
    quadric_classes,
)
from .toric import _image, is_nonzerodivisor

__all__ = [
    "CornerTriple",
    "LocalizationReport",
    "localization_hypotheses",
    "corner_set",
    "nonzerodivisor_check",
    "verify_localization",
]


class CornerTriple(NamedTuple):
    """A corner p whose variable x_p equals x_r x_q / x_c after inverting x_c.

    r sits on the left border, q on the top border, and [r, q] is an inner
    interval of the ambient collection with anti-diagonal corners c and p.
    """

    p: Point
    r: Point
    q: Point


def localization_hypotheses(bounding: Interval, inner: CellCollection) -> tuple[str, ...]:
    """Violated hypotheses, empty when the localization setting applies.

    Checks, in order: containment in the bounding interval, the inner
    collection being a polyomino, convexity, staying clear of the
    bounding border, and the complement being a polyomino.
    """
    violations = []
    box = set(bounding.cells())
    if not inner.cells or not inner.cells <= box:
        violations.append("not_contained")
        return tuple(violations)
    if not is_polyomino(inner):
        violations.append("inner_not_polyomino")
        return tuple(violations)
    if not is_convex(inner):
        violations.append("inner_not_convex")
    lo, hi = bounding.lower_left, bounding.upper_right
    for c in inner.cells:
        if c.i <= lo.i or c.i + 1 >= hi.i or c.j <= lo.j or c.j + 1 >= hi.j:
            violations.append("touches_boundary")
            break
    if not violations:
        ambient = complement(bounding, inner)
        if not ambient.cells or not is_polyomino(ambient):
            violations.append("complement_not_polyomino")
    return tuple(violations)


def corner_set(bounding: Interval, inner: CellCollection) -> tuple[CornerTriple, ...]:
    """All corner triples of the ambient complement, sorted by the corner p.

    p = (q1, r2) belongs to the set exactly when the interval from
    (lo.i, r2) to (q1, hi.j) avoids the inner polyomino entirely; its
    anti-diagonal corners are then the bounding's upper-left corner c
    and p itself.
    """
    ambient = complement(bounding, inner)
    lo, hi = bounding.lower_left, bounding.upper_right
    triples = []
    for q1 in range(lo.i + 1, hi.i + 1):
        for r2 in range(lo.j, hi.j):
            rect = Interval(Point(lo.i, r2), Point(q1, hi.j))
            if all(c in ambient.cells for c in rect.cells()):
                triples.append(
                    CornerTriple(Point(q1, r2), Point(lo.i, r2), Point(q1, hi.j))
                )
    return tuple(triples)


def nonzerodivisor_check(
    ambient: CellCollection,
    corner: Point | None = None,
    *,
    gens: Sequence[Binomial] | None = None,
    degree_cap: int = DEFAULT_DEGREE_CAP,
    deadline: Deadline | None = None,
) -> bool:
    """Whether the corner variable is a nonzerodivisor on the quotient.

    It is exactly when it divides no initial term of the reduced graded
    reverse-lex basis that has the corner variable last, since the ideal
    is homogeneous; toric.is_nonzerodivisor reads that off the packed
    leads, one lane test.  The corner defaults to the upper-left corner
    of the collection's bounding box; gens, when given, are the
    collection's generators.
    """
    if corner is None:
        box = ambient.bounding_interval()
        corner = Point(box.lower_left.i, box.upper_right.j)
    return is_nonzerodivisor(
        generators(ambient) if gens is None else gens,
        point_var(corner),
        degree_cap=degree_cap,
        deadline=deadline,
    )


def _shrink(
    bounding: Interval, inner: CellCollection
) -> tuple[
    tuple[CornerTriple, ...], frozenset[Cell], frozenset[Cell], dict[Point, Point]
]:
    """Corner triples, removed cells, remaining cells and the identification.

    The identification renames each point of the two orphaned border
    segments to the parallel point beside the inner polyomino: the left
    segment up to the inner's lowest-left vertex first, then the top
    segment from its top-right vertex on.
    """
    triples = corner_set(bounding, inner)
    removed = frozenset(c for t in triples for c in Interval(t.r, t.q).cells())
    remaining = complement(bounding, inner).cells - removed
    lo, hi = bounding.lower_left, bounding.upper_right
    low = min(inner.vertex_set)
    high = max(inner.vertex_set, key=lambda p: (p.j, p.i))
    ident = {Point(lo.i, t): Point(low.i, t) for t in range(lo.j, low.j + 1)}
    ident.update((Point(t, hi.j), Point(t, high.j)) for t in range(high.i, hi.i + 1))
    return triples, removed, remaining, ident


@dataclass(frozen=True)
class LocalizationReport:
    """Everything the localization argument produced on one instance."""

    bounding: Interval
    inner: CellCollection
    ambient: CellCollection
    hypothesis_violations: tuple[str, ...]
    corner_triples: tuple[CornerTriple, ...]
    removed_cells: frozenset[Cell]
    p_prime: CellCollection | None
    ident: dict[Point, Point] | None
    checks: dict[str, bool]

    @property
    def all_checks_pass(self) -> bool:
        return not self.hypothesis_violations and bool(self.checks) and all(
            self.checks.values()
        )


def verify_localization(
    bounding: Interval,
    inner: CellCollection,
    *,
    degree_cap: int = DEFAULT_DEGREE_CAP,
    deadline: Deadline | None = None,
) -> LocalizationReport:
    """Run the whole localization argument on one instance.

    Checks, all recorded in the report: the corner variable is a
    nonzerodivisor, the shrunken collection is a simple polyomino, and
    the localization step at the corner carries the ideal onto the ideal
    of P'.  The step's image is toric's, renamed by the identification.
    The renaming must be injective on the image's variables, every inner
    minor of P' must be a literal element of the renamed image, and every
    renamed element f must lie in the ideal of P'.  Only that last test
    cancels: f = u g with g in the ideal puts f there, and P''s quadric
    classes place most g, so a LEX basis is built only for the rest.
    """
    violations = localization_hypotheses(bounding, inner)
    if violations:
        return LocalizationReport(
            bounding, inner, CellCollection(()), violations,
            (), frozenset(), None, None, {},
        )
    ambient = complement(bounding, inner)
    triples, removed, remaining_cells, ident = _shrink(bounding, inner)
    corner = Point(bounding.lower_left.i, bounding.upper_right.j)
    cvar = point_var(corner)
    remaining = CellCollection(remaining_cells)
    p_prime: CellCollection
    try:
        p_prime = Polyomino(remaining_cells)
    except ValueError:
        p_prime = remaining
    ambient_gens = generators(ambient)
    checks = {
        "nonzerodivisor": nonzerodivisor_check(
            ambient, corner, gens=ambient_gens, degree_cap=degree_cap, deadline=deadline
        ),
        "p_prime_polyomino": isinstance(p_prime, Polyomino),
        "p_prime_simple": bool(remaining_cells) and is_simple(remaining),
    }

    # one localization step at c: each corner triple's minor x_c x_p - x_r x_q
    # defines x_p -> x_r x_q / x_c, and the identification renames the image
    defined = {
        point_var(t.p): Monomial.from_vars((point_var(t.r), point_var(t.q)))
        for t in triples
    }
    images = _image(ambient_gens, cvar, defined)
    rename = {point_var(s): point_var(d) for s, d in ident.items()}
    seen = {v for f in images for v in f.vars()}
    correspondence = len({rename.get(v, v) for v in seen}) == len(seen)
    if correspondence:  # the renaming only changes names, so no image vanishes
        renamed = {
            Binomial.make(*(
                Monomial((rename.get(v, v), e) for v, e in side.exps)
                for side in (f.plus, f.minus)
            ))
            for f in images
        }
        shrunk_gens = generators(remaining)
        classes = quadric_classes(shrunk_gens)
        rest = []
        for f in renamed:
            # f = u g with u common to both sides: g in I_{P'} puts f there,
            # the one direction in which cancelling u is sound
            vector = dict(f.plus.exps)
            for v, e in f.minus.exps:
                vector[v] = vector.get(v, 0) - e
            plus = Monomial((v, e) for v, e in vector.items() if e > 0)
            minus = Monomial((v, -e) for v, e in vector.items() if e < 0)
            if classes.get(plus, plus) != classes.get(minus, minus):
                rest.append(f)
        if rest:
            basis = buchberger(shrunk_gens, LEX, degree_cap=degree_cap, deadline=deadline)
            rest = [f for f in rest if not ideal_membership(f, basis)]
        correspondence = set(shrunk_gens) <= renamed and not rest
    checks["ideal_correspondence"] = correspondence

    return LocalizationReport(
        bounding, inner, ambient, (),
        triples, removed, p_prime, ident, checks,
    )
