"""Localization argument for the complement of a convex polyomino.

Setting: a bounding interval, a convex polyomino strictly inside it, and
the ambient complement collection.  Inverting the variable at the
upper-left corner of the bounding interval collapses the complement's
ideal onto the ideal of a smaller polyomino: corner variables are
eliminated by substitution, two border segments get identified with
segments beside the removed region, and the surviving relations are
exactly the inner minors of the shrunken polyomino.  The functions here
construct every ingredient of that argument and check it on concrete
instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .binomials import LEX, Binomial, Monomial, Var, generators, point_var
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
from .toric import is_nonzerodivisor

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


def _core_binomial(
    gen: Binomial, image: dict[Var, tuple[tuple[Var, int], ...]]
) -> Binomial | None:
    """Localized image of a generator, None when it vanishes.

    image sends a variable to (variable, exponent) pairs, x_c may get -1,
    and absent variables are fixed.  The core is the positive minus the
    negative part of image(plus) - image(minus): common factors cancel,
    and a residual power of x_c stays on one side as a variable power.
    """
    vector: dict[Var, int] = {}
    for side, sign in ((gen.plus, 1), (gen.minus, -1)):
        for v, e in side.exps:
            for w, k in image.get(v, ((v, 1),)):
                vector[w] = vector.get(w, 0) + sign * e * k
    return Binomial.make(
        Monomial((v, e) for v, e in vector.items() if e > 0),
        Monomial((v, -e) for v, e in vector.items() if e < 0),
    )


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
    the localized generators generate exactly the shrunken polyomino's
    ideal (every localized core lies in it, and every one of its inner
    minors arises literally as a core).  The inner minors span the
    quadrics of that ideal, so their quadric classes decide the cores of
    degree (2, 2); a LEX basis is built only when some core has another
    degree.
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

    # x_p = x_r' x_q' / x_c for each corner triple, then the renaming
    image = {point_var(s): ((point_var(d), 1),) for s, d in ident.items()}
    for t in triples:
        r, q = (point_var(ident.get(u, u)) for u in (t.r, t.q))
        image[point_var(t.p)] = ((r, 1), (q, 1), (cvar, -1))
    cores = [_core_binomial(gen, image) for gen in ambient_gens]
    live = [f for f in cores if f is not None]
    shrunk_gens = generators(remaining)
    classes = quadric_classes(shrunk_gens)
    quadrics: list[Binomial] = []
    others: list[Binomial] = []
    for f in live:
        (quadrics if f.plus.degree == f.minus.degree == 2 else others).append(f)
    forward = all(
        classes.get(f.plus, f.plus) == classes.get(f.minus, f.minus) for f in quadrics
    )
    if forward and others:
        shrunk_basis = buchberger(
            shrunk_gens, LEX, degree_cap=degree_cap, deadline=deadline
        )
        forward = all(ideal_membership(f, shrunk_basis) for f in others)
    core_set = set(live)
    checks["ideal_correspondence"] = forward and all(g in core_set for g in shrunk_gens)

    return LocalizationReport(
        bounding, inner, ambient, (),
        triples, removed, p_prime, ident, checks,
    )
