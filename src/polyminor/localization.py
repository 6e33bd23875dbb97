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
from typing import Iterable, NamedTuple

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
from .toric import revlex_basis

__all__ = [
    "CornerTriple",
    "IdentificationMap",
    "LocalizationReport",
    "localization_hypotheses",
    "corner_set",
    "nonzerodivisor_check",
    "construct_p_prime",
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


@dataclass(frozen=True)
class IdentificationMap:
    """Vertex identifications sending border segments beside the hole.

    The map renames each source point on the bounding border to the
    parallel point on the segment bordering the inner polyomino; points
    off the domain are fixed.
    """

    vertical: tuple[tuple[Point, Point], ...]
    horizontal: tuple[tuple[Point, Point], ...]

    @property
    def mapping(self) -> dict[Point, Point]:
        return dict(self.vertical + self.horizontal)

    def apply(self, p: Point) -> Point:
        return self.mapping.get(p, p)


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
    degree_cap: int = DEFAULT_DEGREE_CAP,
    deadline: Deadline | None = None,
) -> bool:
    """Whether the corner variable is a nonzerodivisor on the quotient.

    It is exactly when it divides no initial term of the reduced graded
    reverse-lex basis that has the corner variable last, since the ideal
    is homogeneous.  The corner defaults to the upper-left corner of the
    collection's bounding box.
    """
    if corner is None:
        box = ambient.bounding_interval()
        corner = Point(box.lower_left.i, box.upper_right.j)
    cvar = point_var(corner)
    basis = revlex_basis(
        generators(ambient), (cvar,), degree_cap=degree_cap, deadline=deadline
    )
    return all(g.plus.exponent(cvar) == 0 for g in basis)


def _extremal_inner_vertices(inner: CellCollection) -> tuple[Point, Point]:
    """Lowest-left vertex by (i, j) and top-right vertex by (j, i)."""
    vertices = inner.vertex_set
    low = min(vertices)
    high = max(vertices, key=lambda p: (p.j, p.i))
    return low, high


def _shrink(
    bounding: Interval, inner: CellCollection
) -> tuple[
    tuple[CornerTriple, ...], frozenset[Cell], frozenset[Cell], IdentificationMap
]:
    """Corner triples, removed cells, remaining cells and identification map.

    The one derivation of P' behind both construct_p_prime and
    verify_localization.
    """
    triples = corner_set(bounding, inner)
    removed = frozenset(c for t in triples for c in Interval(t.r, t.q).cells())
    remaining = complement(bounding, inner).cells - removed
    lo, hi = bounding.lower_left, bounding.upper_right
    low, high = _extremal_inner_vertices(inner)
    vertical = tuple(
        (Point(lo.i, t), Point(low.i, t)) for t in range(lo.j, low.j + 1)
    )
    horizontal = tuple(
        (Point(t, hi.j), Point(t, high.j)) for t in range(high.i, hi.i + 1)
    )
    return triples, removed, remaining, IdentificationMap(vertical, horizontal)


def construct_p_prime(
    bounding: Interval, inner: CellCollection
) -> tuple[Polyomino, IdentificationMap]:
    """The shrunken polyomino left after deleting all corner rectangles.

    Also returns the identification map gluing the orphaned border
    segments of the bounding interval onto the segments bordering the
    inner polyomino.  Raises ValueError when the remaining cells fail to
    form a polyomino, which the localization argument rules out for
    valid hypotheses.
    """
    _, _, remaining, ident = _shrink(bounding, inner)
    return Polyomino(remaining), ident


def _transform_side(
    side: Monomial,
    substitution: dict[Var, tuple[Var, Var]],
    cvar: Var,
    rename: dict[Var, Var],
) -> tuple[Monomial, int]:
    """Apply corner substitutions and border renaming; track powers of x_c."""
    cexp = 0
    parts: list[tuple[Var, int]] = []
    for v, e in side.exps:
        if v == cvar:
            cexp += e
        elif v in substitution:
            r, q = substitution[v]
            parts.append((rename.get(r, r), e))
            parts.append((rename.get(q, q), e))
            cexp -= e
        else:
            parts.append((rename.get(v, v), e))
    return Monomial(parts), cexp


def _core_binomial(
    gen: Binomial,
    substitution: dict[Var, tuple[Var, Var]],
    cvar: Var,
    rename: dict[Var, Var],
) -> Binomial | None:
    """Localized image of a generator with common factors cancelled.

    Residual powers of the inverted corner variable can only survive on
    one side; they are reattached as honest variable powers so membership
    checks stay meaningful.
    """
    plus, cp = _transform_side(gen.plus, substitution, cvar, rename)
    minus, cm = _transform_side(gen.minus, substitution, cvar, rename)
    shared = plus.gcd(minus)
    plus, minus = plus.div(shared), minus.div(shared)
    floor = min(cp, cm)
    cp, cm = cp - floor, cm - floor
    if cp:
        plus = plus.mul(Monomial(((cvar, cp),)))
    if cm:
        minus = minus.mul(Monomial(((cvar, cm),)))
    return Binomial.make(plus, minus)


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
    ident: IdentificationMap | None
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
        p_prime_ok = True
    except ValueError:
        p_prime = remaining
        p_prime_ok = False

    checks: dict[str, bool] = {}
    checks["nonzerodivisor"] = nonzerodivisor_check(
        ambient, corner, degree_cap=degree_cap, deadline=deadline
    )
    checks["p_prime_polyomino"] = p_prime_ok
    checks["p_prime_simple"] = bool(remaining_cells) and is_simple(remaining)

    substitution = {
        point_var(t.p): (point_var(t.r), point_var(t.q)) for t in triples
    }
    rename = {point_var(s): point_var(d) for s, d in ident.mapping.items()}
    cores = []
    for gen in generators(ambient):
        cores.append(_core_binomial(gen, substitution, cvar, rename))
    shrunk_gens = generators(remaining)
    live = [f for f in cores if f is not None]
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
    core_set = {f for f in live}
    backward = all(g in core_set for g in shrunk_gens)
    checks["ideal_correspondence"] = forward and backward

    return LocalizationReport(
        bounding, inner, ambient, (),
        triples, removed, p_prime, ident, checks,
    )
