"""Variables indexed by lattice points, monomials, and binomial generators.

Every polynomial handled downstream is a difference of two monomials with
coefficients +1 and -1.  Arithmetic therefore never leaves the monomial
level, and all results are independent of the coefficient field.
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple

from .geometry import CellCollection, Interval, Point, inner_intervals

__all__ = [
    "Var",
    "point_var",
    "aux_var",
    "Monomial",
    "ONE",
    "MonomialOrder",
    "LEX",
    "GradedRevlex",
    "Binomial",
    "inner_minor",
    "generators",
]

POINT_RANK = 0
AUX_RANK = 1


class Var(NamedTuple):
    """Polynomial variable.

    rank 0 variables are indexed by lattice points and ordered by (i, j)
    tuple comparison, so x_(i,j) > x_(k,l) iff i > k, or i = k and j > l.
    rank 1 variables are auxiliary (graph vertices, targets of monomial maps)
    and sit above every rank 0 variable.
    """

    rank: int
    key: tuple

    @property
    def point(self) -> Point:
        if self.rank != POINT_RANK:
            raise ValueError(f"{self} is not a point variable")
        return Point(*self.key)

    def __repr__(self) -> str:
        if self.rank == POINT_RANK:
            i, j = self.key
            return f"x({i},{j})"
        label, index = self.key
        return f"{label}{index}"


def point_var(p: Point | tuple[int, int]) -> Var:
    i, j = p
    return Var(POINT_RANK, (i, j))


def aux_var(label: str, index: int) -> Var:
    return Var(AUX_RANK, (label, index))


class Monomial:
    """Immutable power product.

    Exponents are stored as a tuple of (Var, exponent) pairs sorted by
    descending variable, which makes the stored tuple directly usable as
    a lexicographic sort key.
    """

    __slots__ = ("exps", "_hash")

    exps: tuple[tuple[Var, int], ...]

    def __init__(self, exps: Iterable[tuple[Var, int]]) -> None:
        merged: dict[Var, int] = {}
        for v, e in exps:
            if e < 0:
                raise ValueError(f"negative exponent on {v}")
            if e:
                merged[v] = merged.get(v, 0) + e
        # the keys are distinct, so the pairs sort by their variables alone
        ordered = tuple(sorted(merged.items(), reverse=True))
        object.__setattr__(self, "exps", ordered)
        object.__setattr__(self, "_hash", hash(ordered))

    @classmethod
    def _of(cls, exps: tuple[tuple[Var, int], ...]) -> "Monomial":
        """Trusted constructor: exps already merged, positive and descending."""
        self = object.__new__(cls)
        object.__setattr__(self, "exps", exps)
        object.__setattr__(self, "_hash", hash(exps))
        return self

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Monomial is immutable")

    def __reduce__(self) -> tuple:
        return (Monomial, (self.exps,))

    @classmethod
    def from_vars(cls, vars_: Iterable[Var]) -> "Monomial":
        return cls((v, 1) for v in vars_)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Monomial):
            return NotImplemented
        return self.exps == other.exps

    def __hash__(self) -> int:
        return self._hash

    @property
    def degree(self) -> int:
        return sum(e for _, e in self.exps)

    def is_one(self) -> bool:
        return not self.exps

    def vars(self) -> tuple[Var, ...]:
        return tuple(v for v, _ in self.exps)

    def exponent(self, v: Var) -> int:
        for w, e in self.exps:
            if w == v:
                return e
        return 0

    def mul(self, other: "Monomial") -> "Monomial":
        return Monomial(self.exps + other.exps)

    def divides(self, other: "Monomial") -> bool:
        it = iter(other.exps)
        for v, e in self.exps:
            for w, f in it:
                if w == v:
                    if f < e:
                        return False
                    break
                if w < v:  # descending order: v cannot appear later
                    return False
            else:
                return False
        return True

    def div(self, other: "Monomial") -> "Monomial":
        """Exact division; raises when other does not divide self."""
        quotient = dict(self.exps)
        for v, e in other.exps:
            have = quotient.get(v, 0)
            if have < e:
                raise ValueError(f"{other} does not divide {self}")
            quotient[v] = have - e
        return Monomial(quotient.items())

    def gcd(self, other: "Monomial") -> "Monomial":
        theirs = dict(other.exps)
        return Monomial((v, min(e, theirs[v])) for v, e in self.exps if v in theirs)

    def lcm(self, other: "Monomial") -> "Monomial":
        merged = dict(self.exps)
        for v, e in other.exps:
            if merged.get(v, 0) < e:
                merged[v] = e
        return Monomial(merged.items())

    def __repr__(self) -> str:
        if not self.exps:
            return "1"
        parts = []
        for v, e in self.exps:
            if (text := _VAR_TEXT.get(v)) is None:
                text = _VAR_TEXT[v] = repr(v)
            parts.append(text if e == 1 else f"{text}^{e}")
        return "*".join(parts)


_VAR_TEXT: dict[Var, str] = {}  # repr of each variable, filled on first use


ONE = Monomial(())


class MonomialOrder:
    """Lexicographic monomial order on the variable order itself.

    Auxiliary variables rank above point variables and point variables
    compare by (i, j).  An order is its layout plus vector_key: groebner
    packs an exponent vector into an int x, one lane per variable of the
    layout, the first variable's lane the most significant, with degree
    x % modulus, and the vectors compare under the order exactly as
    their vector_key(modulus) keys do.  A subclass defines another order
    by overriding both.
    """

    __slots__ = ("tag",)

    def __init__(self, tag: str) -> None:
        self.tag = tag

    def __setattr__(self, name: str, value: object) -> None:
        if name == "tag" and not hasattr(self, name):
            object.__setattr__(self, name, value)
        else:
            raise AttributeError("MonomialOrder is immutable")

    def layout(self, variables: Iterable[Var]) -> tuple[Var, ...]:
        """The variable of each lane of groebner's exponent vectors, first lane first."""
        return tuple(sorted(variables, reverse=True))

    @staticmethod
    def vector_key(modulus: int) -> Callable[[int], object]:
        # laid out descending, the vectors compare as LEX; int(x) is x itself
        return int

    def __repr__(self) -> str:
        return f"MonomialOrder({self.tag})"


LEX = MonomialOrder("lex")


class GradedRevlex(MonomialOrder):
    """Graded reverse-lex order over an explicit variable sequence.

    The sequence runs from the largest variable to the smallest.  Higher
    degree is larger; at equal degree the monomial with the smaller
    exponent on the last variable where the two differ is larger.  A
    variable outside the sequence ranks above all of it, and those
    variables rank among themselves as in LEX: the order is that of
    sorted(extra, reverse=True) + sequence, and on monomials in the
    sequence's variables it is the sequence's own order.
    """

    __slots__ = ("variables",)

    def __init__(self, variables: Iterable[Var]) -> None:
        super().__init__("grevlex")
        object.__setattr__(self, "variables", tuple(variables))

    def layout(self, variables: Iterable[Var]) -> tuple[Var, ...]:
        extra = set(variables).difference(self.variables)
        return self.variables[::-1] + tuple(sorted(extra))

    @staticmethod
    def vector_key(modulus: int) -> Callable[[int], object]:
        # degree, then the exponents from the last variable on, negated
        return lambda x: (x % modulus, -x)


class Binomial:
    """Difference of two distinct monomials, plus - minus.

    A Binomial does not know which side is the initial term until it has
    been oriented under an order: make stores the LEX-larger side in
    `plus`, and groebner orients under any order on its packed vectors.
    """

    __slots__ = ("plus", "minus", "_hash")

    plus: Monomial
    minus: Monomial

    def __init__(self, plus: Monomial, minus: Monomial) -> None:
        if plus == minus:
            raise ValueError("the two sides of a binomial must differ")
        object.__setattr__(self, "plus", plus)
        object.__setattr__(self, "minus", minus)
        object.__setattr__(self, "_hash", hash((plus, minus)))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Binomial is immutable")

    def __reduce__(self) -> tuple:
        return (Binomial, (self.plus, self.minus))

    @classmethod
    def make(cls, a: Monomial, b: Monomial) -> "Binomial | None":
        """a - b oriented under LEX, or None when the difference is zero."""
        if a == b:
            return None
        # the stored exponent tuples are the LEX keys
        return cls(a, b) if a.exps > b.exps else cls(b, a)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Binomial):
            return NotImplemented
        return self.plus == other.plus and self.minus == other.minus

    def __hash__(self) -> int:
        return self._hash

    @property
    def degree(self) -> int:
        return max(self.plus.degree, self.minus.degree)

    def vars(self) -> frozenset[Var]:
        return frozenset(self.plus.vars()) | frozenset(self.minus.vars())

    def __repr__(self) -> str:
        return f"{self.plus!r} - {self.minus!r}"


def _minor(a, b, ba, ab) -> Binomial:
    """The minor of [a, b] from the (Var, 1) entries of a, b, (b.i, a.j), (a.i, b.j).

    Both sides are already descending because b.i > a.i, and the diagonal
    side leads under LEX because b dominates both anti-diagonal corners.
    """
    return Binomial(Monomial._of((b, a)), Monomial._of((ba, ab)))


def inner_minor(interval: Interval) -> Binomial:
    """The 2-minor of an interval: diagonal product minus anti-diagonal product.

    Oriented under LEX: the diagonal product is the larger side.
    """
    a, b = interval.lower_left, interval.upper_right
    return _minor(*((point_var(p), 1) for p in (a, b, (b.i, a.j), (a.i, b.j))))


def generators(collection: CellCollection) -> tuple[Binomial, ...]:
    """Inner 2-minors of the collection in canonical interval order.

    Every corner of an inner interval is a vertex of the collection; each
    vertex gets one (Var, 1) entry, shared by all the minors through it.
    """
    x = {p: (point_var(p), 1) for p in collection.vertex_set}
    minors = []
    for iv in inner_intervals(collection):
        a, b = iv.lower_left, iv.upper_right
        minors.append(_minor(x[a], x[b], x[b.i, a.j], x[a.i, b.j]))
    return tuple(minors)
