"""Buchberger engine specialized to differences of monomials.

S-polynomials and normal forms of such differences are again differences
of monomials (possibly with one side equal to 1), so the whole algorithm
runs on pairs of byte exponent vectors, one byte per variable.  The
reduced basis is unique for the given order, independent of generator
ordering, and valid over every coefficient field at once.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from operator import add, ge, sub
from typing import Iterable, Sequence

from .binomials import LEX, Binomial, Monomial, MonomialOrder, Var
from .geometry import CellCollection, inner_intervals

__all__ = [
    "DEFAULT_DEGREE_CAP",
    "DegreeCapExceeded",
    "BudgetExceeded",
    "Deadline",
    "GroebnerBasis",
    "s_pair",
    "reduce",
    "buchberger",
    "quadratic_gb_condition",
    "quadric_classes",
    "ideal_membership",
]

DEFAULT_DEGREE_CAP = 20


class DegreeCapExceeded(RuntimeError):
    """Raised when a basis element would exceed the configured degree cap."""

    def __init__(self, element: Binomial, cap: int) -> None:
        self.element = element
        self.cap = cap
        super().__init__(
            f"basis element of degree {element.degree} exceeds cap {cap}: {element!r}"
        )


class BudgetExceeded(RuntimeError):
    """Raised when a cooperative deadline expires mid-computation."""


class Deadline:
    """Wall-clock budget checked cooperatively inside long loops."""

    __slots__ = ("at",)

    def __init__(self, at: float | None) -> None:
        self.at = at

    @classmethod
    def unlimited(cls) -> "Deadline":
        return cls(None)

    @classmethod
    def after_seconds(cls, seconds: float | None) -> "Deadline":
        if seconds is None:
            return cls(None)
        return cls(time.monotonic() + seconds)

    def check(self, context: str = "computation") -> None:
        if self.at is not None and time.monotonic() > self.at:
            raise BudgetExceeded(f"{context} exceeded its time budget")


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced basis together with the order that produced it; see buchberger."""

    order_tag: str
    elements: tuple[Binomial, ...]
    order: MonomialOrder = field(compare=False, repr=False, default=LEX)
    stats: dict[str, int] = field(compare=False, repr=False, default_factory=dict)
    _vectors: _Vectors | None = field(compare=False, repr=False, default=None)

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)


EXPONENT_LIMIT = 255
_SUPPORT = bytes([0]) + bytes([1]) * 255  # byte e to 1 when e > 0


def _mask(b: bytes) -> int:
    return int.from_bytes(b.translate(_SUPPORT), "little")


def _shift(x: bytes, lead: bytes, tail: bytes) -> bytes:
    """x / lead * tail, where lead divides x."""
    try:
        return bytes(map(add, map(sub, x, lead), tail))
    except ValueError:
        raise ValueError(f"an exponent would exceed {EXPONENT_LIMIT}") from None


class _Vectors:
    """Oriented binomials leads[k] - tails[k]; masks[k] is the support of leads[k].

    The index, kept by append: lowest maps each bit b to the ascending
    indices k whose lead has b as its lowest support bit, that is
    masks[k] & -masks[k] == b, and lows is the union of those bits.
    """

    __slots__ = ("variables", "index", "key", "leads", "tails", "masks", "lowest", "lows")

    def __init__(self, order: MonomialOrder, variables: Iterable[Var]) -> None:
        self.variables = order.layout(variables)
        self.index = {v: k for k, v in enumerate(self.variables)}
        self.key = order.vector_key
        self.leads, self.tails, self.masks = [], [], []
        self.lowest: dict[int, list[int]] = {}
        self.lows = 0

    @classmethod
    def of(cls, gens: Iterable[Binomial], order: MonomialOrder) -> _Vectors:
        """The generators oriented, without repeats, sorted by the order."""
        gens = list(gens)
        vectors = cls(order, {v for g in gens for v in g.vars()})
        vectors.load(map(vectors.pair, gens))
        return vectors

    def load(self, pairs: Iterable[tuple[bytes, bytes]]) -> None:
        """Append the pairs oriented, without repeats, sorted by the order."""
        oriented = {self.orient(a, b) for a, b in pairs}
        for a, b in sorted(oriented, key=lambda ab: tuple(map(self.key, ab))):
            self.append(a, b)

    def encode(self, m: Monomial) -> bytes:
        vector = bytearray(len(self.variables))
        for v, e in m.exps:
            if e > EXPONENT_LIMIT:
                raise ValueError(f"exponent {e} of {v!r} exceeds {EXPONENT_LIMIT}")
            vector[self.index[v]] = e
        return bytes(vector)

    def pair(self, f: Binomial) -> tuple[bytes, bytes]:
        return self.encode(f.plus), self.encode(f.minus)

    def binomial(self, a: bytes, b: bytes) -> Binomial:
        return Binomial(Monomial(zip(self.variables, a)), Monomial(zip(self.variables, b)))

    def orient(self, a: bytes, b: bytes) -> tuple[bytes, bytes]:
        return (a, b) if self.key(a) > self.key(b) else (b, a)

    def append(self, lead: bytes, tail: bytes) -> None:
        mask = _mask(lead)
        bit = mask & -mask
        self.lowest.setdefault(bit, []).append(len(self.leads))
        self.lows |= bit
        self.leads.append(lead)
        self.tails.append(tail)
        self.masks.append(mask)

    def step(self, x: bytes) -> bytes | None:
        """x rewritten by the first element whose lead divides it, else None.

        A lead divides x only if its lowest variable occurs in x, so only
        the lists of lowest under x's support bits can hold a divisor.  Each
        list is ascending, so its first divisor is its smallest, and the
        least of those is the divisor a scan of every lead finds first.
        """
        masks, leads, lowest = self.masks, self.leads, self.lowest
        support = _mask(x)
        outside = ~support
        first = len(leads)
        support &= self.lows
        while support:
            bit = support & -support
            support ^= bit
            for k in lowest[bit]:
                if k >= first:
                    break
                if not masks[k] & outside and all(map(ge, x, leads[k])):
                    first = k
                    break
        if first == len(leads):
            return None
        return _shift(x, leads[first], self.tails[first])

    def normal_form(self, a: bytes, b: bytes) -> tuple[bytes, bytes] | None:
        """Normal form of a - b (a the larger side) as in reduce; None when zero."""
        while True:
            if (x := self.step(a)) is not None:
                a = x
            elif (x := self.step(b)) is not None:
                b = x
            else:
                return a, b
            if a == b:
                return None
            a, b = self.orient(a, b)

    def s_pair(self, i: int, j: int, lcm: bytes) -> tuple[bytes, bytes] | None:
        """Oriented S-polynomial of elements i and j, or None when it vanishes."""
        left = _shift(lcm, self.leads[j], self.tails[j])
        right = _shift(lcm, self.leads[i], self.tails[i])
        return None if left == right else self.orient(left, right)


def s_pair(f: Binomial, g: Binomial, order: MonomialOrder = LEX) -> Binomial | None:
    """S-polynomial of two binomials under the order, or None when it vanishes."""
    vectors = _Vectors(order, f.vars() | g.vars())
    for h in (f, g):
        vectors.append(*vectors.orient(*vectors.pair(h)))
    s = vectors.s_pair(0, 1, bytes(map(max, *vectors.leads)))
    return None if s is None else vectors.binomial(*s)


def reduce(
    f: Binomial, basis: Sequence[Binomial], order: MonomialOrder = LEX
) -> Binomial | None:
    """Full normal form of f modulo the basis; None when f reduces to zero.

    Each step rewrites a side divisible by some basis initial term, the
    larger side first; the basis elements must already be oriented under
    the order.
    """
    vectors = _Vectors(order, f.vars().union(*(g.vars() for g in basis)))
    for g in basis:
        vectors.append(*vectors.pair(g))
    h = vectors.normal_form(*vectors.orient(*vectors.pair(f)))
    return None if h is None else vectors.binomial(*h)


def _autoreduce(vectors: _Vectors, order: MonomialOrder, deadline: Deadline) -> _Vectors:
    """The reduced basis of a Groebner basis, sorted by the order.

    Keeps, in ascending order, each lead no smaller kept lead divides, then
    reduces the tails; the reduced basis is unique, whatever the choices.
    """
    leads = vectors.leads
    reduced = _Vectors(order, vectors.variables)
    for k in sorted(range(len(leads)), key=lambda k: vectors.key(leads[k])):
        deadline.check("Groebner basis inter-reduction")
        if reduced.step(leads[k]) is None:
            reduced.append(leads[k], vectors.tails[k])
    for k, tail in enumerate(reduced.tails):
        while (x := reduced.step(tail)) is not None:
            tail = x
        reduced.tails[k] = tail
    return reduced


def _lead_count(leads: Sequence[bytes], d: int) -> int | None:
    """The number of degree-d monomials some lead divides, when easily known.

    Counted only when every lead has degree at least d - 1: those
    monomials are then the leads of degree d and each degree d - 1 lead
    times each variable.  Otherwise None.
    """
    degrees = list(map(sum, leads))
    if min(degrees, default=0) < d - 1 or d > EXPONENT_LIMIT:
        return None
    # as little-endian integers, adding 1 << 8k raises byte k, which is below d
    monomials = {int.from_bytes(lead, "little") for lead, e in zip(leads, degrees) if e == d}
    below = [int.from_bytes(lead, "little") for lead, e in zip(leads, degrees) if e == d - 1]
    units = [1 << 8 * k for k in range(len(leads[0]))]
    monomials.update(x + unit for x in below for unit in units)
    return len(monomials)


def _complete(
    vectors: _Vectors,
    degree_cap: int,
    deadline: Deadline,
    target: dict[int, int | None] | None = None,
) -> int:
    """Extend vectors to a Groebner basis; returns the S-pairs formed.

    Pairs wait in buckets by lcm degree and get their heap keys when their
    degree opens; they pop in buchberger's order.  target, for a
    homogeneous ideal, maps degrees d to dim in(I)_d.  Every nonzero
    reduction of degree d adds one lead to in(G)_d, and once in(G)_d is
    in(I)_d the other S-pairs of degree d reduce to zero, so they are
    dropped: the elements added, and their order, do not change.
    """
    key, leads, tails, masks = vectors.key, vectors.leads, vectors.tails, vectors.masks
    # per element: its sort key, shared by its pairs
    sort_keys = [(key(a), key(b)) for a, b in zip(leads, tails)]
    buckets: dict[int, list[tuple[int, int, bytes]]] = {}
    heap: list[tuple] = []
    opened = formed = 0  # pairs of degree <= opened go straight to the heap
    missing = None

    def push_pairs(j: int) -> None:
        lead, mask, j_key = leads[j], masks[j], sort_keys[j]
        for i in range(j):
            if masks[i] & mask:
                lcm = bytes(map(max, leads[i], lead))
                degree = sum(lcm)
                if degree > opened:
                    buckets.setdefault(degree, []).append((i, j, lcm))
                else:
                    heapq.heappush(heap, ((degree, key(lcm), sort_keys[i], j_key), i, j, lcm))

    for j in range(len(leads)):
        deadline.check("Groebner basis computation")
        push_pairs(j)

    while heap or buckets:
        deadline.check("Groebner basis computation")
        if not heap:
            opened = min(buckets)
            pairs = buckets.pop(opened)
            goal = target.get(opened) if target else None
            have = None if goal is None else _lead_count(leads, opened)
            missing = None if have is None else goal - have
            if missing == 0:
                continue
            heap.extend(
                ((opened, key(lcm), sort_keys[i], sort_keys[j]), i, j, lcm)
                for i, j, lcm in pairs
            )
            heapq.heapify(heap)
        (_, i, j, lcm) = heapq.heappop(heap)
        formed += 1
        s = vectors.s_pair(i, j, lcm)
        h = None if s is None else vectors.normal_form(*s)
        if h is None:
            continue
        if max(map(sum, h)) > degree_cap:
            raise DegreeCapExceeded(vectors.binomial(*h), degree_cap)
        vectors.append(*h)
        sort_keys.append((key(h[0]), key(h[1])))
        push_pairs(len(leads) - 1)
        if missing is not None:
            missing -= 1
            if not missing:
                heap.clear()
    return formed


def buchberger(
    gens: Iterable[Binomial],
    order: MonomialOrder = LEX,
    *,
    degree_cap: int = DEFAULT_DEGREE_CAP,
    deadline: Deadline | None = None,
) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by the binomials.

    Pair selection is by smallest lcm (degree, then the order's key on the
    lcm, then the pair's serialization), pairs with coprime initial terms
    are never queued, and the final basis is auto-reduced, so the result
    is a deterministic function of the generated ideal and the order.

    Monomials are byte vectors, so no exponent may exceed 255
    (EXPONENT_LIMIT): a larger one, given or formed, raises ValueError.
    stats counts S-pairs formed (one per queued pair), zero reductions,
    elements added, peak size and top degree.
    """
    deadline = deadline or Deadline.unlimited()
    vectors = _Vectors.of(gens, order)
    given = len(vectors.leads)
    formed = _complete(vectors, degree_cap, deadline)
    leads, tails = vectors.leads, vectors.tails
    stats = dict(s_pairs=formed, elements_added=len(leads) - given,
                 peak_size=len(leads), max_degree=max(map(sum, leads + tails), default=0))
    stats["zero_reductions"] = formed - stats["elements_added"]
    reduced = _autoreduce(vectors, order, deadline)
    elements = tuple(map(reduced.binomial, reduced.leads, reduced.tails))
    return GroebnerBasis(order.tag, elements, order, stats, reduced)


def quadratic_gb_condition(collection: CellCollection) -> bool:
    """Combinatorial test for the generators being a reduced Groebner basis.

    For every pair of inner intervals [a, b] and [b, c] meeting at b, at
    least one of the two intervals [e, c] or [d, c] spanned from the
    anti-diagonal corners d, e of [a, b] must again be inner.
    """
    ivs = inner_intervals(collection)
    inner = {(iv.lower_left, iv.upper_right) for iv in ivs}
    by_lower: dict = {}
    for iv in ivs:
        by_lower.setdefault(iv.lower_left, []).append(iv)
    for first in ivs:
        a, b = first.lower_left, first.upper_right
        e, d = first.anti_diagonal_corners  # e = (a.i, b.j), d = (b.i, a.j)
        for second in by_lower.get(b, ()):
            c = second.upper_right
            if (e, c) in inner or (d, c) in inner:
                continue
            return False
    return True


def quadric_classes(gens: Iterable[Binomial]) -> dict[Monomial, Monomial]:
    """Each monomial of the generators mapped to one representative of its class.

    Read each generator as an edge joining plus and minus; a class is a
    connected component.  A monomial in no generator is its own class, so
    look one up with classes.get(m, m).  When the generators are quadrics,
    they span the ideal's degree-2 part, and a quadric u - v lies in the
    ideal exactly when u and v share a class: e_u - e_v lies in the span
    of the vectors e_plus - e_minus exactly when an edge path joins u to v.
    """
    parent: dict[Monomial, Monomial] = {}

    def find(m: Monomial) -> Monomial:
        while (up := parent.setdefault(m, m)) != m:
            parent[m] = parent[up]  # path splitting
            m = up
        return m

    for g in gens:
        parent[find(g.plus)] = find(g.minus)
    return {m: find(m) for m in parent}


def ideal_membership(f: Binomial, basis: GroebnerBasis) -> bool:
    """Whether f lies in the ideal presented by the reduced basis.

    f is re-oriented under the basis order before reduction, so callers
    may pass binomials normalized under any order.
    """
    vectors = basis._vectors
    if vectors is None or not f.vars() <= vectors.index.keys():
        return reduce(f, basis.elements, basis.order) is None
    return vectors.normal_form(*vectors.orient(*vectors.pair(f))) is None

