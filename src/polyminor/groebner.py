"""Buchberger engine specialized to differences of monomials.

S-polynomials and normal forms of such differences are again differences
of monomials (possibly with one side equal to 1), so the whole algorithm
runs on pairs of power products.  The computed reduced basis is unique
for the given order, independent of generator ordering, and valid over
every coefficient field at once.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .binomials import LEX, Binomial, MonomialOrder
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
    "ideal_membership",
    "ideal_equal",
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
    """Reduced basis together with the order that produced it."""

    order_tag: str
    elements: tuple[Binomial, ...]
    order: MonomialOrder = field(compare=False, repr=False, default=LEX)

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def contains(self, f: Binomial) -> bool:
        return ideal_membership(f, self)


def s_pair(f: Binomial, g: Binomial, order: MonomialOrder = LEX) -> Binomial | None:
    """S-polynomial of two oriented binomials, or None when it vanishes."""
    f = f.oriented(order)
    g = g.oriented(order)
    lcm = f.plus.lcm(g.plus)
    left = lcm.div(g.plus).mul(g.minus)
    right = lcm.div(f.plus).mul(f.minus)
    return Binomial.make(left, right, order)


def reduce(
    f: Binomial, basis: Sequence[Binomial], order: MonomialOrder = LEX
) -> Binomial | None:
    """Full normal form of f modulo the basis; None when f reduces to zero.

    Each step rewrites a side divisible by some basis initial term, the
    larger side first; the basis elements must already be oriented under
    the order.
    """
    f = f.oriented(order)
    a, b = f.plus, f.minus
    while True:
        for g in basis:
            if g.plus.divides(a):
                a = a.div(g.plus).mul(g.minus)
                break
        else:
            for g in basis:
                if g.plus.divides(b):
                    b = b.div(g.plus).mul(g.minus)
                    break
            else:
                return Binomial(a, b)
        if a == b:
            return None
        if order.cmp(a, b) < 0:
            a, b = b, a


def _prepare(gens: Iterable[Binomial], order: MonomialOrder) -> list[Binomial]:
    seen = set()
    out = []
    for f in gens:
        g = f.oriented(order)
        if g not in seen:
            seen.add(g)
            out.append(g)
    out.sort(key=lambda g: g.sort_key(order))
    return out


def _autoreduce(
    elements: list[Binomial], order: MonomialOrder, deadline: Deadline
) -> list[Binomial]:
    """Inter-reduce until every element is in normal form modulo the rest."""
    basis = _prepare(elements, order)
    changed = True
    while changed:
        deadline.check("Groebner basis inter-reduction")
        changed = False
        for idx, g in enumerate(basis):
            rest = basis[:idx] + basis[idx + 1 :]
            h = reduce(g, rest, order)
            if h is None:
                del basis[idx]
                changed = True
                break
            if h != g:
                basis[idx] = h
                basis.sort(key=lambda e: e.sort_key(order))
                changed = True
                break
    return basis


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
    """
    deadline = deadline or Deadline.unlimited()
    basis = _prepare(gens, order)
    # per element: its sort key and initial-term variables, shared by its pairs
    sort_keys = [g.sort_key(order) for g in basis]
    lead_vars = [frozenset(g.plus.vars()) for g in basis]
    pairs: list[tuple] = []

    def push_pairs(j: int) -> None:
        g = basis[j]
        g_key = sort_keys[j]
        g_vars = lead_vars[j]
        for i in range(j):
            if g_vars.isdisjoint(lead_vars[i]):
                continue
            lcm = basis[i].plus.lcm(g.plus)
            key = (lcm.degree, order.key(lcm), sort_keys[i], g_key)
            heapq.heappush(pairs, (key, i, j))

    for j in range(len(basis)):
        deadline.check("Groebner basis computation")
        push_pairs(j)

    while pairs:
        deadline.check("Groebner basis computation")
        (_, i, j) = heapq.heappop(pairs)
        s = s_pair(basis[i], basis[j], order)
        if s is None:
            continue
        h = reduce(s, basis, order)
        if h is None:
            continue
        if h.degree > degree_cap:
            raise DegreeCapExceeded(h, degree_cap)
        basis.append(h)
        sort_keys.append(h.sort_key(order))
        lead_vars.append(frozenset(h.plus.vars()))
        push_pairs(len(basis) - 1)

    reduced = _autoreduce(basis, order, deadline)
    return GroebnerBasis(order.tag, tuple(reduced), order)


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


def ideal_membership(f: Binomial, basis: GroebnerBasis) -> bool:
    """Whether f lies in the ideal presented by the reduced basis.

    f is re-oriented under the basis order before reduction, so callers
    may pass binomials normalized under any order.
    """
    return reduce(f.oriented(basis.order), basis.elements, basis.order) is None


def ideal_equal(
    first: Iterable[Binomial],
    second: Iterable[Binomial],
    order: MonomialOrder = LEX,
    *,
    degree_cap: int = DEFAULT_DEGREE_CAP,
    deadline: Deadline | None = None,
) -> bool:
    """Whether two generator lists present the same ideal."""
    first = list(first)
    second = list(second)
    basis_second = buchberger(second, order, degree_cap=degree_cap, deadline=deadline)
    if not all(ideal_membership(f, basis_second) for f in first):
        return False
    basis_first = buchberger(first, order, degree_cap=degree_cap, deadline=deadline)
    return all(ideal_membership(g, basis_first) for g in second)
