"""Primality certification for difference-of-monomial ideals.

Such an ideal is prime over fields where it behaves torically exactly
when two separate facts hold: the exponent lattice of its generators is
saturated in the ambient integer lattice (no torsion quotient), and the
ideal already equals its saturation with respect to the product of all
variables, that is, every variable is a nonzerodivisor on the quotient.
Both checks are exact integer computations.

The second check needs no elimination.  For a homogeneous ideal and a
graded reverse-lex basis with x last, x is a nonzerodivisor exactly when
it divides no leading term, and dividing every element by the power of x
in its leading term gives a basis of I : x^oo (Bayer-Stillman; Sturmfels,
"Groebner Bases and Convex Polytopes", Lemma 12.1).  For any order, a
variable missing from every leading term is a nonzerodivisor, so one
basis can certify several variables at once.

While the saturation loop keeps one ideal, the Hilbert function is known
after its first basis: degree d holds dim in(I)_d leading monomials under
every order.  Later bases stop a degree's S-pairs once their leading
terms reach that count (Traverso, "Hilbert functions and the Buchberger
algorithm", JSC 1996).  The count rule is exact: every nonzero reduction
adds one leading monomial, and past the count none is left to add, so
each dropped pair would reduce to zero and the bases, their order of
growth and any DegreeCapExceeded are unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import or_
from typing import Iterable, NamedTuple, Sequence

from .binomials import LEX, Binomial, GradedRevlex, Monomial, Var
from .groebner import (
    DEFAULT_DEGREE_CAP,
    Deadline,
    GroebnerBasis,
    _autoreduce,
    _complete,
    _lead_count,
    _Vectors,
    buchberger,
    ideal_membership,
)

__all__ = [
    "TorsionWitness",
    "PrimalityCertificate",
    "MonomialMap",
    "is_saturated_lattice",
    "revlex_basis",
    "saturate",
    "is_prime",
    "toric_ideal_of_map",
]


def _smith(
    rows: Sequence[Sequence[int]], n: int, deadline: Deadline | None = None
) -> tuple[list[int], list[list[int]], list[list[int]]]:
    """Diagonalize by unimodular row/column operations: U A T = D.

    Returns the elementary divisors (nonnegative, each dividing the next),
    T_inv, whose rows t scaled by d_t span the row space of A, and the
    columns of T, of which those past the nonzero divisors span the
    integer kernel of A.  Column operations on the work matrix are applied
    to T and mirrored as inverse row operations on T_inv.
    """
    a = [list(r) for r in rows]
    m = len(a)
    t_inv = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
    t_cols = [[1 if r == c else 0 for r in range(n)] for c in range(n)]

    def swap_cols(c1: int, c2: int) -> None:
        for row in a:
            row[c1], row[c2] = row[c2], row[c1]
        t_inv[c1], t_inv[c2] = t_inv[c2], t_inv[c1]
        t_cols[c1], t_cols[c2] = t_cols[c2], t_cols[c1]

    def add_col(dst: int, src: int, q: int) -> None:
        # work matrix and T: col_dst += q * col_src; inverse on t_inv rows
        for row in a:
            row[dst] += q * row[src]
        inv_src, inv_dst = t_inv[src], t_inv[dst]
        col_src, col_dst = t_cols[src], t_cols[dst]
        for c in range(n):
            inv_src[c] -= q * inv_dst[c]
            col_dst[c] += q * col_src[c]

    deadline = deadline or Deadline.unlimited()
    divisors: list[int] = []
    t = 0
    while t < m and t < n:
        deadline.check("Smith normal form")
        # the first entry of least absolute value; no entry is below a unit
        pivot, least = None, 0
        for r in range(t, m):
            for c in range(t, n):
                if a[r][c] and (pivot is None or abs(a[r][c]) < least):
                    pivot, least = (r, c), abs(a[r][c])
            if least == 1:
                break
        if pivot is None:
            break
        r0, c0 = pivot
        a[t], a[r0] = a[r0], a[t]
        if c0 != t:
            swap_cols(t, c0)
        while True:
            # clear column t below/above the pivot
            dirty = False
            for r in range(m):
                if r != t and a[r][t]:
                    q = a[r][t] // a[t][t]
                    for c in range(t, n):
                        a[r][c] -= q * a[t][c]
                    if a[r][t]:
                        a[t], a[r] = a[r], a[t]
                        dirty = True
            for c in range(n):
                if c != t and a[t][c]:
                    q = a[t][c] // a[t][t]
                    add_col(c, t, -q)
                    if a[t][c]:
                        swap_cols(t, c)
                        dirty = True
            if not dirty:
                break
        # enforce divisibility of every remaining entry by the pivot, which
        # a unit pivot has already
        fixed = True
        for r in range(t + 1, m) if abs(a[t][t]) > 1 else ():
            for c in range(t + 1, n):
                if a[r][c] % a[t][t]:
                    add_col(t, c, 1)
                    fixed = False
                    break
            if not fixed:
                break
        if not fixed:
            continue
        if a[t][t] < 0:
            for c in range(t, n):
                a[t][c] = -a[t][c]
        divisors.append(a[t][t])
        t += 1
    return divisors, t_inv, t_cols


class TorsionWitness(NamedTuple):
    """A vector outside the lattice whose divisor multiple lies inside."""

    divisor: int
    binomial: Binomial


def _vector_binomial(vector: Iterable[int], columns: Sequence[Var]) -> Binomial:
    pos = Monomial((v, e) for v, e in zip(columns, vector) if e > 0)
    neg = Monomial((v, -e) for v, e in zip(columns, vector) if e < 0)
    f = Binomial.make(pos, neg)
    assert f is not None
    return f


def _exponent_lattice(
    gens: Sequence[Binomial], deadline: Deadline | None = None
) -> tuple[int, TorsionWitness | None]:
    """Rank of the generators' exponent lattice, and a torsion witness unless saturated.

    The rows are the vectors plus - minus of the generators, zero rows
    and repeats dropped, over the variables occurring anywhere in them in
    ascending order.  The witness is for the first divisor other than one.
    """
    columns = sorted({v for g in gens for v in g.vars()})
    index = {v: k for k, v in enumerate(columns)}
    rows: dict[tuple[int, ...], None] = {}  # first occurrences, in order
    for g in gens:
        row = [0] * len(columns)
        for v, e in g.plus.exps:
            row[index[v]] += e
        for v, e in g.minus.exps:
            row[index[v]] -= e
        if any(row):
            rows.setdefault(tuple(row))
    divisors, t_inv, _ = _smith(list(rows), len(columns), deadline)
    for idx, d in enumerate(divisors):
        if d != 1:
            return len(divisors), TorsionWitness(d, _vector_binomial(t_inv[idx], columns))
    return len(divisors), None


def is_saturated_lattice(gens: Iterable[Binomial]) -> tuple[bool, TorsionWitness | None]:
    """Whether the generators' exponent lattice is saturated in the ambient lattice.

    Saturation means every elementary divisor equals one.  On failure the
    witness carries the smallest offending divisor d together with the
    lattice-external vector whose d-th multiple lies in the lattice.
    """
    _, witness = _exponent_lattice(list(gens))
    return witness is None, witness


def _check_homogeneous(gens: Sequence[Binomial]) -> None:
    for g in gens:
        if g.plus.degree != g.minus.degree:
            raise ValueError(f"{g!r} is not homogeneous")


def revlex_basis(
    gens: Iterable[Binomial],
    last: Sequence[Var],
    *,
    degree_cap: int = DEFAULT_DEGREE_CAP,
    deadline: Deadline | None = None,
) -> GroebnerBasis:
    """Reduced basis under the graded reverse-lex order that ends with `last`.

    The other variables of the generators come first, in descending
    order, then `last` in its own order, so its final entry is the
    smallest variable.  The generators must be homogeneous, which every
    inner-minor ideal is: only then does the basis decide whether that
    variable is a nonzerodivisor.
    """
    gens = list(gens)
    _check_homogeneous(gens)
    head = sorted({v for g in gens for v in g.vars()} - set(last), reverse=True)
    order = GradedRevlex(head + list(last))
    return buchberger(gens, order, degree_cap=degree_cap, deadline=deadline)


def _saturation(
    gens: list[Binomial], *, degree_cap: int, deadline: Deadline | None
) -> tuple[list[Binomial], bool]:
    """Generators of I : (product of all variables)^oo, and whether it is I.

    Greedy: take the revlex basis with the uncertified variables last
    and a candidate v last of all.  Every variable missing from all
    leading terms is certified a nonzerodivisor.  If v leads, dividing
    each element by the power of v in its leading term saturates by v.
    Saturations commute, so certified variables stay nonzerodivisors,
    and v is one after its saturation.

    The loop runs on packed vectors, each order's layout a permutation of
    the current generators' lanes.  The variables leading are those whose
    lanes meet the leads' masks, and dividing by the power of v in the
    lead clears v's lane of the lead and takes as much from the tail's.
    The first basis of each ideal gives the counts that stop the later
    ones (see the module docstring).
    """
    _check_homogeneous(gens)
    deadline = deadline or Deadline.unlimited()
    variables = sorted({v for g in gens for v in g.vars()}, reverse=True)
    pending = list(variables)
    source = _Vectors(GradedRevlex(variables), variables)  # the generators' layout
    current = [source.pair(g) for g in gens]
    target: dict[int, int | None] | None = None
    equal = True
    while pending:
        order = GradedRevlex(sorted(set(variables) - set(pending), reverse=True) + pending)
        vectors = _Vectors(order, variables)
        relaid = vectors.encode
        vectors.load(
            (relaid(source.exponents(a)), relaid(source.exponents(b))) for a, b in current
        )
        _complete(vectors, degree_cap, deadline, target)
        basis = _autoreduce(vectors, order, deadline)
        leading = reduce(or_, basis.masks)
        lane = basis.lane_bits(pending.pop())  # v's
        if leading & lane:
            equal, target, source = False, None, basis
            current = [
                (a - (a & lane), b - (a & lane)) for a, b in zip(basis.leads, basis.tails)
            ]
        elif target is None:
            # every lead has degree >= low, and the lcm of two distinct ones
            # has a higher degree, so no pair has degree low: only low + 1 is read
            low = min(map(basis.degree, basis.leads))
            target = {low + 1: _lead_count(basis, low + 1)}
        pending = [w for w in pending if leading & basis.lane_bits(w)]
    if equal:
        return gens, True
    return [source.binomial(a, b) for a, b in current], False


def saturate(
    gens: Iterable[Binomial],
    *,
    degree_cap: int = DEFAULT_DEGREE_CAP,
    deadline: Deadline | None = None,
) -> tuple[Binomial, ...]:
    """Reduced LEX basis of the saturation by the product of all variables.

    The generators must be homogeneous; see _saturation.
    """
    current, _ = _saturation(list(gens), degree_cap=degree_cap, deadline=deadline)
    return buchberger(current, LEX, degree_cap=degree_cap, deadline=deadline).elements


@dataclass(frozen=True)
class PrimalityCertificate:
    """Outcome of the two-part primality test with supporting evidence."""

    verdict: str  # "prime" | "not_prime"
    lattice_saturated: bool
    saturation_equal: bool
    witness: Binomial | TorsionWitness | None
    # rank of the generators' exponent lattice, as is_prime found it
    rank: int | None = field(default=None, compare=False, repr=False)

    @property
    def is_prime(self) -> bool:
        return self.verdict == "prime"

    def as_json(self) -> dict:
        """JSON projection with a fixed key order; the witness is its repr."""
        return {
            "verdict": self.verdict,
            "lattice_saturated": self.lattice_saturated,
            "saturation_equal": self.saturation_equal,
            "witness": None if self.witness is None else repr(self.witness),
        }


def is_prime(
    gens: Iterable[Binomial],
    *,
    degree_cap: int = DEFAULT_DEGREE_CAP,
    deadline: Deadline | None = None,
) -> PrimalityCertificate:
    """Certify primality of the ideal generated by differences of monomials.

    Prime exactly when the exponent lattice is saturated and the ideal
    equals its saturation by the product of all variables, which revlex
    bases certify variable by variable (see the module docstring); the
    generators must be homogeneous.  The witness on failure is a torsion
    vector, or the first element of the saturation's LEX basis outside
    the ideal.
    """
    gens = list(gens)
    if not gens:
        return PrimalityCertificate("prime", True, True, None, 0)
    rank, torsion = _exponent_lattice(gens, deadline)
    lattice_ok = torsion is None
    saturated, saturation_equal = _saturation(
        gens, degree_cap=degree_cap, deadline=deadline
    )
    if lattice_ok and saturation_equal:
        return PrimalityCertificate("prime", True, True, None, rank)
    witness: Binomial | TorsionWitness | None = torsion
    if lattice_ok:
        saturated = buchberger(saturated, LEX, degree_cap=degree_cap, deadline=deadline)
        basis = buchberger(gens, LEX, degree_cap=degree_cap, deadline=deadline)
        witness = next(f for f in saturated if not ideal_membership(f, basis))
    return PrimalityCertificate("not_prime", lattice_ok, saturation_equal, witness, rank)


@dataclass(frozen=True)
class MonomialMap:
    """Assignment of each source variable to a monomial in target variables.

    toric_ideal_of_map needs every image to have one positive degree.
    """

    assignment: tuple[tuple[Var, Monomial], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "assignment", tuple(sorted(self.assignment, key=lambda p: p[0]))
        )

    @classmethod
    def of(cls, mapping: dict[Var, Monomial]) -> "MonomialMap":
        return cls(tuple(mapping.items()))

    def sources(self) -> tuple[Var, ...]:
        return tuple(v for v, _ in self.assignment)


def _relations(
    images: Sequence[dict[Var, int]], deadline: Deadline | None = None
) -> list[list[int]]:
    """An integer basis of the relations among the images' exponent vectors.

    The relations are the integer kernel of the targets x images exponent
    matrix, targets in ascending order, read off _smith's column
    transform, so the lattice's rank is the number of returned vectors.
    """
    targets = sorted({t for exps in images for t in exps})
    rows = [[exps.get(t, 0) for exps in images] for t in targets]
    divisors, _, t_cols = _smith(rows, len(images), deadline)
    return t_cols[len(divisors):]


def toric_ideal_of_map(
    mapping: MonomialMap,
    *,
    degree_cap: int = DEFAULT_DEGREE_CAP,
    deadline: Deadline | None = None,
) -> tuple[Binomial, ...]:
    """Kernel of the monomial map, as a reduced LEX basis in the source variables.

    The kernel is the lattice ideal of the map's relation lattice
    (_relations), so it is the saturation of the ideal of that lattice
    basis by the product of the source variables (Sturmfels, "Groebner
    Bases and Convex Polytopes", Lemma 12.2).  Every image must have the
    same positive degree, so each basis binomial is homogeneous, as
    saturate needs.
    """
    images = [image for _, image in mapping.assignment]
    degrees = {image.degree for image in images}
    if len(degrees) > 1 or 0 in degrees:
        raise ValueError(f"image degrees {sorted(degrees)} are not one positive degree")
    sources = mapping.sources()
    lattice = _relations([dict(image.exps) for image in images], deadline)
    basis = [_vector_binomial(col, sources) for col in lattice]
    return saturate(basis, degree_cap=degree_cap, deadline=deadline)
