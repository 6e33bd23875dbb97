"""Independent reference implementations used to freeze expected test values.

Everything here is deliberately naive: different algorithms from the package,
shared with it only through the public data types. Slow is fine; these run on
desk-scale inputs.
"""

from __future__ import annotations

import functools
import hashlib
import heapq
import itertools
from collections import deque
from dataclasses import dataclass
from operator import add, ge, sub
from typing import Iterable, Sequence

from polyminor.binomials import (
    LEX,
    ONE,
    Binomial,
    GradedRevlex,
    Monomial,
    MonomialOrder,
    Var,
    aux_var,
    point_var,
)
from polyminor.geometry import (
    Cell,
    CellCollection,
    Interval,
    Point,
    Polyomino,
    complement,
    is_convex,
    is_polyomino,
)
from polyminor.graphrep import RepVerdict, _complete, _multiset, _Search
from polyminor.groebner import (
    DEFAULT_DEGREE_CAP,
    Deadline,
    DegreeCapExceeded,
    GroebnerBasis,
    _Vectors,
    buchberger,
    ideal_membership,
)
from polyminor.localization import localization_hypotheses
from polyminor.toric import (
    MonomialMap,
    PrimalityCertificate,
    TorsionWitness,
    _smith,
    _vector_binomial,
    is_saturated_lattice,
    revlex_basis,
)


def naive_connected(cells: frozenset[tuple[int, int]]) -> bool:
    if not cells:
        return False
    seen = {next(iter(sorted(cells)))}
    frontier = list(seen)
    while frontier:
        i, j = frontier.pop()
        for nb in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
            if nb in cells and nb not in seen:
                seen.add(nb)
                frontier.append(nb)
    return seen == cells


def naive_fixed_polyominoes(n: int) -> set[frozenset[tuple[int, int]]]:
    """All fixed polyominoes with n cells, by brute subset scan.

    Enumerates n-subsets of the n x n box containing (0,0), keeps connected
    ones, and translates so min coordinates are zero. Only usable for n <= 5.
    """
    box = [(i, j) for i in range(n) for j in range(n)]
    out: set[frozenset[tuple[int, int]]] = set()
    for combo in itertools.combinations(box, n):
        cells = frozenset(combo)
        if not naive_connected(cells):
            continue
        mi = min(i for i, _ in cells)
        mj = min(j for _, j in cells)
        out.add(frozenset((i - mi, j - mj) for i, j in cells))
    return out


def naive_inner_intervals(collection: CellCollection) -> tuple[Interval, ...]:
    """Intervals whose every cell lies in the collection, by scanning corner pairs.

    Tries every corner pair of the bounding box and returns the hits in the
    canonical (lower_left, upper_right) order.
    """
    cells = {(c.i, c.j) for c in collection}
    if not cells:
        return ()
    lo_i = min(i for i, _ in cells)
    lo_j = min(j for _, j in cells)
    hi_i = max(i for i, _ in cells) + 1
    hi_j = max(j for _, j in cells) + 1
    found = []
    for a_i in range(lo_i, hi_i):
        for a_j in range(lo_j, hi_j):
            for b_i in range(a_i + 1, hi_i + 1):
                for b_j in range(a_j + 1, hi_j + 1):
                    inside = all(
                        (i, j) in cells
                        for i in range(a_i, b_i)
                        for j in range(a_j, b_j)
                    )
                    if inside:
                        found.append((Point(a_i, a_j), Point(b_i, b_j)))
    return tuple(Interval(a, b) for a, b in sorted(found))


def naive_inner_minor(interval: Interval) -> Binomial:
    """The 2-minor of an interval: diagonal product minus anti-diagonal product.

    Oriented under LEX; the diagonal product is always the larger side
    because the upper-right corner dominates both anti-diagonal corners.
    Built through the general Monomial constructor and Binomial.make, the
    reference for the package's trusted construction.
    """
    a, b = interval.lower_left, interval.upper_right
    c, d = interval.anti_diagonal_corners
    diag = Monomial.from_vars((point_var(a), point_var(b)))
    anti = Monomial.from_vars((point_var(c), point_var(d)))
    f = Binomial.make(diag, anti)
    assert f is not None and f.plus == diag
    return f


def flood_is_simple(collection: CellCollection) -> bool:
    """Simplicity by flood fill of the whole bounding box plus a margin.

    The collection is simple when every non-member cell of the bounding
    box escapes to the one-cell margin around it.
    """
    lo_i = min(c.i for c in collection.cells) - 1
    lo_j = min(c.j for c in collection.cells) - 1
    hi_i = max(c.i for c in collection.cells) + 1
    hi_j = max(c.j for c in collection.cells) + 1
    members = {(c.i, c.j) for c in collection.cells}
    start = (lo_i, lo_j)
    seen = {start}
    queue = deque([start])
    while queue:
        ci, cj = queue.popleft()
        for ni, nj in ((ci - 1, cj), (ci + 1, cj), (ci, cj - 1), (ci, cj + 1)):
            if lo_i <= ni <= hi_i and lo_j <= nj <= hi_j:
                if (ni, nj) not in members and (ni, nj) not in seen:
                    seen.add((ni, nj))
                    queue.append((ni, nj))
    for ci in range(lo_i + 1, hi_i):
        for cj in range(lo_j + 1, hi_j):
            if (ci, cj) not in members and (ci, cj) not in seen:
                return False
    return True


def naive_free_edges(shape: Polyomino) -> int:
    counts: dict[tuple[tuple[int, int], tuple[int, int]], int] = {}
    for cell in shape:
        for edge in cell.edges:
            counts[edge] = counts.get(edge, 0) + 1
    return sum(1 for v in counts.values() if v == 1)


def rewrite_monomial(exps: dict, rules: list[tuple[dict, dict]]) -> set[tuple]:
    """All normal forms of a monomial under one-directional rewrite rules.

    A rule (lhs, rhs) applies when lhs divides the monomial; the result replaces
    lhs by rhs. Explores every rewriting order; the returned set has one element
    exactly when the system is confluent on this input.
    """

    def key(m: dict) -> tuple:
        return tuple(sorted((v, e) for v, e in m.items() if e))

    def divides(lhs: dict, m: dict) -> bool:
        return all(m.get(v, 0) >= e for v, e in lhs.items())

    def apply(m: dict, lhs: dict, rhs: dict) -> dict:
        out = dict(m)
        for v, e in lhs.items():
            out[v] = out[v] - e
        for v, e in rhs.items():
            out[v] = out.get(v, 0) + e
        return {v: e for v, e in out.items() if e}

    normals: set[tuple] = set()
    stack = [exps]
    seen = set()
    while stack:
        m = stack.pop()
        k = key(m)
        if k in seen:
            continue
        seen.add(k)
        stepped = False
        for lhs, rhs in rules:
            if divides(lhs, m):
                stepped = True
                stack.append(apply(m, lhs, rhs))
        if not stepped:
            normals.add(k)
    return normals


def sympy_smith_divisors(rows: list[list[int]]) -> list[int]:
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form

    m = Matrix(rows)
    snf = smith_normal_form(m, domain=ZZ)
    divs = [abs(snf[k, k]) for k in range(min(snf.shape))]
    return [d for d in divs if d != 0]


def sympy_rank(rows: list[list[int]]) -> int:
    from sympy import Matrix

    return Matrix(rows).rank()


# The lattice layer as it stood before toric._exponent_lattice and
# toric._relations replaced it: a matrix type over the same _smith.


@dataclass(frozen=True)
class IntegerMatrix:
    """Rows span the exponent lattice; columns are labeled by variables."""

    columns: tuple[Var, ...]
    rows: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return sum(1 for d in elementary_divisors(self) if d != 0)


def exponent_lattice(gens: Iterable[Binomial]) -> IntegerMatrix:
    """Matrix whose rows are the exponent vectors plus - minus of the generators.

    Columns are the variables occurring anywhere in the generators, in
    ascending variable order; duplicate and zero rows are dropped.
    """
    gens = list(gens)
    columns = sorted({v for g in gens for v in g.vars()})
    index = {v: k for k, v in enumerate(columns)}
    rows = []
    seen = set()
    for g in gens:
        row = [0] * len(columns)
        for v, e in g.plus.exps:
            row[index[v]] += e
        for v, e in g.minus.exps:
            row[index[v]] -= e
        tup = tuple(row)
        if any(tup) and tup not in seen:
            seen.add(tup)
            rows.append(tup)
    return IntegerMatrix(tuple(columns), tuple(rows))


def elementary_divisors(matrix: IntegerMatrix) -> tuple[int, ...]:
    """Nonzero elementary divisors of the matrix, each dividing the next."""
    if not matrix.rows:
        return ()
    divisors, _, _ = _smith([list(r) for r in matrix.rows], len(matrix.columns))
    return tuple(divisors)


def _rank_and_torsion(
    matrix: IntegerMatrix, deadline: Deadline | None = None
) -> tuple[int, TorsionWitness | None]:
    """Rank of the row lattice, and a torsion witness unless it is saturated."""
    if not matrix.rows:
        return 0, None
    divisors, t_inv, _ = _smith(
        [list(r) for r in matrix.rows], len(matrix.columns), deadline
    )
    for idx, d in enumerate(divisors):
        if d != 1:
            witness = TorsionWitness(d, _vector_binomial(t_inv[idx], matrix.columns))
            return len(divisors), witness
    return len(divisors), None


def _kernel_lattice(
    mapping: MonomialMap, deadline: Deadline | None = None
) -> list[Binomial]:
    """Binomials of an integer basis of the map's relation lattice.

    The lattice is the integer kernel of the targets x sources exponent
    matrix, read off _smith's column transform, so its rank is the
    number of returned binomials.  Every image must have the same
    positive degree, so each binomial is homogeneous, as saturate needs.
    """
    images = [image for _, image in mapping.assignment]
    degrees = {image.degree for image in images}
    if len(degrees) > 1 or 0 in degrees:
        raise ValueError(f"image degrees {sorted(degrees)} are not one positive degree")
    sources = mapping.sources()
    exponents = [dict(image.exps) for image in images]
    targets = sorted({t for exps in exponents for t in exps})
    rows = [[exps.get(t, 0) for exps in exponents] for t in targets]
    divisors, _, t_cols = _smith(rows, len(sources), deadline)
    return [_vector_binomial(col, sources) for col in t_cols[len(divisors):]]


def interval_brute_cells(a: Point, b: Point) -> set[tuple[int, int]]:
    return {
        (i, j) for i in range(a.i, b.i) for j in range(a.j, b.j)
    }


def frame_shape() -> Polyomino:
    """3x3 block of cells minus the center: the running nonsimple example."""
    cells = [
        (i, j)
        for i in range(3)
        for j in range(3)
        if (i, j) != (1, 1)
    ]
    return Polyomino(cells)


def big_frame_shape() -> Polyomino:
    """4x4 block minus the middle 2x2."""
    cells = [
        (i, j)
        for i in range(4)
        for j in range(4)
        if not (1 <= i <= 2 and 1 <= j <= 2)
    ]
    return Polyomino(cells)


def localization_family() -> list[tuple[Interval, CellCollection]]:
    """Interior convex sub-polyominoes of all bounding boxes up to 4x4 cells."""
    instances = []
    for w in range(1, 5):
        for h in range(1, 5):
            bounding = Interval(Point(0, 0), Point(w, h))
            interior = [
                (i, j) for i in range(1, w - 1) for j in range(1, h - 1)
            ]
            for k in range(1, len(interior) + 1):
                for combo in itertools.combinations(interior, k):
                    inner = CellCollection(combo)
                    if not is_polyomino(inner) or not is_convex(inner):
                        continue
                    if localization_hypotheses(bounding, inner):
                        continue
                    instances.append((bounding, inner))
    return instances


# every polyomino of at most five cells, the localization family and the frame
REFERENCE_SHAPES = (
    [
        Polyomino(cells)
        for n in range(1, 6)
        for cells in sorted(naive_fixed_polyominoes(n), key=sorted)
    ]
    + [complement(bounding, inner) for bounding, inner in localization_family()]
    + [frame_shape()]
)


def revlex_saturation(
    gens: list[Binomial], *, degree_cap: int = DEFAULT_DEGREE_CAP
) -> tuple[list[Binomial], bool]:
    """toric._saturation as it ran on Binomials, one full revlex_basis per step.

    Generators of I : (product of all variables)^oo, and whether it is I.
    Greedy: take the revlex basis with the uncertified variables last
    and a candidate v last of all.  Every variable missing from all
    leading terms is certified a nonzerodivisor.  If v leads, dividing
    each element by the power of v in its leading term saturates by v.
    """
    current = gens
    pending = sorted({v for g in gens for v in g.vars()}, reverse=True)
    equal = True
    while pending:
        basis = revlex_basis(current, pending, degree_cap=degree_cap)
        leading = {v for g in basis for v in g.plus.vars()}
        v = pending.pop()
        if v in leading:
            equal = False
            current = []
            for g in basis:
                power = Monomial(((v, g.plus.exponent(v)),))
                current.append(Binomial(g.plus.div(power), g.minus.div(power)))
        pending = [w for w in pending if w in leading]
    return current, equal


def marker_saturate(gens, variables=None) -> tuple[Binomial, ...]:
    """Saturation by the product of the variables, by elimination.

    The variables default to all of those in the generators.  One
    variable v at a time: adjoin marker * v - 1, compute a LEX basis (the
    auxiliary marker ranks above every point variable, so LEX eliminates
    it) and keep the marker-free part.  Works for any binomials,
    homogeneous or not.
    """
    marker = aux_var("m", 0)
    current = [oriented(g, LEX) for g in gens]
    if variables is None:
        variables = {v for g in current for v in g.vars()}
    for v in sorted(variables):
        relation = Binomial(Monomial(((marker, 1), (v, 1))), ONE)
        basis = buchberger(current + [relation], LEX)
        current = [g for g in basis if marker not in g.vars()]
    return tuple(current)


def marker_primality(gens) -> tuple[tuple[Binomial, ...], PrimalityCertificate]:
    """marker_saturate of the generators and the primality certificate from it."""
    gens = list(gens)
    saturated = marker_saturate(gens)
    if not gens:
        return saturated, PrimalityCertificate("prime", True, True, None)
    lattice_ok, torsion = is_saturated_lattice(gens)
    basis = buchberger(gens, LEX)
    gap = next((f for f in saturated if not ideal_membership(f, basis)), None)
    if lattice_ok and gap is None:
        return saturated, PrimalityCertificate("prime", True, True, None)
    witness = torsion if not lattice_ok else gap
    return saturated, PrimalityCertificate(
        "not_prime", lattice_ok, gap is None, witness
    )


def elimination_toric_ideal_of_map(
    mapping: MonomialMap,
    *,
    degree_cap: int = DEFAULT_DEGREE_CAP,
    deadline: Deadline | None = None,
) -> tuple[Binomial, ...]:
    """Kernel of the monomial map, as a reduced basis in the source variables.

    Eliminates the target variables from the relations source = image.
    Target variables must rank above source variables, which holds for
    auxiliary targets over point sources.
    """
    relations = []
    for v, image in mapping.assignment:
        source_mon = Monomial(((v, 1),))
        if any(t <= v for t in image.vars()):
            raise ValueError(f"target monomial {image} does not dominate source {v}")
        f = Binomial.make(image, source_mon)
        if f is None:
            raise ValueError("image equals source variable")
        relations.append(f)
    targets = {t for _, image in mapping.assignment for t in image.vars()}
    basis = buchberger(relations, LEX, degree_cap=degree_cap, deadline=deadline)
    kernel = [g for g in basis if not (frozenset(g.vars()) & targets)]
    return tuple(kernel)


# The Buchberger engine on sparse Monomial arithmetic, as the package ran it
# before its byte exponent vectors: same pair selection, S-pairs and
# rewriting choices, so every intermediate element must agree.  Its orders
# are the package's sparse order keys from before the byte layouts.


@functools.cache
def _revlex_slots(order: GradedRevlex) -> dict:
    # key position of each variable: the last one is compared first
    n = len(order.variables)
    return {v: n - k for k, v in enumerate(order.variables)}


def order_key(order: MonomialOrder, m: Monomial) -> tuple:
    """Tuple whose lexicographic comparison realizes the monomial order.

    LEX is the stored exponent tuple itself; a GradedRevlex key is the
    degree, then the negated exponents from the last variable back, and
    every variable of m must be in the sequence.
    """
    if not isinstance(order, GradedRevlex):
        return m.exps
    slot = _revlex_slots(order)
    key = [0] * (len(order.variables) + 1)
    for v, e in m.exps:
        key[0] += e
        key[slot[v]] = -e
    return tuple(key)


def order_cmp(order: MonomialOrder, a: Monomial, b: Monomial) -> int:
    ka, kb = order_key(order, a), order_key(order, b)
    return (ka > kb) - (ka < kb)


def oriented(f: Binomial, order: MonomialOrder) -> Binomial:
    return f if order_cmp(order, f.plus, f.minus) >= 0 else Binomial(f.minus, f.plus)


def sort_key(f: Binomial, order: MonomialOrder) -> tuple:
    return (order_key(order, f.plus), order_key(order, f.minus))


# The byte-vector kernels the packed ones replaced: a vector is one byte per
# variable of the layout, first variable first, and an order's byte key is
# bytes itself for LEX, and the degree, then the complemented bytes, for
# GradedRevlex.

_SUPPORT = bytes([0]) + bytes([1]) * 255  # byte e to 1 when e > 0
_COMPLEMENT = bytes(range(255, -1, -1))  # byte e to 255 - e, ordered as -e


def to_bytes(vectors: _Vectors, x: int) -> bytes:
    """The packed vector x as one byte per lane; raises past 255."""
    lane, n = vectors.lane, len(vectors.variables)
    return bytes((x >> lane * (n - 1 - k)) & ((1 << lane) - 1) for k in range(n))


def from_bytes(vectors: _Vectors, b: bytes) -> int:
    """The byte vector b packed into vectors' lanes."""
    lane, n = vectors.lane, len(vectors.variables)
    return sum(e << lane * (n - 1 - k) for k, e in enumerate(b))


def byte_support(b: bytes) -> bytes:
    return b.translate(_SUPPORT)


def byte_divides(lead: bytes, x: bytes) -> bool:
    return all(map(ge, x, lead))


def byte_lcm(a: bytes, b: bytes) -> bytes:
    return bytes(map(max, a, b))


def byte_shift(x: bytes, lead: bytes, tail: bytes) -> bytes:
    """x / lead * tail, where lead divides x; ValueError past 255."""
    return bytes(map(add, map(sub, x, lead), tail))


def byte_key(order: MonomialOrder):
    if isinstance(order, GradedRevlex):
        return lambda b: (sum(b), b.translate(_COMPLEMENT))
    return bytes


def byte_orient(order: MonomialOrder, a: bytes, b: bytes) -> tuple[bytes, bytes]:
    key = byte_key(order)
    return (a, b) if key(a) > key(b) else (b, a)


def linear_step(self: _Vectors, x: int) -> int | None:
    """_Vectors.step as a scan of every lead through the byte kernels.

    x rewritten by the first element whose lead divides it, else None.
    """
    y = to_bytes(self, x)
    for lead, tail in zip(self.leads, self.tails):
        lead = to_bytes(self, lead)
        if byte_divides(lead, y):
            return from_bytes(self, byte_shift(y, lead, to_bytes(self, tail)))
    return None


def sparse_s_pair(f: Binomial, g: Binomial, order: MonomialOrder = LEX) -> Binomial | None:
    """S-polynomial of two oriented binomials, or None when it vanishes."""
    f = oriented(f, order)
    g = oriented(g, order)
    lcm = f.plus.lcm(g.plus)
    left = lcm.div(g.plus).mul(g.minus)
    right = lcm.div(f.plus).mul(f.minus)
    return None if left == right else oriented(Binomial(left, right), order)


def sparse_reduce(
    f: Binomial, basis: Sequence[Binomial], order: MonomialOrder = LEX
) -> Binomial | None:
    """Full normal form of f modulo the basis; None when f reduces to zero.

    Each step rewrites a side divisible by some basis initial term, the
    larger side first; the basis elements must already be oriented under
    the order.
    """
    f = oriented(f, order)
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
        if order_cmp(order, a, b) < 0:
            a, b = b, a


def _sparse_prepare(gens: Iterable[Binomial], order: MonomialOrder) -> list[Binomial]:
    seen = set()
    out = []
    for f in gens:
        g = oriented(f, order)
        if g not in seen:
            seen.add(g)
            out.append(g)
    out.sort(key=lambda g: sort_key(g, order))
    return out


def _sparse_autoreduce(
    elements: list[Binomial], order: MonomialOrder, deadline: Deadline
) -> list[Binomial]:
    """Inter-reduce until every element is in normal form modulo the rest."""
    basis = _sparse_prepare(elements, order)
    changed = True
    while changed:
        deadline.check("Groebner basis inter-reduction")
        changed = False
        for idx, g in enumerate(basis):
            rest = basis[:idx] + basis[idx + 1 :]
            h = sparse_reduce(g, rest, order)
            if h is None:
                del basis[idx]
                changed = True
                break
            if h != g:
                basis[idx] = h
                basis.sort(key=lambda e: sort_key(e, order))
                changed = True
                break
    return basis


def sparse_buchberger(
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
    basis = _sparse_prepare(gens, order)
    # per element: its sort key and initial-term variables, shared by its pairs
    sort_keys = [sort_key(g, order) for g in basis]
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
            key = (lcm.degree, order_key(order, lcm), sort_keys[i], g_key)
            heapq.heappush(pairs, (key, i, j))

    for j in range(len(basis)):
        deadline.check("Groebner basis computation")
        push_pairs(j)

    while pairs:
        deadline.check("Groebner basis computation")
        (_, i, j) = heapq.heappop(pairs)
        s = sparse_s_pair(basis[i], basis[j], order)
        if s is None:
            continue
        h = sparse_reduce(s, basis, order)
        if h is None:
            continue
        if h.degree > degree_cap:
            raise DegreeCapExceeded(h, degree_cap)
        basis.append(h)
        sort_keys.append(sort_key(h, order))
        lead_vars.append(frozenset(h.plus.vars()))
        push_pairs(len(basis) - 1)

    reduced = _sparse_autoreduce(basis, order, deadline)
    return GroebnerBasis(order.tag, tuple(reduced), order)


def trace_digest(verdict: RepVerdict) -> str:
    """sha256 of a graph verdict's status, labeling and whole trace."""
    text = repr((verdict.status, verdict.labeling, verdict.trace))
    return hashlib.sha256(text.encode()).hexdigest()


class SweepSearch(_Search):
    """The graph search as it propagated and grouped quadrics before.

    propagate sweeps every constraint until a full pass changes nothing,
    whatever the mark, and _quadratic_witness sorts the endpoint multisets
    of all variable pairs at every leaf and tests each quadric's
    membership afresh.
    """

    def propagate(self, depth: int, mark: int) -> bool:
        changed = True
        while changed:
            changed = False
            for con in self.constraints:
                step = _complete(con, self.assignment, self.used)
                if step is None:
                    continue
                hole_var, edge, reason = step
                if reason is not None:
                    self.log(
                        "conflict",
                        f"minor {con.index} {reason}",
                        depth,
                        var=hole_var,
                        edge=edge,
                        assignment=self.snapshot(),
                    )
                    return False
                if hole_var is None:
                    continue
                self.assign(hole_var, edge)
                self.log("force", f"forced by minor {con.index}", depth,
                         var=hole_var, edge=edge)
                changed = True
        return True

    def _quadratic_witness(self) -> Binomial | None:
        groups: dict[tuple[int, ...], list[tuple]] = {}
        for a_idx, a in enumerate(self.variables):
            for b in self.variables[a_idx:]:
                key = _multiset(self.assignment[a], self.assignment[b])
                groups.setdefault(key, []).append((a, b))
        for key in sorted(groups):
            first, *rest = groups[key]
            for pair in rest:
                f = Binomial.make(Monomial.from_vars(first), Monomial.from_vars(pair))
                if f is not None and not ideal_membership(f, self.ideal_basis):
                    return f
        return None
