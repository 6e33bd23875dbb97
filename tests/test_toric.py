import functools
import itertools
import pickle
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyminor import toric
from polyminor.binomials import (
    LEX,
    Binomial,
    Monomial,
    aux_var,
    generators,
    inner_minor,
    point_var,
)
from polyminor.enumeration import enumerate_polyominoes
from polyminor.geometry import (
    CellCollection,
    Interval,
    Point,
    Polyomino,
    complement,
    is_simple,
)
from polyminor.graphrep import GraphLabeling, bipartite_grid_labeling, search_labeling
from polyminor.groebner import (
    DEFAULT_DEGREE_CAP,
    BudgetExceeded,
    Deadline,
    DegreeCapExceeded,
    buchberger,
    ideal_membership,
    reduce,
)
from polyminor.toric import (
    MonomialMap,
    PrimalityCertificate,
    TorsionWitness,
    _exponent_lattice,
    _relations,
    _saturation,
    _smith,
    _vector_binomial,
    is_prime,
    is_saturated_lattice,
    saturate,
    toric_ideal_of_map,
)

import oracles
from oracles import (
    REFERENCE_SHAPES,
    elimination_toric_ideal_of_map,
    exponent,
    frame_shape,
    localization_family,
    marker_primality,
    mono_mul,
    revlex_basis,
    revlex_saturation,
    sympy_rank,
    sympy_smith_divisors,
)


def x(i, j):
    return point_var(Point(i, j))


def mono(*vs):
    return Monomial.from_vars(vs)


def divisors_of(rows):
    """_smith's nonzero elementary divisors; their number is the rank."""
    divisors, _, _ = _smith(rows, len(rows[0]))
    return tuple(divisors)


def exponent_rows(gens):
    """The vectors plus - minus of the generators over their sorted variables."""
    columns = sorted({v for g in gens for v in g.vars()})
    return [[exponent(g.plus, v) - exponent(g.minus, v) for v in columns] for g in gens]


def relation_binomials(mapping):
    """The map's relation lattice basis, as the graph search builds it."""
    images = [dict(image.exps) for _, image in mapping.assignment]
    return [_vector_binomial(col, mapping.sources()) for col in _relations(images)]


class TestSmithForm:
    def test_identity(self):
        assert divisors_of([[1, 0], [0, 1]]) == (1, 1)

    def test_torsion_two(self):
        assert divisors_of([[2, 0], [0, 1]]) == (1, 2)

    def test_single_row_content(self):
        assert divisors_of([[2, 4, 6]]) == (2,)
        assert divisors_of([[1, 1, -1, -1]]) == (1,)

    def test_dependent_rows_drop_rank(self):
        assert divisors_of([[1, 2, 3], [2, 4, 6]]) == (1,)

    def test_divisibility_chain(self):
        assert divisors_of([[2, 0], [0, 3]]) == (1, 6)

    def test_against_sympy_random(self):
        rng = random.Random(20260826)
        for _ in range(150):
            nrows = rng.randint(1, 5)
            ncols = rng.randint(1, 5)
            rows = [
                [rng.randint(-6, 6) for _ in range(ncols)] for _ in range(nrows)
            ]
            if not any(any(r) for r in rows):
                continue
            mine = list(divisors_of(rows))
            theirs = sympy_smith_divisors(rows)
            assert mine == sorted(theirs), rows

    def test_kernel_columns_random(self):
        # T is unimodular, so its columns past the divisors span the kernel
        from sympy import Matrix

        rng = random.Random(1502)
        for _ in range(80):
            nrows = rng.randint(1, 4)
            ncols = rng.randint(1, 6)
            rows = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(nrows)]
            divisors, _, t_cols = _smith(rows, ncols)
            assert abs(Matrix(t_cols).det()) == 1, rows
            kernel = t_cols[len(divisors):]
            assert len(kernel) == ncols - sympy_rank(rows), rows
            for col in kernel:
                assert all(sum(a * b for a, b in zip(r, col)) == 0 for r in rows)

    def test_expired_deadline_raises(self):
        expired = Deadline(at=time.monotonic() - 1)
        with pytest.raises(BudgetExceeded):
            _smith([[2, 4], [6, 8]], 2, expired)
        t = [aux_var("t", k) for k in range(2)]
        mapping = MonomialMap.of({x(0, 0): mono(t[0]), x(0, 1): mono(t[0])})
        with pytest.raises(BudgetExceeded):
            toric_ideal_of_map(mapping, deadline=expired)

    def test_rank_against_sympy_random(self):
        rng = random.Random(4242)
        for _ in range(80):
            rows = [[rng.randint(-4, 4) for _ in range(4)] for _ in range(4)]
            if not any(any(r) for r in rows):
                continue
            assert len(divisors_of(rows)) == sympy_rank(rows), rows


class TestExponentLattice:
    def test_minor_row(self):
        f = inner_minor(Interval(Point(0, 0), Point(1, 1)))
        assert len(f.vars()) == 4
        assert sorted(exponent_rows([f])[0]) == [-1, -1, 1, 1]
        assert is_prime([f]).rank == 1
        assert is_saturated_lattice([f]) == (True, None)

    def test_duplicates_dropped(self):
        f = inner_minor(Interval(Point(0, 0), Point(1, 1)))
        assert is_prime([f, f]).rank == 1
        assert _exponent_lattice([f, f]) == _exponent_lattice([f])

    def test_frame_shape_and_rank(self, frame):
        gens = generators(frame)
        assert len(set(gens)) == 20
        assert len({v for g in gens for v in g.vars()}) == 16
        assert is_prime(gens).rank == 8
        assert is_saturated_lattice(gens) == (True, None)

    def test_frame_rank_against_sympy(self, frame):
        gens = generators(frame)
        assert sympy_rank(exponent_rows(gens)) == is_prime(gens).rank == 8


class TestLatticeSaturation:
    def test_saturated_single_minor(self):
        ok, witness = is_saturated_lattice(
            [inner_minor(Interval(Point(0, 0), Point(1, 1)))]
        )
        assert ok and witness is None

    def test_square_difference_witness(self):
        # x^2 - y^2: lattice (2, -2), saturation adds (1, -1)
        f = Binomial.make(mono(x(0, 0), x(0, 0)), mono(x(0, 1), x(0, 1)))
        ok, witness = is_saturated_lattice([f])
        assert not ok
        assert witness.divisor == 2
        assert {witness.binomial.plus, witness.binomial.minus} == {
            mono(x(0, 0)), mono(x(0, 1)),
        }

    def test_witness_multiple_lies_in_lattice(self):
        # (2, 1, -2, -1) has content 1; doubling every exponent gives torsion 2
        f = Binomial.make(mono(x(0, 0), x(0, 0), x(1, 0)), mono(x(0, 1), x(0, 1), x(1, 1)))
        g = Binomial(mono_mul(f.plus, f.plus), mono_mul(f.minus, f.minus))
        assert is_saturated_lattice([f]) == (True, None)
        ok, witness = is_saturated_lattice([g])
        assert not ok
        cols = sorted(g.vars())
        w = [
            exponent(witness.binomial.plus, v) - exponent(witness.binomial.minus, v)
            for v in cols
        ]
        scaled = tuple(witness.divisor * c for c in w)
        # d * w must be an integer combination of the rows; here rank 1
        row = exponent_rows([g])[0]
        assert any(
            scaled == tuple(k * c for c in row) for k in range(-6, 7)
        )


class TestSaturate:
    def test_common_factor_cancelled(self):
        # xy - xz saturates to y - z
        f = Binomial.make(mono(x(1, 0), x(0, 1)), mono(x(1, 0), x(0, 0)))
        sat = saturate([f])
        assert sat == (Binomial.make(mono(x(0, 1)), mono(x(0, 0))),)

    def test_already_saturated_untouched(self, frame):
        gens = generators(frame)
        sat = saturate(gens)
        assert set(sat) == set(saturate(sat))

    def test_empty(self):
        assert saturate([]) == ()


def differential_inputs():
    """Named generator lists on which saturate and is_prime meet the oracle."""
    cases = []
    for n in range(1, 5):
        for shape in enumerate_polyominoes(n):
            cases.append((f"{n} cells {sorted(shape.cells)}", generators(shape)))
    for name, cells in (
        ("row of 5", [(i, 0) for i in range(5)]),
        ("column of 5", [(0, j) for j in range(5)]),
    ):
        cases.append((name, generators(Polyomino(cells))))
    cases.append(("frame", generators(frame_shape())))
    for bounding, inner in localization_family():
        cases.append(
            (f"{bounding} minus {sorted(inner.cells)}",
             generators(complement(bounding, inner)))
        )
    a, b, c = x(1, 0), x(0, 1), x(0, 0)
    cases.append(("xy - xz", [Binomial.make(mono(a, b), mono(a, c))]))
    cases.append(("x^2 - y^2", [Binomial.make(mono(c, c), mono(b, b))]))
    return cases


class TestAgainstMarkerElimination:
    """The revlex saturation against one elimination per variable."""

    def test_saturate_and_certificate_match(self):
        cases = differential_inputs()
        assert len(cases) == 28 + 2 + 1 + 20 + 2
        for name, gens in cases:
            saturated, certificate = marker_primality(gens)
            assert saturate(gens) == saturated, name
            assert is_prime(gens) == certificate, name


class TestRevlexBasis:
    def test_zerodivisor_leads(self):
        # x(y - z) lies in the ideal and y - z does not, so x is a zerodivisor
        a, b, c = x(1, 0), x(0, 1), x(0, 0)
        gens = [Binomial.make(mono(a, b), mono(a, c))]
        assert not ideal_membership(
            Binomial.make(mono(b), mono(c)), buchberger(gens, LEX)
        )
        assert any(exponent(g.plus, a) for g in revlex_basis(gens, (a,)))
        assert not toric.is_nonzerodivisor(gens, a)
        for v in (b, c):
            assert all(exponent(g.plus, v) == 0 for g in revlex_basis(gens, (v,)))
            assert toric.is_nonzerodivisor(gens, v)

    def test_last_variable_is_smallest(self, frame):
        v = x(0, 0)
        basis = revlex_basis(generators(frame), (v,))
        assert basis.order.variables[-1] == v
        assert len(set(basis.order.variables)) == 16

    def test_membership_with_outside_variable(self):
        # x(9,9) is not in the order's sequence; it ranks above all of it
        gens = generators(CellCollection([(0, 0), (1, 0)]))
        basis, lex = revlex_basis(gens, ()), buchberger(gens, LEX)
        w = mono(x(9, 9))
        member = Binomial(mono_mul(gens[0].plus, w), mono_mul(gens[0].minus, w))
        outsider = Binomial.make(mono(x(0, 0), x(9, 9)), mono(x(0, 1), x(9, 9)))
        for f, expected in ((member, True), (outsider, False)):
            assert ideal_membership(f, lex) is expected
            assert ideal_membership(f, basis) is expected
            assert (reduce(f, basis.elements, basis.order) is None) is expected

    def test_non_homogeneous_rejected(self):
        f = Binomial.make(mono(x(1, 0)), mono(x(0, 0), x(0, 0)))
        with pytest.raises(ValueError, match="not homogeneous"):
            revlex_basis([f], (x(0, 0),))
        with pytest.raises(ValueError, match="not homogeneous"):
            toric.is_nonzerodivisor([f], x(0, 0))
        with pytest.raises(ValueError, match="not homogeneous"):
            is_prime([f])
        with pytest.raises(ValueError, match="not homogeneous"):
            saturate([f])


class TestPrimality:
    def test_empty_ideal_prime(self):
        cert = is_prime([])
        assert cert.is_prime

    def test_single_minor_prime(self):
        cert = is_prime([inner_minor(Interval(Point(0, 0), Point(1, 1)))])
        assert cert.is_prime
        assert cert.lattice_saturated and cert.saturation_equal

    def test_square_difference_not_prime(self):
        f = Binomial.make(mono(x(0, 0), x(0, 0)), mono(x(0, 1), x(0, 1)))
        cert = is_prime([f])
        assert not cert.is_prime
        assert not cert.lattice_saturated
        assert isinstance(cert.witness, TorsionWitness)
        assert cert.witness.divisor == 2

    def test_unsaturated_ideal_not_prime(self):
        # xy - xz: saturation strictly bigger, lattice itself fine
        f = Binomial.make(mono(x(1, 0), x(0, 1)), mono(x(1, 0), x(0, 0)))
        cert = is_prime([f])
        assert not cert.is_prime
        assert cert.lattice_saturated
        assert not cert.saturation_equal
        assert cert.witness == Binomial.make(mono(x(0, 1)), mono(x(0, 0)))

    def test_json_projection(self):
        # prime --json and the survey rows print this dict as it is
        f = Binomial.make(mono(x(1, 0), x(0, 1)), mono(x(1, 0), x(0, 0)))
        cert = is_prime([f])
        assert list(cert.as_json().items()) == [
            ("verdict", "not_prime"),
            ("lattice_saturated", True),
            ("saturation_equal", False),
            ("witness", repr(cert.witness)),
        ]
        assert is_prime([]).as_json()["witness"] is None

    def test_frame_prime(self, frame):
        cert = is_prime(generators(frame))
        assert cert.is_prime

    def test_simple_shapes_prime(self, s_tetromino, u_pentomino, rect_2x3):
        for shape in (s_tetromino, u_pentomino, rect_2x3):
            assert is_prime(generators(shape)).is_prime

    def test_certificate_carries_lattice_rank(self, frame):
        gens = generators(frame)
        cert = is_prime(gens)
        assert cert.rank == oracles.exponent_lattice(gens).rank == 8
        assert is_prime([]).rank == 0
        # the rank is a by-product: not compared, not printed
        assert cert == PrimalityCertificate("prime", True, True, None)
        assert repr(cert) == "PrimalityCertificate(verdict='prime', lattice_saturated=True, " \
            "saturation_equal=True, witness=None)"


# cell collections whose ideals are not prime: each saturation is larger
NON_PRIME_COLLECTIONS = (
    CellCollection([(0, 1), (1, 0), (1, 2), (2, 1)]),
    CellCollection([(0, 0), (1, 1), (2, 0), (2, 2), (3, 1)]),
    CellCollection([(0, 1), (1, 0), (1, 2), (2, 0), (2, 1), (3, 1)]),
)


def saturation_outcome(saturation, gens, cap):
    """The saturation's result, or the element DegreeCapExceeded carries."""
    try:
        return saturation(gens, degree_cap=cap)
    except DegreeCapExceeded as exc:
        return exc.element


def byte_saturation(gens, *, degree_cap):
    return _saturation(gens, degree_cap=degree_cap, deadline=None)


class TestRevlexSaturationReference:
    """The byte-vector saturation loop against one full revlex_basis per step."""

    def test_equal_outputs(self, monkeypatch):
        assert not any(is_prime(generators(c)).is_prime for c in NON_PRIME_COLLECTIONS)
        for collection in list(REFERENCE_SHAPES) + list(NON_PRIME_COLLECTIONS):
            gens = list(generators(collection))
            want, want_equal = revlex_saturation(gens)
            assert byte_saturation(gens, degree_cap=DEFAULT_DEGREE_CAP)[1] == want_equal
            assert saturate(gens) == buchberger(want, LEX).elements, collection
            with monkeypatch.context() as m:
                m.setattr(toric, "_saturation", lambda *a, **k: (want, want_equal))
                certificate = is_prime(gens)
            assert is_prime(gens) == certificate, collection

    def test_random_homogeneous_binomials(self):
        # zerodivisors found after certified variables restart the counts
        rng = random.Random(1303)
        xs = [x(0, k) for k in range(5)]

        def monomial(degree):
            return Monomial((rng.choice(xs), 1) for _ in range(degree))

        changed = 0
        for _ in range(1000):
            gens = []
            for _ in range(rng.randint(1, 3)):
                degree = rng.randint(2, 3)
                a, b = monomial(degree), monomial(degree)
                if a != b:
                    gens.append(Binomial(a, b))
            want = revlex_saturation(gens)
            assert byte_saturation(gens, degree_cap=DEFAULT_DEGREE_CAP) == want, gens
            changed += not want[1]
        assert changed > 100

    def test_same_degree_cap_element(self):
        # truncated bases add the same elements in the same order
        for collection in list(REFERENCE_SHAPES) + list(NON_PRIME_COLLECTIONS):
            gens = list(generators(collection))
            for cap in (2, 3):
                assert saturation_outcome(byte_saturation, gens, cap) == saturation_outcome(
                    revlex_saturation, gens, cap
                ), (collection, cap)

    def test_frame_degree_caps(self):
        gens = list(generators(frame_shape()))
        with pytest.raises(DegreeCapExceeded) as want:
            revlex_saturation(gens, degree_cap=2)
        with pytest.raises(DegreeCapExceeded) as have:
            byte_saturation(gens, degree_cap=2)
        assert have.value.element == want.value.element
        assert byte_saturation(gens, degree_cap=3) == revlex_saturation(gens, degree_cap=3)

    def test_truncation_fires(self, monkeypatch):
        # 4x4 minus cell (1,1): 14 revlex bases of one prime ideal
        gens = list(generators(
            complement(Interval(Point(0, 0), Point(4, 4)), CellCollection([(1, 1)]))
        ))
        formed, bases = [], []
        complete = toric._complete
        monkeypatch.setattr(
            toric, "_complete", lambda *a: formed.append(complete(*a)) or formed[-1]
        )
        monkeypatch.setattr(
            oracles, "revlex_basis", lambda *a, **k: bases.append(revlex_basis(*a, **k)) or bases[-1]
        )
        assert byte_saturation(gens, degree_cap=DEFAULT_DEGREE_CAP) == (gens, True)
        assert revlex_saturation(gens) == (gens, True)
        assert len(formed) == len(bases) == 14
        assert sum(b.stats["s_pairs"] for b in bases) == 6408
        assert sum(formed) == 3120


class TestMonomialMap:
    def test_sources_sorted(self):
        t0, t1 = aux_var("t", 0), aux_var("t", 1)
        m = MonomialMap.of({x(1, 0): mono(t0, t1), x(0, 0): mono(t0, t0)})
        assert m.sources() == (x(0, 0), x(1, 0))

    def test_kernel_of_cycle_map(self):
        # four edges of a 4-cycle: kernel is the single 2-minor
        t = [aux_var("t", k) for k in range(4)]
        mapping = MonomialMap.of({
            x(0, 0): mono(t[0], t[1]),
            x(0, 1): mono(t[1], t[2]),
            x(1, 0): mono(t[0], t[3]),
            x(1, 1): mono(t[2], t[3]),
        })
        kernel = toric_ideal_of_map(mapping)
        assert kernel == (inner_minor(Interval(Point(0, 0), Point(1, 1))),)

    def test_repeated_image_gives_linear_kernel(self):
        t0, t1 = aux_var("t", 0), aux_var("t", 1)
        mapping = MonomialMap.of({
            x(0, 0): mono(t0, t1),
            x(0, 1): mono(t0, t1),
        })
        kernel = toric_ideal_of_map(mapping)
        assert kernel == (Binomial.make(mono(x(0, 1)), mono(x(0, 0))),)

    def test_injective_map_trivial_kernel(self):
        t0, t1 = aux_var("t", 0), aux_var("t", 1)
        mapping = MonomialMap.of({
            x(0, 0): mono(t0),
            x(0, 1): mono(t1),
        })
        assert toric_ideal_of_map(mapping) == ()

    def test_target_below_source_has_trivial_kernel(self):
        # targets need not rank above their sources
        assert toric_ideal_of_map(MonomialMap.of({x(1, 1): mono(x(0, 0))})) == ()

    def test_rejects_mixed_degree_images(self):
        t0, t1 = aux_var("t", 0), aux_var("t", 1)
        mapping = MonomialMap.of({x(0, 0): mono(t0), x(0, 1): mono(t0, t1)})
        with pytest.raises(ValueError):
            toric_ideal_of_map(mapping)

    def test_rejects_degree_zero_images(self):
        mapping = MonomialMap.of({x(0, 0): mono(), x(0, 1): mono()})
        with pytest.raises(ValueError):
            toric_ideal_of_map(mapping)


@functools.cache
def reference_maps() -> tuple[tuple[CellCollection, MonomialMap], ...]:
    """(shape, map) for labelings that meet every minor constraint of the shape.

    The grid labeling of every polyomino up to 5 cells and of the frame,
    and every labeling the search accepts or rejects as complete on those
    polyominoes and on three pairwise disjoint cells.
    """
    shapes = [s for n in range(1, 6) for s in enumerate_polyominoes(n)]
    pairs = [(s, bipartite_grid_labeling(s).monomial_map()) for s in shapes]
    for shape in shapes + [CellCollection([(0, 0), (0, 2), (2, 0)])]:
        pairs.extend(
            (shape, GraphLabeling(e.assignment).monomial_map())
            for e in search_labeling(shape).trace
            if e.kind in ("accept", "reject_labeling")
        )
    frame = frame_shape()
    pairs.append((frame, bipartite_grid_labeling(frame).monomial_map()))
    return tuple(pairs)


class TestEliminationReference:
    """The lattice route against eliminating the targets from source = image."""

    def test_equal_to_elimination(self):
        maps = [mapping for _, mapping in reference_maps()]
        assert len(maps) == 225
        for mapping in maps:
            assert toric_ideal_of_map(mapping) == elimination_toric_ideal_of_map(
                mapping
            ), mapping

    def test_strict_containment_labeling(self):
        # the one labeling of this shape whose kernel strictly contains the ideal
        shape = Polyomino([(0, 0), (0, 1), (0, 2), (0, 3), (0, 4), (1, 0), (1, 4)])
        strict = [
            e
            for e in search_labeling(shape).trace
            if e.kind == "reject_labeling" and "strictly" in e.detail
        ]
        assert len(strict) == 1
        mapping = GraphLabeling(strict[0].assignment).monomial_map()
        assert toric_ideal_of_map(mapping) == elimination_toric_ideal_of_map(mapping)


class TestSeededKernel:
    """Saturating the minors with the lattice basis, as the graph search does."""

    def test_equal_to_unseeded_kernel(self):
        # the minors lie in each kernel, so seeding with them changes nothing
        for shape, mapping in reference_maps():
            seeded = saturate([*generators(shape), *relation_binomials(mapping)])
            assert seeded == toric_ideal_of_map(mapping), mapping

    def test_needs_the_ideal_inside_the_kernel(self, unit_cell):
        # the diagonal's endpoints {0, 1, 2, 3} differ from the
        # anti-diagonal's {0, 1, 2, 4}, so the minor is outside the kernel
        mapping = GraphLabeling(
            (
                (x(0, 0), (0, 1)),
                (x(1, 1), (2, 3)),
                (x(0, 1), (0, 2)),
                (x(1, 0), (1, 4)),
            )
        ).monomial_map()
        gens = generators(unit_cell)
        assert gens == (inner_minor(Interval(Point(0, 0), Point(1, 1))),)
        assert relation_binomials(mapping) == []
        assert toric_ideal_of_map(mapping) == ()
        assert saturate([*gens, *relation_binomials(mapping)]) == gens


# the four 7-cell polyominoes whose search rejects a labeling by strict
# containment; test_graphrep checks their witnesses
STRICT_CONTAINMENT_SHAPES = (
    Polyomino([(0, 0), (0, 1), (1, 0), (2, 0), (3, 0), (3, 1), (4, 0)]),
    Polyomino([(0, 0), (0, 3), (1, 0), (1, 1), (1, 2), (1, 3), (1, 4)]),
    Polyomino([(0, 1), (1, 1), (2, 1), (2, 2), (3, 1), (4, 0), (4, 1)]),
    Polyomino([(0, 2), (1, 0), (1, 1), (1, 2), (1, 3), (1, 4), (2, 4)]),
)


def lattice_shapes():
    """Every polyomino of up to 5 cells, the frame and the localization family."""
    shapes = [s for n in range(1, 6) for s in enumerate_polyominoes(n)]
    shapes.append(frame_shape())
    shapes.extend(complement(b, inner) for b, inner in localization_family())
    return shapes


class TestLatticeStepReference:
    """_exponent_lattice and _relations against the matrix-type path they replace."""

    def test_rank_and_torsion_equal(self):
        f = Binomial.make(mono(x(0, 0), x(0, 0), x(1, 0)), mono(x(0, 1), x(0, 1), x(1, 1)))
        a, b, c = x(1, 0), x(0, 1), x(0, 0)
        cases = [generators(shape) for shape in lattice_shapes()] + [
            [Binomial.make(mono(c, c), mono(b, b))],
            [f],
            [Binomial(mono_mul(f.plus, f.plus), mono_mul(f.minus, f.minus))],
            [Binomial.make(mono(a, b), mono(a, c))],
        ]
        assert len(cases) == 91 + 1 + 20 + 4
        # several generators, so the witness depends on the row order
        rng = random.Random(1303)
        xs = [x(0, k) for k in range(5)]
        for _ in range(300):
            gens = []
            for _ in range(rng.randint(2, 3)):
                degree = rng.randint(2, 3)
                p, q = (Monomial((rng.choice(xs), 1) for _ in range(degree)) for _ in "pq")
                if p != q:
                    gens.append(Binomial(p, q))
            cases.append(gens)
        torsion = 0
        for gens in cases:
            want = oracles._rank_and_torsion(oracles.exponent_lattice(gens))
            assert _exponent_lattice(gens) == want, gens
            assert is_saturated_lattice(gens) == (want[1] is None, want[1])
            torsion += want[1] is not None
        assert torsion > 30

    def test_relations_equal(self):
        labelings = [bipartite_grid_labeling(shape) for shape in lattice_shapes()]
        for shape in STRICT_CONTAINMENT_SHAPES:
            (event,) = [
                e
                for e in search_labeling(shape).trace
                if e.detail == "labeling kernel strictly contains the ideal"
            ]
            labelings.append(GraphLabeling(event.assignment))
        maps = [lab.monomial_map() for lab in labelings]
        maps.extend(mapping for _, mapping in reference_maps())
        for mapping in maps:
            assert relation_binomials(mapping) == oracles._kernel_lattice(mapping), mapping
        for lab in labelings:
            # the search's matrix: vertex u is the target aux_var("t", u)
            edges = [dict.fromkeys(e, 1) for _, e in lab.edges]
            images = [dict(image.exps) for _, image in lab.monomial_map().assignment]
            assert _relations(edges) == _relations(images), lab


# a holed 9-cell shape whose ideal is not prime; images that also cancel
# common factors other than x_c reach a prime ideal along PHANTOM_PATH
HOLED_NOT_PRIME = CellCollection(
    [(0, 1), (0, 2), (0, 3), (1, 0), (1, 1), (1, 3), (1, 4), (2, 1), (2, 2)]
)
PHANTOM_PATH = (x(0, 1), x(2, 0), x(3, 1))


def saturation_route(gens):
    """is_prime with the localization steps switched off."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(toric, "_localization_steps", lambda *a, **k: None)
        return is_prime(gens)


def assert_routes_agree(collections):
    """Both routes give equal certificates and ranks; returns how many the steps proved."""
    stepped = 0
    for collection in collections:
        gens = generators(collection)
        have, want = is_prime(gens), saturation_route(gens)
        assert have == want and have.rank == want.rank, collection
        assert have.as_json() == want.as_json()
        assert have.is_prime or not have.steps
        stepped += bool(have.steps)
    return stepped


def box_collections(width, height):
    """Every nonempty collection of cells in a width x height box."""
    box = [(i, j) for i in range(width) for j in range(height)]
    return [
        CellCollection(cells)
        for k in range(1, len(box) + 1)
        for cells in itertools.combinations(box, k)
    ]


@functools.cache
def holed_rows(n):
    return tuple(shape for shape in enumerate_polyominoes(n) if not is_simple(shape))


def full_cancellation_image(gens, c, defined, image=toric._image):
    """toric._image, then every common factor cancelled, as localization cores are."""
    images = {}
    for g in image(gens, c, defined):
        plus, minus = dict(g.plus.exps), dict(g.minus.exps)
        for v in plus.keys() & minus.keys():
            low = min(plus[v], minus[v])
            plus[v] -= low
            minus[v] -= low
        f = Binomial.make(Monomial(plus.items()), Monomial(minus.items()))
        if f is not None:
            images.setdefault(f)
    return list(images)


class TestLocalizationSteps:
    def test_frame_and_holed_box_record_steps(self, frame):
        holed_box = complement(Interval(Point(0, 0), Point(4, 4)), CellCollection([(1, 1)]))
        for shape in (frame, holed_box):
            cert = is_prime(generators(shape))
            assert cert.is_prime and cert.steps
            assert cert == saturation_route(generators(shape))
        assert is_prime(generators(holed_box)).steps == (x(2, 2), x(0, 0))

    def test_steps_not_compared_or_printed(self, frame):
        cert = is_prime(generators(frame))
        assert cert.steps
        assert cert == PrimalityCertificate("prime", True, True, None)
        assert "steps" not in repr(cert)
        assert list(cert.as_json()) == ["verdict", "lattice_saturated", "saturation_equal", "witness"]
        back = pickle.loads(pickle.dumps(cert))
        assert back == cert and back.steps == cert.steps

    def test_counterexample_stays_not_prime(self, monkeypatch):
        cert = is_prime(generators(HOLED_NOT_PRIME))
        assert not cert.is_prime and cert.steps == ()
        # forced along the path, images with x_c alone cleared never reach a prime leaf
        path = list(PHANTOM_PATH)
        monkeypatch.setattr(
            toric,
            "_vertex",
            lambda gens: (c := path.pop(0), toric._definers(gens)[c]) if path else None,
        )
        assert toric._localization_steps(
            list(generators(HOLED_NOT_PRIME)), degree_cap=DEFAULT_DEGREE_CAP, deadline=None
        ) is None
        # while cancelling every common factor would prove it "prime"
        path[:] = PHANTOM_PATH
        monkeypatch.setattr(toric, "_image", full_cancellation_image)
        assert toric._localization_steps(
            list(generators(HOLED_NOT_PRIME)), degree_cap=DEFAULT_DEGREE_CAP, deadline=None
        ) == PHANTOM_PATH

    def test_no_circular_definer(self):
        # x(0,0)x(0,1) - x(0,0)x(0,2): each squarefree term shares a variable with the other side
        f = Binomial.make(mono(x(0, 0), x(0, 1)), mono(x(0, 0), x(0, 2)))
        assert toric._definers([f]) == {}
        assert toric._vertex([f]) is None
        cert = is_prime([f])
        assert not cert.is_prime and cert.steps == ()

    def test_definers_triangular(self):
        for shape in (frame_shape(), HOLED_NOT_PRIME, *holed_rows(9)[:20]):
            for c, defined in toric._definers(generators(shape)).items():
                assert defined
                for p, m in defined.items():
                    assert c not in m.vars() and p not in m.vars()
                    assert not m.vars() & defined.keys()

    def test_image_cancels_only_x_c(self):
        # x_p -> x(0,1)x(1,0)/x(0,0) in x_p x(2,1) - x(0,1)x(2,2) keeps the common x(0,1)
        c, p = x(0, 0), x(1, 1)
        defined = {p: mono(x(0, 1), x(1, 0))}
        f = Binomial.make(mono(p, x(2, 1)), mono(x(0, 1), x(2, 2)))
        definer = Binomial.make(mono(c, p), mono(x(0, 1), x(1, 0)))
        assert toric._image([definer, f], c, defined) == [
            Binomial.make(mono(x(0, 1), x(1, 0), x(2, 1)), mono(c, x(0, 1), x(2, 2)))
        ]

    def test_zerodivisor_vertex_falls_back(self):
        cert = is_prime(generators(HOLED_NOT_PRIME))
        c, _ = toric._vertex(generators(HOLED_NOT_PRIME))
        assert not toric.is_nonzerodivisor(generators(HOLED_NOT_PRIME), c)
        assert cert == saturation_route(generators(HOLED_NOT_PRIME))

    def test_degree_cap_falls_back(self, frame, monkeypatch):
        gens = generators(frame)

        def capped(*args, **kwargs):
            raise DegreeCapExceeded(gens[0], 1)

        monkeypatch.setattr(toric, "is_nonzerodivisor", capped)
        assert toric._localization_steps(list(gens), degree_cap=20, deadline=None) is None
        cert = is_prime(gens)
        assert cert.is_prime and cert.steps == ()

    def test_budget_propagates(self, frame):
        expired = Deadline(at=time.monotonic() - 1)
        with pytest.raises(BudgetExceeded):
            toric._localization_steps(list(generators(frame)), degree_cap=20, deadline=expired)


class TestStepsAgainstSaturation:
    """is_prime against the saturation route alone: equal certificates and ranks."""

    def test_small_polyominoes(self):
        shapes = [shape for n in range(1, 7) for shape in enumerate_polyominoes(n)]
        assert assert_routes_agree(shapes) > 0

    def test_family(self):
        ambients = [complement(b, inner) for b, inner in localization_family()]
        assert len(ambients) == 20
        assert assert_routes_agree(ambients) == 20

    def test_collections_in_3x3_box(self):
        collections = box_collections(3, 3)
        assert len(collections) == 511
        assert_routes_agree(collections)

    def test_non_prime_holed_9_cell_rows(self):
        rows = [s for s in holed_rows(9) if not is_prime(generators(s)).is_prime]
        assert len(rows) == 12
        assert assert_routes_agree(rows) == 0

    @pytest.mark.slow
    def test_holed_10_cell_rows(self):
        rows = holed_rows(10)
        assert len(rows) == 1516
        assert assert_routes_agree(rows) > 0

    @pytest.mark.slow
    def test_collections_in_4x3_box(self):
        collections = box_collections(4, 3)
        assert len(collections) == 4095
        assert_routes_agree(collections)


class TestNonzerodivisorReference:
    """is_nonzerodivisor's lane test against the Binomial route through buchberger."""

    @pytest.mark.slow
    def test_every_vertex(self):
        shapes = [
            *(shape for n in range(1, 7) for shape in enumerate_polyominoes(n)),
            *(complement(bounding, inner) for bounding, inner in localization_family()),
            *holed_rows(9),
        ]
        assert len(holed_rows(9)) == 272
        queries = zerodivisors = 0
        for shape in shapes:
            gens = list(generators(shape))
            for p in sorted(shape.vertex_set):
                v = point_var(p)
                want = oracles.leads_nonzerodivisor(gens, v)
                assert toric.is_nonzerodivisor(gens, v) == want, (shape, p)
                queries += 1
                zerodivisors += not want
        assert queries == 9573
        assert zerodivisors > 0

    def test_absent_variable(self):
        # x(9,9) is in no generator: it still gets a lane, and no lead holds it
        for gens in ([], list(generators(frame_shape()))):
            assert toric.is_nonzerodivisor(gens, x(9, 9))
            assert oracles.leads_nonzerodivisor(gens, x(9, 9))
