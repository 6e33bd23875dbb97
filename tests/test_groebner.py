import hashlib
import pickle
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyminor.binomials import (
    LEX,
    ONE,
    Binomial,
    GradedRevlex,
    Monomial,
    aux_var,
    generators,
    inner_minor,
    point_var,
)
from polyminor.geometry import CellCollection, Interval, Point, Polyomino, complement
from polyminor.graphrep import search_labeling
from polyminor.localization import construct_p_prime
from polyminor.toric import is_prime, revlex_basis
import polyminor.groebner as groebner
from polyminor.groebner import (
    BudgetExceeded,
    Deadline,
    DegreeCapExceeded,
    GroebnerBasis,
    buchberger,
    ideal_membership,
    quadratic_gb_condition,
    quadric_classes,
    reduce,
    s_pair,
)

import oracles
from oracles import (
    REFERENCE_SHAPES,
    frame_shape,
    linear_step,
    localization_family,
    naive_fixed_polyominoes,
    rewrite_monomial,
    sparse_buchberger,
    sparse_reduce,
    sparse_s_pair,
)

# every polyomino of at most four cells, plus the frame
SMALL_SHAPES = [
    Polyomino(cells)
    for n in range(1, 5)
    for cells in sorted(naive_fixed_polyominoes(n), key=sorted)
] + [frame_shape()]


def x(i, j):
    return point_var(Point(i, j))


def mono(*vs):
    return Monomial.from_vars(vs)


def unit_minor(i, j):
    return inner_minor(Interval(Point(i, j), Point(i + 1, j + 1)))


def as_rule(f):
    lhs = {v: f.plus.exponent(v) for v in f.plus.vars()}
    rhs = {v: f.minus.exponent(v) for v in f.minus.vars()}
    return (lhs, rhs)


class TestSPair:
    def test_coprime_initials(self):
        # lcm cancels nothing: S-binomial mixes the two tails
        f = Binomial.make(mono(x(1, 1), x(0, 0)), mono(x(1, 0), x(0, 1)))
        g = Binomial.make(mono(x(3, 3), x(2, 2)), mono(x(3, 2), x(2, 3)))
        s = s_pair(f, g)
        assert s is not None
        sides = {s.plus, s.minus}
        assert sides == {
            mono(x(1, 1), x(0, 0), x(3, 2), x(2, 3)),
            mono(x(3, 3), x(2, 2), x(1, 0), x(0, 1)),
        }

    def test_overlapping_initials(self):
        f = unit_minor(0, 0)  # x00 x11 - x01 x10
        g = unit_minor(1, 1)  # x11 x22 - x12 x21
        s = s_pair(f, g)
        sides = {s.plus, s.minus}
        assert sides == {
            mono(x(0, 1), x(1, 0), x(2, 2)),
            mono(x(0, 0), x(1, 2), x(2, 1)),
        }

    def test_equal_binomials_give_none(self):
        f = unit_minor(0, 0)
        assert s_pair(f, f) is None


class TestReduce:
    def test_member_reduces_to_zero(self):
        f = unit_minor(0, 0)
        assert reduce(f, [f]) is None

    def test_untouched_stays(self):
        f = unit_minor(0, 0)
        g = unit_minor(5, 5)
        assert reduce(f, [g]) == f

    def test_one_step_substitution_example(self):
        # the two unit minors touching the main diagonal of a 2x2 block
        basis = [unit_minor(0, 0), unit_minor(1, 1)]
        f = Binomial(mono(x(0, 0), x(1, 1), x(2, 2)), ONE)
        got = reduce(f, basis)
        assert got == Binomial(mono(x(0, 1), x(1, 0), x(2, 2)), ONE)

    def test_example_agrees_with_brute_force_rewriter(self):
        basis = [unit_minor(0, 0), unit_minor(1, 1)]
        normals = rewrite_monomial(
            {x(0, 0): 1, x(1, 1): 1, x(2, 2): 1}, [as_rule(f) for f in basis]
        )
        # the pair is not confluent here: both one-step images are terminal
        assert normals == {
            ((x(0, 1), 1), (x(1, 0), 1), (x(2, 2), 1)),
            ((x(0, 0), 1), (x(1, 2), 1), (x(2, 1), 1)),
        }
        got = reduce(Binomial(mono(x(0, 0), x(1, 1), x(2, 2)), ONE), basis)
        assert tuple(sorted((v, got.plus.exponent(v)) for v in got.plus.vars())) in normals

    def test_full_basis_normal_form_unique(self, block_2x2):
        gb = buchberger(generators(block_2x2))
        normals = rewrite_monomial(
            {x(0, 0): 1, x(1, 1): 1, x(2, 2): 1}, [as_rule(f) for f in gb]
        )
        assert normals == {((x(0, 2), 1), (x(1, 1), 1), (x(2, 0), 1))}
        got = reduce(Binomial(mono(x(0, 0), x(1, 1), x(2, 2)), ONE), list(gb))
        assert got == Binomial(mono(x(0, 2), x(1, 1), x(2, 0)), ONE)


class TestBuchberger:
    def test_completion_adds_bridging_binomial(self):
        # the non-confluent pair must gain the S-binomial joining its two NFs
        gb = buchberger([unit_minor(0, 0), unit_minor(1, 1)])
        bridge = Binomial.make(
            mono(x(0, 1), x(1, 0), x(2, 2)), mono(x(0, 0), x(1, 2), x(2, 1))
        )
        assert ideal_membership(bridge, gb)
        assert len(gb) == 3

    def test_frame_gb_equals_generators(self, frame):
        gens = generators(frame)
        gb = buchberger(gens)
        assert set(gb) == set(gens)

    def test_2x2_block_gb_equals_generators(self, block_2x2):
        gens = generators(block_2x2)
        assert set(buchberger(gens)) == set(gens)

    def test_s_tetromino_gb_strictly_larger(self, s_tetromino):
        gens = generators(s_tetromino)
        gb = buchberger(gens)
        assert set(gens) < set(gb)
        assert max(f.degree for f in gb) == 3

    def test_gb_is_confluent_oracle(self, s_tetromino):
        # every S-binomial of the finished basis rewrites to a unique NF: zero
        gb = list(buchberger(generators(s_tetromino)))
        for i, f in enumerate(gb):
            for g in gb[i + 1:]:
                s = s_pair(f, g)
                if s is None:
                    continue
                assert reduce(s, gb) is None

    def test_reduced_basis_is_self_reduced(self, s_tetromino):
        gb = list(buchberger(generators(s_tetromino)))
        for i, f in enumerate(gb):
            rest = gb[:i] + gb[i + 1:]
            assert reduce(f, rest) == f

    def test_empty_input(self):
        assert len(buchberger([])) == 0

    def test_degree_cap_raises(self):
        # the S-pair of these two has degree 4, past the cap of 2
        f = Binomial.make(mono(x(1, 1), x(1, 1), x(0, 0)), mono(x(1, 0), x(0, 1), x(0, 1)))
        g = Binomial.make(mono(x(1, 1), x(0, 1)), mono(x(1, 0), x(0, 0)))
        with pytest.raises(DegreeCapExceeded) as exc:
            buchberger([f, g], degree_cap=2)
        assert exc.value.cap == 2
        assert exc.value.element.degree == 4

    def test_deadline_raises(self, frame):
        # the 6x6 rectangle has 441 generators, and the deadline is checked
        # once per generator while the pair queue is still being built
        rect_6x6 = Polyomino([(i, j) for i in range(6) for j in range(6)])
        for shape in (frame, rect_6x6):
            start = time.monotonic()
            with pytest.raises(BudgetExceeded):
                buchberger(generators(shape), deadline=Deadline(at=start - 1))
            assert time.monotonic() - start < 0.5

    def test_autoreduce_deadline_raises(self):
        rect_5x5 = Polyomino([(i, j) for i in range(5) for j in range(5)])
        with pytest.raises(BudgetExceeded):
            groebner._autoreduce(
                groebner._Vectors.of(generators(rect_5x5), LEX),
                LEX,
                Deadline(at=time.monotonic() - 1),
            )

    @pytest.mark.parametrize(
        "cells, expected",
        [
            ([(0, 0), (0, 1), (1, 0), (1, 1)], 17),
            ([(0, 0), (1, 0), (1, 1), (2, 1)], 17),
            ([(i, j) for i in range(3) for j in range(3) if (i, j) != (1, 1)], 48),
            ([(i, j) for i in range(5) for j in range(5)], 3200),
        ],
        ids=["block_2x2", "s_tetromino", "frame", "rect_5x5"],
    )
    def test_s_pair_call_count(self, cells, expected):
        # one S-pair per queued pair: those with coprime initial terms form none
        stats = buchberger(generators(Polyomino(cells))).stats
        assert stats["s_pairs"] == expected

    @pytest.mark.parametrize("order_name", ["lex", "grevlex"])
    def test_matches_sympy(self, order_name):
        import sympy

        for shape in SMALL_SHAPES:
            gens = generators(shape)
            variables = sorted({v for g in gens for v in g.vars()}, reverse=True)
            order = LEX if order_name == "lex" else GradedRevlex(variables)
            symbols = [sympy.Symbol(f"x_{v.key[0]}_{v.key[1]}") for v in variables]
            index = {v: k for k, v in enumerate(variables)}

            def to_expr(m):
                return sympy.Mul(*(symbols[index[v]] ** e for v, e in m.exps))

            exprs = [to_expr(g.plus) - to_expr(g.minus) for g in gens]
            expected = set()
            for poly in sympy.groebner(exprs, *symbols, order=order_name).polys:
                sides = {
                    int(coeff): Monomial(zip(variables, exps))
                    for exps, coeff in poly.terms()
                }
                assert sorted(sides) == [-1, 1]
                expected.add((sides[1], sides[-1]))
            got = {(g.plus, g.minus) for g in buchberger(gens, order)}
            assert got == expected, shape

    def test_result_deterministic(self, s_tetromino):
        a = buchberger(generators(s_tetromino))
        b = buchberger(generators(s_tetromino))
        assert tuple(a) == tuple(b)
        # sorted by the order's key; saturate and toric_ideal_of_map rely on it
        vectors = groebner._Vectors(LEX, {v for g in a for v in g.vars()})
        keys = [tuple(map(vectors.key, vectors.pair(g))) for g in a]
        assert keys == sorted(keys)


def first_saturation_order(gens):
    # _saturation's first revlex_basis: every variable pending, descending
    return GradedRevlex(sorted({v for g in gens for v in g.vars()}, reverse=True))


def with_marker(gens):
    # toric's old elimination input: m * v - 1 for the smallest variable v
    v = min(v for g in gens for v in g.vars())
    return list(gens) + [Binomial(Monomial(((aux_var("m", 0), 1), (v, 1))), ONE)]


class TestSparseReference:
    """The byte-vector engine against the sparse Monomial engine it replaced."""

    @pytest.fixture
    def reference(self, monkeypatch):
        # the reference's S-pairs formed, and its basis before inter-reduction
        formed, completed = [], []
        autoreduce = oracles._sparse_autoreduce
        monkeypatch.setattr(
            oracles, "sparse_s_pair", lambda *a: formed.append(a) or sparse_s_pair(*a)
        )
        monkeypatch.setattr(
            oracles,
            "_sparse_autoreduce",
            lambda basis, *a: completed.append(len(basis)) or autoreduce(basis, *a),
        )

        def check(gens, order):
            formed.clear()
            completed.clear()
            expected = sparse_buchberger(gens, order)
            got = buchberger(gens, order)
            assert got.elements == expected.elements
            assert got.stats["s_pairs"] == len(formed)
            assert got.stats["peak_size"] == completed[0]
            # each cap below the top degree stops at the first element past it
            for cap in range(2, got.stats["max_degree"]):
                with pytest.raises(DegreeCapExceeded) as want:
                    sparse_buchberger(gens, order, degree_cap=cap)
                with pytest.raises(DegreeCapExceeded) as have:
                    buchberger(gens, order, degree_cap=cap)
                assert have.value.element == want.value.element, cap
            return got.stats["max_degree"] > 2

        return check

    def test_shape_count(self):
        assert len(REFERENCE_SHAPES) == 91 + 20 + 1

    def test_lex(self, reference):
        capped = [reference(generators(shape), LEX) for shape in REFERENCE_SHAPES]
        assert sum(capped) > 5

    def test_first_saturation_order(self, reference):
        capped = 0
        for shape in REFERENCE_SHAPES:
            gens = generators(shape)
            capped += reference(gens, first_saturation_order(gens))
        assert capped > 5

    def test_marker_elimination(self, reference):
        # inhomogeneous, with many more steps between generators and basis
        for bounding, inner in localization_family():
            assert reference(with_marker(generators(complement(bounding, inner))), LEX)

    def test_reduce_and_s_pair_equal_on_generators(self):
        # the generators are not a basis, so the rewriting choices show
        for shape in REFERENCE_SHAPES:
            gens = list(generators(shape))
            probe = Binomial.make(gens[0].plus.mul(gens[-1].plus), gens[0].minus)
            assert reduce(probe, gens) == sparse_reduce(probe, gens), shape
            for f in gens[:3]:
                for g in gens:
                    assert s_pair(f, g) == sparse_s_pair(f, g), (f, g)


class TestLowerDegreePairs:
    """Inhomogeneous inputs, where a new element can pair below the open degree."""

    def test_random_against_sparse_reference(self, monkeypatch):
        formed = []
        monkeypatch.setattr(
            oracles, "sparse_s_pair", lambda *a: formed.append(a) or sparse_s_pair(*a)
        )
        rng = random.Random(5)
        xs = [x(0, k) for k in range(4)]

        def monomial(degree):
            return Monomial((rng.choice(xs), 1) for _ in range(degree))

        for _ in range(300):
            gens = []
            for _ in range(rng.randint(2, 3)):
                a, b = monomial(rng.randint(1, 3)), monomial(rng.randint(0, 2))
                if a != b:
                    gens.append(Binomial(a, b))
            formed.clear()
            try:
                want = sparse_buchberger(gens, LEX, degree_cap=12)
            except DegreeCapExceeded as exc:
                with pytest.raises(DegreeCapExceeded) as have:
                    buchberger(gens, LEX, degree_cap=12)
                assert have.value.element == exc.element, gens
                continue
            got = buchberger(gens, LEX, degree_cap=12)
            assert got.elements == want.elements, gens
            assert got.stats["s_pairs"] == len(formed), gens


class TestExponentLimit:
    def test_generator_past_limit_raises(self):
        big = Binomial(Monomial(((x(1, 0), 300),)), Monomial(((x(0, 0), 300),)))
        with pytest.raises(ValueError, match="255"):
            buchberger([big], degree_cap=400)

    def test_limit_itself_is_accepted(self):
        f = Binomial(Monomial(((x(1, 0), 255),)), Monomial(((x(0, 0), 255),)))
        assert buchberger([f], degree_cap=400).elements == (f,)

    def test_step_past_limit_raises(self):
        # y^2 -> y z^200 -> z^400
        y, z = x(1, 0), x(0, 0)
        rule = Binomial(mono(y), Monomial(((z, 200),)))
        with pytest.raises(ValueError, match="255"):
            reduce(Binomial(Monomial(((y, 2),)), ONE), [rule])
        with pytest.raises(ValueError, match="255"):
            buchberger([rule, Binomial(Monomial(((y, 2),)), mono(x(0, 1)))], degree_cap=1000)


class TestPackedKernels:
    """The packed-int kernels against the byte kernels they replaced."""

    EXPONENTS = (0, 1, 2, 127, 128, 254, 255)

    def vectors(self, rng, n):
        variables = [x(0, k) for k in range(n)]
        order = LEX if rng.random() < 0.5 else GradedRevlex(rng.sample(variables, n))
        return order, groebner._Vectors(order, variables)

    def test_against_byte_kernels(self):
        rng = random.Random(28)
        divided = raised = 0
        for trial in range(400):
            n = rng.randint(1, 300) if trial % 4 == 0 else rng.randint(1, 12)
            order, vectors = self.vectors(rng, n)

            def packed(exponents):
                return oracles.from_bytes(vectors, bytes(exponents))

            a, b = (bytes(rng.choice(self.EXPONENTS) for _ in range(n)) for _ in "ab")
            if rng.random() < 0.5:
                b = bytes(rng.choice([e for e in self.EXPONENTS if e <= ea]) for ea in a)

            def tail_exponent(ea, eb):
                # mostly within 255 after the shift a / b * tail, sometimes past it
                if rng.random() < 0.1:
                    return rng.choice(self.EXPONENTS)
                return rng.choice([e for e in self.EXPONENTS if e <= 255 - ea + eb])

            tail = bytes(map(tail_exponent, a, b))
            pa, pb, pt = packed(a), packed(b), packed(tail)
            assert oracles.to_bytes(vectors, pa) == a
            assert vectors.degree(pa) == sum(a)
            assert vectors.support(pa) == packed(oracles.byte_support(a)) << vectors.lane - 1
            assert vectors.lcm(pa, pb) == packed(oracles.byte_lcm(a, b))
            assert vectors.lcm(pb, pa) == packed(oracles.byte_lcm(a, b))
            if a != b:
                want = oracles.byte_orient(order, a, b)
                assert vectors.orient(pa, pb) == tuple(map(packed, want))
                assert vectors.key(pa) != vectors.key(pb)
            # divides, through step on the one element b - tail
            one = groebner._Vectors(order, vectors.variables)
            one.append(pb, pt)
            if not oracles.byte_divides(b, a):
                assert one.step(pa) is None
                continue
            divided += 1
            try:
                want = packed(oracles.byte_shift(a, b, tail))
            except ValueError:
                raised += 1
                with pytest.raises(ValueError, match="255"):
                    vectors.shift(pa, pb, pt)
                with pytest.raises(ValueError, match="255"):
                    one.step(pa)
            else:
                assert vectors.shift(pa, pb, pt) == want
                assert one.step(pa) == (None if b == bytes(n) else want)
        assert divided > 150 and raised > 20

    @pytest.mark.parametrize("n", [1, 2, 257, 258, 300])
    def test_limits(self, n):
        rng = random.Random(n)
        for order, vectors in (self.vectors(rng, n) for _ in range(4)):
            full = oracles.from_bytes(vectors, bytes([255]) * n)
            assert vectors.degree(full) == 255 * n
            assert vectors.support(full) == vectors.guard
            unit = vectors.units[vectors.variables[-1]]
            almost = full - unit  # 254 in the last lane
            assert vectors.shift(almost, 0, unit) == full
            with pytest.raises(ValueError, match="255"):
                vectors.shift(full, 0, unit)  # 256
            with pytest.raises(ValueError, match="255"):
                vectors.encode([(vectors.variables[0], 256)])

    def test_degree_past_a_16_bit_lane(self):
        # 300 exponents of 255 have degree 76500; taken modulo 2**16 - 1 it
        # would be 10965, and bottom below it would lead under GradedRevlex
        variables = [x(0, k) for k in range(300)]
        top = Monomial((v, 255) for v in variables)
        bottom = Monomial((v, 255) for v in variables[:100])
        f = Binomial(top, bottom)
        for order in (LEX, GradedRevlex(variables)):
            got = buchberger([Binomial(bottom, top)], order, degree_cap=10**5)
            want = sparse_buchberger([Binomial(bottom, top)], order, degree_cap=10**5)
            assert got.elements == want.elements == (f,)
            assert got.stats["max_degree"] == 76500
            assert ideal_membership(Binomial(bottom, top), got)


class TestQuadraticCondition:
    def test_skew_tromino_true(self, skew_tromino):
        assert quadratic_gb_condition(skew_tromino)

    def test_s_tetromino_false(self, s_tetromino):
        assert not quadratic_gb_condition(s_tetromino)

    def test_frame_true(self, frame):
        assert quadratic_gb_condition(frame)

    def test_rectangles_true(self, rect_2x3, block_2x2, unit_cell):
        assert quadratic_gb_condition(rect_2x3)
        assert quadratic_gb_condition(block_2x2)
        assert quadratic_gb_condition(unit_cell)

    def test_agrees_with_gb_on_small_corpus(self):
        from polyminor.enumeration import enumerate_polyominoes

        for n in range(1, 5):
            for shape in enumerate_polyominoes(n):
                gens = generators(shape)
                flat = set(buchberger(gens)) == set(gens)
                assert quadratic_gb_condition(shape) == flat, shape


class TestMembership:
    def test_generator_is_member(self, frame):
        gb = buchberger(generators(frame))
        for g in generators(frame):
            assert ideal_membership(g, gb)

    def test_hole_minor_not_member(self, frame):
        gb = buchberger(generators(frame))
        fake = inner_minor(Interval(Point(1, 1), Point(2, 2)))
        assert not ideal_membership(fake, gb)

    def test_product_combination_is_member(self, block_2x2):
        gb = buchberger(generators(block_2x2))
        # x00 x11 x22 - x02 x11 x20 lies in the ideal (NF computation above)
        f = Binomial.make(mono(x(0, 0), x(1, 1), x(2, 2)), mono(x(0, 2), x(1, 1), x(2, 0)))
        assert ideal_membership(f, gb)

    def test_ideal_equal(self, frame):
        # reduced bases are unique, so they decide equality of ideals
        gens = generators(frame)
        assert buchberger(gens).elements == buchberger(tuple(reversed(gens))).elements
        assert buchberger(gens).elements != buchberger(gens[:-1]).elements


class TestQuadricClasses:
    """The class test for quadrics against membership in a LEX basis."""

    def test_agrees_with_lex_membership(self):
        family = localization_family()
        collections = [
            *SMALL_SHAPES,
            *(complement(bounding, inner) for bounding, inner in family),
            *(construct_p_prime(bounding, inner)[0] for bounding, inner in family),
        ]
        outside = aux_var("z", 0)
        members = 0
        for collection in collections:
            gens = generators(collection)
            classes = quadric_classes(gens)
            basis = buchberger(gens, LEX)

            def check(u, v):
                f = Binomial.make(u, v)
                same = classes.get(u, u) == classes.get(v, v)
                assert same == ideal_membership(f, basis), (collection, f)
                return same

            # the ideal is homogeneous in columns and rows, so its quadrics
            # join monomials with equal column and row multisets
            variables = sorted(point_var(p) for p in collection.vertex_set)
            fibers: dict[tuple, list[Monomial]] = {}
            for k, a in enumerate(variables):
                for b in variables[k:]:
                    key = tuple(tuple(sorted(v.key[axis] for v in (a, b))) for axis in (0, 1))
                    fibers.setdefault(key, []).append(mono(a, b))
            firsts = [fiber[0] for fiber in fibers.values()]
            for fiber in fibers.values():
                for k, u in enumerate(fiber):
                    members += sum(check(u, v) for v in fiber[k + 1:])
            # controls outside the ideal: across fibers, and through a
            # variable that no generator has
            for u, v in zip(firsts, firsts[1:]):
                assert not check(u, v)
            assert not check(mono(variables[0], outside), mono(variables[-1], outside))
        assert members > len(collections)


class TestGroebnerBasisContainer:
    def test_contains_orients(self, frame):
        gb = buchberger(generators(frame))
        f = generators(frame)[0]
        flipped = Binomial(f.minus, f.plus)
        assert ideal_membership(flipped, gb)
        vectors = gb._vectors
        assert vectors.binomial(*vectors.orient(*vectors.pair(flipped))) == f
        assert f in set(gb)


def ring_cells(width, height):
    return [
        (i, j)
        for i in range(width)
        for j in range(height)
        if not (0 < i < width - 1 and 0 < j < height - 1)
    ]


def staircase_cells(steps):
    return sorted({(s + d, s) for s in range(steps) for d in range(2)})


class TestLowestVariableIndex:
    """step through the lowest-variable index against the scan of every lead."""

    def test_random_against_linear_scan(self):
        rng = random.Random(27)
        calls = rival_divisors = later_bucket = 0
        for trial in range(1000):
            variables = [x(0, k) for k in range(rng.randint(2, 7))]
            order = LEX if trial % 2 else GradedRevlex(variables)
            vectors = groebner._Vectors(order, variables)
            n = len(variables)
            # a few lowest positions, so that leads share them
            lows = rng.sample(range(n), rng.randint(1, min(n, 3)))

            def packed(exponents):
                return oracles.from_bytes(vectors, bytes(exponents))

            def lead():
                low = rng.choice(lows)
                v = [0] * low + [rng.randint(1, 3)]
                v += [rng.choice((0, 0, 1, 2, 3)) for _ in range(low + 1, n)]
                return packed(v)

            def monomial():
                return packed(rng.choice((0, 0, 1, 2)) for _ in range(n))

            def probe():
                if vectors.leads and rng.random() < 0.7:
                    base = oracles.to_bytes(vectors, rng.choice(vectors.leads))
                    return packed(e + rng.randint(0, 2) for e in base)
                return monomial()

            for _ in range(rng.randint(1, 4)):
                # appends after lookups, then tails rewritten in place
                for _ in range(rng.randint(1, 6)):
                    a, b = lead(), monomial()
                    if a != b:
                        vectors.append(*vectors.orient(a, b))
                if vectors.tails and rng.random() < 0.5:
                    k = rng.randrange(len(vectors.tails))
                    vectors.tails[k] = monomial()
                for _ in range(rng.randint(1, 6)):
                    y = probe()
                    calls += 1
                    assert vectors.step(y) == linear_step(vectors, y), (trial, y)
                    divisors = [
                        k
                        for k, m in enumerate(vectors.leads)
                        if oracles.byte_divides(*(oracles.to_bytes(vectors, z) for z in (m, y)))
                    ]
                    if divisors:
                        first, last = (
                            vectors.shift(y, vectors.leads[k], vectors.tails[k])
                            for k in (divisors[0], divisors[-1])
                        )
                        rival_divisors += first != last
                        # the first divisor is not in the list of y's lowest indexed bit
                        support = vectors.support(y) & vectors.lows
                        mask = vectors.masks[divisors[0]]
                        later_bucket += mask & -mask != support & -support
        # the cases where a wrong choice of divisor shows
        assert calls > 8000
        assert rival_divisors > 4000
        assert later_bucket > 2000

    def test_outputs_pinned(self):
        """Bases, counters and certificates as the scan of every lead gave them."""
        stair = staircase_cells(12)
        top = max(i for i, _ in stair)
        shapes = [complement(bounding, inner) for bounding, inner in localization_family()]
        shapes += [
            CellCollection(cells)
            for cells in (
                ring_cells(8, 8),
                stair,
                [(top - i, j) for i, j in stair],
                [(i, j) for i in range(5) for j in range(5)],
            )
        ]
        digest = hashlib.sha256()
        for shape in shapes:
            gens = generators(shape)
            basis = buchberger(gens)
            box = shape.bounding_interval()
            corner = point_var(Point(box.lower_left.i, box.upper_right.j))
            certificate = is_prime(gens)
            for part in (
                basis.elements,
                basis.stats,
                revlex_basis(gens, (corner,)).elements,
                certificate,
                certificate.rank,
            ):
                digest.update(repr(part).encode())
        assert digest.hexdigest() == (
            "cf9723e4d12f9a5511fecf54112a2fdb695d68ad31c3ad25b3b6a0de1cbeb0d0"
        )


class TestPickle:
    def test_lex_basis_round_trip(self):
        frame = frame_shape()
        box = Polyomino([(i, j) for i in range(4) for j in range(4) if (i, j) != (1, 1)])
        verdict = search_labeling(frame)
        witnesses = [e.witness for e in verdict.trace if e.kind == "reject_labeling"]
        assert witnesses
        probes = [*generators(frame), *generators(box), *witnesses]
        # members: each shape's own generators, and the frame's 20 in the box
        expected = {"frame": 20 + 20, "box": 20 + 64}
        for name, shape in (("frame", frame), ("box", box)):
            basis = buchberger(generators(shape), LEX)
            copy = pickle.loads(pickle.dumps(basis))
            assert copy == basis and copy.stats == basis.stats
            answers = [ideal_membership(f, basis) for f in probes]
            assert [ideal_membership(f, copy) for f in probes] == answers
            assert sum(answers) == expected[name]
            assert not any(ideal_membership(w, copy) for w in witnesses)
