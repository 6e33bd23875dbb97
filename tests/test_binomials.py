import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyminor.binomials import (
    LEX,
    ONE,
    Binomial,
    GradedRevlex,
    Monomial,
    Var,
    aux_var,
    generators,
    inner_minor,
    point_var,
)
from polyminor.enumeration import enumerate_polyominoes
from polyminor.geometry import CellCollection, Interval, Point, complement, inner_intervals
from polyminor.groebner import _Vectors

from oracles import frame_shape, localization_family, naive_inner_minor, order_cmp, oriented


def x(i: int, j: int) -> Var:
    return point_var(Point(i, j))


def mono(*vs: Var) -> Monomial:
    return Monomial.from_vars(vs)


def packed_key(order, variables):
    """The order's key of a monomial, through groebner's packed vectors."""
    vectors = _Vectors(order, variables)
    return lambda m: vectors.key(vectors.encode(m.exps))


def packed_cmp(order, a, b):
    key = packed_key(order, set(a.vars()) | set(b.vars()))
    ka, kb = key(a), key(b)
    return (ka > kb) - (ka < kb)


def var_strategy() -> st.SearchStrategy[Var]:
    coord = st.integers(min_value=0, max_value=5)
    return st.builds(lambda i, j: x(i, j), coord, coord)


def monomial_strategy() -> st.SearchStrategy[Monomial]:
    return st.lists(var_strategy(), max_size=6).map(Monomial.from_vars)


class TestVarOrder:
    def test_row_dominates(self):
        # x_(i,j) ranks above x_(k,l) when i > k
        assert x(1, 0) > x(0, 3)

    def test_column_breaks_ties(self):
        assert x(2, 4) > x(2, 1)
        assert x(2, 1) < x(2, 4)

    def test_equal(self):
        assert x(1, 1) == x(1, 1)
        assert not x(1, 1) < x(1, 1)

    def test_aux_vars_rank_above_points(self):
        assert aux_var("t", 0) > x(9, 9)

    def test_repr(self):
        assert repr(x(0, 2)) == "x(0,2)"
        assert repr(aux_var("t", 3)) == "t3"


class TestMonomial:
    def test_one(self):
        assert ONE.is_one()
        assert ONE.degree == 0
        assert repr(ONE) == "1"

    def test_mul_merges_exponents(self):
        m = mono(x(0, 0)).mul(mono(x(0, 0), x(1, 1)))
        assert m.exponent(x(0, 0)) == 2
        assert m.degree == 3

    def test_divides_and_div(self):
        big = mono(x(0, 0), x(0, 0), x(1, 1))
        small = mono(x(0, 0), x(1, 1))
        assert small.divides(big)
        assert not big.divides(small)
        assert big.div(small) == mono(x(0, 0))

    def test_div_requires_divisibility(self):
        with pytest.raises(ValueError):
            mono(x(0, 0)).div(mono(x(1, 1)))

    def test_gcd_lcm(self):
        a = mono(x(0, 0), x(0, 0), x(1, 0))
        b = mono(x(0, 0), x(0, 1))
        assert a.gcd(b) == mono(x(0, 0))
        assert a.lcm(b) == mono(x(0, 0), x(0, 0), x(1, 0), x(0, 1))

    def test_repr_sorted_descending(self):
        assert repr(mono(x(0, 0), x(1, 1))) == "x(1,1)*x(0,0)"

    def test_mixed_aux_and_point_exponents_sort_by_variable(self):
        m = Monomial(
            [(x(0, 3), 1), (aux_var("t", 5), 1), (x(2, 0), 2), (aux_var("y", 2), 3), (x(0, 3), 1)]
        )
        assert m.exps == (
            (aux_var("y", 2), 3), (aux_var("t", 5), 1), (x(2, 0), 2), (x(0, 3), 2)
        )

    @given(monomial_strategy(), monomial_strategy())
    @settings(max_examples=100)
    def test_gcd_lcm_product_identity(self, a, b):
        assert a.gcd(b).mul(a.lcm(b)) == a.mul(b)

    @given(monomial_strategy(), monomial_strategy())
    @settings(max_examples=100)
    def test_div_undoes_mul(self, a, b):
        assert a.mul(b).div(b) == a

    @given(monomial_strategy(), monomial_strategy())
    @settings(max_examples=100)
    def test_lex_respects_multiplication(self, a, b):
        # multiplying both sides by the same monomial keeps the comparison
        c = packed_cmp(LEX, a, b)
        m = mono(x(2, 2), x(0, 1))
        assert packed_cmp(LEX, a.mul(m), b.mul(m)) == c


class TestLexOrder:
    def test_matches_variable_order(self):
        assert packed_cmp(LEX, mono(x(1, 0)), mono(x(0, 5), x(0, 5))) > 0

    def test_degree_on_equal_leading_var(self):
        assert packed_cmp(LEX, mono(x(1, 1), x(1, 1)), mono(x(1, 1))) > 0

    def test_key_is_stable_sort_key(self):
        ms = [mono(x(0, 1)), mono(x(2, 0)), mono(x(1, 1), x(0, 0))]
        ordered = sorted(ms, key=packed_key(LEX, {v for m in ms for v in m.vars()}))
        assert ordered[0] == mono(x(0, 1))
        assert ordered[-1] == mono(x(2, 0))


class TestGradedRevlex:
    def test_degree_three_variables(self):
        # the textbook grevlex list with x > y > z
        a, b, c = x(0, 2), x(0, 1), x(0, 0)
        order = GradedRevlex((a, b, c))
        listed = [
            mono(a, a), mono(a, b), mono(b, b), mono(a, c), mono(b, c), mono(c, c)
        ]
        assert sorted(listed, key=packed_key(order, (a, b, c)), reverse=True) == listed
        assert packed_cmp(order, mono(c, c, c), mono(a, a)) > 0

    def test_last_variable_is_smallest(self):
        # sequence order, not the variable order, decides
        a, b = x(0, 0), x(3, 3)
        assert packed_cmp(GradedRevlex((a, b)), mono(a), mono(b)) > 0
        assert packed_cmp(GradedRevlex((b, a)), mono(a), mono(b)) < 0

    @given(monomial_strategy(), monomial_strategy())
    @settings(max_examples=100)
    def test_respects_multiplication(self, a, b):
        order = GradedRevlex(x(i, j) for i in range(6) for j in range(6))
        c = packed_cmp(order, a, b)
        m = mono(x(2, 2), x(0, 1))
        assert packed_cmp(order, a.mul(m), b.mul(m)) == c
        assert (c == 0) == (a == b)


class TestBinomial:
    def test_rejects_equal_sides(self):
        with pytest.raises(ValueError):
            Binomial(mono(x(0, 0)), mono(x(0, 0)))

    def test_make_orients(self):
        f = Binomial.make(mono(x(0, 0)), mono(x(1, 1)))
        assert f.plus == mono(x(1, 1))
        assert Binomial.make(mono(x(0, 0)), mono(x(0, 0))) is None

    def test_degree_is_max_side(self):
        f = Binomial.make(mono(x(1, 1), x(1, 0), x(0, 1)), mono(x(0, 0)))
        assert f.degree == 3

    def test_initial_term(self):
        f = inner_minor(Interval(Point(0, 0), Point(1, 1)))
        vectors = _Vectors(LEX, f.vars())
        lead, _ = vectors.orient(*vectors.pair(Binomial(f.minus, f.plus)))
        assert lead == vectors.encode(mono(x(0, 0), x(1, 1)).exps)


class TestByteOrdersAgainstSparseKeys:
    """groebner's packed layouts orient every pair as the oracle's sparse keys do."""

    VARIABLES = [x(i, j) for i in range(3) for j in range(3)] + [
        aux_var("t", k) for k in range(3)
    ]

    def pairs(self, seed):
        rng = random.Random(seed)

        def monomial():
            return Monomial(
                (rng.choice(self.VARIABLES), rng.randint(1, 3))
                for _ in range(rng.randint(0, 4))
            )

        def pair():
            a = monomial()
            if a.is_one() or rng.random() < 0.5:
                return a, monomial()
            # one unit of a moved to another variable: the two variables decide
            v, w = rng.choice(a.vars()), rng.choice(self.VARIABLES)
            return a, a.div(Monomial(((v, 1),))).mul(Monomial(((w, 1),)))

        return [pair() for _ in range(400)]

    def orders(self):
        # (order, its oracle reference); the last sequence leaves out the
        # aux variables, which then rank above it as in LEX
        rng = random.Random(7)
        shuffled = rng.sample(self.VARIABLES, len(self.VARIABLES))
        points = [v for v in shuffled if v.rank == 0]
        extended = sorted(set(self.VARIABLES) - set(points), reverse=True) + points
        yield LEX, LEX
        for sequence in (sorted(self.VARIABLES, reverse=True), sorted(self.VARIABLES), shuffled):
            order = GradedRevlex(sequence)
            yield order, order
        yield GradedRevlex(points), GradedRevlex(extended)

    def test_orient_matches_order_cmp(self):
        for order, reference in self.orders():
            for a, b in self.pairs(11):
                vectors = _Vectors(order, set(a.vars()) | set(b.vars()))
                ea, eb = vectors.encode(a.exps), vectors.encode(b.exps)
                c = order_cmp(reference, a, b)
                assert (vectors.key(ea) == vectors.key(eb)) == (c == 0)
                assert vectors.orient(ea, eb) == ((ea, eb) if c > 0 else (eb, ea)), (a, b)

    def test_make_matches_lex_orientation(self):
        for a, b in self.pairs(12):
            f = Binomial.make(a, b)
            if a == b:
                assert f is None
            else:
                assert f == oriented(Binomial(a, b), LEX), (a, b)


class TestInnerMinor:
    def test_unit_cell_minor(self):
        f = inner_minor(Interval(Point(0, 0), Point(1, 1)))
        assert f.plus == mono(x(0, 0), x(1, 1))
        assert f.minus == mono(x(0, 1), x(1, 0))

    def test_wide_interval_minor(self):
        f = inner_minor(Interval(Point(0, 1), Point(3, 2)))
        assert f.plus == mono(x(0, 1), x(3, 2))
        assert f.minus == mono(x(0, 2), x(3, 1))

    @given(
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=100)
    def test_diagonal_always_leads(self, i, j, w, h):
        f = inner_minor(Interval(Point(i, j), Point(i + w, j + h)))
        vectors = _Vectors(LEX, f.vars())
        assert vectors.orient(*vectors.pair(f)) == vectors.pair(f)
        corners = {v.point for v in f.plus.vars()}
        assert corners == {Point(i, j), Point(i + w, j + h)}


class TestGenerators:
    def test_unit_cell_single_generator(self, unit_cell):
        gens = generators(unit_cell)
        assert len(gens) == 1
        assert gens[0] == inner_minor(Interval(Point(0, 0), Point(1, 1)))

    def test_2x2_block_count(self, block_2x2):
        assert len(generators(block_2x2)) == 9

    def test_frame_has_20(self, frame):
        assert len(generators(frame)) == 20

    def test_frame_excludes_hole_minor(self, frame):
        fake = inner_minor(Interval(Point(1, 1), Point(2, 2)))
        assert fake not in set(generators(frame))

    def test_generators_deterministic(self, frame):
        assert generators(frame) == generators(frame)


def _ring(width: int, height: int) -> CellCollection:
    return CellCollection(
        (i, j)
        for i in range(width)
        for j in range(height)
        if not (0 < i < width - 1 and 0 < j < height - 1)
    )


def _comb(teeth: int, length: int) -> CellCollection:
    spine = {(i, 0) for i in range(2 * teeth - 1)}
    return CellCollection(spine | {(2 * t, j) for t in range(teeth) for j in range(1, length + 1)})


# every polyomino of at most six cells, the 20 family ambients, a 40x40 ring,
# a 15-tooth comb and a far pair of cells
DIFFERENTIAL_SHAPES = (
    [shape for n in range(1, 7) for shape in enumerate_polyominoes(n)]
    + [complement(bounding, inner) for bounding, inner in localization_family()]
    + [_ring(40, 40), _comb(15, 10), CellCollection([(0, 0), (300, 300)])]
)


class TestGeneratorsAgainstFromVars:
    """generators and inner_minor against the general-constructor reference."""

    @staticmethod
    def assert_same(got, want, pickled=True):
        assert len(got) == len(want)
        for f, g in zip(got, want):
            assert f == g and hash(f) == hash(g) and repr(f) == repr(g)
            assert (f.plus.exps, f.minus.exps) == (g.plus.exps, g.minus.exps)
            assert hash(f.plus) == hash(g.plus) and hash(f.minus) == hash(g.minus)
            if not pickled:  # unpickling runs Monomial.__init__
                continue
            assert pickle.dumps(f) == pickle.dumps(g)
            back = pickle.loads(pickle.dumps(f))
            assert back == g and (back.plus.exps, back.minus.exps) == (g.plus.exps, g.minus.exps)

    def test_shape_count(self):
        assert len(DIFFERENTIAL_SHAPES) == 307 + 20 + 3

    def test_generators_match_reference(self):
        for shape in DIFFERENTIAL_SHAPES:
            want = tuple(naive_inner_minor(iv) for iv in inner_intervals(shape))
            self.assert_same(generators(shape), want)

    def test_inner_minor_matches_reference(self):
        for iv in inner_intervals(_comb(15, 10)):
            self.assert_same((inner_minor(iv),), (naive_inner_minor(iv),))

    def test_no_general_constructor_call(self, monkeypatch):
        shapes = [frame_shape(), _comb(4, 3), CellCollection([(0, 0), (300, 300)])]
        want = [tuple(naive_inner_minor(iv) for iv in inner_intervals(s)) for s in shapes]

        def refuse(self, exps):
            raise AssertionError("Monomial.__init__ called")

        monkeypatch.setattr(Monomial, "__init__", refuse)
        for shape, ref in zip(shapes, want):
            self.assert_same(generators(shape), ref, pickled=False)
            minors = tuple(inner_minor(iv) for iv in inner_intervals(shape))
            self.assert_same(minors, ref, pickled=False)
