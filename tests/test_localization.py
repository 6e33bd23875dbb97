import pytest

from polyminor import localization, toric
from polyminor.binomials import LEX, Binomial, Monomial, generators, point_var
from polyminor.geometry import Cell, CellCollection, Interval, Point, Polyomino, complement
from polyminor.groebner import buchberger, ideal_membership
from polyminor.localization import (
    CornerTriple,
    corner_set,
    nonzerodivisor_check,
    localization_hypotheses,
    verify_localization,
)

import oracles
from oracles import localization_family, marker_saturate, mono_mul

FRAME_BOUNDING = Interval(Point(0, 0), Point(3, 3))
FRAME_HOLE = CellCollection([(1, 1)])

BIG_BOUNDING = Interval(Point(0, 0), Point(4, 4))
BIG_HOLE = CellCollection([(1, 1), (1, 2), (2, 1), (2, 2)])


class TestHypotheses:
    def test_frame_instance_clean(self):
        assert localization_hypotheses(FRAME_BOUNDING, FRAME_HOLE) == ()

    def test_not_contained(self):
        assert localization_hypotheses(
            Interval(Point(0, 0), Point(2, 2)), CellCollection([(5, 5)])
        ) == ("not_contained",)

    def test_inner_not_polyomino(self):
        inner = CellCollection([(1, 1), (3, 1)])
        assert localization_hypotheses(Interval(Point(0, 0), Point(5, 3)), inner) == (
            "inner_not_polyomino",
        )

    def test_inner_not_convex(self, u_pentomino):
        inner = u_pentomino.translate(1, 1)
        assert localization_hypotheses(Interval(Point(0, 0), Point(4, 5)), inner) == (
            "inner_not_convex",
        )

    def test_touches_boundary(self):
        inner = CellCollection([(0, 0)])
        assert localization_hypotheses(Interval(Point(0, 0), Point(2, 2)), inner) == (
            "touches_boundary",
        )

    def test_spanning_strip_touches_boundary(self):
        # the complement check is only reached once the border is clear
        inner = CellCollection([(1, 0), (1, 1)])
        got = localization_hypotheses(Interval(Point(0, 0), Point(3, 2)), inner)
        assert got == ("touches_boundary",)


class TestCornerSet:
    def test_frame_corners(self):
        triples = corner_set(FRAME_BOUNDING, FRAME_HOLE)
        assert triples == (
            CornerTriple(Point(1, 0), Point(0, 0), Point(1, 3)),
            CornerTriple(Point(1, 1), Point(0, 1), Point(1, 3)),
            CornerTriple(Point(1, 2), Point(0, 2), Point(1, 3)),
            CornerTriple(Point(2, 2), Point(0, 2), Point(2, 3)),
            CornerTriple(Point(3, 2), Point(0, 2), Point(3, 3)),
        )

    def test_big_frame_corner_count(self):
        triples = corner_set(BIG_BOUNDING, BIG_HOLE)
        assert [t.p for t in triples] == [
            Point(1, 0), Point(1, 1), Point(1, 2), Point(1, 3),
            Point(2, 3), Point(3, 3), Point(4, 3),
        ]

    def test_each_corner_rectangle_avoids_inner(self):
        ambient = complement(FRAME_BOUNDING, FRAME_HOLE)
        for t in corner_set(FRAME_BOUNDING, FRAME_HOLE):
            rect = Interval(t.r, t.q)
            assert all(c in ambient.cells for c in rect.cells())


class TestNonzerodivisor:
    def test_frame_corner_clears_initial_terms(self, frame):
        assert nonzerodivisor_check(frame)

    def test_explicit_corner(self, frame):
        assert nonzerodivisor_check(frame, corner=Point(0, 3))

    def test_exact_on_every_vertex(self):
        # four cells around an empty centre, where x(1,1) is a zerodivisor
        cross = CellCollection([(0, 1), (1, 0), (1, 2), (2, 1)])
        gens = generators(cross)
        basis = buchberger(gens, LEX)
        verdicts = {}
        for p in sorted(cross.vertex_set):
            colon = marker_saturate(gens, [point_var(p)])
            regular = all(ideal_membership(f, basis) for f in colon)
            verdicts[p] = nonzerodivisor_check(cross, p)
            assert verdicts[p] == regular, p
        assert verdicts[Point(1, 1)] is False
        # the shared helper, with the generators passed in, says the same
        for p, verdict in verdicts.items():
            assert nonzerodivisor_check(cross, p, gens=gens) == verdict
            assert toric.is_nonzerodivisor(gens, point_var(p)) == verdict

    def test_generators_built_once(self, monkeypatch):
        built = []

        def counted(collection):
            built.append(collection)
            return generators(collection)

        monkeypatch.setattr(localization, "generators", counted)
        report = verify_localization(BIG_BOUNDING, BIG_HOLE)
        assert report.all_checks_pass
        ambient = complement(BIG_BOUNDING, BIG_HOLE)
        assert sum(c.cells == ambient.cells for c in built) == 1


class TestConstructPPrime:
    def test_frame_shrinks_to_l_tromino(self):
        report = verify_localization(FRAME_BOUNDING, FRAME_HOLE)
        assert isinstance(report.p_prime, Polyomino)
        assert {(c.i, c.j) for c in report.p_prime} == {(1, 0), (2, 0), (2, 1)}
        # the left segment's pairs first, then the top segment's
        assert list(report.ident.items()) == [
            (Point(0, 0), Point(1, 0)),
            (Point(0, 1), Point(1, 1)),
            (Point(2, 3), Point(2, 2)),
            (Point(3, 3), Point(3, 2)),
        ]

    def test_identification_fixes_unlisted_points(self):
        ident = verify_localization(FRAME_BOUNDING, FRAME_HOLE).ident
        assert ident.get(Point(2, 0), Point(2, 0)) == Point(2, 0)
        assert ident.get(Point(0, 0), Point(0, 0)) == Point(1, 0)


class TestVerifyLocalization:
    def test_frame_report(self):
        report = verify_localization(FRAME_BOUNDING, FRAME_HOLE)
        assert report.hypothesis_violations == ()
        assert len(report.corner_triples) == 5
        assert {(c.i, c.j) for c in report.removed_cells} == {
            (0, 0), (0, 1), (0, 2), (1, 2), (2, 2),
        }
        assert {(c.i, c.j) for c in report.p_prime} == {(1, 0), (2, 0), (2, 1)}
        assert report.checks == {
            "nonzerodivisor": True,
            "p_prime_polyomino": True,
            "p_prime_simple": True,
            "ideal_correspondence": True,
        }
        assert report.all_checks_pass

    def test_surviving_generator_is_p_prime_generator(self, frame):
        # the minor over cell (2,0) is untouched by substitution and renaming
        report = verify_localization(FRAME_BOUNDING, FRAME_HOLE)
        p_prime_gens = set(generators(report.p_prime))
        untouched = [
            g for g in generators(frame)
            if g.vars() <= {v for h in p_prime_gens for v in h.vars()}
        ]
        assert untouched
        for g in untouched:
            assert g in p_prime_gens

    def test_big_frame_report(self):
        report = verify_localization(BIG_BOUNDING, BIG_HOLE)
        assert report.all_checks_pass
        assert len(report.corner_triples) == 7

    def test_violating_instance_skips_checks(self, u_pentomino):
        inner = u_pentomino.translate(1, 1)
        report = verify_localization(Interval(Point(0, 0), Point(4, 5)), inner)
        assert report.hypothesis_violations == ("inner_not_convex",)
        assert report.checks == {}
        assert not report.all_checks_pass

    def test_tall_hole_instance(self):
        bounding = Interval(Point(0, 0), Point(3, 4))
        inner = CellCollection([(1, 1), (1, 2)])
        report = verify_localization(bounding, inner)
        assert report.all_checks_pass


class TestCoreMembership:
    def test_family_cores_need_no_basis(self, monkeypatch):
        # every core is a quadric, decided by the minors' quadric classes
        def refuse(*args, **kwargs):
            raise AssertionError("built a LEX basis of P'")

        monkeypatch.setattr(localization, "buchberger", refuse)
        for bounding, inner in localization_family():
            assert verify_localization(bounding, inner).all_checks_pass

    @pytest.mark.parametrize("inside", [True, False])
    def test_other_cores_use_the_basis(self, monkeypatch, inside):
        # the frame's first repeated core, made cubic: f z stays in I_{P'},
        # and f.plus (z - w) does not, since I_{P'} is prime
        seen, replaced, bases = set(), [], []
        core = localization._core_binomial
        build = localization.buchberger

        def cubic(*args):
            f = core(*args)
            if f is not None and f in seen and not replaced:
                replaced.append(f)
                z, w = (Monomial.from_vars([v]) for v in sorted(f.vars())[:2])
                if inside:
                    return Binomial.make(mono_mul(f.plus, z), mono_mul(f.minus, z))
                return Binomial.make(mono_mul(f.plus, z), mono_mul(f.plus, w))
            seen.add(f)
            return f

        monkeypatch.setattr(localization, "_core_binomial", cubic)
        monkeypatch.setattr(
            localization, "buchberger", lambda *a, **k: bases.append(a) or build(*a, **k)
        )
        report = verify_localization(FRAME_BOUNDING, FRAME_HOLE)
        assert replaced and len(bases) == 1
        assert report.checks["ideal_correspondence"] == inside


class TestCoreDifferential:
    """Each core against the substitute-then-cancel route it replaced."""

    def test_cores_equal_reference(self, monkeypatch):
        # the family, then 6x6 boxes minus every interior rectangle
        box = Interval(Point(0, 0), Point(6, 6))
        spans = [(a, b) for a in range(1, 5) for b in range(a + 1, 6)]
        instances = localization_family() + [
            (box, CellCollection((i, j) for i in range(*cols) for j in range(*rows)))
            for cols in spans
            for rows in spans
        ]
        assert len(instances) == 120
        # the nonzerodivisor check reads no core, so it is skipped here
        calls = []
        core = localization._core_binomial

        def record(gen, image):
            calls.append((gen, core(gen, image)))
            return calls[-1][1]

        monkeypatch.setattr(localization, "_core_binomial", record)
        monkeypatch.setattr(localization, "nonzerodivisor_check", lambda *a, **k: True)
        for bounding, inner in instances:
            calls.clear()
            report = verify_localization(bounding, inner)
            assert report.all_checks_pass
            cvar = point_var(Point(bounding.lower_left.i, bounding.upper_right.j))
            substitution = {
                point_var(t.p): (point_var(t.r), point_var(t.q))
                for t in report.corner_triples
            }
            rename = {point_var(s): point_var(d) for s, d in report.ident.items()}
            assert [gen for gen, _ in calls] == list(generators(report.ambient))
            for gen, got in calls:
                want = oracles._core_binomial(gen, substitution, cvar, rename)
                assert got == want, (bounding, inner, gen)
