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
        # each image, its common factor cancelled, has both sides in one quadric
        # class of P'
        def refuse(*args, **kwargs):
            raise AssertionError("built a LEX basis of P'")

        monkeypatch.setattr(localization, "buchberger", refuse)
        for bounding, inner in localization_family():
            assert verify_localization(bounding, inner).all_checks_pass

    @pytest.mark.parametrize("inside", [True, False])
    def test_other_cores_use_the_basis(self, monkeypatch, inside):
        # one extra image of the frame, a cubic with coprime sides, which no
        # quadric class places; in P' (the L tromino) the one inside is
        # x32 (x10 x21 - x11 x20) + x11 (x20 x32 - x22 x30), and the one
        # outside differs from it by x30 -> x31, since I_{P'} has no linear form
        last = (3, 0) if inside else (3, 1)
        extra = Binomial.make(
            Monomial.from_vars(map(point_var, [(1, 0), (2, 1), (3, 2)])),
            Monomial.from_vars(map(point_var, [(1, 1), (2, 2), last])),
        )
        ident = verify_localization(FRAME_BOUNDING, FRAME_HOLE).ident
        back = {point_var(d): point_var(s) for s, d in ident.items()}
        bases = []
        build = localization.buchberger
        monkeypatch.setattr(
            localization, "_image", lambda *a: toric._image(*a) + [_renamed(extra, back)]
        )
        monkeypatch.setattr(
            localization, "buchberger", lambda *a, **k: bases.append(a) or build(*a, **k)
        )
        report = verify_localization(FRAME_BOUNDING, FRAME_HOLE)
        assert len(bases) == 1
        assert report.checks["ideal_correspondence"] == inside


def _renamed(f: Binomial, names: dict) -> Binomial:
    return Binomial.make(*(
        Monomial((names.get(v, v), e) for v, e in side.exps) for side in (f.plus, f.minus)
    ))


def _step_args(report) -> tuple:
    """The corner variable and the corner triples' definers x_p -> x_r x_q."""
    box = report.bounding
    c = point_var(Point(box.lower_left.i, box.upper_right.j))
    return c, {
        point_var(t.p): Monomial.from_vars((point_var(t.r), point_var(t.q)))
        for t in report.corner_triples
    }


TAMPERED = [
    (FRAME_BOUNDING, FRAME_HOLE),
    (BIG_BOUNDING, CellCollection([(1, 1)])),
]


@pytest.mark.parametrize("bounding, inner", TAMPERED, ids=["frame", "4x4-minus-1.1"])
class TestTamperedStep:
    """Each tampering with the localization step fails ideal_correspondence."""

    def test_untampered_passes(self, bounding, inner):
        assert verify_localization(bounding, inner).checks["ideal_correspondence"]

    def test_image_times_a_variable(self, monkeypatch, bounding, inner):
        # a minor of P' that is now an image only after cancelling z: the
        # cancelled-core route accepted exactly this
        report = verify_localization(bounding, inner)
        minors = set(generators(report.p_prime))
        rename = {point_var(s): point_var(d) for s, d in report.ident.items()}
        tampered = []

        def image(*args):
            images = toric._image(*args)
            i = next(i for i, f in enumerate(images) if _renamed(f, rename) in minors)
            f = images[i]
            z = Monomial.from_vars([sorted(f.vars())[0]])
            images[i] = Binomial.make(mono_mul(f.plus, z), mono_mul(f.minus, z))
            tampered.append(f)
            return images

        monkeypatch.setattr(localization, "_image", image)
        report = verify_localization(bounding, inner)
        assert tampered and not report.checks["ideal_correspondence"]

    def test_identification_merges_two_variables(self, monkeypatch, bounding, inner):
        # an extra image: a copy of one whose renaming is a minor of P', with
        # one variable v moved to a fresh point y that the identification
        # sends to v's point; the renamed image keeps every minor and stays
        # in I_{P'}, so only the renaming's injectivity rejects it
        report = verify_localization(bounding, inner)
        rename = {point_var(s): point_var(d) for s, d in report.ident.items()}
        minors = set(generators(report.p_prime))
        step = localization._image
        images = step(generators(report.ambient), *_step_args(report))
        f = next(f for f in images if _renamed(f, rename) in minors)
        v, y = sorted(f.vars())[0], Point(-1, -1)
        copy = _renamed(f, {v: point_var(y)})
        shrink = localization._shrink

        def merged(*args):
            triples, removed, remaining, ident = shrink(*args)
            return triples, removed, remaining, {**ident, y: ident.get(v.point, v.point)}

        monkeypatch.setattr(localization, "_shrink", merged)
        monkeypatch.setattr(localization, "_image", lambda *a: step(*a) + [copy])
        report = verify_localization(bounding, inner)
        assert not report.checks["ideal_correspondence"]

    def test_definer_dropped(self, monkeypatch, bounding, inner):
        dropped = []

        def image(gens, c, defined):
            p = next(iter(defined))
            dropped.append(p)
            return toric._image(gens, c, {v: m for v, m in defined.items() if v != p})

        monkeypatch.setattr(localization, "_image", image)
        report = verify_localization(bounding, inner)
        assert dropped and not report.checks["ideal_correspondence"]


class TestCoreDifferential:
    """The localization step against the substitute-then-cancel route it replaced."""

    def test_correspondence_equals_reference(self, monkeypatch):
        # the family, then 6x6 boxes minus every interior rectangle
        box = Interval(Point(0, 0), Point(6, 6))
        spans = [(a, b) for a in range(1, 5) for b in range(a + 1, 6)]
        instances = localization_family() + [
            (box, CellCollection((i, j) for i in range(*cols) for j in range(*rows)))
            for cols in spans
            for rows in spans
        ]
        assert len(instances) == 120
        # the nonzerodivisor check reads no image, so it is skipped here
        steps = []
        monkeypatch.setattr(
            localization, "_image", lambda *a: steps.append(a) or toric._image(*a)
        )
        monkeypatch.setattr(localization, "nonzerodivisor_check", lambda *a, **k: True)
        for bounding, inner in instances:
            steps.clear()
            report = verify_localization(bounding, inner)
            assert report.all_checks_pass
            want = oracles.cancelled_correspondence(report)
            assert report.checks["ideal_correspondence"] == want, (bounding, inner)
            # the corner triples' definers are toric's definers at c
            (gens, c, defined), = steps
            assert c == point_var(Point(bounding.lower_left.i, bounding.upper_right.j))
            assert gens == generators(report.ambient)
            assert defined == toric._definers(gens)[c], (bounding, inner)
