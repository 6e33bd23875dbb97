import hashlib
import itertools
import random
from collections import Counter

import pytest

from polyminor import graphrep, toric
from polyminor.binomials import Binomial, generators, inner_minor, point_var
from polyminor.geometry import (
    CellCollection,
    Interval,
    Point,
    Polyomino,
    complement,
    is_simple,
)
from polyminor.graphrep import (
    GraphLabeling,
    _Search,
    bipartite_grid_labeling,
    relation_constraints,
    search_labeling,
    verify_representation,
)
from polyminor.groebner import DEFAULT_DEGREE_CAP, Deadline, buchberger, ideal_membership
from polyminor.enumeration import enumerate_polyominoes
from polyminor.survey import row_id
from polyminor.toric import _relations, is_prime, toric_ideal_of_map

from oracles import (
    REFERENCE_SHAPES,
    SweepSearch,
    differential_shapes,
    exponent_lattice,
    interval_constraints,
    localization_family,
    trace_digest,
)


def x(i, j):
    return point_var(Point(i, j))


def relation_rank(lab):
    """Rank of the labeling's relation lattice, from the search's one Smith step."""
    return len(_relations([dict.fromkeys(e, 1) for _, e in lab.edges]))


def accepts(shape, lab):
    """The search's accept test on a labeling that meets every constraint."""
    certificate = is_prime(generators(shape))
    return certificate.is_prime and certificate.rank == relation_rank(lab)


class TestConstraints:
    def test_one_per_inner_interval(self, block_2x2, frame):
        assert len(relation_constraints(block_2x2)) == 9
        assert len(relation_constraints(frame)) == 20

    def test_sides_match_minor(self, unit_cell):
        (c,) = relation_constraints(unit_cell)
        assert set(c.left) == {x(0, 0), x(1, 1)}
        assert set(c.right) == {x(0, 1), x(1, 0)}

    def test_side_of(self, unit_cell):
        (c,) = relation_constraints(unit_cell)
        own, other = c.side_of(x(0, 0))
        assert set(own) == {x(0, 0), x(1, 1)}
        assert set(other) == {x(0, 1), x(1, 0)}


class TestConstraintsAgainstIntervals:
    """The constraints read off the generators against the interval reference."""

    @staticmethod
    def shapes():
        # the differential shapes, and four cells that share no lattice point
        return (*differential_shapes(), CellCollection([(0, 0), (0, 2), (2, 0), (2, 2)]))

    @staticmethod
    def fields(constraints):
        return tuple((c.index, c.left, c.right) for c in constraints)

    def test_reader_matches_reference(self):
        for shape in self.shapes():
            want = self.fields(interval_constraints(shape))
            assert self.fields(relation_constraints(shape)) == want

    def test_search_reads_the_same(self):
        for shape in self.shapes():
            state = _Search(shape, Deadline.unlimited(), DEFAULT_DEGREE_CAP)
            assert self.fields(state.constraints) == self.fields(interval_constraints(shape))


class TestGraphLabeling:
    def test_rejects_loop(self):
        with pytest.raises(ValueError):
            GraphLabeling(((x(0, 0), (1, 1)),))

    def test_rejects_repeated_edge(self):
        with pytest.raises(ValueError):
            GraphLabeling(((x(0, 0), (0, 1)), (x(0, 1), (0, 1))))

    def test_vertex_count(self):
        lab = GraphLabeling(((x(0, 0), (0, 1)), (x(0, 1), (1, 2))))
        assert lab.vertex_count == 3

    def test_monomial_map_images(self):
        lab = GraphLabeling(((x(0, 0), (2, 0)),))
        ((v, image),) = lab.monomial_map().assignment
        assert v == x(0, 0)
        assert {a.key for a in image.vars()} == {("t", 0), ("t", 2)}


class TestGridLabeling:
    def test_single_cell_is_four_cycle(self, unit_cell):
        lab = bipartite_grid_labeling(unit_cell)
        assert len(lab.edges) == 4
        assert lab.vertex_count == 4
        degree: dict[int, int] = {}
        for _, (u, v) in lab.edges:
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1
        assert set(degree.values()) == {2}

    def test_verifies_on_small_shapes(self, unit_cell, skew_tromino, s_tetromino):
        for shape in (unit_cell, skew_tromino, s_tetromino):
            assert verify_representation(shape, bipartite_grid_labeling(shape))

    def test_frame_locally_fine_globally_wrong(self, frame):
        lab = bipartite_grid_labeling(frame)
        assignment = lab.assignment
        for c in relation_constraints(frame):
            left = tuple(sorted(assignment[c.left[0]] + assignment[c.left[1]]))
            right = tuple(sorted(assignment[c.right[0]] + assignment[c.right[1]]))
            assert left == right  # every local multiset constraint holds
        assert not verify_representation(frame, lab)
        assert not accepts(frame, lab)

    def test_verdict_carries_accept_certificate(self, frame, u_pentomino, block_2x2):
        # quadrics refute every frame labeling before the lattice test
        assert search_labeling(frame).certificate is None
        for shape in (u_pentomino, block_2x2):
            gens = generators(shape)
            verdict = search_labeling(shape)
            assert verdict.representable
            assert verdict.certificate == is_prime(gens)
            assert verdict.certificate.rank == relation_rank(verdict.labeling)
            assert verdict.certificate.rank == exponent_lattice(gens).rank

    def test_frame_extra_kernel_element_crosses_hole(self, frame):
        lab = bipartite_grid_labeling(frame)
        kernel = toric_ideal_of_map(lab.monomial_map())
        fake = inner_minor(Interval(Point(1, 1), Point(2, 2)))
        kernel_basis = buchberger(kernel)
        ideal_basis = buchberger(generators(frame))
        assert ideal_membership(fake, kernel_basis)
        assert not ideal_membership(fake, ideal_basis)

    def test_u_pentomino_grid_fails(self, u_pentomino):
        # the full 3x4 vertex grid spans rectangles that are not inner
        lab = bipartite_grid_labeling(u_pentomino)
        assert not verify_representation(u_pentomino, lab)
        phantom = inner_minor(Interval(Point(1, 1), Point(2, 2)))
        kernel_basis = buchberger(toric_ideal_of_map(lab.monomial_map()))
        ideal_basis = buchberger(generators(u_pentomino))
        assert ideal_membership(phantom, kernel_basis)
        assert not ideal_membership(phantom, ideal_basis)

    def test_five_cell_failures_are_exactly_u_shapes(self):
        from polyminor.enumeration import enumerate_polyominoes

        u_orientations = {
            CellCollection([(0, 0), (0, 1), (0, 2), (1, 0), (1, 2)]).canonical_key(),
            CellCollection([(0, 0), (0, 1), (1, 0), (2, 0), (2, 1)]).canonical_key(),
            CellCollection([(0, 0), (0, 1), (1, 1), (2, 0), (2, 1)]).canonical_key(),
            CellCollection([(0, 0), (0, 2), (1, 0), (1, 1), (1, 2)]).canonical_key(),
        }
        failures = set()
        for shape in enumerate_polyominoes(5):
            lab = bipartite_grid_labeling(shape)
            verified = verify_representation(shape, lab)
            assert accepts(shape, lab) == verified, shape
            if not verified:
                failures.add(shape.canonical_key())
        assert failures == u_orientations


class TestVerify:
    def test_requires_total_labeling(self, unit_cell):
        partial = GraphLabeling(((x(0, 0), (0, 1)),))
        with pytest.raises(ValueError):
            verify_representation(unit_cell, partial)

    def test_wrong_graph_rejected(self, unit_cell):
        # a path on four edges has a free endpoint: kernel is trivial
        path = GraphLabeling((
            (x(0, 0), (0, 1)),
            (x(0, 1), (1, 2)),
            (x(1, 0), (2, 3)),
            (x(1, 1), (3, 4)),
        ))
        assert not verify_representation(unit_cell, path)


@pytest.fixture(scope="module")
def frame_verdict(frame):
    return search_labeling(frame)


class TestSearch:
    def test_single_cell_representable(self, unit_cell):
        verdict = search_labeling(unit_cell)
        assert verdict.representable
        assert verdict.labeling.vertex_count == 4
        assert verify_representation(unit_cell, verdict.labeling)

    def test_rect_2x3_representable(self, rect_2x3):
        verdict = search_labeling(rect_2x3)
        assert verdict.representable
        assert verify_representation(rect_2x3, verdict.labeling)

    def test_u_pentomino_representable_despite_grid_failure(self, u_pentomino):
        verdict = search_labeling(u_pentomino)
        assert verdict.representable
        assert verify_representation(u_pentomino, verdict.labeling)

    def test_frame_not_representable(self, frame_verdict):
        assert not frame_verdict.representable
        assert frame_verdict.labeling is None

    def test_frame_trace_structure(self, frame_verdict):
        kinds = [e.kind for e in frame_verdict.trace]
        assert kinds.count("seed") == 1  # one case up to vertex renaming
        assert kinds[-1] == "exhausted"
        assert "conflict" in kinds
        assert "reject_labeling" in kinds

    def test_frame_rejections_carry_hole_witness(self, frame, frame_verdict):
        # a full labeling passing local constraints dies on a kernel element
        rejections = [e for e in frame_verdict.trace if e.kind == "reject_labeling"]
        assert rejections
        ideal_basis = buchberger(generators(frame))
        for event in rejections:
            w = event.witness
            assert w is not None
            assert not ideal_membership(w, ideal_basis)
            lab = GraphLabeling(event.assignment)
            kernel_basis = buchberger(toric_ideal_of_map(lab.monomial_map()))
            assert ideal_membership(w, kernel_basis)

    def test_frame_trace_covers_proof_chain(self, frame_verdict):
        # seeding plus the forced cascade reaches all four chain variables
        assigned = {e.var for e in frame_verdict.trace if e.kind in ("assign", "force")}
        for event in frame_verdict.trace:
            if event.kind == "seed" and event.assignment:
                assigned.update(v for v, _ in event.assignment)
        for chain_var in (x(0, 3), x(1, 1), x(1, 0), x(2, 0)):
            assert chain_var in assigned

    def test_strict_containment_rejection(self):
        # three pairwise disjoint cells: one full labeling passes the quadric
        # test yet its kernel has a higher-degree element outside the ideal
        cells = CellCollection([(0, 0), (0, 2), (2, 0)])
        verdict = search_labeling(cells)
        assert verdict.representable
        strict = [
            e
            for e in verdict.trace
            if e.detail == "labeling kernel strictly contains the ideal"
        ]
        assert len(strict) == 1
        (event,) = strict
        assert event.witness.degree > 2
        lab = GraphLabeling(event.assignment)
        kernel_basis = buchberger(toric_ideal_of_map(lab.monomial_map()))
        assert ideal_membership(event.witness, kernel_basis)
        assert not ideal_membership(event.witness, buchberger(generators(cells)))

    @pytest.mark.parametrize(
        "ident",
        [
            "7c:0.0,0.1,1.0,2.0,3.0,3.1,4.0",
            "7c:0.0,0.3,1.0,1.1,1.2,1.3,1.4",
            "7c:0.1,1.1,2.1,2.2,3.1,4.0,4.1",
            "7c:0.2,1.0,1.1,1.2,1.3,1.4,2.4",
        ],
    )
    def test_strict_witness_matches_unseeded_kernel(self, ident):
        # the witness comes from the kernel seeded with the minors; it is the
        # first element of the unseeded kernel basis outside the ideal
        shape = CellCollection(
            tuple(map(int, cell.split("."))) for cell in ident[3:].split(",")
        )
        assert row_id(shape) == ident
        (event,) = [
            e
            for e in search_labeling(shape).trace
            if e.detail == "labeling kernel strictly contains the ideal"
        ]
        kernel = toric_ideal_of_map(GraphLabeling(event.assignment).monomial_map())
        ideal_basis = buchberger(generators(shape))
        assert event.witness == next(
            f for f in kernel if not ideal_membership(f, ideal_basis)
        )

    def test_requires_constraints(self):
        with pytest.raises(ValueError):
            search_labeling(CellCollection(()))

    def test_verdict_deterministic(self, frame, frame_verdict):
        again = search_labeling(frame)
        assert again.trace == frame_verdict.trace


# Vertex swaps fixing the seed's diagonal edges (0, 1) and (2, 3); they carry
# its anti-diagonal matching (0, 2), (1, 3) onto the three other matchings.
_DIAGONAL_SWAPS = ({0: 1, 1: 0}, {2: 3, 3: 2}, {0: 1, 1: 0, 2: 3, 3: 2})


def _renamed(edge, swap):
    u, v = (swap.get(w, w) for w in edge)
    return (u, v) if u <= v else (v, u)


class TestSeedSymmetry:
    def test_swapped_seeds_refute_alike(self):
        # searching the other three matchings refutes each family instance
        # with exactly the event counts of the one case search_labeling runs
        for bounding, inner in localization_family():
            ambient = complement(bounding, inner)
            verdict = search_labeling(ambient)
            assert not verdict.representable
            seed, *body, last = verdict.trace
            assert (seed.kind, last.kind) == ("seed", "exhausted")
            expected = Counter(e.kind for e in body)
            for swap in _DIAGONAL_SWAPS:
                state = _Search(ambient, Deadline.unlimited(), DEFAULT_DEGREE_CAP)
                for v, e in seed.assignment:
                    state.assign(v, _renamed(e, swap))
                assert state.snapshot() != seed.assignment
                assert state.dfs(0) is None
                assert Counter(e.kind for e in state.trace) == expected
                # the state is consistent after the refutation: used inverts
                # the assignment, the trail lists each assigned variable once,
                # and fresh vertices start above every assigned edge
                assert state.used == {e: v for v, e in state.assignment.items()}
                assert len(state.trail) == len(state.assignment)
                assert set(state.trail) == set(state.assignment)
                assert state.fresh[-1] == 1 + max(e[1] for e in state.assignment.values())


def ring(n):
    """The n x n box of cells minus its (n - 2) x (n - 2) centre."""
    return Polyomino(
        [(i, j) for i in range(n) for j in range(n)
         if not (0 < i < n - 1 and 0 < j < n - 1)]
    )


class TestBookkeeping:
    def test_sweep_oracle_traces_equal(self, monkeypatch):
        # dirty-set propagation and byte-count quadric groups give the
        # full sweep's and the sorted groups' statuses, labelings and
        # traces; whole traces, since a reordering can keep event counts
        shapes = [*REFERENCE_SHAPES, ring(4)]
        verdicts = [search_labeling(shape) for shape in shapes]
        monkeypatch.setattr(graphrep, "_Search", SweepSearch)
        for shape, v in zip(shapes, verdicts):
            o = search_labeling(shape)
            assert (v.status, v.labeling, v.trace) == (o.status, o.labeling, o.trace), shape

    @pytest.mark.parametrize(
        "n, digest",
        [
            (4, "3412300f18ea8fb4f86af4b2b33d71d127dd036cf715e0acfc0b1a68a300e55c"),
            (5, "fc2e18d798c26ff1714921ab0c6538f69c3df9d86351744484f661cba1c128c0"),
        ],
    )
    def test_ring_trace_pinned(self, n, digest):
        # the hollow squares' refutations, event for event
        verdict = search_labeling(ring(n))
        assert not verdict.representable
        assert trace_digest(verdict) == digest


class TestFreshBound:
    @pytest.mark.slow
    def test_fresh_at_most_twice_the_trail(self, monkeypatch):
        # no cap bounds the candidate vertices: this bound keeps every
        # branch finite, on connected and disconnected collections alike
        box = [(i, j) for i in range(3) for j in range(3)]
        shapes = [
            *(shape for n in range(1, 7) for shape in enumerate_polyominoes(n)),
            *(complement(bounding, inner) for bounding, inner in localization_family()),
            *(shape for shape in enumerate_polyominoes(9) if not is_simple(shape)),
            *(CellCollection(c) for k in range(1, 6) for c in itertools.combinations(box, k)),
        ]
        assert len(shapes) == 980
        tight = []
        assign = _Search.assign

        def checked(self, v, e):
            assign(self, v, e)
            assert self.fresh[-1] <= 2 * len(self.trail), (self.trail, e)
            tight.append(self.fresh[-1] == 2 * len(self.trail))

        monkeypatch.setattr(_Search, "assign", checked)
        for shape in shapes:
            search_labeling(shape)
        assert any(tight)  # by the seed's first edge at least


def relations_count(edges):
    """The number of kernel vectors of one Smith step on the edges' endpoints."""
    return len(_relations([dict.fromkeys(e, 1) for e in edges]))


class TestCountingAccept:
    """Accepting by E - V + b and quadric classes, with no Smith step or basis."""

    def test_six_cell_verdicts_pinned(self):
        # status, labeling, trace and certificate of every polyomino of at
        # most six cells, as the Smith-step accept and the LEX quadric test
        # gave them; the certificate's rank is not in its repr
        digest = hashlib.sha256()
        for n in range(1, 7):
            for shape in enumerate_polyominoes(n):
                v = search_labeling(shape)
                rank = None if v.certificate is None else v.certificate.rank
                digest.update(
                    repr((v.status, v.labeling, v.trace, v.certificate, rank)).encode()
                )
        assert digest.hexdigest() == (
            "c755b56d6cd32c18e292da788b9b7f97dcb0701212f822415a334bcedc5162c6"
        )

    def test_count_equals_smith_step_on_six_cells(self, monkeypatch):
        # every complete labeling that reaches the lattice test in survey(6),
        # whose rows run these searches
        counted = []
        rank = graphrep._relation_rank

        def checked(edges):
            counted.append(relations_count(edges))
            assert rank(edges) == counted[-1], edges
            return counted[-1]

        monkeypatch.setattr(graphrep, "_relation_rank", checked)
        for n in range(1, 7):
            for shape in enumerate_polyominoes(n):
                assert search_labeling(shape).representable
        assert len(counted) == 307

    def test_count_equals_smith_step_on_random_graphs(self):
        # disjoint unions of cycles with chords and pendant edges; odd
        # cycles make components non-bipartite, so E - V + components fails
        rng = random.Random(20)
        odd_and_split = 0
        for _ in range(300):
            edges: set[tuple[int, int]] = set()
            top = 0
            lengths = [rng.randint(2, 7) for _ in range(rng.randint(1, 4))]
            for k in lengths:
                ring = rng.sample(range(top, top + 2 * k), k)
                top += 2 * k + 1
                if k == 2:
                    edges.add(tuple(sorted(ring)))
                    continue
                for a, b in zip(ring, ring[1:] + ring[:1]):
                    edges.add((min(a, b), max(a, b)))
                for a in ring:
                    b = rng.choice(ring)
                    if a != b and rng.random() < 0.3:
                        edges.add((min(a, b), max(a, b)))
                if rng.random() < 0.5:
                    edges.add((ring[0], top - 1))
            edges = sorted(edges)
            assert graphrep._relation_rank(edges) == relations_count(edges), edges
            odd_and_split += len(lengths) > 1 and any(k % 2 for k in lengths)
        assert odd_and_split > 50

    def test_small_shapes_accept_without_basis_or_smith(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the accept path ran a basis or a Smith step")

        monkeypatch.setattr(graphrep, "buchberger", refuse)
        monkeypatch.setattr(graphrep, "_relations", refuse)
        monkeypatch.setattr(toric, "_relations", refuse)
        for n in range(1, 5):
            for shape in enumerate_polyominoes(n):
                verdict = search_labeling(shape)
                assert verdict.representable
                assert verdict.certificate.rank == relation_rank(verdict.labeling)

    @pytest.mark.parametrize(
        "ident, witness",
        [
            ("7c:0.0,0.1,1.0,2.0,3.0,3.1,4.0", "x(5,0)*x(3,0)*x(0,2) - x(3,2)*x(2,0)*x(0,0)"),
            ("7c:0.0,0.3,1.0,1.1,1.2,1.3,1.4", "x(1,5)*x(1,3)*x(0,0) - x(1,2)*x(1,0)*x(0,3)"),
            ("7c:0.1,1.1,2.1,2.2,3.1,4.0,4.1", "x(4,1)*x(2,3)*x(1,1) - x(4,0)*x(2,1)*x(0,1)"),
            ("7c:0.2,1.0,1.1,1.2,1.3,1.4,2.4", "x(3,4)*x(1,2)*x(1,0) - x(1,4)*x(1,1)*x(0,2)"),
        ],
    )
    def test_strict_witnesses_pinned(self, ident, witness):
        # the labelings the count rejects although no quadric refutes them
        shape = CellCollection(
            tuple(map(int, cell.split("."))) for cell in ident[3:].split(",")
        )
        verdict = search_labeling(shape)
        (event,) = [
            e
            for e in verdict.trace
            if e.detail == "labeling kernel strictly contains the ideal"
        ]
        assert repr(event.witness) == witness
        edges = [e for _, e in event.assignment]
        assert graphrep._relation_rank(edges) == relations_count(edges)
        assert relations_count(edges) == verdict.certificate.rank + 1
