"""Cross-module invariants checked on randomly grown shapes."""

from hypothesis import given, settings
from hypothesis import strategies as st

from polyminor.binomials import Binomial, generators
from polyminor.geometry import Polyomino
from polyminor.groebner import (
    buchberger,
    ideal_membership,
    quadratic_gb_condition,
    reduce,
)
from polyminor.toric import is_prime, saturate

from oracles import mono_mul, sparse_reduce


def grown_polyomino(max_steps: int = 5) -> st.SearchStrategy[Polyomino]:
    def grow(seed: list[int]) -> Polyomino:
        cells = [(0, 0)]
        for step in seed:
            base = cells[step % len(cells)]
            d = ((1, 0), (-1, 0), (0, 1), (0, -1))[step % 4]
            cells.append((base[0] + d[0], base[1] + d[1]))
        mi = min(i for i, _ in cells)
        mj = min(j for _, j in cells)
        return Polyomino((i - mi, j - mj) for i, j in cells)

    return st.lists(st.integers(min_value=0, max_value=97), max_size=max_steps).map(grow)


@given(grown_polyomino())
@settings(max_examples=30, deadline=None)
def test_quadratic_condition_matches_basis_computation(shape):
    # the combinatorial test agrees with actually running completion
    gens = generators(shape)
    assert quadratic_gb_condition(shape) == (set(buchberger(gens)) == set(gens))


@given(grown_polyomino())
@settings(max_examples=25, deadline=None)
def test_generators_lie_in_their_basis(shape):
    gens = generators(shape)
    basis = buchberger(gens)
    assert all(ideal_membership(g, basis) for g in gens)


@given(grown_polyomino())
@settings(max_examples=20, deadline=None)
def test_normal_form_idempotent(shape):
    gens = list(generators(shape))
    basis = list(buchberger(gens))
    probe = Binomial.make(mono_mul(gens[0].plus, gens[-1].plus), gens[0].minus)
    if probe is None:
        return
    nf = reduce(probe, basis)
    if nf is None:
        return
    assert reduce(nf, basis) == nf


@given(grown_polyomino())
@settings(max_examples=30, deadline=None)
def test_reduce_matches_sparse_reference(shape):
    # modulo the basis and modulo the bare generators, where choices show
    gens = list(generators(shape))
    probe = Binomial.make(mono_mul(gens[0].plus, gens[-1].plus), gens[0].minus)
    if probe is None:
        return
    for basis in (list(buchberger(gens)), gens):
        assert reduce(probe, basis) == sparse_reduce(probe, basis)


@given(grown_polyomino(max_steps=3))
@settings(max_examples=15, deadline=None)
def test_saturation_idempotent(shape):
    sat = saturate(generators(shape))
    assert saturate(sat) == sat


@given(grown_polyomino(max_steps=4))
@settings(max_examples=15, deadline=None)
def test_small_shapes_prime(shape):
    # every shape this small is simple, and simple shapes have prime ideals
    assert is_prime(generators(shape)).is_prime


@given(grown_polyomino())
@settings(max_examples=25, deadline=None)
def test_lattice_rank_bounded(shape):
    gens = generators(shape)
    rank = is_prime(gens).rank
    assert 0 < rank <= min(len(set(gens)), len({v for g in gens for v in g.vars()}))


@given(grown_polyomino(), st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6))
@settings(max_examples=25, deadline=None)
def test_quadratic_condition_translation_invariant(shape, di, dj):
    moved = Polyomino(shape.translate(di, dj))
    assert quadratic_gb_condition(moved) == quadratic_gb_condition(shape)
