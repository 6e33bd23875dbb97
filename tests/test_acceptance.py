"""Acceptance gate: eight criteria, one printed pass/fail line each.

Each criterion builds a JSON-compatible payload; criterion 8 reruns the
first seven from scratch and demands byte-identical serialization.
"""

import json
import time

import pytest

from polyminor.binomials import Binomial, Monomial, generators, inner_minor, point_var
from polyminor.enumeration import enumerate_polyominoes
from polyminor.geometry import (
    CellCollection,
    Interval,
    Point,
    complement,
    is_simple,
)
from polyminor.graphrep import (
    GraphLabeling,
    bipartite_grid_labeling,
    search_labeling,
    verify_representation,
)
from polyminor.groebner import buchberger, ideal_membership, quadratic_gb_condition
from polyminor.localization import verify_localization
from polyminor.toric import TorsionWitness, is_prime, saturate, toric_ideal_of_map

from oracles import frame_shape, localization_family, naive_fixed_polyominoes

_CACHE: dict[str, dict] = {}


@pytest.fixture(scope="module")
def announce(request):
    """Print one line per criterion on the real terminal, past capture."""
    manager = request.config.pluginmanager.getplugin("capturemanager")

    def emit(num: int, label: str, ok: bool) -> None:
        line = f"ACCEPTANCE {num} ({label}): {'PASS' if ok else 'FAIL'}"
        with manager.global_and_fixture_disabled():
            print(line, flush=True)

    return emit


def _run_criterion(
    announce, num: int, label: str, builder, limit_seconds: float | None = None
):
    start = time.monotonic()
    try:
        payload = builder()
        elapsed = time.monotonic() - start
        if limit_seconds is not None and elapsed >= limit_seconds:
            raise AssertionError(
                f"criterion {num} took {elapsed:.1f}s, limit {limit_seconds}s"
            )
    except BaseException:
        announce(num, label, False)
        raise
    _CACHE[f"c{num}"] = payload
    announce(num, label, True)


def _mono(*pts):
    return Monomial.from_vars(tuple(point_var(Point(*p)) for p in pts))


def _build_c1() -> dict:
    frame = frame_shape()
    gens = generators(frame)
    assert len(gens) == 20
    gb = buchberger(gens)
    assert set(gb) == set(gens)
    assert quadratic_gb_condition(frame)
    cert = is_prime(gens)
    assert cert.verdict == "prime"
    verdict = search_labeling(frame)
    assert verdict.status == "not_representable"
    return {
        "generators": len(gens),
        "gb_equals_generators": True,
        "quadratic_gb": True,
        "prime": cert.verdict,
        "graph_rep": verdict.status,
    }


def _build_c2() -> dict:
    counts = []
    checked = 0
    for n in range(1, 6):
        shapes = enumerate_polyominoes(n)
        counts.append(len(shapes))
        got = {frozenset((c.i, c.j) for c in p) for p in shapes}
        assert got == naive_fixed_polyominoes(n)
        for shape in shapes:
            gens = generators(shape)
            flat = set(buchberger(gens)) == set(gens)
            assert quadratic_gb_condition(shape) == flat, shape
            checked += 1
    assert counts == [1, 2, 6, 19, 63]
    return {"corpus_counts": counts, "checked": checked, "agreements": checked}


def _build_c3() -> dict:
    checked = 0
    for n in range(1, 6):
        for shape in enumerate_polyominoes(n):
            assert is_simple(shape)
            assert is_prime(generators(shape)).is_prime, shape
            checked += 1
    return {"checked": checked, "prime": checked}


def _build_c4() -> dict:
    square_diff = Binomial.make(_mono((0, 0), (0, 0)), _mono((0, 1), (0, 1)))
    cert = is_prime([square_diff])
    assert cert.verdict == "not_prime"
    assert isinstance(cert.witness, TorsionWitness)
    assert cert.witness.divisor == 2

    single = is_prime([inner_minor(Interval(Point(0, 0), Point(1, 1)))])
    assert single.verdict == "prime"

    ideals = [generators(frame_shape())]
    for n in range(1, 6):
        ideals.extend(generators(s) for s in enumerate_polyominoes(n))
    for gens in ideals:
        sat = saturate(gens)
        assert saturate(sat) == sat
    return {
        "square_difference": {
            "verdict": cert.verdict,
            "witness_divisor": cert.witness.divisor,
            "witness": repr(cert.witness.binomial),
        },
        "single_minor": single.verdict,
        "idempotent_ideals": len(ideals),
    }


def _is_frame_instance(bounding: Interval, inner: CellCollection) -> bool:
    return bounding == Interval(Point(0, 0), Point(3, 3)) and {
        (c.i, c.j) for c in inner
    } == {(1, 1)}


def _build_c5() -> dict:
    instances = localization_family()
    assert len(instances) == 20
    frame_data = None
    for bounding, inner in instances:
        report = verify_localization(bounding, inner)
        assert report.all_checks_pass, (bounding, inner)
        ambient = complement(bounding, inner)
        assert is_prime(generators(ambient)).is_prime, (bounding, inner)
        if _is_frame_instance(bounding, inner):
            frame_data = {
                "corner_count": len(report.corner_triples),
                "p_prime": sorted([c.i, c.j] for c in report.p_prime),
            }
    assert frame_data == {"corner_count": 5, "p_prime": [[1, 0], [2, 0], [2, 1]]}
    return {
        "instances": len(instances),
        "all_checks_pass": len(instances),
        "oracle_prime": len(instances),
        "frame": frame_data,
    }


def _build_c6() -> dict:
    instances = localization_family()
    frame_trace = None
    for bounding, inner in instances:
        ambient = complement(bounding, inner)
        verdict = search_labeling(ambient)
        assert verdict.status == "not_representable", (bounding, inner)
        assert verdict.trace
        if _is_frame_instance(bounding, inner):
            frame_trace = verdict.trace

    assert frame_trace is not None
    kinds = [e.kind for e in frame_trace]
    rejections = [e for e in frame_trace if e.kind == "reject_labeling"]
    conflicts = [e for e in frame_trace if e.kind == "conflict"]
    # both refutation styles occur: a completed labeling killed by a kernel
    # element outside the ideal, and dead ends with no viable edge left
    assert rejections and conflicts
    frame = frame_shape()
    ideal_basis = buchberger(generators(frame))
    for event in rejections:
        witness = event.witness
        assert witness is not None
        assert not ideal_membership(witness, ideal_basis)
        lab = GraphLabeling(event.assignment)
        kernel_basis = buchberger(toric_ideal_of_map(lab.monomial_map()))
        assert ideal_membership(witness, kernel_basis)
    return {
        "instances": len(instances),
        "not_representable": len(instances),
        "frame_trace": {
            "seeds": kinds.count("seed"),
            "rejections": len(rejections),
            "conflicts": len(conflicts),
            "events": len(frame_trace),
            "witnesses_outside_ideal": len(rejections),
        },
    }


def _build_c7() -> dict:
    checked = 0
    for n in range(1, 5):
        for shape in enumerate_polyominoes(n):
            assert verify_representation(shape, bipartite_grid_labeling(shape)), shape
            verdict = search_labeling(shape)
            assert verdict.representable, shape
            assert verify_representation(shape, verdict.labeling), shape
            checked += 1
    assert checked == 28
    return {
        "shapes": checked,
        "grid_verified": checked,
        "search_representable": checked,
    }


_BUILDERS = {
    1: _build_c1,
    2: _build_c2,
    3: _build_c3,
    4: _build_c4,
    5: _build_c5,
    6: _build_c6,
    7: _build_c7,
}


def test_criterion_1_flagship_instance(announce):
    _run_criterion(announce, 1, "flagship instance", _build_c1, limit_seconds=30)


def test_criterion_2_quadratic_basis_equivalence(announce):
    _run_criterion(
        announce, 2, "quadratic basis equivalence", _build_c2, limit_seconds=600
    )


def test_criterion_3_simple_shapes_prime(announce):
    _run_criterion(announce, 3, "simple shapes prime", _build_c3)


def test_criterion_4_certifier_unit_oracle(announce):
    _run_criterion(announce, 4, "certifier unit oracle", _build_c4)


def test_criterion_5_localization_sweep(announce):
    _run_criterion(announce, 5, "localization sweep", _build_c5, limit_seconds=900)


def test_criterion_6_refutation_sweep(announce):
    _run_criterion(announce, 6, "refutation sweep", _build_c6, limit_seconds=900)


def test_criterion_7_representability_positives(announce):
    _run_criterion(
        announce, 7, "representability positives", _build_c7, limit_seconds=600
    )


def test_criterion_8_deterministic_reports(announce):
    def build():
        first = {f"c{k}": _CACHE[f"c{k}"] for k in sorted(_BUILDERS)}
        second = {f"c{k}": _BUILDERS[k]() for k in sorted(_BUILDERS)}
        a = json.dumps(first, indent=2).encode()
        b = json.dumps(second, indent=2).encode()
        assert a == b
        return {"bytes": len(a), "identical": True}

    _run_criterion(announce, 8, "deterministic reports", build)
